"""Synthetic crowd scenes and training-time augmentation.

Scenes are grayscale canvases in [0,1]: a textured noise background plus
one bright Gaussian blob per person, whose radius shrinks linearly from
4 px at the top edge to 1.5 px at the bottom (a cheap perspective
proxy). Everything is a pure function of its seed.

Augmentation is a multiple-of-4-aligned random square crop plus a 50%
horizontal flip, applied alike to an image and its density map; training
needs no dots once their map is made.
"""

import math

import numpy as np

from .errors import ShapeError

BLOB_RADIUS_TOP = 4.0
BLOB_RADIUS_BOTTOM = 1.5
BLOB_AMP_RANGE = (0.5, 0.9)
BACKGROUND_LEVEL = 0.3
BACKGROUND_NOISE = 0.015


def synth_scene(seed, height, width, count_range):
    """One scene -> (image [1,H,W] in [0,1], points [K,2] of (x, y))."""
    cmin, cmax = count_range
    if not (0 <= cmin <= cmax):
        raise ValueError(f"invalid count range ({cmin}, {cmax})")
    rng = np.random.default_rng(seed)
    k = int(rng.integers(cmin, cmax + 1))

    coarse = rng.uniform(0.0, BACKGROUND_LEVEL, (height // 8 + 1, width // 8 + 1))
    img = np.kron(coarse, np.ones((8, 8)))[:height, :width]
    img = img + rng.normal(0.0, BACKGROUND_NOISE, (height, width))
    np.clip(img, 0.0, BACKGROUND_LEVEL, out=img)

    points = np.empty((k, 2), dtype=np.float64)
    for i in range(k):
        # dots stay within the pixel centers [0, W-1] x [0, H-1]
        x = rng.uniform(0.0, width - 1.0)
        y = rng.uniform(0.0, height - 1.0)
        points[i] = (x, y)
        span = BLOB_RADIUS_TOP - BLOB_RADIUS_BOTTOM
        r = BLOB_RADIUS_TOP - span * (y / max(height - 1.0, 1.0))
        amp = rng.uniform(*BLOB_AMP_RANGE)
        sig = r / 2.0
        reach = math.ceil(3.0 * sig)
        cx, cy = int(round(x)), int(round(y))
        y0, y1 = max(0, cy - reach), min(height, cy + reach + 1)
        x0, x1 = max(0, cx - reach), min(width, cx + reach + 1)
        dy = np.arange(y0, y1) - y
        dx = np.arange(x0, x1) - x
        img[y0:y1, x0:x1] += amp * np.exp(
            -(dy[:, None] ** 2 + dx[None, :] ** 2) / (2.0 * sig * sig)
        )
    np.clip(img, 0.0, 1.0, out=img)
    return img[None, :, :], points


def augment(image, density, seed, crop):
    """Seeded random aligned crop of an image and its density map, both
    mirrored on the same 50% coin."""
    _, h, w = image.shape
    if crop % 4:
        raise ShapeError(f"crop size must be divisible by 4, got {crop}")
    if crop > min(h, w):
        raise ShapeError(f"crop {crop} exceeds image size {h}x{w}")
    rng = np.random.default_rng(seed)
    top = 4 * int(rng.integers(0, (h - crop) // 4 + 1))
    left = 4 * int(rng.integers(0, (w - crop) // 4 + 1))
    img = image[:, top:top + crop, left:left + crop]
    den = density[top:top + crop, left:left + crop]
    if rng.integers(0, 2):
        img, den = img[:, :, ::-1], den[:, ::-1]
    return np.ascontiguousarray(img), np.ascontiguousarray(den)
