"""Ground-truth density maps and density-scale labels.

Dot annotations are arrays of (x, y) pixel coordinates, one per person,
0-indexed with 0 <= x < W and 0 <= y < H. A density map is a plain 2-D
float array whose sum equals the person count: each dot stamps a
Gaussian kernel (truncated at 4*sigma, clipped at the borders) that is
renormalized to sum to exactly 1. A map evaluates the Gaussian once, as
one table over the offsets, and normalizes a slice of it once per clip
shape, so each dot is one slice add.

Scale labels discretize counts into three equal-width bins over the
training-set range; the first two intervals are half-open, the last is
closed, and out-of-range counts clamp to the nearest class. The global
label bins the per-image total; the local label bins the count inside
the 64x64 window [h-32, h+32) x [w-32, w+32) around every pixel and is
then subsampled at stride 4 to match the attention-map resolution.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnnotationError, BinningError, ShapeError
from .ops import box_sum

LOCAL_RADIUS = 32  # half-width of the local counting window


@dataclass(frozen=True)
class ScaleBins:
    global_min: float
    global_max: float
    local_min: float
    local_max: float

    def __post_init__(self):
        if self.global_min > self.global_max:
            raise BinningError(f"global range inverted: [{self.global_min}, {self.global_max}]")
        if self.local_min > self.local_max:
            raise BinningError(f"local range inverted: [{self.local_min}, {self.local_max}]")


def bin_of(values, lo, hi):
    """Class in {1,2,3} for each value: [lo,e1), [e1,e2), [e2,hi] with
    equal widths; values outside [lo,hi] clamp to class 1 or 3."""
    width = (hi - lo) / 3.0
    v = np.asarray(values, dtype=np.float64)
    out = np.where(v < lo + width, 1, np.where(v < lo + 2 * width, 2, 3))
    return out if out.ndim else int(out)


SIGMA_RULE = "must be positive and finite, with 2*sigma^2 > 0 in float64"


def valid_sigma(sigma):
    """Whether sigma can width a Gaussian: see SIGMA_RULE."""
    return math.isfinite(sigma) and sigma > 0 and 2.0 * sigma * sigma > 0


def gaussian_density_map(points, height, width, sigma=4.0):
    """Sum of per-dot normalized Gaussian stamps; float64 [height, width].

    The Gaussian is evaluated once, over the offsets |dy| <= ry, |dx| <= rx
    with ry, rx = min(r, H), min(r, W) and r = ceil(4 sigma). A dot rounds
    to at most row H or column W, so its window clipped to the image is
    its window at ry, rx, and the int64 window arithmetic never sees r,
    which no int64 holds at sigma = 1e300. Each clip shape's slice of the
    table is normalized once per call, as a contiguous copy that sums in
    the same order as a stamp evaluated over its window alone: a map is
    byte-identical to per-dot stamping, and each dot is one slice add.
    """
    if not valid_sigma(sigma):
        raise ValueError(f"sigma {SIGMA_RULE}, got {sigma}")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    outside = np.flatnonzero(~((0 <= x) & (x < width) & (0 <= y) & (y < height)))
    if outside.size:
        i = outside[0]
        raise AnnotationError(
            f"dot {i} at ({x[i]}, {y[i]}) lies outside the {width}x{height} image"
        )
    m = np.zeros((height, width), dtype=np.float64)
    radius = math.ceil(4.0 * sigma)
    ry, rx = min(radius, height), min(radius, width)
    dy = np.arange(-ry, ry + 1)
    dx = np.arange(-rx, rx + 1)
    table = np.exp(-(dy[:, None] ** 2 + dx[None, :] ** 2) / (2.0 * sigma * sigma))
    centre = np.rint(pts[:, ::-1]).astype(np.int64)  # (row, column)
    lo = np.maximum(centre - (ry, rx), 0)
    hi = np.minimum(centre + (ry + 1, rx + 1), (height, width))
    stamps = {}
    for y0, x0, y1, x1, ty, tx in np.column_stack([lo, hi, lo - centre + (ry, rx)]).tolist():
        key = (ty, tx, y1 - y0, x1 - x0)
        stamp = stamps.get(key)
        if stamp is None:
            kernel = np.ascontiguousarray(table[ty:ty + y1 - y0, tx:tx + x1 - x0])
            stamp = stamps[key] = kernel / kernel.sum()
        m[y0:y1, x0:x1] += stamp
    return m


def compute_bins(train_maps):
    """Global and local count ranges over the training maps -> ScaleBins.

    Reads train_maps, any iterable, once, keeping only each map's count
    and the running local extremes, so a generator holds one map at a
    time."""
    counts, lmin, lmax = [], np.inf, -np.inf
    for m in train_maps:
        m = np.asarray(m, dtype=np.float64)
        counts.append(float(m.sum()))
        local = box_sum(m, LOCAL_RADIUS)
        lmin = min(lmin, float(local.min()))
        lmax = max(lmax, float(local.max()))
    if not counts:
        raise BinningError("cannot compute bins from an empty training set")
    gmin, gmax = min(counts), max(counts)
    if gmin == gmax:
        raise BinningError(
            f"degenerate training set: every image has count {gmin}; "
            "global bins need a non-empty range"
        )
    if lmin == lmax:
        raise BinningError(
            f"degenerate training set: every local window has count {lmin}"
        )
    return ScaleBins(global_min=gmin, global_max=gmax, local_min=lmin, local_max=lmax)


def global_scale_label(density_map, bins):
    """Class in {1,2,3} of the image's total count."""
    total = float(np.asarray(density_map, dtype=np.float64).sum())
    return int(bin_of(total, bins.global_min, bins.global_max))


def local_scale_map(density_map, bins):
    """Stride-4 grid of local-count classes; [H/4, W/4] in {1,2,3}."""
    m = np.asarray(density_map, dtype=np.float64)
    h, w = m.shape
    if h % 4 or w % 4:
        raise ShapeError(f"local labels need H,W divisible by 4, got {h}x{w}")
    local = box_sum(m, LOCAL_RADIUS)
    labels = bin_of(local, bins.local_min, bins.local_max)
    return np.ascontiguousarray(labels[0::4, 0::4])
