"""On-disk formats: PGM images, annotation text, density maps, manifests.

  Images       binary PGM (P5), 8-bit grayscale, loaded as v/255.
  Annotations  UTF-8 text, one "x,y" pair per line, finite decimal floats, LF.
  Density map  magic "SAANDM1\\n", u32 LE height, u32 LE width, then
               height*width 32-bit LE floats in row-major order,
               each finite. A ground-truth map's values are also >= 0
               (a predicted map's need not be).
  Manifest     JSON {"items":[{"image","ann","split"}], "bins": null |
               {"global":[min,max], "local":[min,max]}}; paths are
               relative to the manifest's directory. Ground-truth maps
               live at <manifest dir>/density/<image stem>.dm, so items
               that share a stem must share their image and annotation.

All loaders fail with structured errors (byte offsets for binary
formats, line numbers for text) instead of propagating junk. Density
maps, manifests and checkpoints are written through atomic_open, so a
failed write leaves the previous file as it was.
"""

import contextlib
import functools
import json
import math
import os
import shutil
import struct
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .density import ScaleBins
from .errors import AnnotationError, CodecError, ManifestError

DENSITY_MAGIC = b"SAANDM1\n"
SPLITS = ("train", "val", "test")


@contextlib.contextmanager
def atomic_open(path, mode, **kwargs):
    """Open a temporary file beside path for writing. It replaces path
    (os.replace) when the block ends and is removed if the block raises,
    so path holds either its old bytes or the whole new file. The new file
    takes an existing path's mode; a link at path is replaced, not
    written through. An OSError on the temporary file names path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def names_its_file(load):
    """Decorate a loader load(path) so that its CodecErrors name path."""
    @functools.wraps(load)
    def load_named(path):
        try:
            return load(path)
        except CodecError as exc:
            if exc.path is not None:
                raise
            raise CodecError(exc.reason, exc.offset, path=path) from None
    return load_named


# ---------------------------------------------------------------- PGM

def write_pgm(path, image01):
    """Quantize a [H,W] array in [0,1] to 8 bits and write binary PGM."""
    arr = np.asarray(image01, dtype=np.float64)
    if arr.ndim != 2:
        raise CodecError(f"pgm writer expects a 2-D image, got rank {arr.ndim}")
    data = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


@names_its_file
def read_pgm(path):
    """Binary PGM -> float32 [H,W] in [0,1] (v/255)."""
    with open(path, "rb") as fh:
        buf = fh.read()

    pos = 0

    def token():
        nonlocal pos
        while pos < len(buf):
            if buf[pos : pos + 1].isspace():
                pos += 1
            elif buf[pos : pos + 1] == b"#":  # comment to end of line
                while pos < len(buf) and buf[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise CodecError("pgm header truncated", offset=start)
        return buf[start:pos]

    def number():
        tok = token()
        if not tok.isdigit():  # int() would take signs and underscores
            raise CodecError(f"pgm header field {tok!r} is not decimal digits",
                             offset=pos - len(tok))
        try:
            return int(tok)
        except ValueError as exc:  # more digits than int() converts
            raise CodecError(f"malformed pgm header: {exc}", offset=pos - len(tok))

    magic = token()
    if magic != b"P5":
        raise CodecError(f"not a binary pgm (magic {magic!r})", offset=0)
    width, height, maxval = number(), number(), number()
    if maxval != 255:
        raise CodecError(f"only 8-bit pgm supported, maxval {maxval}", offset=pos)
    if width <= 0 or height <= 0:
        raise CodecError(f"pgm dimensions must be positive, got {width}x{height}", offset=pos)
    pos = min(pos + 1, len(buf))  # single whitespace byte after maxval, unless at EOF
    need = width * height
    if len(buf) - pos < need:
        raise CodecError(
            f"pgm data truncated: need {need} bytes, have {len(buf) - pos}", offset=pos
        )
    data = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos)
    return (data.reshape(height, width).astype(np.float32)) / np.float32(255.0)


# -------------------------------------------------------- annotations

def write_annotations(path, points):
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y in pts:
            fh.write(f"{float(x)!r},{float(y)!r}\n")


def read_annotations(path):
    points = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise AnnotationError(f"{path}: not UTF-8 text: {exc}")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise AnnotationError(f"{path}:{lineno}: expected 'x,y', got {line!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise AnnotationError(f"{path}:{lineno}: non-numeric coordinate in {line!r}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise AnnotationError(f"{path}:{lineno}: non-finite coordinate in {line!r}")
        # float() also reads 1_0 and non-ASCII digits; once it has read a
        # finite pair, an ASCII line without "_" holds two decimal numbers
        if "_" in line or not line.isascii():
            raise AnnotationError(f"{path}:{lineno}: non-numeric coordinate in {line!r}")
        points.append((x, y))
    return np.array(points, dtype=np.float64).reshape(-1, 2)


# ------------------------------------------------------- density maps

def save_density(path, density):
    arr = np.asarray(density)
    if arr.ndim != 2:
        raise CodecError(f"density maps are 2-D, got rank {arr.ndim}")
    with atomic_open(path, "wb") as fh:
        fh.write(DENSITY_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(np.ascontiguousarray(arr, dtype="<f4"))


@names_its_file
def load_density(path):
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < len(DENSITY_MAGIC) or buf[: len(DENSITY_MAGIC)] != DENSITY_MAGIC:
        raise CodecError(f"bad density magic {buf[:8]!r}", offset=0)
    off = len(DENSITY_MAGIC)
    if len(buf) < off + 8:
        raise CodecError("density header truncated", offset=off)
    height, width = struct.unpack_from("<II", buf, off)
    off += 8
    need = height * width * 4
    if len(buf) - off < need:
        raise CodecError(
            f"density data truncated: need {need} bytes, have {len(buf) - off}",
            offset=off,
        )
    if len(buf) - off > need:
        raise CodecError(f"{len(buf) - off - need} trailing bytes", offset=off + need)
    density = np.frombuffer(buf, dtype="<f4", count=height * width, offset=off).reshape(
        height, width
    ).copy()
    _refuse_first(path, density, ~np.isfinite(density), "is not finite")
    return density


def load_ground_truth(path):
    """A ground-truth density map: load_density, and no value below 0."""
    density = load_density(path)
    _refuse_first(path, density, density < 0, "is negative in a ground-truth map")
    return density


def _refuse_first(path, density, bad, why):
    """CodecError at the byte offset of the first True in bad, if any."""
    index = np.flatnonzero(bad)
    if index.size:
        i = int(index[0])
        raise CodecError(f"density value {density.flat[i]} {why}",
                         offset=len(DENSITY_MAGIC) + 8 + 4 * i, path=path)


# ----------------------------------------------------------- manifest

@dataclass(frozen=True)
class ManifestItem:
    image: str
    ann: str
    split: str


@dataclass
class Manifest:
    items: list
    bins: Optional[ScaleBins]

    def split_items(self, split):
        return [it for it in self.items if it.split == split]


def density_path(manifest_dir, item):
    """Where an item's ground-truth map lives: density/<image stem>.dm."""
    stem = os.path.splitext(os.path.basename(item.image))[0]
    return os.path.join(manifest_dir, "density", stem + ".dm")


def save_manifest(path, manifest):
    doc = {
        "items": [
            {"image": it.image, "ann": it.ann, "split": it.split} for it in manifest.items
        ],
        "bins": None
        if manifest.bins is None
        else {
            "global": [manifest.bins.global_min, manifest.bins.global_max],
            "local": [manifest.bins.local_min, manifest.bins.local_max],
        },
    }
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path, error):
    """The JSON document in the UTF-8 file at path. Text that is not UTF-8
    or not JSON, nesting too deep to parse and a key repeated in one object
    raise error naming path."""
    def unique_keys(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [k for k, _ in pairs]
            repeated = next(k for k in keys if keys.count(k) > 1)
            raise ValueError(f"key {repeated!r} repeated in one object")
        return doc

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    except RecursionError:
        raise error(f"{path}: not valid JSON: nested too deeply to parse") from None
    # JSONDecodeError, a repeated key, or an integer past int()'s digit limit
    except ValueError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from None


def _is_range(value):
    """A [min, max] pair of JSON numbers that are finite in float64; a
    larger integer would overflow float()."""
    return isinstance(value, list) and len(value) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and -sys.float_info.max <= v <= sys.float_info.max
        for v in value)


def load_manifest(path):
    doc = read_json(path, ManifestError)
    if not isinstance(doc, dict) or set(doc) != {"items", "bins"}:
        raise ManifestError(
            f"{path}: manifest must contain exactly the keys 'items' and 'bins', "
            f"got {sorted(doc) if isinstance(doc, dict) else type(doc).__name__}"
        )
    if not isinstance(doc["items"], list):
        raise ManifestError(f"{path}: 'items' must be a list")
    items = []
    by_density = {}
    for i, rec in enumerate(doc["items"]):
        if not isinstance(rec, dict) or set(rec) != {"image", "ann", "split"}:
            raise ManifestError(
                f"{path}: item {i} must have exactly the keys image/ann/split"
            )
        for key in ("image", "ann"):
            if not isinstance(rec[key], str) or not rec[key]:
                raise ManifestError(
                    f"{path}: item {i} {key!r} must be a non-empty path string, got {rec[key]!r}"
                )
        if rec["split"] not in SPLITS:
            raise ManifestError(
                f"{path}: item {i} has split {rec['split']!r}, expected one of {SPLITS}"
            )
        item = ManifestItem(image=rec["image"], ann=rec["ann"], split=rec["split"])
        dm = density_path("", item)
        j, other = by_density.setdefault(dm, (i, item))
        if (other.image, other.ann) != (item.image, item.ann):
            raise ManifestError(
                f"{path}: items {j} ({other.image!r}, {other.ann!r}) and {i} "
                f"({item.image!r}, {item.ann!r}) would share the density map {dm!r}"
            )
        items.append(item)
    bins_doc = doc["bins"]
    bins = None
    if bins_doc is not None:
        if (
            not isinstance(bins_doc, dict)
            or set(bins_doc) != {"global", "local"}
            or not all(_is_range(r) for r in bins_doc.values())
        ):
            raise ManifestError(f"{path}: 'bins' must hold 'global' and 'local' ranges")
        bins = ScaleBins(
            global_min=float(bins_doc["global"][0]),
            global_max=float(bins_doc["global"][1]),
            local_min=float(bins_doc["local"][0]),
            local_max=float(bins_doc["local"][1]),
        )
    return Manifest(items=items, bins=bins)


def validate_manifest_files(manifest, base_dir):
    """Every referenced image/annotation must exist on disk."""
    for it in manifest.items:
        for rel in (it.image, it.ann):
            full = os.path.join(base_dir, rel)
            if not os.path.isfile(full):
                raise ManifestError(f"manifest references missing file: {full}")
