"""Parameter initialization, inventory, and the checkpoint codec.

Parameters form a flat name -> array map with dot-separated paths such
as "mfe.branch1.conv0.weight". Weights draw from a zero-mean Gaussian
with std sqrt(2 / fan_in); biases start at zero. The checkpoint file is:

  magic "SAANCK1\\n", u32 LE version, u32 LE parameter count, then per
  parameter (sorted by name): u16 LE name length, UTF-8 name, u8 rank,
  rank x u32 LE dims, 32-bit LE float data in row-major order.

Names are unique and every dim is nonzero; the loader refuses a file
that breaks either rule or whose dims ask for more data than it holds.
"""

import math
import struct

import numpy as np

from .errors import CodecError, InventoryError
from .io_formats import atomic_open, names_its_file
from .layers import spec_params

MAGIC = b"SAANCK1\n"
VERSION = 1


def param_inventory(arch):
    """Deterministic list of (name, shape, fan_in) for every parameter."""
    out = []
    for prefix, spec, cin in arch.subnets():
        out.extend(spec_params(prefix, spec, cin))
    return out


def init_params(arch, rng, prefix=None):
    """Fresh float32 parameters; pass prefix to initialize one sub-network only."""
    params = {}
    for name, shape, fan_in in param_inventory(arch):
        if prefix is not None and not name.startswith(prefix):
            continue
        if name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            std = np.sqrt(2.0 / fan_in)
            params[name] = (rng.standard_normal(shape) * std).astype(np.float32)
    return params


def validate_inventory(params, arch):
    """Check names and shapes against the architecture; raise on drift."""
    expected = {name: shape for name, shape, _ in param_inventory(arch)}
    missing = sorted(set(expected) - set(params))
    extra = sorted(set(params) - set(expected))
    if missing:
        raise InventoryError(f"checkpoint is missing parameter {missing[0]!r}"
                             + (f" and {len(missing) - 1} more" if len(missing) > 1 else ""))
    if extra:
        raise InventoryError(f"checkpoint has unexpected parameter {extra[0]!r}"
                             + (f" and {len(extra) - 1} more" if len(extra) > 1 else ""))
    for name, shape in expected.items():
        if tuple(params[name].shape) != tuple(shape):
            raise InventoryError(
                f"parameter {name!r} has shape {tuple(params[name].shape)}, "
                f"expected {tuple(shape)}"
            )


def save_checkpoint(params, path):
    """Write all parameters (sorted by name) as 32-bit floats, atomically."""
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(params)))
        for name in sorted(params):
            arr = np.asarray(params[name], dtype=np.float32, order="C")  # keeps rank 0
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _take(buf, offset, n, what):
    if offset + n > len(buf):
        raise CodecError(f"checkpoint truncated while reading {what}", offset=offset)
    return buf[offset : offset + n], offset + n


@names_its_file
def load_checkpoint(path):
    """Read a checkpoint back into a name -> float32 array map."""
    with open(path, "rb") as fh:
        buf = fh.read()
    raw, off = _take(buf, 0, len(MAGIC), "magic")
    if raw != MAGIC:
        raise CodecError(f"bad checkpoint magic {raw!r}", offset=0)
    raw, off = _take(buf, off, 8, "header")
    version, count = struct.unpack("<II", raw)
    if version != VERSION:
        raise CodecError(f"unsupported checkpoint version {version}", offset=8)
    params = {}
    for _ in range(count):
        raw, off = _take(buf, off, 2, "name length")
        (name_len,) = struct.unpack("<H", raw)
        raw, off = _take(buf, off, name_len, "name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"parameter name is not UTF-8: {exc}", offset=off - name_len)
        if name in params:
            raise CodecError(f"parameter {name!r} appears twice", offset=off - name_len)
        raw, off = _take(buf, off, 1, "rank")
        rank = raw[0]
        raw, off = _take(buf, off, 4 * rank, "dims")
        shape = struct.unpack(f"<{rank}I", raw)
        if 0 in shape:
            raise CodecError(f"parameter {name!r} has a zero dim in {shape}", offset=off - 4 * rank)
        # a Python int, so no product of u32 dims wraps; _take checks it
        # against the bytes left before anything is read
        raw, off = _take(buf, off, 4 * math.prod(shape), f"data of {name!r}")
        params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if off != len(buf):
        raise CodecError(f"{len(buf) - off} trailing bytes after last parameter", offset=off)
    return params
