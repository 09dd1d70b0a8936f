"""A tiny sequential-stack engine over the core ops.

Sub-networks are declared as lists of layer specs:

    ("conv0",   "conv",   k, out_channels, "relu"|"linear")
    ("pool0",   "pool")                      # 2x2 max pool, stride 2
    ("deconv0", "deconv", out_channels, "relu"|"linear")  # exact x2 up
    ("gap",     "gap")                       # global average pool -> [N,C]
    ("fc0",     "fc",     out_features, "relu"|"linear")

Parameters live in a flat name->array map under "<prefix>.<layer>.weight"
/ ".bias". A weighted layer's ReLU runs inside its op (relu=True), so
each activation is written once. A pool must follow a relu conv: it
pools a trailing odd row or column alone, which equals pooling the relu
output zero-padded to even size. The engine returns per-layer caches
that the matching backward consumes: a weighted layer's entry holds its
input and its post-activation output, the same array the next layer
takes as input, and the ReLU backward masks on that output (y > 0
exactly where the pre-activation is); a pool's entry holds its input
and its pooled map, from which the backward finds each window's max. A
stack that reads the image is walked back with input_grad=False, so its
first layer computes no input gradient.

With keep_caches=False (inference) no cache is kept and None is returned
for caches, and two layer pairs run as one op so that no full-resolution
activation is written: a relu conv and the pool after it run as conv2d
with pool=True, which pools each block in its epilogue, and a deconv
and the linear one-output 1x1 conv after it run as conv2d_transpose with
head=(w, b). Both give the bits of the layer-by-layer forward.
"""

import numpy as np

from . import ops
from .errors import ShapeError


def spec_params(prefix, spec, in_channels):
    """Walk a layer spec and yield (name, shape, fan_in) for each tensor."""
    out = []
    c = in_channels
    for entry in spec:
        name, kind = entry[0], entry[1]
        base = f"{prefix}.{name}"
        if kind == "conv":
            k, cout = entry[2], entry[3]
            out.append((f"{base}.weight", (cout, c, k, k), c * k * k))
            out.append((f"{base}.bias", (cout,), c * k * k))
            c = cout
        elif kind == "deconv":
            cout = entry[2]
            out.append((f"{base}.weight", (c, cout, 4, 4), c * 16))
            out.append((f"{base}.bias", (cout,), c * 16))
            c = cout
        elif kind == "fc":
            dout = entry[2]
            out.append((f"{base}.weight", (c, dout), c))
            out.append((f"{base}.bias", (dout,), c))
            c = dout
        elif kind in ("pool", "gap"):
            pass
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return out


def seq_forward(x, params, prefix, spec, keep_caches=True):
    """Run the stack; returns (output, caches) for seq_backward, or
    (output, None) when keep_caches is False."""
    # looked up per call so a wrapped ops function is seen by the engine
    weighted = {"conv": ops.conv2d, "deconv": ops.conv2d_transpose,
                "fc": ops.fully_connected}
    caches = [] if keep_caches else None
    fused = False
    for i, entry in enumerate(spec):
        name, kind = entry[0], entry[1]
        base = f"{prefix}.{name}"
        if fused:  # ran in the epilogue of the layer before
            fused = False
        elif kind in weighted:
            act = entry[-1]
            if act not in ("relu", "linear"):
                raise ValueError(f"unknown activation {act!r}")
            nxt = spec[i + 1] if i + 1 < len(spec) else ("", "")
            epilogue = {}
            if not keep_caches:  # the next layer may run in this one's epilogue
                if kind == "conv" and act == "relu" and nxt[1] == "pool":
                    epilogue = {"pool": True}
                elif kind == "deconv" and tuple(nxt[1:]) == ("conv", 1, 1, "linear"):
                    head = f"{prefix}.{nxt[0]}"
                    epilogue = {"head": (params[f"{head}.weight"], params[f"{head}.bias"])}
            fused = bool(epilogue)
            y = weighted[kind](x, params[f"{base}.weight"], params[f"{base}.bias"],
                               relu=(act == "relu"), **epilogue)
            if keep_caches:
                caches.append((kind, base, x, y, act))
            x = y
        elif kind == "pool":
            if i == 0 or spec[i - 1][1] != "conv" or spec[i - 1][-1] != "relu":
                raise ValueError(f"pool {base} must follow a relu conv")
            y = ops.maxpool2(x)
            if keep_caches:
                caches.append((kind, base, x, y, None))
            x = y
        elif kind == "gap":
            if x.ndim != 4:
                raise ShapeError(f"gap expects [N,C,H,W], got rank {x.ndim}")
            if keep_caches:
                caches.append((kind, base, x.shape, None, None))
            x = x.mean(axis=(2, 3))
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return x, caches


def seq_backward(gy, caches, params, input_grad=True):
    """Walk the caches in reverse; returns (input grad, param grads).

    input_grad=False tells the first layer that its input gradient is not
    used (the stack reads the raw image); a weighted first layer then
    skips it and None is returned in its place.
    """
    weighted = {"conv": ops.conv2d_backward, "deconv": ops.conv2d_transpose_backward,
                "fc": ops.fully_connected_backward}
    grads = {}
    for i, cache in reversed(list(enumerate(caches))):
        kind, base = cache[0], cache[1]
        if kind in weighted:
            _, _, x_in, y, act = cache
            gpre = ops.relu_backward(gy, y) if act == "relu" else gy
            gy, gw, gb = weighted[kind](gpre, x_in, params[f"{base}.weight"],
                                        input_grad=input_grad or i > 0)
            grads[f"{base}.weight"] = gw
            grads[f"{base}.bias"] = gb
        elif kind == "pool":
            _, _, x_in, y, _ = cache
            gy = ops.maxpool2_backward(gy, x_in, y)
        elif kind == "gap":
            _, _, in_shape, _, _ = cache
            n, c, h, w = in_shape
            gy = np.broadcast_to(gy[:, :, None, None], in_shape) / (h * w)
    return gy, grads
