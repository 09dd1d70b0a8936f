"""Naive brute-force reference implementations used as test oracles.

Everything here is written for clarity, not speed: plain Python loops,
no vectorization tricks shared with the library under test.
"""

import math

import numpy as np


def naive_conv2d(x, w, b):
    """Stride-1 same-padding convolution by direct quadruple loop."""
    n, cin, h, wd = x.shape
    cout, cin_w, k, _ = w.shape
    assert cin == cin_w and k % 2 == 1
    p = (k - 1) // 2
    out = np.zeros((n, cout, h, wd), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for hi in range(h):
                for wi in range(wd):
                    acc = b[co]
                    for ci in range(cin):
                        for dy in range(k):
                            for dx in range(k):
                                sy = hi + dy - p
                                sx = wi + dx - p
                                if 0 <= sy < h and 0 <= sx < wd:
                                    acc = acc + x[ni, ci, sy, sx] * w[co, ci, dy, dx]
                    out[ni, co, hi, wi] = acc
    return out


def naive_conv2d_backward(gy, x, w):
    """Adjoint of naive_conv2d: every (output position, input channel,
    kernel tap) term of the forward sum sends gy back to the input pixel
    and the weight it multiplied. Returns (gx, gw, gb)."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    p = (k - 1) // 2
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    gb = np.zeros(cout, dtype=gy.dtype)
    for ni in range(n):
        for co in range(cout):
            for hi in range(h):
                for wi in range(wd):
                    g = gy[ni, co, hi, wi]
                    gb[co] += g
                    for ci in range(cin):
                        for dy in range(k):
                            for dx in range(k):
                                sy = hi + dy - p
                                sx = wi + dx - p
                                if 0 <= sy < h and 0 <= sx < wd:
                                    gx[ni, ci, sy, sx] += g * w[co, ci, dy, dx]
                                    gw[co, ci, dy, dx] += g * x[ni, ci, sy, sx]
    return gx, gw, gb


def naive_conv2d_transpose(x, w, b):
    """Transposed conv (kernel 4, stride 2, padding 1) by direct summation
    over every (input position, kernel tap) pair."""
    n, cin, h, wd = x.shape
    cin_w, cout, k, _ = w.shape
    assert cin == cin_w and k == 4
    out = np.zeros((n, cout, 2 * h, 2 * wd), dtype=x.dtype)
    for ni in range(n):
        for ci in range(cin):
            for co in range(cout):
                for hi in range(h):
                    for wi in range(wd):
                        for dy in range(k):
                            for dx in range(k):
                                oy = 2 * hi + dy - 1
                                ox = 2 * wi + dx - 1
                                if 0 <= oy < 2 * h and 0 <= ox < 2 * wd:
                                    out[ni, co, oy, ox] += x[ni, ci, hi, wi] * w[ci, co, dy, dx]
    for co in range(cout):
        out[:, co] += b[co]
    return out


def naive_conv2d_transpose_backward(gy, x, w):
    """Adjoint of naive_conv2d_transpose: every (input position, kernel
    tap) term that reached an output pixel sends gy back to the input
    pixel and the weight it multiplied. Returns (gx, gw, gb)."""
    n, cin, h, wd = x.shape
    _, cout, k, _ = w.shape
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    gb = np.zeros(cout, dtype=gy.dtype)
    for ni in range(n):
        for co in range(cout):
            for oy in range(2 * h):
                for ox in range(2 * wd):
                    gb[co] += gy[ni, co, oy, ox]
        for ci in range(cin):
            for co in range(cout):
                for hi in range(h):
                    for wi in range(wd):
                        for dy in range(k):
                            for dx in range(k):
                                oy = 2 * hi + dy - 1
                                ox = 2 * wi + dx - 1
                                if 0 <= oy < 2 * h and 0 <= ox < 2 * wd:
                                    g = gy[ni, co, oy, ox]
                                    gx[ni, ci, hi, wi] += g * w[ci, co, dy, dx]
                                    gw[ci, co, dy, dx] += g * x[ni, ci, hi, wi]
    return gx, gw, gb


def naive_maxpool2(x):
    """2x2/stride-2 max pooling; ties resolved to the first position in
    row-major window order, matching the library contract."""
    n, c, h, wd = x.shape
    out = np.zeros((n, c, h // 2, wd // 2), dtype=x.dtype)
    arg = np.zeros((n, c, h // 2, wd // 2), dtype=np.int64)
    for ni in range(n):
        for ci in range(c):
            for hi in range(h // 2):
                for wi in range(wd // 2):
                    best = -np.inf
                    besti = 0
                    for dy in range(2):
                        for dx in range(2):
                            v = x[ni, ci, 2 * hi + dy, 2 * wi + dx]
                            if v > best:
                                best = v
                                besti = 2 * dy + dx
                    out[ni, ci, hi, wi] = best
                    arg[ni, ci, hi, wi] = besti
    return out, arg


def naive_maxpool2_backward(gy, x):
    """Adjoint of 2x2/stride-2 max pooling of x zero-padded to even size on
    the bottom/right edge, as the layers engine pools: each window's
    gradient goes to its first maximal position, and a position in the
    padding is dropped."""
    n, c, h, wd = x.shape
    xp = np.zeros((n, c, h + h % 2, wd + wd % 2), dtype=x.dtype)
    xp[:, :, :h, :wd] = x
    _, arg = naive_maxpool2(xp)
    gx = np.zeros_like(xp)
    for ni in range(n):
        for ci in range(c):
            for hi in range(xp.shape[2] // 2):
                for wi in range(xp.shape[3] // 2):
                    dy, dx = divmod(int(arg[ni, ci, hi, wi]), 2)
                    gx[ni, ci, 2 * hi + dy, 2 * wi + dx] += gy[ni, ci, hi, wi]
    return gx[:, :, :h, :wd]


def naive_box_sum(m, radius):
    """O(H*W*r^2) window sum over [h-r, h+r) x [w-r, w+r), zero padded."""
    h, wd = m.shape
    out = np.zeros_like(m)
    for hi in range(h):
        for wi in range(wd):
            acc = m.dtype.type(0)
            for sy in range(max(0, hi - radius), min(h, hi + radius)):
                for sx in range(max(0, wi - radius), min(wd, wi + radius)):
                    acc = acc + m[sy, sx]
            out[hi, wi] = acc
    return out


def naive_gathered_box_sum(m, radius):
    """Integral-image window sum with four 2-D fancy gathers: the same
    ((B_r - T_r) - B_l) + T_l arithmetic as ops.box_sum, so the two must
    agree byte for byte on any input."""
    h, wd = m.shape
    integ = np.zeros((h + 1, wd + 1), dtype=m.dtype)
    integ[1:, 1:] = m.cumsum(axis=0).cumsum(axis=1)
    top = np.clip(np.arange(h) - radius, 0, h)
    bot = np.clip(np.arange(h) + radius, 0, h)
    left = np.clip(np.arange(wd) - radius, 0, wd)
    right = np.clip(np.arange(wd) + radius, 0, wd)
    return (
        integ[np.ix_(bot, right)]
        - integ[np.ix_(top, right)]
        - integ[np.ix_(bot, left)]
        + integ[np.ix_(top, left)]
    )


def naive_gaussian_density_map(points, height, width, sigma=4.0):
    """Per-dot Gaussian stamps, each evaluated over its own clipped window
    and renormalized to sum to 1, added in file order; float64 [H, W]."""
    m = np.zeros((height, width), dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    radius = math.ceil(4.0 * sigma)
    for x, y in pts:
        assert 0 <= x < width and 0 <= y < height
        cx, cy = int(round(x)), int(round(y))
        y0, y1 = max(0, cy - radius), min(height, cy + radius + 1)
        x0, x1 = max(0, cx - radius), min(width, cx + radius + 1)
        yy = np.arange(y0, y1) - cy
        xx = np.arange(x0, x1) - cx
        kernel = np.exp(-(yy[:, None] ** 2 + xx[None, :] ** 2) / (2.0 * sigma * sigma))
        m[y0:y1, x0:x1] += kernel / kernel.sum()
    return m


def naive_attention_weight(f, g, l):
    """Per-entry product g[n] * l[n,0,h,w] * f[n,c,h,w] using scalar ops of
    the arrays' own dtype, multiplied in the same association order as the
    library (g*l first)."""
    n, c, h, wd = f.shape
    out = np.zeros_like(f)
    for ni in range(n):
        for ci in range(c):
            for hi in range(h):
                for wi in range(wd):
                    gl = np.multiply(g[ni], l[ni, 0, hi, wi])
                    out[ni, ci, hi, wi] = np.multiply(gl, f[ni, ci, hi, wi])
    return out


def dyadic(rng, shape, denom=16, lo=-15, hi=15):
    """Random array of small dyadic rationals (integers / denom).

    Products and sums of such values are exact in float64 regardless of
    accumulation order, so differently-ordered implementations can be
    compared bit for bit.
    """
    return rng.integers(lo, hi + 1, size=shape).astype(np.float64) / denom


def conv_block_bytes(cin, cout, k, width, itemsize):
    """Bytes per patch row that a forward conv's blocks count against
    ops._PATCH_BYTES, written out from the layout rule: with cin >= k a
    block copies the k row taps of each channel and its [k * cout] GEMM
    result shares the budget; with cin < k it copies all cin * k * k
    taps."""
    if cin >= k:
        return (cin * k + k * cout) * itemsize * width
    return cin * k * k * width * itemsize


def reference_adam_scalar(grad_fn, x0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam on a single scalar parameter."""
    x = float(x0)
    m = 0.0
    v = 0.0
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x -= lr * mhat / (np.sqrt(vhat) + eps)
    return x
