"""Dense-tensor ops with hand-derived analytic backward passes.

Activations use the N x C x H x W layout. Forward functions are pure;
each backward takes the upstream gradient plus whatever forward inputs
it needs and returns exact analytic gradients; with input_grad=False a
weighted op's backward skips the input gradient and returns None for it.
Convolutions are stride-1 "same" with odd kernels so spatial dims are
preserved; the transposed convolution is fixed at kernel 4 / stride 2 /
padding 1 (exact x2 upsampling).

Convolution runs on channel-major patch matrices (im2col), and _conv2d
is the one routine that builds a conv's patch matrix and multiplies it
by the kernel. The input gradient of a stride-1 "same" conv with odd k
is itself a "same" conv of gy, with W's in and out axes swapped and
both kernel axes flipped, so conv2d_backward runs _conv2d on gy for it;
the weight gradient is (cols @ gy^T)^T. conv2d returns an [N,C,H,W]
view of a [C,N,H,W] buffer, so the gy that comes back through it is
already channel-major. A 1x1 convolution's patch matrix is its input in
channel-major order (a view, not a copy, when the input came from
another conv), so it is one GEMM; a one-output conv with full patch
rows (below) is a fixed-order channel sum instead (_head). The weighted
ops take relu=True to apply max(y, 0) in their epilogue, right after
the bias add while each output block is still in cache, so an
activation is written once; the result equals max(y, 0) of the plain
op bit for bit.

A patch matrix is a strided copy. The input is copied once into a
zero-padded channel-major buffer, each channel flattened, so tap
(dy, dx) of padded pixel (n, r, c) sits at a fixed offset from it and
every patch matrix is an as_strided view of that buffer. The forward's
view spans all Wp = W + 2p padded columns of each row, so tap (dy, dx)
is the plain offset dy*Wp + dx and the GEMM output is cropped back to W
columns on its way into the output. A conv with C >= k input channels
copies only the k row taps of each channel (the MEC lowering, Cho &
Brand 2017): row (c, dy) of a band is one run of the buffer, plus the
k-1 elements after it (k-1 zeros of slack end the buffer), a [C*k,
L+k-1] matrix with k times fewer rows than im2col's. One GEMM with the
kernel re-laid as [k*Cout, C*k], dx-major, gives every column tap's
partial sums, and output column j adds rows dx*Cout.. of column j+dx
for dx in order (kn2row, Vasudevan, Anderson & Gregg 2017). A shift
reads past a row's end, into the next row or image or the tail, only in
the columns that the crop drops. A conv with C < k (the one-channel
image convs, where C*k rows make too thin a GEMM) copies all k*k taps,
a [C*k*k, L] matrix, and is one GEMM of the flattened kernel. The
weight gradient's view is the exact [C*k*k, N*H*W] matrix.

The transposed conv's forward is a sub-pixel convolution: each of the
four output phases y[:, :, a::2, b::2] is a 3x3 "same" conv of x, so
one 3x3 conv with a re-laid [4*Cout, Cin, 3, 3] kernel computes them
all, its blocks written straight into the strided phase views, so each
output pixel is written once. Its backward stays the gather of the 16
stride-2 taps of the 1-padded gy into one [Cout*16, N*H*W] matrix: a
sub-pixel backward does 2.25x the flops (each phase uses 4 of its 9
taps) and measured slower at training shapes.

Convolutions work in blocks, each whole images or a band of one image's
rows, and every band holds an even number of rows except an odd-height
image's last, so no 2x2 pooling window straddles two blocks. conv2d and
its backward copy each block's patch matrix into one buffer reused for
every block, so a conv's patch memory is one padded copy of its input
plus a block; the backward sums the weight gradient over the blocks of
x, then runs the input gradient's conv over the blocks of gy.
_PATCH_BYTES (about an L2 cache) caps how many rows a block takes,
counting a row-tap block's copy and its [k*Cout] GEMM result together,
but a band holds at least two rows, so when two rows' operand is larger
than the budget (wide images, float64) the block is too. A forward with
or without fused epilogues runs this one plan, so its GEMMs see the same
operands and give the same bits.

Two epilogues let inference skip full-resolution activations. With
pool=True, conv2d 2x2 max-pools each GEMM block (row pairs, then column
pairs; a trailing odd row or column alone) before the bias and relu,
which is exact because both are monotone. With head=(w1, b1),
conv2d_transpose applies the bias and relu to each GEMM block in place,
then the one-output 1x1 conv by _head, and writes only its one channel.

Max pooling takes the max of row pairs first, then of column pairs of
that, so each input element is read once along its row; the backward
and the forward's int8 offset of the first position that attains the
max work on the four strided window views x[:, :, dy::2, dx::2], and
the backward writes each view once.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError

# byte cap of one block of a conv's patch matrix (see module doc)
_PATCH_BYTES = 2 << 20


def _check_conv_args(x, w, b, weight_layout):
    if x.ndim != 4:
        raise ShapeError(f"input must be 4-D [N,C,H,W], got rank {x.ndim}")
    if w.ndim != 4:
        raise ShapeError(f"weights must be 4-D, got rank {w.ndim}")
    cin_axis = 1 if weight_layout == "oikk" else 0
    cout_axis = 0 if weight_layout == "oikk" else 1
    if x.shape[1] != w.shape[cin_axis]:
        raise ShapeError(
            f"in_channel mismatch on axis 1: input has {x.shape[1]}, "
            f"weights expect {w.shape[cin_axis]}"
        )
    if b.shape != (w.shape[cout_axis],):
        raise ShapeError(
            f"bias length {b.shape} does not match {w.shape[cout_axis]} output channels"
        )
    if w.shape[2] != w.shape[3]:
        raise ShapeError(f"kernel must be square, got {w.shape[2]}x{w.shape[3]}")


def _pad_cm(x, p, slack=0):
    """[N,C,H,W] -> [C, N*(H+2p)*(W+2p) + slack]: each channel zero-padded
    by p on every side and flattened, then `slack` zeros."""
    n, c, h, wd = x.shape
    hp, wp = h + 2 * p, wd + 2 * p
    buf = np.zeros((c, n * hp * wp + slack), dtype=x.dtype)
    grid = buf[:, : n * hp * wp].reshape(c, n, hp, wp)
    grid[:, :, p : p + h, p : p + wd] = x.transpose(1, 0, 2, 3)
    return buf


def _patches(buf, k, hp, wp, n0, n1, r0, r1, width, stride=1, taps=None):
    """[C, k, taps, n1-n0, r1-r0, width] view of a _pad_cm buffer of hp x wp
    images (taps defaults to k): element (c, dy, dx, i, r, j) is padded
    pixel (stride*(r0+r) + dy, stride*j + dx) of image n0+i in channel c."""
    s0, s = buf.strides
    return as_strided(buf[:, (n0 * hp + stride * r0) * wp :],
                      shape=(buf.shape[0], k, taps or k, n1 - n0, r1 - r0, width),
                      strides=(s0, wp * s, s, hp * wp * s, stride * wp * s, stride * s),
                      writeable=False)


def _row_blocks(n, h, row_bytes, fixed=0):
    """Split the (image, row) range of an [N,.,H,.] map into blocks of
    as many rows as fit in _PATCH_BYTES, less `fixed` bytes per block, at
    row_bytes each: runs of whole images while one image fits, else bands
    of one image's rows, their count rounded down to even but at least
    two, so every band is even but an odd-height image's last. Yields
    (n0, n1, r0, r1); the blocks tile the flattened (n, h) index in
    order, so each is one column range of a [C, N*H*W] matrix, and no 2x2
    pooling window straddles two blocks. The first block is the largest."""
    rows = (_PATCH_BYTES - fixed) // row_bytes
    if rows >= h:
        step = rows // h
        for n0 in range(0, n, step):
            yield n0, min(n, n0 + step), 0, h
    else:
        rows = max(2, rows // 2 * 2)
        for i in range(n):
            for r0 in range(0, h, rows):
                yield i, i + 1, r0, min(h, r0 + rows)


def _patch_blocks(x, k, width, taps=None, out_rows=0):
    """Patch matrices of the "same" conv of x [N,C,H,W] with an odd
    kernel k, block by block: yields (n0, n1, r0, r1, cols) for the
    _row_blocks of patch rows `width` (W or W+k-1) columns wide, cols the
    block's patch matrix copied from x's _pad_cm buffer into one buffer
    that the next block overwrites. A block spans L = (n1-n0)*(r1-r0)*width
    columns, and cols holds taps (c, dy, dx) for the first `taps` column
    taps dx: taps=k (the default) is the full [C*k*k, L] matrix; taps=1
    is the [C*k, L+k-1] row taps, each followed by the k-1 elements after
    it in the padded buffer, so that views of it shifted by dx < k stay
    in bounds. A block's copy fits in _PATCH_BYTES together with out_rows
    GEMM result rows of as many columns. For k == 1 the one block is x
    itself in channel-major order (a view, not a copy, when x came from
    another conv)."""
    n, c, h, wd = x.shape
    if k == 1:
        yield 0, n, 0, h, x.transpose(1, 0, 2, 3).reshape(c, -1)
        return
    taps = taps or k
    tail = k - 1 if taps == 1 else 0
    hp, wp = h + k - 1, wd + k - 1
    xp = _pad_cm(x, (k - 1) // 2, slack=k - 1)
    rows = c * k * taps
    col_bytes = (rows + out_rows) * x.itemsize
    blocks = list(_row_blocks(n, h, col_bytes * width, col_bytes * tail))
    n0, n1, r0, r1 = blocks[0]
    buf = np.empty(rows * ((n1 - n0) * (r1 - r0) * width + tail), dtype=x.dtype)
    for n0, n1, r0, r1 in blocks:
        m = (n1 - n0) * (r1 - r0) * width
        cols = buf[: rows * (m + tail)].reshape(c, k, taps, m + tail)
        view = _patches(xp, k, hp, wp, n0, n1, r0, r1, width, taps=taps)
        np.copyto(cols[..., :m].reshape(view.shape), view)
        if tail:
            np.copyto(cols[..., m:],
                      _patches(xp, k, hp, wp, n1 - 1, n1, r1, r1 + 1, tail, taps=1)[..., 0, 0, :])
        yield n0, n1, r0, r1, cols.reshape(rows, -1)


def conv2d(x, w, b, relu=False, pool=False):
    """Stride-1 same-padding convolution. x: [N,Cin,H,W], w: [Cout,Cin,k,k].

    relu=True applies max(y, 0) to each output block after its bias add,
    so the result equals max(conv2d(x, w, b), 0) bit for bit. pool=True
    2x2 max-pools each block before its bias add, a trailing odd row or
    column alone, and returns [N,Cout,ceil(H/2),ceil(W/2)]; with relu it
    equals maxpool2 of the zero-padded relu output bit for bit."""
    _check_conv_args(x, w, b, "oikk")
    k = w.shape[2]
    if k % 2 != 1:
        raise ShapeError(f"kernel size must be odd for same padding, got {k}")
    n, _, h, wd = x.shape
    if pool:
        h, wd = (h + 1) // 2, (wd + 1) // 2
    y = np.empty((w.shape[0], n, h, wd), dtype=np.result_type(x, w, b))
    _conv2d(x, w, b, relu, y, pool=pool)
    return y.transpose(1, 0, 2, 3)


def _conv2d(x, w, b, relu, y, pool=False, head=None):
    """conv2d of x for an odd k, written block by block into y, an array
    of shape lead + (C, N, H, W) whose lead and channel axes flatten to
    Cout in order (they may be strided). pool=True pools each block (y is
    then ceil(H/2) x ceil(W/2)); head=(w1, b1), a one-output 1x1 conv,
    is applied to each block after its bias and relu, and y holds its one
    channel. A private name, so that the calls from the deconv and from
    conv2d_backward do not go through a wrapper installed on conv2d."""
    cout, c, k = w.shape[:3]
    wd = x.shape[3]
    lead = y.shape[:-4] + (-1,)
    # with C >= k a block holds only the k row taps of each channel, row
    # (dx, o) of the re-laid kernel gives output o's column tap dx, and
    # that [k*Cout] GEMM result shares the block budget; full patch rows
    # budget their copy alone
    taps = k if c < k else 1
    w2 = (w if taps == k else w.transpose(3, 0, 1, 2)).reshape(k // taps * cout, -1)
    bias = b.reshape(lead + (1, 1, 1))
    wp = wd + k - 1
    for n0, n1, r0, r1, cols in _patch_blocks(x, k, wp, taps, len(w2) if taps == 1 else 0):
        g = _head(cols, w2[0])[None] if len(w2) == 1 else w2 @ cols
        m = (n1 - n0) * (r1 - r0) * wp
        out = g[:cout, :m]
        for dx in range(1, k // taps):
            out += g[dx * cout : (dx + 1) * cout, dx : dx + m]
        out = out.reshape(lead + (n1 - n0, r1 - r0, wp))[..., :wd]
        if pool:
            out = _pool2(out)
            r0, r1 = r0 // 2, (r1 + 1) // 2
        yb = out if head else y[..., n0:n1, r0:r1, :]
        np.add(out, bias, out=yb)
        if relu:
            np.maximum(yb, 0, out=yb)
        if head:
            np.add(_head(np.moveaxis(yb, -4, 0), head[0].ravel()), head[1],
                   out=y[..., 0, n0:n1, r0:r1, :])
        del g, out, yb  # before the next block's GEMM allocates its own


def _head(x, w):
    """sum over c of x[c] * w[c], added in channel order. A one-output
    GEMM's sums depend on how its columns are blocked; these do not, so a
    one-output conv gives the same bits however its patch matrix is split."""
    acc = x[0] * w[0]
    for c in range(1, len(w)):
        acc += x[c] * w[c]
    return acc


def _pool2(a):
    """2x2 max pool over a's last two axes, row pairs first; a trailing odd
    row or column is pooled alone."""
    h, wd = a.shape[-2:]
    r = np.empty(a.shape[:-2] + ((h + 1) // 2, wd), dtype=a.dtype)
    np.maximum(a[..., 0 : h - 1 : 2, :], a[..., 1::2, :], out=r[..., : h // 2, :])
    r[..., h // 2 :, :] = a[..., h - h % 2 :, :]
    y = np.empty(r.shape[:-1] + ((wd + 1) // 2,), dtype=a.dtype)
    np.maximum(r[..., 0 : wd - 1 : 2], r[..., 1::2], out=y[..., : wd // 2])
    y[..., wd // 2 :] = r[..., wd - wd % 2 :]
    return y


def conv2d_backward(gy, x, w, input_grad=True):
    """Gradients of conv2d w.r.t. (input, weights, bias). The weight
    gradient is summed over the blocks of x's patch matrix (exact width
    here). The input gradient is the "same" conv of gy with W's in and
    out axes swapped and both kernel axes flipped, run by _conv2d."""
    k = w.shape[2]
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    gy_cm = np.ascontiguousarray(gy.transpose(1, 0, 2, 3)).reshape(cout, -1)
    gb = gy_cm.sum(axis=1)
    gw = None
    for n0, n1, r0, r1, cols in _patch_blocks(x, k, wd):
        part = cols @ gy_cm[:, (n0 * h + r0) * wd : ((n1 - 1) * h + r1) * wd].T
        gw = part if gw is None else gw + part
    gw = gw.T.reshape(cout, cin, k, k)
    if not input_grad:
        return None, gw, gb
    gx = np.empty((cin, n, h, wd), dtype=np.result_type(w, gy))
    _conv2d(gy_cm.reshape(cout, n, h, wd).transpose(1, 0, 2, 3),
            w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], np.zeros(cin, gx.dtype), False, gx)
    return gx.transpose(1, 0, 2, 3), gw, gb


def conv2d_transpose(x, w, b, relu=False, head=None):
    """Transposed convolution, kernel 4 / stride 2 / padding 1.

    x: [N,Cin,H,W], w: [Cin,Cout,4,4] -> [N,Cout,2H,2W]. Exact adjoint of
    the corresponding stride-2 convolution, so spatial dims double.

    Run as a sub-pixel convolution: output pixel (2m + a, 2l + b) is met
    by the taps of parity ky = a + 1, kx = b + 1 (mod 2), from input pixel
    (m + (4-ky)//2 - 1, l + (4-kx)//2 - 1). So each of the four phases
    (a, b) is a 3x3 "same" conv of x, and one conv with a [4*Cout, Cin,
    3, 3] kernel (zero where no tap lands) computes them all. Its
    epilogue writes each block of phase (a, b) straight into
    y[:, :, a::2, b::2], so each output is written once; relu=True fuses
    max(y, 0) into it. head=(w1, b1), the [1,Cout,1,1] and [1] parameters
    of a linear 1x1 conv, applies that conv in the epilogue too and
    returns its [N,1,2H,2W] output, equal bit for bit to
    conv2d(conv2d_transpose(x, w, b, relu), w1, b1).
    """
    _check_conv_args(x, w, b, "iokk")
    if w.shape[2] != 4:
        raise ShapeError(f"transposed conv kernel is fixed at 4, got {w.shape[2]}")
    n, cin, h, wd = x.shape
    cout = w.shape[1]
    k3 = np.zeros((2, 2, cout, cin, 3, 3), dtype=w.dtype)
    for ky in range(4):
        for kx in range(4):
            k3[(ky + 1) % 2, (kx + 1) % 2, :, :, (4 - ky) // 2, (4 - kx) // 2] = w[:, :, ky, kx].T
    c = 1 if head else cout
    y = np.empty((c, n, 2 * h, 2 * wd), dtype=np.result_type(x, w, b, *(head or ())))
    # phases[a, b] is the view y[:, :, a::2, b::2]
    phases = y.reshape(c, n, h, 2, wd, 2).transpose(3, 5, 0, 1, 2, 4)
    _conv2d(x, k3.reshape(4 * cout, cin, 3, 3), np.tile(b, 4), relu, phases, head=head)
    return y.transpose(1, 0, 2, 3)


def conv2d_transpose_backward(gy, x, w, input_grad=True):
    """Gradients of conv2d_transpose w.r.t. (input, weights, bias).

    Input pixel (i, j) met padded output pixels (ky + 2i, kx + 2j), so its
    16 taps of the 1-padded gy are gathered into one [Cout*16, N*H*W]
    matrix: the weight gradient is one GEMM against x, the input gradient
    one GEMM against W."""
    n, cin, h, wd = x.shape
    cout = w.shape[1]
    gb = gy.sum(axis=(0, 2, 3))
    cols = np.ascontiguousarray(
        _patches(_pad_cm(gy, 1), 4, 2 * h + 2, 2 * wd + 2, 0, n, 0, h, wd, stride=2))
    cols = cols.reshape(cout * 16, -1)
    x_cm = x.transpose(1, 0, 2, 3).reshape(cin, -1)
    gw = (cols @ x_cm.T).T.reshape(cin, cout, 4, 4)
    if not input_grad:
        return None, gw, gb
    gx = (w.reshape(cin, -1) @ cols).reshape(cin, n, h, wd)
    return gx.transpose(1, 0, 2, 3), gw, gb


def maxpool2(x):
    """2x2 max pooling with stride 2. Returns (pooled, argmax offsets).

    Offsets are flat indices into each window in row-major (dy, dx) order;
    ties resolve to the first position scanned. The max is taken over row
    pairs first, then over column pairs of that (_pool2, the pool conv2d
    fuses), so each input element is read once (a NaN anywhere in a window
    gives NaN, and offset 3); the offsets compare the four strided window
    views against it. This is the four-view max bit for bit, except that a
    window tying +0 with -0 may return the other zero (np.maximum returns
    its second operand on a tie; a relu output holds no -0).
    """
    if x.ndim != 4:
        raise ShapeError(f"input must be 4-D [N,C,H,W], got rank {x.ndim}")
    h, wd = x.shape[2:]
    if h % 2 or wd % 2:
        raise ShapeError(f"maxpool2 needs even H,W, got {h}x{wd}; pad the input first")
    y = _pool2(x)
    views = [x[:, :, dy::2, dx::2] for dy in (0, 1) for dx in (0, 1)]
    idx = np.where(views[2] == y, np.int8(2), np.int8(3))
    for k in (1, 0):
        idx = np.where(views[k] == y, np.int8(k), idx)
    return y, idx


def maxpool2_backward(gy, idx, in_shape):
    """Routes the upstream gradient to the stored argmax positions: each
    window view of the input gradient is written once, gy where the
    offset names it and 0 elsewhere."""
    gx = np.empty(in_shape, dtype=gy.dtype)
    for k in range(4):
        np.multiply(gy, idx == k, out=gx[:, :, k // 2 :: 2, k % 2 :: 2])
    return gx


def fully_connected(x, w, b, relu=False):
    """Affine map: [N,D] @ [D,M] + [M], then max(y, 0) if relu is set."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"fully_connected expects 2-D input/weights, got {x.ndim}/{w.ndim}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"inner dims disagree: input axis 1 is {x.shape[1]}, weights axis 0 is {w.shape[0]}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"bias length {b.shape} does not match {w.shape[1]} outputs")
    y = x @ w + b
    if relu:
        np.maximum(y, 0, out=y)
    return y


def fully_connected_backward(gy, x, w, input_grad=True):
    return (gy @ w.T if input_grad else None), x.T @ gy, gy.sum(axis=0)


def relu_backward(gy, x):
    # x is the relu's input or its output: x > 0 is the same mask either
    # way. The gradient is 0 at x == 0 by convention.
    return gy * (x > 0)


def sigmoid(x):
    """Numerically stable logistic; exp never sees a positive argument."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid_backward(gy, y):
    return gy * y * (1.0 - y)


def softmax(x):
    """Row-wise softmax over [N,K] with max-subtraction stabilization."""
    if x.ndim != 2:
        raise ShapeError(f"softmax expects [N,K], got rank {x.ndim}")
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(gy, y):
    return y * (gy - (gy * y).sum(axis=1, keepdims=True))


def concat_channels(xs):
    """Concatenate along the channel axis; all N,H,W must agree."""
    if not xs:
        raise ShapeError("concat_channels needs at least one input")
    ref = xs[0].shape
    for i, x in enumerate(xs[1:], start=1):
        if x.shape[0] != ref[0]:
            raise ShapeError(f"batch mismatch on axis 0: input {i} has {x.shape[0]}, expected {ref[0]}")
        if x.shape[2:] != ref[2:]:
            raise ShapeError(f"spatial mismatch: input {i} is {x.shape[2:]}, expected {ref[2:]}")
    return np.concatenate(xs, axis=1)


def split_channels(y, channel_counts):
    """Inverse of concat_channels; the backward of a concat is this split."""
    if sum(channel_counts) != y.shape[1]:
        raise ShapeError(
            f"channel counts {channel_counts} do not sum to axis 1 extent {y.shape[1]}"
        )
    return np.split(y, np.cumsum(channel_counts)[:-1], axis=1)


def scale_broadcast_mul(f, g, l):
    """Attention weighting: out[n,c,h,w] = g[n] * l[n,0,h,w] * f[n,c,h,w]."""
    if f.ndim != 4 or l.ndim != 4 or l.shape[1] != 1:
        raise ShapeError(f"expected feature [N,C,H,W] and local map [N,1,H,W], got {f.shape}/{l.shape}")
    if g.shape != (f.shape[0],):
        raise ShapeError(f"global scale must be per-sample [N], got {g.shape}")
    if l.shape[2:] != f.shape[2:] or l.shape[0] != f.shape[0]:
        raise ShapeError(f"local map dims {l.shape} do not match feature {f.shape}")
    return (g.reshape(-1, 1, 1, 1) * l) * f


def scale_broadcast_mul_backward(gy, f, g, l):
    """Gradients w.r.t. (feature, global scalar, local map)."""
    gl_full = g.reshape(-1, 1, 1, 1) * l
    gf = gl_full * gy
    gg = (l * f * gy).sum(axis=(1, 2, 3))
    gl = g.reshape(-1, 1, 1, 1) * (f * gy).sum(axis=1, keepdims=True)
    return gf, gg, gl


def box_sum(m, radius):
    """Sliding window sum over [h-r, h+r) x [w-r, w+r), zero padded.

    Integral-image implementation, O(H*W) independent of radius.
    """
    if m.ndim != 2:
        raise ShapeError(f"box_sum expects a 2-D map, got rank {m.ndim}")
    if radius < 0:
        raise ShapeError(f"radius must be >= 0, got {radius}")
    h, wd = m.shape
    integ = np.zeros((h + 1, wd + 1), dtype=m.dtype)
    integ[1:, 1:] = m.cumsum(axis=0).cumsum(axis=1)
    rows = np.arange(h)
    cols = np.arange(wd)
    top = np.clip(rows - radius, 0, h)
    bot = np.clip(rows + radius, 0, h)
    left = np.clip(cols - radius, 0, wd)
    right = np.clip(cols + radius, 0, wd)
    b_rows = integ.take(bot, axis=0)
    t_rows = integ.take(top, axis=0)
    out = b_rows.take(right, axis=1)
    out -= t_rows.take(right, axis=1)
    out -= b_rows.take(left, axis=1)
    out += t_rows.take(left, axis=1)
    return out
