"""Finite-difference verification of the analytic backward passes.

`grad_check` compares analytic gradients against central differences in
float64. `run_suite` bundles one named check per op plus the losses and
a full end-to-end model check; the CLI surfaces it as `saan gradcheck`.
"""

from dataclasses import dataclass

import numpy as np

from . import ops

DEFAULT_TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float
    passed: bool


def grad_check(f, inputs, h=1e-3, exclude=None, max_coords_per_input=None, rng=None):
    """Worst-case relative error between analytic and numerical gradients.

    `f(*inputs)` must return `(scalar_loss, [grad_per_input])`. Each input
    coordinate is perturbed by +-h and the central difference
    (f(x+h) - f(x-h)) / 2h is compared to the analytic entry as
    |ga - gn| / max(1e-8, |ga| + |gn|).

    `exclude` is an optional per-input boolean mask of coordinates to skip
    (non-differentiable points such as relu kinks). `max_coords_per_input`
    subsamples coordinates with `rng` to bound cost on large tensors.
    """
    for i, x in enumerate(inputs):
        if not isinstance(x, np.ndarray) or x.dtype != np.float64:
            raise ValueError(
                f"grad_check input {i} must be a 64-bit float array, got "
                f"{getattr(x, 'dtype', type(x))}"
            )
    if rng is None:
        rng = np.random.default_rng(0)

    _, analytic = f(*inputs)
    if len(analytic) != len(inputs):
        raise ValueError(f"f returned {len(analytic)} gradients for {len(inputs)} inputs")

    worst = 0.0
    for i, x in enumerate(inputs):
        ga = np.asarray(analytic[i], dtype=np.float64)
        if ga.shape != x.shape:
            raise ValueError(f"gradient {i} has shape {ga.shape}, input has {x.shape}")
        coords = np.arange(x.size)
        if exclude is not None and exclude[i] is not None:
            mask = np.asarray(exclude[i], dtype=bool).reshape(-1)
            coords = coords[~mask]
        if max_coords_per_input is not None and coords.size > max_coords_per_input:
            coords = np.sort(rng.choice(coords, size=max_coords_per_input, replace=False))
        for c in coords:
            orig = x.flat[c]
            x.flat[c] = orig + h
            lp, _ = f(*inputs)
            x.flat[c] = orig - h
            lm, _ = f(*inputs)
            x.flat[c] = orig
            gn = (lp - lm) / (2.0 * h)
            gac = ga.flat[c]
            rel = abs(gac - gn) / max(1e-8, abs(gac) + abs(gn))
            if rel > worst:
                worst = rel
    return worst


def _proj_loss(y, r):
    return float((y * r).sum())


def _check_conv2d(rng):
    # batch 2, k 5 on a non-square map: col2im taps past 3x3 hit both edges
    x = rng.uniform(-1, 1, (2, 2, 5, 7))
    w = rng.uniform(-1, 1, (3, 2, 5, 5))
    b = rng.uniform(-1, 1, 3)
    r = rng.uniform(-1, 1, (2, 3, 5, 7))

    def f(x_, w_, b_):
        y = ops.conv2d(x_, w_, b_)
        return _proj_loss(y, r), list(ops.conv2d_backward(r, x_, w_))

    return grad_check(f, [x, w, b])


def _check_conv2d_transpose(rng):
    # batch 2, cin != cout on a non-square map: the GEMM's [Cout*16] row
    # layout and every tap's strided add both show in the gradients
    x = rng.uniform(-1, 1, (2, 3, 3, 5))
    w = rng.uniform(-1, 1, (3, 2, 4, 4))
    b = rng.uniform(-1, 1, 2)
    r = rng.uniform(-1, 1, (2, 2, 6, 10))

    def f(x_, w_, b_):
        y = ops.conv2d_transpose(x_, w_, b_)
        return _proj_loss(y, r), list(ops.conv2d_transpose_backward(r, x_, w_))

    return grad_check(f, [x, w, b])


def _check_maxpool2(rng):
    # distinct values keep the argmax stable under the FD stencil
    x = rng.permutation(np.arange(64, dtype=np.float64) / 7.0).reshape(1, 1, 8, 8)
    r = rng.uniform(-1, 1, (1, 1, 4, 4))

    def f(x_):
        y, idx = ops.maxpool2(x_)
        return _proj_loss(y, r), [ops.maxpool2_backward(r, idx, x_.shape)]

    return grad_check(f, [x])


def _check_fully_connected(rng):
    x = rng.uniform(-1, 1, (3, 4))
    w = rng.uniform(-1, 1, (4, 5))
    b = rng.uniform(-1, 1, 5)
    r = rng.uniform(-1, 1, (3, 5))

    def f(x_, w_, b_):
        y = ops.fully_connected(x_, w_, b_)
        return _proj_loss(y, r), list(ops.fully_connected_backward(r, x_, w_))

    return grad_check(f, [x, w, b])


def _check_relu(rng):
    x = rng.uniform(-1, 1, (4, 6))
    x[np.abs(x) < 0.05] = 0.5
    r = rng.uniform(-1, 1, (4, 6))

    def f(x_):
        return _proj_loss(ops.relu(x_), r), [ops.relu_backward(r, x_)]

    return grad_check(f, [x])


def _check_sigmoid(rng):
    x = rng.uniform(-2, 2, (3, 5))
    r = rng.uniform(-1, 1, (3, 5))

    def f(x_):
        y = ops.sigmoid(x_)
        return _proj_loss(y, r), [ops.sigmoid_backward(r, y)]

    return grad_check(f, [x])


def _check_softmax(rng):
    x = rng.uniform(-2, 2, (3, 4))
    r = rng.uniform(-1, 1, (3, 4))

    def f(x_):
        y = ops.softmax(x_)
        return _proj_loss(y, r), [ops.softmax_backward(r, y)]

    return grad_check(f, [x])


def _check_concat_channels(rng):
    a = rng.uniform(-1, 1, (1, 2, 3, 3))
    b = rng.uniform(-1, 1, (1, 3, 3, 3))
    r = rng.uniform(-1, 1, (1, 5, 3, 3))

    def f(a_, b_):
        y = ops.concat_channels([a_, b_])
        return _proj_loss(y, r), list(ops.split_channels(r, [2, 3]))

    return grad_check(f, [a, b])


def _check_scale_broadcast_mul(rng):
    f0 = rng.uniform(-1, 1, (2, 3, 3, 3))
    g0 = rng.uniform(0.2, 1, 2)
    l0 = rng.uniform(0.2, 1, (2, 1, 3, 3))
    r = rng.uniform(-1, 1, (2, 3, 3, 3))

    def f(f_, g_, l_):
        y = ops.scale_broadcast_mul(f_, g_, l_)
        return _proj_loss(y, r), list(ops.scale_broadcast_mul_backward(r, f_, g_, l_))

    return grad_check(f, [f0, g0, l0])


def _check_density_loss(rng):
    from . import losses

    pred = rng.uniform(-0.5, 0.5, (2, 1, 4, 4))
    target = rng.uniform(0, 0.5, (2, 1, 4, 4))

    def f(p_):
        value, grad = losses.loss_dm(p_, target)
        return float(value), [grad]

    return grad_check(f, [pred])


def _check_softmax_ce_loss(rng):
    from . import losses

    logits = rng.uniform(-1, 1, (4, 3))
    labels = np.array([1, 3, 2, 3])

    def f(z_):
        value, grad = losses.loss_gsa(z_, labels)
        return float(value), [grad]

    return grad_check(f, [logits])


def _check_local_ce_loss(rng):
    from . import losses

    logits = rng.uniform(-1, 1, (2, 3, 4, 4))
    labels = rng.integers(1, 4, (2, 4, 4))

    def f(z_):
        value, grad = losses.loss_lsa(z_, labels)
        return float(value), [grad]

    return grad_check(f, [logits])


def _activation_signature(out):
    """Discrete state of a forward pass: every relu sign, every pool argmax.

    Central differences are only valid where the model is smooth; a
    coordinate whose +-h perturbation changes this signature sits inside
    a relu kink or a pool tie and must be excluded, generalizing the
    single-op rule of skipping relu inputs at exactly 0. A weighted
    layer's cache entry[3] is its post-activation output, positive
    exactly where the relu's input is.
    """
    sig = []
    cache = out.cache
    lists = list(cache["branch_caches"])
    for key in ("gsa_cache", "lsa_cache", "fn_cache"):
        if cache[key] is not None:
            lists.append(cache[key])
    for caches in lists:
        for entry in caches:
            if entry[0] in ("conv", "deconv", "fc"):
                if entry[4] == "relu":
                    sig.append(entry[3] > 0)
            elif entry[0] == "pool":
                sig.append(entry[4])
    return sig


def _same_signature(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _check_end_to_end(rng, h=1e-3, coords_per_tensor=3):
    from . import losses, network, params

    arch = network.Arch.tiny()
    p = params.init_params(arch, rng=np.random.default_rng(int(rng.integers(1 << 31))))
    p = {k: v.astype(np.float64) for k, v in p.items()}
    x = rng.uniform(0.0, 1.0, (2, 1, 8, 8))
    target = rng.uniform(0.0, 0.05, (2, 1, 8, 8))
    scale_labels = np.array([1, 3])
    local_labels = rng.integers(1, 4, (2, 2, 2))

    def evaluate():
        out = network.model_forward(x, p, arch)
        report, grads_out = losses.total_loss(
            out, target, scale_labels, local_labels, lambda_g=1.0, lambda_l=1.0
        )
        return out, report.l_final

    base_out, _ = evaluate()
    base_sig = _activation_signature(base_out)
    _, grads_out = losses.total_loss(
        base_out, target, scale_labels, local_labels, lambda_g=1.0, lambda_l=1.0
    )
    analytic = network.model_backward(grads_out, base_out, p, arch)

    worst = 0.0
    for name in sorted(p):
        tensor = p[name]
        ga = analytic[name]
        candidates = rng.permutation(tensor.size)[: 4 * coords_per_tensor]
        used = 0
        for c in candidates:
            if used >= coords_per_tensor:
                break
            orig = tensor.flat[c]
            tensor.flat[c] = orig + h
            out_p, lp = evaluate()
            tensor.flat[c] = orig - h
            out_m, lm = evaluate()
            tensor.flat[c] = orig
            if not (_same_signature(base_sig, _activation_signature(out_p))
                    and _same_signature(base_sig, _activation_signature(out_m))):
                continue  # kink or tie inside the stencil
            used += 1
            gn = (lp - lm) / (2.0 * h)
            gac = ga.flat[c]
            rel = abs(gac - gn) / max(1e-8, abs(gac) + abs(gn))
            if rel > worst:
                worst = rel
    return worst


_CHECKS = [
    ("conv2d", _check_conv2d),
    ("conv2d_transpose", _check_conv2d_transpose),
    ("maxpool2", _check_maxpool2),
    ("fully_connected", _check_fully_connected),
    ("relu", _check_relu),
    ("sigmoid", _check_sigmoid),
    ("softmax", _check_softmax),
    ("concat_channels", _check_concat_channels),
    ("scale_broadcast_mul", _check_scale_broadcast_mul),
    ("density_loss", _check_density_loss),
    ("scale_cross_entropy", _check_softmax_ce_loss),
    ("local_cross_entropy", _check_local_ce_loss),
    ("end_to_end", _check_end_to_end),
]


def run_suite(seed=0):
    """Run every named gradient check; returns a list of CheckResult."""
    results = []
    for offset, (name, fn) in enumerate(_CHECKS):
        rng = np.random.default_rng([seed, offset])
        err = fn(rng)
        results.append(
            CheckResult(
                name=name,
                max_rel_err=float(err),
                tolerance=DEFAULT_TOLERANCE,
                passed=bool(err < DEFAULT_TOLERANCE),
            )
        )
    return results
