"""Finite-difference verification of the analytic backward passes.

`grad_check` compares analytic gradients against central differences in
float64. `run_suite` runs one named check per op and per loss, drawn from
the two case tables below, plus a full end-to-end model check; the CLI
surfaces it as `saan gradcheck`.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import losses, network, ops, params

DEFAULT_TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float
    passed: bool


def _rel_err(ga, gn):
    return abs(ga - gn) / max(1e-8, abs(ga) + abs(gn))


def grad_check(f, inputs, h=1e-3):
    """Worst-case relative error between analytic and numerical gradients.

    `f(*inputs)` must return `(scalar_loss, [grad_per_input])`. Each input
    coordinate is perturbed by +-h and the central difference
    (f(x+h) - f(x-h)) / 2h is compared to the analytic entry as
    |ga - gn| / max(1e-8, |ga| + |gn|).
    """
    for i, x in enumerate(inputs):
        if not isinstance(x, np.ndarray) or x.dtype != np.float64:
            raise ValueError(
                f"grad_check input {i} must be a 64-bit float array, got "
                f"{getattr(x, 'dtype', type(x))}"
            )

    _, analytic = f(*inputs)
    if len(analytic) != len(inputs):
        raise ValueError(f"f returned {len(analytic)} gradients for {len(inputs)} inputs")

    worst = 0.0
    for i, x in enumerate(inputs):
        ga = np.asarray(analytic[i], dtype=np.float64)
        if ga.shape != x.shape:
            raise ValueError(f"gradient {i} has shape {ga.shape}, input has {x.shape}")
        for c in range(x.size):
            orig = x.flat[c]
            x.flat[c] = orig + h
            lp, _ = f(*inputs)
            x.flat[c] = orig - h
            lm, _ = f(*inputs)
            x.flat[c] = orig
            worst = max(worst, _rel_err(ga.flat[c], (lp - lm) / (2.0 * h)))
    return worst


def _uniform(rng, *shapes):
    return [rng.uniform(-1, 1, shape) for shape in shapes]


def _draw_relu_input(rng):
    # no coordinate within h of the kink at 0
    x = rng.uniform(-1, 1, (4, 6))
    return [np.where(np.abs(x) < 0.05, 0.5, x)]


# (name, draw(rng) -> inputs, forward(*inputs), backward(r, y, *inputs)),
# checked on the projected loss sum(forward(*inputs) * r)
_OP_CASES = [
    # batch 2, k 5 on a non-square map: taps past 3x3 hit both edges in the
    # forward and in the input gradient's flipped-kernel conv of gy
    ("conv2d", lambda rng: _uniform(rng, (2, 2, 5, 7), (3, 2, 5, 5), 3),
     ops.conv2d, lambda r, y, x, w, b: ops.conv2d_backward(r, x, w)),
    # batch 2, cin != cout on a non-square map: the GEMM's [Cout*16] row
    # layout and every tap's strided add both show in the gradients
    ("conv2d_transpose", lambda rng: _uniform(rng, (2, 3, 3, 5), (3, 2, 4, 4), 2),
     ops.conv2d_transpose, lambda r, y, x, w, b: ops.conv2d_transpose_backward(r, x, w)),
    # distinct values keep the argmax stable under the FD stencil
    ("maxpool2",
     lambda rng: [rng.permutation(np.arange(64, dtype=np.float64) / 7.0).reshape(1, 1, 8, 8)],
     lambda x: ops.maxpool2(x)[0],
     lambda r, y, x: [ops.maxpool2_backward(r, ops.maxpool2(x)[1], x.shape)]),
    ("fully_connected", lambda rng: _uniform(rng, (3, 4), (4, 5), 5),
     ops.fully_connected, lambda r, y, x, w, b: ops.fully_connected_backward(r, x, w)),
    ("relu", _draw_relu_input, lambda x: np.maximum(x, 0),
     lambda r, y, x: [ops.relu_backward(r, x)]),
    ("sigmoid", lambda rng: [rng.uniform(-2, 2, (3, 5))],
     ops.sigmoid, lambda r, y, x: [ops.sigmoid_backward(r, y)]),
    ("softmax", lambda rng: [rng.uniform(-2, 2, (3, 4))],
     ops.softmax, lambda r, y, x: [ops.softmax_backward(r, y)]),
    ("concat_channels", lambda rng: _uniform(rng, (1, 2, 3, 3), (1, 3, 3, 3)),
     lambda a, b: ops.concat_channels([a, b]),
     lambda r, y, a, b: ops.split_channels(r, [2, 3])),
    ("scale_broadcast_mul",
     lambda rng: [rng.uniform(-1, 1, (2, 3, 3, 3)), rng.uniform(0.2, 1, 2),
                  rng.uniform(0.2, 1, (2, 1, 3, 3))],
     ops.scale_broadcast_mul, lambda r, y, *fgl: ops.scale_broadcast_mul_backward(r, *fgl)),
]

# (name, draw(rng) -> (prediction, target), loss(prediction, target) -> (value, grad))
_LOSS_CASES = [
    ("density_loss",
     lambda rng: (rng.uniform(-0.5, 0.5, (2, 1, 4, 4)), rng.uniform(0, 0.5, (2, 1, 4, 4))),
     losses.loss_dm),
    ("scale_cross_entropy",
     lambda rng: (rng.uniform(-1, 1, (4, 3)), np.array([1, 3, 2, 3])),
     losses.loss_gsa),
    ("local_cross_entropy",
     lambda rng: (rng.uniform(-1, 1, (2, 3, 4, 4)), rng.integers(1, 4, (2, 4, 4))),
     losses.loss_lsa),
]


def _check_op(rng, draw, forward, backward):
    inputs = draw(rng)
    r = rng.uniform(-1, 1, forward(*inputs).shape)

    def f(*xs):
        y = forward(*xs)
        return float((y * r).sum()), list(backward(r, y, *xs))

    return grad_check(f, inputs)


def _check_loss(rng, draw, loss):
    pred, target = draw(rng)

    def f(p_):
        value, grad = loss(p_, target)
        return float(value), [grad]

    return grad_check(f, [pred])


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


def _check_end_to_end(rng):
    h, coords_per_tensor = 1e-3, 3
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
        return out, report.l_final, grads_out

    base_out, _, grads_out = evaluate()
    base_sig = _activation_signature(base_out)
    analytic = network.model_backward(grads_out, base_out, p)

    worst = 0.0
    for name in sorted(p):
        tensor = p[name]
        candidates = rng.permutation(tensor.size)[: 4 * coords_per_tensor]
        used = 0
        for c in candidates:
            if used >= coords_per_tensor:
                break
            orig = tensor.flat[c]
            tensor.flat[c] = orig + h
            out_p, lp, _ = evaluate()
            tensor.flat[c] = orig - h
            out_m, lm, _ = evaluate()
            tensor.flat[c] = orig
            if not (_same_signature(base_sig, _activation_signature(out_p))
                    and _same_signature(base_sig, _activation_signature(out_m))):
                continue  # kink or tie inside the stencil
            used += 1
            worst = max(worst, _rel_err(analytic[name].flat[c], (lp - lm) / (2.0 * h)))
    return worst


# the order fixes each case's rng stream, default_rng([seed, offset])
_CHECKS = (
    [(name, partial(_check_op, draw=draw, forward=fwd, backward=bwd))
     for name, draw, fwd, bwd in _OP_CASES]
    + [(name, partial(_check_loss, draw=draw, loss=loss)) for name, draw, loss in _LOSS_CASES]
    + [("end_to_end", _check_end_to_end)]
)


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
