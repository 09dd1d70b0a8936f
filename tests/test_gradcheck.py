"""Tests for the finite-difference gradient checker itself."""

import numpy as np
import pytest

from saan import ops
from saan.gradcheck import grad_check, run_suite


def test_linear_function_is_exact():
    rng = np.random.default_rng(0)
    coef = rng.uniform(-1, 1, (4, 4))
    x = rng.uniform(-1, 1, (4, 4))

    def f(x_):
        return float((x_ * coef).sum()), [coef]

    assert grad_check(f, [x], h=1e-3) < 1e-9


def test_requires_float64():
    def f(x_):
        return float(x_.sum()), [np.ones_like(x_)]

    with pytest.raises(ValueError, match="64-bit"):
        grad_check(f, [np.ones(3, dtype=np.float32)], h=1e-3)


def test_relu_kink_is_reported():
    x = np.array([-0.5, 0.0, 0.7])
    r = np.array([1.0, 1.0, 1.0])

    def f(x_):
        return float((np.maximum(x_, 0) * r).sum()), [ops.relu_backward(r, x_)]

    # at the exact kink the two-sided difference disagrees with the
    # analytic convention, and the checker must say so
    assert grad_check(f, [x], h=1e-3) > 1e-4


def test_suite_passes_and_covers_all_ops():
    results = run_suite(seed=0)
    names = {r.name for r in results}
    # every op with a backward, named by its forward, plus the losses
    required = {name[: -len("_backward")] for name in dir(ops)
                if name.endswith("_backward") and not name.startswith("_")}
    required |= {"density_loss", "scale_cross_entropy", "local_cross_entropy", "end_to_end"}
    assert required <= names, sorted(required - names)
    for r in results:
        assert r.max_rel_err < r.tolerance, f"{r.name}: {r.max_rel_err}"


def test_suite_deterministic():
    r1 = run_suite(seed=7)
    r2 = run_suite(seed=7)
    assert [(a.name, a.max_rel_err) for a in r1] == [(b.name, b.max_rel_err) for b in r2]
