"""Tests for the loss terms, their combination, and the count metrics."""

import numpy as np
import pytest

from saan import losses
from saan.errors import ShapeError
from saan.gradcheck import grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(77)


class TestLossDm:
    def test_zero_at_equality(self, rng):
        pred = rng.uniform(0, 1, (2, 1, 4, 4))
        value, grad = losses.loss_dm(pred, pred.copy())
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(pred))

    def test_direct_arithmetic(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        value, _ = losses.loss_dm(pred, np.zeros_like(pred))
        assert value == 0.5 * (1 + 4 + 9 + 16)

    def test_gradient_is_scaled_residual(self, rng):
        pred = rng.uniform(0, 1, (4, 1, 3, 3))
        gt = rng.uniform(0, 1, (4, 1, 3, 3))
        _, grad = losses.loss_dm(pred, gt)
        np.testing.assert_array_equal(grad, (pred - gt) / 4)

    def test_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            losses.loss_dm(rng.uniform(0, 1, (1, 1, 2, 2)), rng.uniform(0, 1, (1, 1, 3, 2)))

    def test_finite_differences(self, rng):
        pred = rng.uniform(-0.5, 0.5, (2, 1, 3, 3))
        gt = rng.uniform(0, 0.5, (2, 1, 3, 3))

        def f(p_):
            v, g = losses.loss_dm(p_, gt)
            return v, [g]

        assert grad_check(f, [pred], h=1e-3) < 1e-4


class TestLossGsa:
    def test_uniform_logits(self):
        value, _ = losses.loss_gsa(np.zeros((5, 3)), np.array([1, 2, 3, 1, 2]))
        np.testing.assert_allclose(value, np.log(3.0), atol=1e-12)

    def test_confident_correct_goes_to_zero(self):
        logits = np.array([[40.0, 0.0, 0.0]])
        value, _ = losses.loss_gsa(logits, np.array([1]))
        assert value < 1e-6

    def test_shift_invariance(self, rng):
        logits = rng.uniform(-2, 2, (4, 3))
        y = np.array([1, 3, 2, 2])
        v1, _ = losses.loss_gsa(logits, y)
        v2, _ = losses.loss_gsa(logits + 11.25, y)
        np.testing.assert_allclose(v1, v2, atol=1e-9)

    def test_class_out_of_range(self, rng):
        with pytest.raises(ValueError, match="1,2,3"):
            losses.loss_gsa(rng.uniform(-1, 1, (2, 3)), np.array([0, 2]))
        with pytest.raises(ValueError, match="1,2,3"):
            losses.loss_gsa(rng.uniform(-1, 1, (2, 3)), np.array([1, 4]))

    def test_finite_differences(self, rng):
        logits = rng.uniform(-1, 1, (4, 3))

        def f(z_):
            v, g = losses.loss_gsa(z_, np.array([2, 1, 3, 2]))
            return v, [g]

        assert grad_check(f, [logits], h=1e-3) < 1e-4


class TestLossLsa:
    def test_uniform_logits(self, rng):
        logits = np.zeros((2, 3, 4, 4))
        labels = rng.integers(1, 4, (2, 4, 4))
        value, _ = losses.loss_lsa(logits, labels)
        np.testing.assert_allclose(value, np.log(3.0), atol=1e-12)

    def test_confident_correct_goes_to_zero(self):
        logits = np.zeros((1, 3, 2, 2))
        logits[:, 1] = 40.0  # channel of class 2
        value, _ = losses.loss_lsa(logits, np.full((1, 2, 2), 2))
        assert value < 1e-6

    def test_label_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            losses.loss_lsa(rng.uniform(-1, 1, (1, 3, 4, 4)), np.ones((1, 3, 3), dtype=int))

    def test_finite_differences(self, rng):
        logits = rng.uniform(-1, 1, (2, 3, 3, 3))
        labels = rng.integers(1, 4, (2, 3, 3))

        def f(z_):
            v, g = losses.loss_lsa(z_, labels)
            return v, [g]

        assert grad_check(f, [logits], h=1e-3) < 1e-4


class TestLossFinal:
    def _report(self, lambda_g, lambda_l):
        from saan.network import ForwardOutputs

        # l_dm = 0.5 * (1 + 1) = 1; zero logits give l_gsa = l_lsa = log 3
        out = ForwardOutputs(
            density=np.ones((1, 1, 1, 2)), global_scores=None,
            global_logits=np.zeros((2, 3)), local_maps=None,
            local_logits=np.zeros((1, 3, 2, 2)), features=(),
        )
        return losses.total_loss(out, np.zeros((1, 1, 1, 2)), np.array([1, 3]),
                                 np.full((1, 2, 2), 2), lambda_g, lambda_l)

    def test_weighted_sum(self):
        report, _ = self._report(0.1, 0.3)
        assert report.l_dm == 1.0
        assert report.l_final == pytest.approx(1.0 + 0.4 * np.log(3.0))

    def test_zero_weights_reduce_to_dm(self):
        report, grads = self._report(0.0, 0.0)
        assert report.l_gsa > 0 and report.l_lsa > 0
        assert report.l_final == report.l_dm
        assert not grads["global_logits"].any() and not grads["local_logits"].any()


class TestTotalLoss:
    def _forward_like(self, rng, **heads):
        from saan import network, params

        arch = network.Arch.tiny()
        p = params.init_params(arch, rng=np.random.default_rng(3))
        p = {k: v.astype(np.float64) for k, v in p.items()}
        x = rng.uniform(0, 1, (2, 1, 8, 8))
        return network.model_forward(x, p, arch, **heads), arch

    def test_decomposition_identity(self, rng):
        out, _ = self._forward_like(rng)
        gt = rng.uniform(0, 0.05, (2, 1, 8, 8))
        report, _ = losses.total_loss(
            out, gt, np.array([1, 2]), rng.integers(1, 4, (2, 2, 2)), 0.1, 0.1
        )
        resid = report.l_final - report.l_dm - 0.1 * report.l_gsa - 0.1 * report.l_lsa
        assert abs(resid) < 1e-6
        assert report.l_dm >= 0 and report.l_gsa >= 0 and report.l_lsa >= 0

    def test_disabled_terms_report_zero(self, rng):
        out, _ = self._forward_like(rng, gsa_enabled=False, lsa_enabled=False)
        gt = rng.uniform(0, 0.05, (2, 1, 8, 8))
        report, grads = losses.total_loss(
            out, gt, np.array([1, 2]), rng.integers(1, 4, (2, 2, 2)), 0.1, 0.1)
        assert report.l_gsa == 0.0 and report.l_lsa == 0.0
        assert report.l_final == report.l_dm
        assert set(grads) == {"density"}


class TestMetrics:
    def test_mae_zero(self):
        assert losses.mae([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_mae_arithmetic(self):
        assert losses.mae([10.0, 20.0], [12.0, 17.0]) == pytest.approx(2.5)

    def test_mae_permutation_invariant(self, rng):
        pred = rng.uniform(0, 50, 10)
        gt = rng.uniform(0, 50, 10)
        perm = rng.permutation(10)
        assert losses.mae(pred, gt) == pytest.approx(losses.mae(pred[perm], gt[perm]))

    def test_mse_arithmetic(self):
        assert losses.mse([10.0, 20.0], [12.0, 17.0]) == pytest.approx(np.sqrt(6.5))

    def test_mse_dominates_mae(self, rng):
        for _ in range(10):
            pred = rng.uniform(0, 50, 8)
            gt = rng.uniform(0, 50, 8)
            assert losses.mse(pred, gt) >= losses.mae(pred, gt) - 1e-12

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            losses.mae([], [])
        with pytest.raises(ValueError):
            losses.mse([], [])
