"""Training losses and counting metrics.

Three terms: a Frobenius penalty on the predicted density map, a global
3-class cross-entropy on the scale scores, and a per-pixel 3-class
cross-entropy on the local scale maps, combined as
l_dm + lambda_g * l_gsa + lambda_l * l_lsa. Each loss returns
(scalar, gradient w.r.t. its prediction input) so the trainer never
differentiates anything itself. Class labels are 1-based ({1,2,3})
everywhere outside this module; they are shifted to 0-based indices
internally.
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ShapeError


@dataclass
class LossReport:
    l_dm: float
    l_gsa: float
    l_lsa: float
    l_final: float


def loss_dm(pred, gt):
    """Half squared Frobenius distance per image, averaged over the batch.

    Returns (value, grad) with grad = (pred - gt) / N.
    """
    if pred.shape != gt.shape:
        raise ShapeError(f"density shapes differ: {pred.shape} vs {gt.shape}")
    n = pred.shape[0]
    diff = pred - gt
    value = 0.5 * float((diff * diff).sum()) / n
    return value, diff / n


def _check_classes(labels):
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 1 or labels.max() > 3):
        raise ValueError(f"scale classes must lie in {{1,2,3}}, got range "
                         f"[{labels.min()}, {labels.max()}]")
    return labels - 1


def _logsumexp_rows(z):
    m = z.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True)))[:, 0]


def loss_gsa(global_logits, g_gt):
    """Batch-mean 3-class cross-entropy on the global scale logits.

    g_gt holds 1-based classes. Returns (value, grad w.r.t. logits).
    """
    y = _check_classes(g_gt)
    n = global_logits.shape[0]
    rows = np.arange(n)
    value = float((_logsumexp_rows(global_logits) - global_logits[rows, y]).mean())
    p = ops.softmax(global_logits)
    p[rows, y] -= 1.0
    return value, p / n


def loss_lsa(local_logits, l_gt):
    """Per-pixel 3-class cross-entropy on local scale logits, mean over
    batch and pixels. l_gt: [N,h,w] of 1-based classes."""
    n, k, h, w = local_logits.shape
    if l_gt.shape != (n, h, w):
        raise ShapeError(f"local labels {l_gt.shape} do not match logits {local_logits.shape}")
    z = local_logits.transpose(0, 2, 3, 1).reshape(-1, k)  # [N*h*w, 3]
    value, g = loss_gsa(z, l_gt.reshape(-1))
    return value, np.ascontiguousarray(g.reshape(n, h, w, k).transpose(0, 3, 1, 2))


def total_loss(out, gt_density, g_gt, l_gt, lambda_g, lambda_l):
    """Full objective over a ForwardOutputs bundle.

    Returns (LossReport, grads) where grads maps output names
    ("density", "global_logits", "local_logits") to gradients of the
    weighted total w.r.t. that output. A head switched off in the forward
    pass drops its term (component reported as 0, no gradient key); a
    zero lambda keeps the term's value in the report but not in l_final.
    """
    grads = {}
    dm_value, dm_grad = loss_dm(out.density, gt_density)
    grads["density"] = dm_grad

    gsa_value = 0.0
    if out.global_logits is not None:
        gsa_value, gsa_grad = loss_gsa(out.global_logits, g_gt)
        grads["global_logits"] = lambda_g * gsa_grad

    lsa_value = 0.0
    if out.local_logits is not None:
        lsa_value, lsa_grad = loss_lsa(out.local_logits, l_gt)
        grads["local_logits"] = lambda_l * lsa_grad

    report = LossReport(
        l_dm=dm_value,
        l_gsa=gsa_value,
        l_lsa=lsa_value,
        l_final=dm_value + lambda_g * gsa_value + lambda_l * lsa_value,
    )
    return report, grads


def mae(pred_counts, gt_counts):
    """Mean absolute count error."""
    pred = np.asarray(pred_counts, dtype=np.float64)
    gt = np.asarray(gt_counts, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"count vectors differ in length: {pred.shape} vs {gt.shape}")
    if pred.size == 0:
        raise ValueError("mae needs at least one sample")
    return float(np.abs(pred - gt).mean())


def mse(pred_counts, gt_counts):
    """Root of the mean squared count error (the conventional printed form)."""
    pred = np.asarray(pred_counts, dtype=np.float64)
    gt = np.asarray(gt_counts, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"count vectors differ in length: {pred.shape} vs {gt.shape}")
    if pred.size == 0:
        raise ValueError("mse needs at least one sample")
    return float(np.sqrt(((pred - gt) ** 2).mean()))
