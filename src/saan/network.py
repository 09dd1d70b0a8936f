"""The scale-aware attention counting network.

Four sub-networks over a single grayscale input:

  MFE   three parallel conv branches with different filter sizes; each
        downsamples to H/4 x W/4 with depths 24/16/8 (low/mid/high).
  GSA   conv stack + global average pooling + two FC layers + softmax;
        one score per density level, rows sum to 1.
  LSA   eight 3x3 convs with two pools, then three 1x1 convs + sigmoid;
        per-pixel scores at H/4 x W/4, one channel per density level.
  FN    fusion: concat the attention-weighted features, two convs, two
        x2 transposed convs back to full resolution, linear 1x1 head.

Branch i is weighted as a_i = g_i * l_i * f_i before fusion; the count
is the sum of the predicted density map. Arbitrary input sizes are
handled by reflect-padding H,W to the next multiple of 4 and cropping
the density map back.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import ops
from .errors import SaanError, ShapeError
from .layers import seq_backward, seq_forward


def _shrink(width):
    return max(1, width // 4)


@dataclass(frozen=True)
class Arch:
    """Channel plan for all four sub-networks.

    mfe_branches: per branch, three (kernel, width) convs with a pool
    after each of the first two. gsa_convs likewise but with three pools.
    lsa_trunk lists eight 3x3 conv widths (pools after the 2nd and 4th);
    lsa_head lists the hidden 1x1 widths before the fixed 3-channel head.
    """

    mfe_branches: tuple = (
        ((9, 16), (7, 20), (7, 24)),
        ((7, 12), (5, 14), (5, 16)),
        ((5, 8), (3, 8), (3, 8)),
    )
    gsa_convs: tuple = ((7, 8), (5, 16), (3, 32))
    gsa_hidden: int = 16
    lsa_trunk: tuple = (8, 8, 16, 16, 32, 32, 32, 32)
    lsa_head: tuple = (32, 16)
    fn_convs: tuple = (64, 32)
    fn_deconvs: tuple = (16, 16)

    @classmethod
    def default(cls):
        return cls()

    @classmethod
    def tiny(cls):
        """Same topology at quarter width; for finite-difference checks."""
        d = cls()
        return cls(
            mfe_branches=tuple(
                tuple((k, _shrink(c)) for k, c in branch) for branch in d.mfe_branches
            ),
            gsa_convs=tuple((k, _shrink(c)) for k, c in d.gsa_convs),
            gsa_hidden=_shrink(d.gsa_hidden),
            lsa_trunk=tuple(_shrink(c) for c in d.lsa_trunk),
            lsa_head=tuple(_shrink(c) for c in d.lsa_head),
            fn_convs=tuple(_shrink(c) for c in d.fn_convs),
            fn_deconvs=tuple(_shrink(c) for c in d.fn_deconvs),
        )

    @property
    def feature_depths(self):
        return tuple(branch[-1][1] for branch in self.mfe_branches)

    def _branch_spec(self, branch):
        (k0, c0), (k1, c1), (k2, c2) = branch
        return [
            ("conv0", "conv", k0, c0, "relu"),
            ("pool0", "pool"),
            ("conv1", "conv", k1, c1, "relu"),
            ("pool1", "pool"),
            ("conv2", "conv", k2, c2, "relu"),
        ]

    def _gsa_spec(self):
        spec = []
        for i, (k, c) in enumerate(self.gsa_convs):
            spec.append((f"conv{i}", "conv", k, c, "relu"))
            spec.append((f"pool{i}", "pool"))
        spec.append(("gap", "gap"))
        spec.append(("fc0", "fc", self.gsa_hidden, "relu"))
        spec.append(("fc1", "fc", 3, "linear"))
        return spec

    def _lsa_spec(self):
        spec = []
        pools_after = {1, 3}
        for i, c in enumerate(self.lsa_trunk):
            spec.append((f"conv{i}", "conv", 3, c, "relu"))
            if i in pools_after:
                spec.append((f"pool{len([p for p in pools_after if p <= i]) - 1}", "pool"))
        for i, c in enumerate(self.lsa_head):
            spec.append((f"head{i}", "conv", 1, c, "relu"))
        spec.append((f"head{len(self.lsa_head)}", "conv", 1, 3, "linear"))
        return spec

    def _fn_spec(self):
        spec = []
        for i, c in enumerate(self.fn_convs):
            spec.append((f"conv{i}", "conv", 3, c, "relu"))
        for i, c in enumerate(self.fn_deconvs):
            spec.append((f"deconv{i}", "deconv", c, "relu"))
        spec.append((f"conv{len(self.fn_convs)}", "conv", 1, 1, "linear"))
        return spec

    def subnets(self):
        """All (prefix, layer spec, input channels) triples, fixed order."""
        out = []
        for i, branch in enumerate(self.mfe_branches, start=1):
            out.append((f"mfe.branch{i}", self._branch_spec(branch), 1))
        out.append(("gsa", self._gsa_spec(), 1))
        out.append(("lsa", self._lsa_spec(), 1))
        out.append(("fn", self._fn_spec(), sum(self.feature_depths)))
        return out


@dataclass
class ForwardOutputs:
    """Everything the losses and the backward pass need from one pass."""

    density: np.ndarray                 # [N,1,H,W], original dims
    global_scores: Optional[np.ndarray]  # [N,3] post-softmax (None if GSA off)
    global_logits: Optional[np.ndarray]  # [N,3]
    local_maps: Optional[np.ndarray]     # [N,3,H/4,W/4] post-sigmoid
    local_logits: Optional[np.ndarray]
    features: tuple                      # (f1,f2,f3) at H/4 x W/4
    cache: dict = field(default_factory=dict, repr=False)  # empty if not kept


def model_forward(image, params, arch=None, lsa_enabled=True, gsa_enabled=True,
                  keep_caches=True):
    """Full pipeline. Pads H,W (reflect) to multiples of 4, crops back.

    lsa_enabled=False forces l to all-ones (training phase 1);
    gsa_enabled=False likewise forces g to 1 (ablation variants).
    Returns ForwardOutputs with caches for model_backward; with
    keep_caches=False (inference) no layer cache is kept and the outputs
    cannot be walked back.
    """
    arch = arch or Arch.default()
    if image.ndim != 4 or image.shape[1] != 1:
        raise ShapeError(f"expected image batch [N,1,H,W], got {image.shape}")
    n, _, h, w = image.shape
    pad_h = (-h) % 4
    pad_w = (-w) % 4
    xp = image
    if pad_h or pad_w:
        xp = np.pad(image, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), mode="reflect")
    hp, wp = xp.shape[2], xp.shape[3]
    if hp < 8 or wp < 8:
        raise ShapeError(f"input too small: padded size {hp}x{wp}, need >= 8")
    specs = {prefix: spec for prefix, spec, _ in arch.subnets()}

    # GSA and LSA first: LSA's full-resolution maps are the forward's
    # largest, and run before the MFE features exist they never sit
    # beside them (the subnets share no state, so no bit moves)
    if gsa_enabled:
        global_logits, gsa_cache = seq_forward(xp, params, "gsa", specs["gsa"], keep_caches)
        g = ops.softmax(global_logits)
    else:
        global_logits, gsa_cache = None, None
        g = np.ones((n, 3), dtype=image.dtype)

    if lsa_enabled:
        local_logits, lsa_cache = seq_forward(xp, params, "lsa", specs["lsa"], keep_caches)
        l = ops.sigmoid(local_logits)
    else:
        local_logits, lsa_cache = None, None
        l = np.ones((n, 3, hp // 4, wp // 4), dtype=image.dtype)

    feats = []
    branch_caches = []
    for i in range(1, 4):
        prefix = f"mfe.branch{i}"
        f, c = seq_forward(xp, params, prefix, specs[prefix], keep_caches)
        feats.append(f)
        branch_caches.append(c)

    # passed on unnamed, so the FN stack holds the only reference to its
    # input and frees it after its first layer when it keeps no caches
    density_pad, fn_cache = seq_forward(ops.concat_channels([
        ops.scale_broadcast_mul(feats[i], np.ascontiguousarray(g[:, i]), l[:, i : i + 1])
        for i in range(3)
    ]), params, "fn", specs["fn"], keep_caches)
    density = density_pad[:, :, :h, :w]

    return ForwardOutputs(
        density=np.ascontiguousarray(density),
        global_scores=g if gsa_enabled else None,
        global_logits=global_logits,
        local_maps=l if lsa_enabled else None,
        local_logits=local_logits,
        features=tuple(feats),
        cache={
            "branch_caches": branch_caches,
            "gsa_cache": gsa_cache,
            "lsa_cache": lsa_cache,
            "fn_cache": fn_cache,
            "g": g,
            "l": l,
        } if keep_caches else {},
    )


def model_backward(grads_out, out, params):
    """Parameter gradients of the losses applied to a forward pass.

    grads_out maps output names to upstream gradients: "density" is
    required; "global_logits"/"local_logits" add the direct classifier
    terms on top of the attention-path gradients. Sub-networks that were
    disabled in the forward pass (their logits are None) get no entries
    in the result. Shapes and feature depths come from the outputs.
    """
    c = out.cache
    if not c:
        raise SaanError("model_backward needs a forward pass run with keep_caches=True")
    g, l = c["g"], c["l"]

    # the density is cropped from the padded input, 4x the features' size
    h, w = out.density.shape[2:]
    hp, wp = (4 * d for d in out.features[0].shape[2:])
    gd = np.pad(grads_out["density"], ((0, 0), (0, 0), (0, hp - h), (0, wp - w)))

    grads = {}
    gcat, fn_grads = seq_backward(gd, c["fn_cache"], params)
    grads.update(fn_grads)

    parts = ops.split_channels(gcat, [f.shape[1] for f in out.features])
    gg_cols = []
    gl_chans = []
    for i in range(3):
        gf, ggi, gli = ops.scale_broadcast_mul_backward(
            parts[i], out.features[i], np.ascontiguousarray(g[:, i]), l[:, i : i + 1]
        )
        _, bgrads = seq_backward(gf, c["branch_caches"][i], params, input_grad=False)
        grads.update(bgrads)
        gg_cols.append(ggi)
        gl_chans.append(gli)

    if out.global_logits is not None:
        g_grad = np.stack(gg_cols, axis=1)
        logits_grad = ops.softmax_backward(g_grad, out.global_scores)
        if grads_out.get("global_logits") is not None:
            logits_grad = logits_grad + grads_out["global_logits"]
        _, gsa_grads = seq_backward(logits_grad, c["gsa_cache"], params, input_grad=False)
        grads.update(gsa_grads)

    if out.local_logits is not None:
        l_grad = ops.concat_channels(gl_chans)
        logits_grad = ops.sigmoid_backward(l_grad, out.local_maps)
        if grads_out.get("local_logits") is not None:
            logits_grad = logits_grad + grads_out["local_logits"]
        _, lsa_grads = seq_backward(logits_grad, c["lsa_cache"], params, input_grad=False)
        grads.update(lsa_grads)

    return grads
