"""Two-phase Adam training, checkpointing, and evaluation over a manifest.

One schedule, `train`, serves `saan train` and every ablation variant.
Phase 1 trains MFE+GSA+FN with local attention forced to one; phase 2
re-initializes LSA and trains every sub-network under the full loss. A
variant without LSA runs phase 1 alone over both epoch budgets.
`_run_phase` alone decides what a phase turns on. The whole run is a
deterministic function of (config, manifest).
"""

import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import io_formats
from .density import global_scale_label, local_scale_map
from .errors import ConfigError, ManifestError, TrainingError
from .losses import mae, mse, total_loss
from .network import Arch, count_from_density, model_forward, model_backward
from .params import init_params, save_checkpoint, validate_inventory
from .synth import augment


@dataclass(frozen=True)
class TrainConfig:
    manifest: str = "manifest.json"
    out_dir: str = "run"
    seed: int = 0
    phase1_epochs: int = 20
    phase2_epochs: int = 30
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 4
    crop_size: int = 128
    lambda_g: float = 0.1
    lambda_l: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value}")
        if self.crop_size % 4 or self.crop_size < 8:
            raise ConfigError(
                f"crop_size must be a multiple of 4 and at least 8, got {self.crop_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        for name in ("lambda_g", "lambda_l"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """One Adam update in place over the parameters named in grads."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name in sorted(grads):
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for {name!r} at adam step {t}")
        p = params[name]
        g = g.astype(p.dtype, copy=False)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + epsilon)
    return params, state


@dataclass(frozen=True)
class Sample:
    image: np.ndarray    # [1, H, W] float32
    points: np.ndarray   # [K, 2] float64
    density: np.ndarray  # [H, W] float64


def load_split(manifest, base_dir, split):
    """Materialize one split in memory as a list of Sample."""
    samples = []
    for item in manifest.split_items(split):
        image = io_formats.read_pgm(os.path.join(base_dir, item.image))[None, :, :]
        points = io_formats.read_annotations(os.path.join(base_dir, item.ann))
        dm = io_formats.load_ground_truth(io_formats.density_path(base_dir, item))
        if dm.shape != image.shape[1:]:
            raise ManifestError(
                f"{item.image}: density map is {dm.shape[0]}x{dm.shape[1]} but the "
                f"image is {image.shape[1]}x{image.shape[2]}; run prepare again")
        samples.append(Sample(image=image, points=points, density=dm.astype(np.float64)))
    return samples


def _effective_crop(samples, crop_size):
    """Largest multiple-of-4 crop every sample can supply, capped by config."""
    limit = min(min(s.image.shape[1], s.image.shape[2]) for s in samples)
    return min(crop_size, 4 * (limit // 4))


def _make_batch(samples, indices, aug_seeds, crop, bins):
    xs, dens, g_gt, l_gt = [], [], [], []
    for i in indices:
        s = samples[i]
        img, _, den = augment(s.image, s.points, s.density, int(aug_seeds[i]), crop)
        xs.append(img)
        dens.append(den)
        g_gt.append(global_scale_label(den, bins))
        l_gt.append(local_scale_map(den, bins))
    x = np.stack(xs).astype(np.float32)
    return (
        x,
        np.stack(dens)[:, None].astype(np.float32),  # channel axis matches out.density
        np.asarray(g_gt, dtype=np.int64),
        np.stack(l_gt),
    )


def _check_finite_report(report, phase, step):
    vals = (report.l_dm, report.l_gsa, report.l_lsa, report.l_final)
    if not all(np.isfinite(v) for v in vals):
        raise TrainingError(
            f"non-finite loss at phase {phase} step {step}: "
            f"l_dm={report.l_dm} l_gsa={report.l_gsa} l_lsa={report.l_lsa}"
        )


def _run_phase(params, samples, bins, config, arch, phase, epochs, log, gsa_enabled=True):
    """Train params in place for epochs. Phase 1 holds local attention at
    one; phase 2 first re-initializes LSA from [seed, 1], then trains it."""
    lsa_enabled = phase == 2
    if lsa_enabled:
        params.update(init_params(arch, np.random.default_rng([config.seed, 1]),
                                  prefix="lsa."))
    opt = AdamState()
    step = 0
    n = len(samples)
    crop = _effective_crop(samples, config.crop_size)
    for epoch in range(1, epochs + 1):
        rng = np.random.default_rng([config.seed, phase, epoch])
        order = rng.permutation(n)
        aug_seeds = rng.integers(0, 2**31, size=n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            x, gt_den, g_gt, l_gt = _make_batch(samples, batch, aug_seeds, crop, bins)
            out = model_forward(x, params, arch,
                                lsa_enabled=lsa_enabled, gsa_enabled=gsa_enabled)
            report, grads_out = total_loss(out, gt_den, g_gt, l_gt,
                                           config.lambda_g, config.lambda_l)
            step += 1
            _check_finite_report(report, phase, step)
            adam_step(params, model_backward(grads_out, out, params), opt,
                      config.learning_rate, config.beta1, config.beta2, config.epsilon)
            del out  # the next step's forward must not run beside these caches
            if log is not None:
                log({
                    "phase": phase,
                    "epoch": epoch,
                    "step": step,
                    "l_dm": float(report.l_dm),
                    "l_gsa": float(report.l_gsa),
                    "l_lsa": float(report.l_lsa),
                    "l_final": float(report.l_final),
                })
        _save_epoch_checkpoint(params, config.out_dir, phase, epoch)
    return params


def _save_epoch_checkpoint(params, out_dir, phase, epoch):
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    save_checkpoint(params, os.path.join(ckpt_dir, f"phase{phase}_epoch{epoch:03d}.ck"))


def require_splits(manifest, splits):
    """Refuse a manifest that has no bins or an empty split among splits."""
    if manifest.bins is None:
        raise ManifestError("manifest has no bins; run prepare first")
    for split in splits:
        if not manifest.split_items(split):
            raise ManifestError(f"split {split!r} is empty")


def load_training_set(manifest, base_dir):
    """The train split's samples and the manifest's bins: `train`'s data.
    Refuses a train image under 8 pixels on a side, the network's least
    input, so that every training crop is at least 8x8."""
    require_splits(manifest, ["train"])
    samples = load_split(manifest, base_dir, "train")
    for item, s in zip(manifest.split_items("train"), samples):
        if min(s.image.shape[1:]) < 8:
            raise ManifestError(f"{item.image}: train image is {s.image.shape[1]}x"
                                f"{s.image.shape[2]}; training needs at least 8x8")
    return samples, manifest.bins


def train(samples, bins, config, arch=None, *, gsa_enabled=True, lsa_enabled=True,
          log=None, on_phase_end=None):
    """The training schedule of `saan train` and of every ablation variant.

    Parameters start from init_params([seed, 0]). With LSA, phase 1 runs
    phase1_epochs and phase 2 (LSA re-initialized) phase2_epochs; without
    it, one phase 1 runs both budgets. A head switched off by gsa_enabled
    or lsa_enabled drops its loss term; a zero lambda_g or lambda_l keeps
    the head but drops its term from the objective. on_phase_end(phase,
    params) runs after each phase with the live params, which phase 2
    goes on to update.
    """
    arch = arch or Arch.default()
    params = init_params(arch, np.random.default_rng([config.seed, 0]))
    if lsa_enabled:
        phases = [(1, config.phase1_epochs), (2, config.phase2_epochs)]
    else:
        phases = [(1, config.phase1_epochs + config.phase2_epochs)]
    for phase, epochs in phases:
        params = _run_phase(params, samples, bins, config, arch, phase, epochs, log,
                            gsa_enabled)
        if on_phase_end is not None:
            on_phase_end(phase, params)
    return params


def train_phase1(manifest, config, base_dir, arch=None, log=None):
    """Phase 1 of `train` alone: LSA parameters keep their initial values."""
    return train(*load_training_set(manifest, base_dir), replace(config, phase2_epochs=0),
                 arch, lsa_enabled=False, log=log)


def train_phase2(params, manifest, config, base_dir, arch=None, log=None):
    """Phase 2 of `train` alone: continues from phase-1 params, LSA re-initialized."""
    samples, bins = load_training_set(manifest, base_dir)
    return _run_phase(params, samples, bins, config, arch or Arch.default(),
                      2, config.phase2_epochs, log)


def evaluate(params, manifest, base_dir, split, arch=None,
             lsa_enabled=True, gsa_enabled=True):
    """Full-image batch-1 evaluation: returns (mae, mse, per-image records)."""
    arch = arch or Arch.default()
    validate_inventory(params, arch)
    items = manifest.split_items(split)
    if not items:
        raise ManifestError(f"split {split!r} is empty")
    records = []
    for item in items:
        image = io_formats.read_pgm(os.path.join(base_dir, item.image))[None, None, :, :]
        points = io_formats.read_annotations(os.path.join(base_dir, item.ann))
        out = model_forward(image, params, arch, lsa_enabled=lsa_enabled,
                            gsa_enabled=gsa_enabled, keep_caches=False)
        pred_count = float(count_from_density(out.density)[0])
        if not np.isfinite(pred_count):
            raise TrainingError(f"non-finite predicted count for {item.image}")
        records.append({
            "image": item.image,
            "gt_count": float(len(points)),
            "pred_count": pred_count,
        })
    gt = [r["gt_count"] for r in records]
    pred = [r["pred_count"] for r in records]
    return mae(pred, gt), mse(pred, gt), records
