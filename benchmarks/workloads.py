"""The benchmark's workloads: inputs, set-up, timed loops and output checks.

Each workload drives the library calls the CLI makes -- ``cli.cmd_prepare``
for ``saan prepare``, ``train.train_phase1`` / ``train_phase2`` plus the two
checkpoint writes for ``saan train``, ``train.evaluate`` for ``saan eval`` --
so a change behind those calls shows up here without editing this file.
The program sees only files; the scenes and the inference checkpoint are
generated here from the seed and are not timed.
"""

import contextlib
import io
import json
import math
import os
import time
from argparse import Namespace
from dataclasses import dataclass

import numpy as np

from saan import cli, io_formats, layers, network, ops, train
from saan import params as saan_params

DEFAULT_SEED = 0
SIGMA = 4.0
SETUP_REPEATS = 15
ARCH = network.Arch.default()
TRACED_MODULES = (ops, io_formats, saan_params, layers, network, train, cli)
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Tolerances, set from measurements on this commit. Running the default
# seed with OpenBLAS at 2 threads instead of 1 changes the reduction order
# and moved l_final by up to 3.6e-8 relative (five Adam steps) and a count
# by up to 1.0e-7 of its map's absolute sum. The reference bounds admit such
# reordering with ~10x room, about eight float32 epsilons, and nothing looser.
REF_RTOL_LOSS = 1e-6
REF_RTOL_COUNT = 1e-6
# float32 against a float64 recomputation of the same image differed by
# up to 3.5e-8 of the map's absolute sum; a wrong kernel is off by O(1).
F64_RTOL = 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str       # "train" or "infer"
    height: int
    width: int
    n_train: int    # train-split scenes: one batch of 4, or prepare's bins only
    n_test: int     # scenes per evaluate() call (train-64: held out, only prepared)


WORKLOADS = {w.name: w for w in (
    # the training path: backward, losses, Adam, augment, labels, checkpoints
    Workload("train-64", "train", 64, 64, n_train=4, n_test=28),
    # forward only, largest working set: im2col ~30x the L2, cache retention
    Workload("infer-384x512", "infer", 384, 512, n_train=2, n_test=2),
)}

# criterion 5's training config (default Arch, batch 4, crop capped to the
# 64x64 image, lr 1e-4, lambda 0.1) with its 20 + 30 epochs cut to 2 + 3,
# which keeps the phase-1 : phase-2 step ratio.
PHASE1_EPOCHS, PHASE2_EPOCHS = 2, 3


# ------------------------------------------------------------ inputs

def _scene(rng, height, width, count):
    """Noise background plus one Gaussian blob per person, blobs shrinking
    toward the bottom edge; returns (image in [0,1], points as (x, y))."""
    coarse = rng.uniform(0.0, 0.3, (height // 8 + 1, width // 8 + 1))
    img = np.kron(coarse, np.ones((8, 8)))[:height, :width]
    img = img + rng.normal(0.0, 0.015, (height, width))
    pts = np.column_stack([rng.uniform(0.0, width - 1.0, count),
                           rng.uniform(0.0, height - 1.0, count)])
    for x, y in pts:
        sig = (4.0 - 2.5 * y / (height - 1.0)) / 2.0
        reach = math.ceil(3.0 * sig)
        cx, cy = int(round(x)), int(round(y))
        y0, y1 = max(0, cy - reach), min(height, cy + reach + 1)
        x0, x1 = max(0, cx - reach), min(width, cx + reach + 1)
        dy = np.arange(y0, y1) - y
        dx = np.arange(x0, x1) - x
        img[y0:y1, x0:x1] += rng.uniform(0.5, 0.9) * np.exp(
            -(dy[:, None] ** 2 + dx[None, :] ** 2) / (2.0 * sig * sig))
    return np.clip(img, 0.0, 1.0), pts


def write_inputs(wl, root, seed):
    """Scenes, annotations and an unprepared manifest under root; for the
    inference workloads also a checkpoint of He-initialised weights."""
    rng = np.random.default_rng([seed, 2019])
    area = wl.height * wl.width / (64 * 64)
    lo, hi = round(5 * area), round(50 * area)  # 5-50 people per 64x64
    splits = ["train"] * wl.n_train + ["test"] * wl.n_test
    # one count from each equal-width stratum of [lo, hi], shuffled: the
    # total, and with it prepare's time, hardly depends on the seed
    strata = (np.arange(len(splits)) + rng.uniform(0.0, 1.0, len(splits))) / len(splits)
    counts = np.rint(lo + (hi - lo) * rng.permutation(strata)).astype(int)
    os.makedirs(os.path.join(root, "images"))
    os.makedirs(os.path.join(root, "anns"))
    items = []
    for i, (split, count) in enumerate(zip(splits, counts)):
        image, points = _scene(rng, wl.height, wl.width, int(count))
        rel_img, rel_ann = f"images/scene_{i:04d}.pgm", f"anns/scene_{i:04d}.txt"
        with open(os.path.join(root, rel_img), "wb") as fh:
            fh.write(f"P5\n{wl.width} {wl.height}\n255\n".encode("ascii"))
            fh.write(np.rint(image * 255.0).astype(np.uint8).tobytes())
        with open(os.path.join(root, rel_ann), "w", encoding="utf-8") as fh:
            fh.writelines(f"{float(x)!r},{float(y)!r}\n" for x, y in points)
        items.append({"image": rel_img, "ann": rel_ann, "split": split})
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"items": items, "bins": None}, fh)
    if wl.kind == "infer":
        weights = {}
        for name, shape, fan_in in saan_params.param_inventory(ARCH):
            if name.endswith(".bias"):
                weights[name] = np.zeros(shape, np.float32)
            else:
                weights[name] = (rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)).astype(np.float32)
        saan_params.save_checkpoint(weights, os.path.join(root, "model.ck"))


# ------------------------------------------------------------ set-up

def setup(wl, root, seed):
    """The program's work before the first timed unit: prepare (density
    maps, bins, .dm and manifest writes), manifest load, then param init
    (train) or checkpoint load (infer), plus the inventory check."""
    manifest_path = os.path.join(root, "manifest.json")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.cmd_prepare(Namespace(manifest=manifest_path, sigma=SIGMA))
    manifest = io_formats.load_manifest(manifest_path)
    if wl.kind == "train":
        params = saan_params.init_params(ARCH, np.random.default_rng([seed, 0]))
    else:
        params = saan_params.load_checkpoint(os.path.join(root, "model.ck"))
    saan_params.validate_inventory(params, ARCH)
    return manifest, params


# ------------------------------------------------------- timed units

@dataclass
class Pass:
    """One timed call group: a whole `saan train` run or one evaluate()."""
    seconds: float
    values: list        # l_final per step (train) or pred count per image (infer)
    expected: int       # units the pass should complete
    step_ms: dict       # train only: phase -> wall ms of each step
    params: dict = None
    error: str = None


def train_pass(wl, root, seed, manifest, tracer=None, epochs=(PHASE1_EPOCHS, PHASE2_EPOCHS),
               run_dir="run"):
    """What `saan train` runs: both phases plus phase1.ck and final.ck."""
    out_dir = os.path.join(root, run_dir)
    config = train.TrainConfig(manifest=os.path.join(root, "manifest.json"), out_dir=out_dir,
                               seed=seed, phase1_epochs=epochs[0], phase2_epochs=epochs[1])
    expected = math.ceil(wl.n_train / config.batch_size) * sum(epochs)
    values, step_ms, last = [], {1: [], 2: []}, [0.0]
    os.makedirs(out_dir, exist_ok=True)

    def log(record):
        log_fh.write(json.dumps(record) + "\n")
        now = time.perf_counter()
        step_ms[record["phase"]].append((now - last[0]) * 1e3)
        last[0] = now
        finite = all(math.isfinite(record[k]) for k in ("l_dm", "l_gsa", "l_lsa"))
        values.append(record["l_final"] if finite else math.nan)
        if tracer is not None:
            tracer.unit += 1

    params, error = None, None
    t0 = time.perf_counter()
    try:
        with open(os.path.join(out_dir, "train.log"), "w", encoding="utf-8") as log_fh:
            last[0] = time.perf_counter()
            params = train.train_phase1(manifest, config, root, log=log)
            saan_params.save_checkpoint(params, os.path.join(out_dir, "phase1.ck"))
            last[0] = time.perf_counter()
            params = train.train_phase2(params, manifest, config, root, log=log)
            saan_params.save_checkpoint(params, os.path.join(out_dir, "final.ck"))
    except Exception as exc:  # a failing pass is counted as failed units, not fatal
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if error is None:
        try:
            saan_params.validate_inventory(params, ARCH)
        except Exception as exc:
            error = f"final params: {exc}"
    return Pass(seconds, values, expected, step_ms, params, error)


def infer_pass(wl, root, manifest, params):
    """What `saan eval --split test` runs: evaluate() over the test split."""
    t0 = time.perf_counter()
    try:
        _, _, records = train.evaluate(params, manifest, root, "test")
    except Exception as exc:
        return Pass(time.perf_counter() - t0, [], wl.n_test, {},
                    error=f"{type(exc).__name__}: {exc}")
    return Pass(time.perf_counter() - t0, [r["pred_count"] for r in records], wl.n_test, {})


def run_pass(wl, root, seed, manifest, params, tracer=None):
    if wl.kind == "train":
        return train_pass(wl, root, seed, manifest, tracer)
    return infer_pass(wl, root, manifest, params)


def samples(wl):
    """Training crops (train) or images evaluated (infer) in one pass."""
    if wl.kind == "train":
        return wl.n_train * (PHASE1_EPOCHS + PHASE2_EPOCHS)
    return wl.n_test


# ------------------------------------------------------------ checks

def load_reference(name):
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]


def reference_bounds(wl, reference):
    """(value, tolerance) per unit of one pass at the default seed."""
    if wl.kind == "train":
        return [(r, REF_RTOL_LOSS * abs(r)) for r in reference["l_final"]]
    return [(c, REF_RTOL_COUNT * s) for c, s in reference["counts"]]


def count_failures(passes, bounds=None):
    """Failed units over all passes: a unit fails when its pass raised, when
    it is missing or non-finite, or when it disagrees with the reference."""
    failed = 0
    for done in passes:
        if done.error:
            failed += done.expected
            continue
        for i in range(done.expected):
            v = done.values[i] if i < len(done.values) else math.nan
            ok = math.isfinite(v)
            if ok and bounds is not None:
                ok = i < len(bounds) and abs(v - bounds[i][0]) <= bounds[i][1]
            failed += not ok
    return failed


def first_image(wl, root, manifest):
    item = manifest.split_items("train" if wl.kind == "train" else "test")[0]
    return io_formats.read_pgm(os.path.join(root, item.image))[None, None]


def float64_count(image, params):
    """(count, absolute sum) of the density map computed in float64."""
    p64 = {k: v.astype(np.float64) for k, v in params.items()}
    density = network.model_forward(image.astype(np.float64), p64).density
    return float(density.sum()), float(np.abs(density).sum())


def float64_agrees(wl, root, manifest, params, last_pass):
    """Recompute one image in float64 and compare with the float32 count
    the program produced for it."""
    image = first_image(wl, root, manifest)
    if wl.kind == "train":
        c32 = float(network.model_forward(image, params).density.sum())
    else:
        c32 = last_pass.values[0]
    c64, scale = float64_count(image, params)
    return abs(c32 - c64) <= F64_RTOL * scale, c32, c64


def record_reference(wl, root, seed):
    """Reference values for the default seed, from one pass of this commit."""
    manifest, params = setup(wl, root, seed)
    done = run_pass(wl, root, seed, manifest, params)
    if count_failures([done]):
        raise RuntimeError(f"cannot record a reference from a failing pass: {done.error}")
    if wl.kind == "train":
        return {"l_final": done.values}
    counts = []
    for item, value in zip(manifest.split_items("test"), done.values):
        image = io_formats.read_pgm(os.path.join(root, item.image))[None, None]
        counts.append([value, float64_count(image, params)[1]])
    return {"counts": counts}
