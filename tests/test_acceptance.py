"""Acceptance suite: one test per release criterion.

Each test prints a single "criterion N ... PASS" line on success; a
failing criterion shows up as the test's failure with the measured
values in the assertion message.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from oracles import (
    dyadic,
    naive_attention_weight,
    naive_box_sum,
    naive_conv2d,
    naive_conv2d_transpose,
    naive_maxpool2,
    naive_maxpool2_backward,
)
from saan import io_formats, ops
from saan.cli import main as cli_main
from saan.density import gaussian_density_map
from saan.errors import CodecError, ManifestError
from saan.gradcheck import run_suite
from saan.io_formats import Manifest, ManifestItem, ScaleBins
from saan.network import Arch, model_forward
from saan.params import init_params, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def mini_dataset(tmp_path_factory):
    """Small prepared dataset + config for the trainer-contract criteria."""
    root = str(tmp_path_factory.mktemp("acc_mini"))
    assert cli_main(["synth", "--out", root, "--images", "12", "--size", "32x32",
                     "--count-min", "3", "--count-max", "9", "--seed", "11"]) == 0
    manifest_path = os.path.join(root, "manifest.json")
    assert cli_main(["prepare", "--manifest", manifest_path]) == 0
    config_path = os.path.join(root, "config.json")
    with open(config_path, "w") as fh:
        json.dump({
            "manifest": manifest_path,
            "out_dir": os.path.join(root, "run"),
            "seed": 5,
            "phase1_epochs": 1,
            "phase2_epochs": 1,
            "learning_rate": 1e-3,
            "crop_size": 32,
        }, fh)
    return root, manifest_path, config_path


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    results = run_suite(seed=0)
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"gradient checks failed: {failed}"
    assert len({r.name for r in results}) >= 12
    assert elapsed < 120, f"gradient suite took {elapsed:.1f}s"
    worst = max(r.max_rel_err for r in results)
    print(f"criterion 1 gradient suite: PASS "
          f"({len(results)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_attention_invariants():
    arch = Arch.tiny()
    master = np.random.default_rng(2024)
    for trial in range(100):
        rng = np.random.default_rng([2024, trial])
        params = init_params(arch, rng)
        h = 4 * int(rng.integers(2, 6))
        w = 4 * int(rng.integers(2, 6))
        x = rng.uniform(0, 1, (2, 1, h, w)).astype(np.float32)
        out = model_forward(x, params, arch)
        assert np.all(np.abs(out.global_scores.sum(axis=1) - 1.0) < 1e-6)
        assert np.all(out.local_maps > 0.0) and np.all(out.local_maps < 1.0)
        f = master.normal(size=(2, 3, 5, 7))
        gi = master.normal(size=(2,))
        li = master.uniform(0, 1, (2, 1, 5, 7))
        got = ops.scale_broadcast_mul(f, gi, li)
        np.testing.assert_array_equal(got, naive_attention_weight(f, gi, li))
    print("criterion 2 attention invariants: PASS (100 random instances)")


def test_criterion_3_density_map_fidelity():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng([3, trial])
        h = int(rng.integers(16, 81))
        w = int(rng.integers(16, 81))
        k = int(rng.integers(0, 41))
        pts = np.column_stack([rng.uniform(0, w - 1, k), rng.uniform(0, h - 1, k)])
        # force border dots into every third instance
        if trial % 3 == 0:
            pts = np.vstack([pts, [[0.0, 0.0], [w - 1.0, h - 1.0], [0.0, h - 1.0]]])
        dm = gaussian_density_map(pts, h, w)
        err = abs(float(dm.sum()) - len(pts))
        worst = max(worst, err)
        assert err < 1e-4, f"trial {trial}: sum error {err}"
    print(f"criterion 3 density-map fidelity: PASS (worst sum error {worst:.2e})")


def test_criterion_4_shape_contract():
    arch = Arch.default()
    params = init_params(arch, np.random.default_rng(4))
    for h, w in ((63, 65), (64, 64), (128, 96)):
        x = np.random.default_rng([4, h, w]).uniform(0, 1, (1, 1, h, w)).astype(np.float32)
        out = model_forward(x, params, arch)
        assert out.density.shape == (1, 1, h, w)
        depths = tuple(f.shape[1] for f in out.features)
        assert depths == (24, 16, 8)
        h4, w4 = math.ceil(h / 4), math.ceil(w / 4)
        for f in out.features:
            assert f.shape[2:] == (h4, w4)
    print("criterion 4 shape contract: PASS (63x65, 64x64, 128x96)")


@pytest.mark.slow
def test_criterion_5_synthetic_end_to_end(tmp_path, capsys):
    t0 = time.perf_counter()
    root = str(tmp_path)
    assert cli_main(["synth", "--out", root, "--images", "200", "--size", "64x64",
                     "--count-min", "5", "--count-max", "50", "--seed", "42"]) == 0
    manifest_path = os.path.join(root, "manifest.json")
    assert cli_main(["prepare", "--manifest", manifest_path]) == 0
    config_path = os.path.join(root, "config.json")
    with open(config_path, "w") as fh:
        json.dump({"manifest": manifest_path, "out_dir": os.path.join(root, "run")}, fh)
    assert cli_main(["train", "--config", config_path]) == 0
    capsys.readouterr()
    assert cli_main(["eval", "--checkpoint", os.path.join(root, "run", "final.ck"),
                     "--manifest", manifest_path, "--split", "test"]) == 0
    metrics = json.loads(capsys.readouterr().out)

    manifest = io_formats.load_manifest(manifest_path)
    counts = {"train": [], "test": []}
    for item in manifest.items:
        if item.split in counts:
            pts = io_formats.read_annotations(os.path.join(root, item.ann))
            counts[item.split].append(float(len(pts)))
    mean_train = float(np.mean(counts["train"]))
    baseline_mae = float(np.mean(np.abs(np.asarray(counts["test"]) - mean_train)))
    elapsed = time.perf_counter() - t0

    assert metrics["n"] == len(counts["test"])
    assert metrics["mae"] <= 0.7 * baseline_mae, (
        f"test MAE {metrics['mae']:.3f} exceeds 0.7 x baseline {baseline_mae:.3f}")
    assert elapsed <= 900, f"end-to-end run took {elapsed:.1f}s"
    print(f"criterion 5 synthetic end-to-end: PASS "
          f"(MAE {metrics['mae']:.3f} vs 0.7x baseline {0.7 * baseline_mae:.3f}, "
          f"{elapsed / 60:.1f} min)")


def test_criterion_6_two_phase_contract(mini_dataset):
    root, manifest_path, config_path = mini_dataset
    out_dir = os.path.join(root, "run")
    assert cli_main(["train", "--config", config_path]) == 0
    first = open(os.path.join(out_dir, "final.ck"), "rb").read()

    phase1 = load_checkpoint(os.path.join(out_dir, "phase1.ck"))
    fresh = init_params(Arch.default(), np.random.default_rng([5, 0]))
    lsa_names = [n for n in fresh if n.startswith("lsa.")]
    assert lsa_names
    for name in lsa_names:
        np.testing.assert_array_equal(phase1[name], fresh[name])

    assert cli_main(["train", "--config", config_path]) == 0
    second = open(os.path.join(out_dir, "final.ck"), "rb").read()
    assert first == second, "rerun did not reproduce the final checkpoint bitwise"
    print(f"criterion 6 two-phase contract: PASS "
          f"({len(lsa_names)} LSA tensors untouched, rerun bitwise equal)")


def test_criterion_7_ablation_harness(mini_dataset, capsys):
    _, _, config_path = mini_dataset
    assert cli_main(["ablate", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "model variants" in out and "loss variants" in out
    cfg = json.load(open(config_path))
    report = json.load(open(os.path.join(cfg["out_dir"], "ablation.json")))
    assert len(report["model_variants"]) == 4
    assert len(report["loss_variants"]) == 4
    for row in report["model_variants"] + report["loss_variants"]:
        assert set(row) >= {"name", "mae", "mse"}
        assert np.isfinite(row["mae"]) and np.isfinite(row["mse"])
    assert report["model_variants"][0]["attention_identity"] is True
    ranking = sorted(report["model_variants"], key=lambda r: r["mae"])
    print(f"criterion 7 ablation harness: PASS "
          f"(8 rows well-formed; best model variant at this scale: "
          f"{ranking[0]['name']})")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n, cin, cout = rng.integers(1, 3), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        x = dyadic(rng, (n, cin, h, w))
        wt = dyadic(rng, (cout, cin, k, k))
        b = dyadic(rng, (cout,))
        np.testing.assert_array_equal(ops.conv2d(x, wt, b), naive_conv2d(x, wt, b))

        wt = dyadic(rng, (cin, cout, 4, 4))
        b = dyadic(rng, (cout,))
        np.testing.assert_array_equal(
            ops.conv2d_transpose(x, wt, b), naive_conv2d_transpose(x, wt, b))

        xp = dyadic(rng, (n, cin, 2 * h, 2 * w))
        y = ops.maxpool2(xp)
        np.testing.assert_array_equal(y, naive_maxpool2(xp)[0])
        gy = dyadic(rng, y.shape)
        np.testing.assert_array_equal(ops.maxpool2_backward(gy, xp, y),
                                      naive_maxpool2_backward(gy, xp))

        m = dyadic(rng, (int(rng.integers(1, 13)), int(rng.integers(1, 13))))
        r = int(rng.integers(1, 6))
        np.testing.assert_array_equal(ops.box_sum(m, r), naive_box_sum(m, r))
    print("criterion 8 oracle equivalence: PASS (4 ops x 50 exact instances)")


def test_criterion_9_codec_round_trips(tmp_path):
    rng = np.random.default_rng(9)

    dm = rng.uniform(0, 0.5, (17, 23)).astype(np.float32)
    dm_path = str(tmp_path / "a.dm")
    io_formats.save_density(dm_path, dm)
    np.testing.assert_array_equal(io_formats.load_density(dm_path), dm)
    blob = bytearray(open(dm_path, "rb").read())
    blob[0] ^= 0xFF
    open(dm_path, "wb").write(bytes(blob))
    with pytest.raises(CodecError):
        io_formats.load_density(dm_path)

    params = init_params(Arch.tiny(), rng)
    ck_path = str(tmp_path / "a.ck")
    save_checkpoint(params, ck_path)
    back = load_checkpoint(ck_path)
    assert set(back) == set(params)
    for name in params:
        np.testing.assert_array_equal(back[name], params[name])
    open(ck_path, "wb").write(open(ck_path, "rb").read()[:40])
    with pytest.raises(CodecError):
        load_checkpoint(ck_path)

    manifest = Manifest(
        items=[ManifestItem("images/x.pgm", "anns/x.txt", "train")],
        bins=ScaleBins(1.5, 9.25, 0.0, 3.125),
    )
    mf_path = str(tmp_path / "manifest.json")
    io_formats.save_manifest(mf_path, manifest)
    loaded = io_formats.load_manifest(mf_path)
    assert loaded.items == manifest.items and loaded.bins == manifest.bins
    open(mf_path, "w").write('{"items": [], "bins": null, "bogus": 1}')
    with pytest.raises(ManifestError):
        io_formats.load_manifest(mf_path)
    print("criterion 9 codec round trips: PASS (3 codecs, corrupt files rejected)")
