"""Tests for the Adam optimizer, the two-phase trainer, and evaluation."""

import json
import os
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from oracles import reference_adam_scalar
from saan import io_formats, synth, train
from saan.density import compute_bins, gaussian_density_map
from saan.errors import ConfigError, ManifestError, ShapeError, TrainingError
from saan.io_formats import Manifest, ManifestItem
from saan.cli import main
from saan.network import Arch, model_forward
from saan.params import init_params, load_checkpoint, save_checkpoint
from saan.train import AdamState, TrainConfig, adam_step


def make_dataset(root, n_images=10, size=32, count_range=(3, 12), seed=7):
    """Synthetic dataset on disk: images, annotations, density maps, manifest."""
    os.makedirs(os.path.join(root, "images"))
    os.makedirs(os.path.join(root, "anns"))
    os.makedirs(os.path.join(root, "density"))
    items = []
    n_train = max(1, int(0.7 * n_images))
    for i in range(n_images):
        img, pts = synth.synth_scene(seed + i, size, size, count_range)
        rel_img = f"images/scene_{i:03d}.pgm"
        rel_ann = f"anns/scene_{i:03d}.txt"
        io_formats.write_pgm(os.path.join(root, rel_img), img[0])
        io_formats.write_annotations(os.path.join(root, rel_ann), pts)
        split = "train" if i < n_train else ("val" if i == n_train else "test")
        items.append(ManifestItem(rel_img, rel_ann, split))
    manifest = Manifest(items=items, bins=None)
    train_maps = []
    for item in items:
        pts = io_formats.read_annotations(os.path.join(root, item.ann))
        h, w = io_formats.read_pgm(os.path.join(root, item.image)).shape
        dm = gaussian_density_map(pts, h, w)
        io_formats.save_density(io_formats.density_path(root, item), dm)
        if item.split == "train":
            loaded = io_formats.load_density(io_formats.density_path(root, item))
            train_maps.append(loaded.astype(np.float64))
    manifest = Manifest(items=items, bins=compute_bins(train_maps))
    path = os.path.join(root, "manifest.json")
    io_formats.save_manifest(path, manifest)
    return manifest, root


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("trainset")
    return make_dataset(str(root))


def tiny_config(root, **overrides):
    defaults = dict(
        manifest=os.path.join(root, "manifest.json"),
        out_dir=os.path.join(root, "out"),
        seed=3,
        phase1_epochs=2,
        phase2_epochs=2,
        learning_rate=1e-3,
        batch_size=4,
        crop_size=32,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def params_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig(manifest="m.json", out_dir="out")
        assert cfg.crop_size == 128 and cfg.learning_rate == 1e-4

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)

    def test_bad_crop_rejected(self):
        with pytest.raises(ConfigError, match="crop_size"):
            TrainConfig(manifest="m", out_dir="o", crop_size=30)

    @pytest.mark.parametrize("crop", [0, 4])
    def test_crop_under_8_rejected(self, crop):
        # the network's least input is 8x8
        with pytest.raises(ConfigError, match="at least 8"):
            TrainConfig(manifest="m", out_dir="o", crop_size=crop)

    def test_bad_lr_rejected(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(manifest="m", out_dir="o", learning_rate=0.0)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ConfigError, match="epoch"):
            TrainConfig(manifest="m", out_dir="o", phase1_epochs=-1)


class TestAdamStep:
    def test_zero_gradients_leave_params_unchanged(self):
        rng = np.random.default_rng(0)
        params = {"a.weight": rng.normal(size=(3, 4)).astype(np.float32)}
        before = {k: v.copy() for k, v in params.items()}
        adam_step(params, {"a.weight": np.zeros((3, 4))}, AdamState(), lr=0.1)
        assert params_equal(params, before)

    def test_quadratic_converges_and_matches_reference(self):
        params = {"x": np.array([1.0], dtype=np.float64)}
        state = AdamState()
        for _ in range(200):
            adam_step(params, {"x": 2.0 * params["x"]}, state, lr=0.1)
        assert abs(params["x"][0]) < 0.05
        ref = reference_adam_scalar(lambda x: 2.0 * x, 1.0, lr=0.1, steps=200)
        assert params["x"][0] == pytest.approx(ref, abs=1e-9)

    def test_two_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(5)
            params = {"w": rng.normal(size=(8,)).astype(np.float32)}
            state = AdamState()
            for _ in range(50):
                g = np.sin(params["w"]).astype(np.float32)
                adam_step(params, {"w": g}, state, lr=1e-2)
            return params
        assert params_equal(run(), run())

    def test_nan_gradient_names_parameter(self):
        params = {"fn.conv0.bias": np.zeros(4, dtype=np.float32)}
        bad = np.array([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(TrainingError, match="fn.conv0.bias"):
            adam_step(params, {"fn.conv0.bias": bad}, AdamState(), lr=0.1)

    def test_only_named_params_updated(self):
        params = {
            "a": np.ones(2, dtype=np.float32),
            "b": np.ones(2, dtype=np.float32),
        }
        adam_step(params, {"a": np.ones(2)}, AdamState(), lr=0.1)
        assert not np.array_equal(params["a"], np.ones(2, dtype=np.float32))
        np.testing.assert_array_equal(params["b"], np.ones(2, dtype=np.float32))


class TestPhase1:
    def test_zero_epochs_returns_initialization(self, dataset):
        manifest, root = dataset
        cfg = tiny_config(root, phase1_epochs=0)
        arch = Arch.tiny()
        got = train.train_phase1(manifest, cfg, root, arch=arch)
        expected = init_params(arch, np.random.default_rng([cfg.seed, 0]))
        assert params_equal(got, expected)

    def test_lsa_untouched_and_loss_decreases(self, dataset):
        manifest, root = dataset
        cfg = tiny_config(root, phase1_epochs=3, learning_rate=1e-2)
        arch = Arch.tiny()
        init = init_params(arch, np.random.default_rng([cfg.seed, 0]))
        lsa_before = {k: v.copy() for k, v in init.items() if k.startswith("lsa.")}
        logs = []
        got = train.train_phase1(manifest, cfg, root, arch=arch, log=logs.append)
        for k, v in lsa_before.items():
            np.testing.assert_array_equal(got[k], v)
        first = [r["l_dm"] for r in logs if r["epoch"] == 1]
        last = [r["l_dm"] for r in logs if r["epoch"] == 3]
        assert np.mean(last) < np.mean(first)
        assert all(r["l_lsa"] == 0.0 for r in logs)

    def test_deterministic_across_runs(self, dataset):
        manifest, root = dataset
        arch = Arch.tiny()
        cfg = tiny_config(root, phase1_epochs=2)
        a = train.train_phase1(manifest, cfg, root, arch=arch)
        b = train.train_phase1(manifest, cfg, root, arch=arch)
        assert params_equal(a, b)

    def test_missing_bins_rejected(self, dataset):
        manifest, root = dataset
        stripped = Manifest(items=manifest.items, bins=None)
        with pytest.raises(ManifestError, match="bins"):
            train.train_phase1(stripped, tiny_config(root), root, arch=Arch.tiny())

    def test_epoch_checkpoints_round_trip(self, dataset):
        manifest, root = dataset
        cfg = tiny_config(root, phase1_epochs=2)
        arch = Arch.tiny()
        got = train.train_phase1(manifest, cfg, root, arch=arch)
        path = os.path.join(cfg.out_dir, "checkpoints", "phase1_epoch002.ck")
        assert params_equal(load_checkpoint(path), got)
        assert os.path.exists(
            os.path.join(cfg.out_dir, "checkpoints", "phase1_epoch001.ck")
        )


class TestPhase2:
    def test_zero_epochs_keeps_phase1_values_but_reinits_lsa(self, dataset):
        manifest, root = dataset
        cfg = tiny_config(root, phase1_epochs=1, phase2_epochs=0)
        arch = Arch.tiny()
        p1 = train.train_phase1(manifest, cfg, root, arch=arch)
        snap = {k: v.copy() for k, v in p1.items()}
        p2 = train.train_phase2(p1, manifest, cfg, root, arch=arch)
        for k in snap:
            if k.startswith("lsa."):
                continue
            np.testing.assert_array_equal(p2[k], snap[k])
        fresh = init_params(arch, np.random.default_rng([cfg.seed, 1]), prefix="lsa.")
        changed = [k for k in fresh if not np.array_equal(p2[k], snap[k])]
        assert changed  # at least the lsa weights moved off the phase-1 values
        for k, v in fresh.items():
            np.testing.assert_array_equal(p2[k], v)

    def test_full_loss_decreases_and_decomposes(self, dataset):
        manifest, root = dataset
        cfg = tiny_config(root, phase1_epochs=1, phase2_epochs=3, learning_rate=1e-2)
        arch = Arch.tiny()
        p1 = train.train_phase1(manifest, cfg, root, arch=arch)
        logs = []
        train.train_phase2(p1, manifest, cfg, root, arch=arch, log=logs.append)
        assert logs and all(r["phase"] == 2 for r in logs)
        for r in logs:
            combined = r["l_dm"] + cfg.lambda_g * r["l_gsa"] + cfg.lambda_l * r["l_lsa"]
            assert r["l_final"] == pytest.approx(combined, abs=1e-6)
        first = [r["l_final"] for r in logs if r["epoch"] == 1]
        last = [r["l_final"] for r in logs if r["epoch"] == 3]
        assert np.mean(last) < np.mean(first)

    def test_end_to_end_deterministic(self, dataset):
        manifest, root = dataset
        cfg = tiny_config(root, phase1_epochs=1, phase2_epochs=1)
        arch = Arch.tiny()

        def run():
            p1 = train.train_phase1(manifest, cfg, root, arch=arch)
            return train.train_phase2(p1, manifest, cfg, root, arch=arch)

        assert params_equal(run(), run())


class TestSchedule:
    def test_equals_phase1_then_phase2(self, dataset):
        manifest, root = dataset
        cfg = tiny_config(root, phase1_epochs=2, phase2_epochs=1)
        arch = Arch.tiny()
        p1 = train.train_phase1(manifest, cfg, root, arch=arch)
        expected = train.train_phase2(p1, manifest, cfg, root, arch=arch)
        got = train.train(*train.load_training_set(manifest, root), cfg, arch)
        assert params_equal(got, expected)

    def test_each_forward_runs_without_the_last_steps_caches(self, dataset, monkeypatch):
        # a step's forward outputs, training caches and all, are freed
        # before the next step's forward allocates its own
        manifest, root = dataset
        cfg = tiny_config(root, phase1_epochs=2, phase2_epochs=1)
        live = []
        real = train.model_forward

        def forward(*args, **kwargs):
            assert all(ref() is None for ref in live)
            out = real(*args, **kwargs)
            live.append(weakref.ref(out))
            return out

        monkeypatch.setattr(train, "model_forward", forward)
        train.train(*train.load_training_set(manifest, root), cfg, Arch.tiny())
        assert len(live) == 6  # 3 epochs of two batches

    def test_phase1_checkpoint_holds_phase1_params(self, dataset, tmp_path):
        manifest, root = dataset
        cfg = tiny_config(root, phase1_epochs=2, phase2_epochs=1, out_dir=str(tmp_path / "run"))
        arch = Arch.tiny()
        got = train.train(*train.load_training_set(manifest, root), cfg, arch)
        phase1 = train.train_phase1(manifest, replace(cfg, out_dir=str(tmp_path / "p1")), root,
                                    arch=arch)
        assert params_equal(load_checkpoint(os.path.join(cfg.out_dir, "phase1.ck")), phase1)
        assert params_equal(load_checkpoint(os.path.join(cfg.out_dir, "final.ck")), got)

    def test_without_lsa_one_phase_runs_both_budgets(self, dataset, tmp_path):
        manifest, root = dataset
        cfg = tiny_config(root, phase1_epochs=1, phase2_epochs=2, out_dir=str(tmp_path / "run"))
        arch = Arch.tiny()
        got = train.train(*train.load_training_set(manifest, root), cfg, arch,
                          lsa_enabled=False)
        with open(os.path.join(cfg.out_dir, "train.log"), encoding="utf-8") as fh:
            logs = [json.loads(line) for line in fh]
        assert {r["phase"] for r in logs} == {1}
        assert {r["epoch"] for r in logs} == {1, 2, 3}
        assert sorted(os.listdir(cfg.out_dir)) == ["checkpoints", "final.ck", "train.log"]
        init = init_params(arch, np.random.default_rng([cfg.seed, 0]))
        for k, v in init.items():
            if k.startswith("lsa."):
                np.testing.assert_array_equal(got[k], v)

    def test_rerun_leaves_only_its_own_epoch_checkpoints(self, dataset, tmp_path):
        # a shorter second run into the same out_dir removes the first
        # run's epoch checkpoints, and only those
        manifest, root = dataset
        samples, bins = train.load_training_set(manifest, root)
        cfg = tiny_config(root, phase1_epochs=2, phase2_epochs=1, out_dir=str(tmp_path / "run"))
        train.train(samples, bins, cfg, Arch.tiny())
        ckpt_dir = os.path.join(cfg.out_dir, "checkpoints")
        assert len(os.listdir(ckpt_dir)) == 3
        open(os.path.join(ckpt_dir, "phase1.ck"), "wb").close()
        train.train(samples, bins, replace(cfg, phase1_epochs=1, phase2_epochs=0), Arch.tiny())
        assert sorted(os.listdir(ckpt_dir)) == ["phase1.ck", "phase1_epoch001.ck"]

    def test_out_dir_naming_a_file_rejected(self, dataset, tmp_path):
        manifest, root = dataset
        path = tmp_path / "run"
        path.write_text("")
        cfg = tiny_config(root, out_dir=str(path))
        with pytest.raises(ConfigError, match=f"out_dir '{path}' is not a directory"):
            train.train(*train.load_training_set(manifest, root), cfg, Arch.tiny())

    def test_phase_functions_write_epoch_checkpoints_only(self, dataset, tmp_path):
        manifest, root = dataset
        cfg = tiny_config(root, phase1_epochs=1, phase2_epochs=1, out_dir=str(tmp_path / "run"))
        arch = Arch.tiny()
        train.train_phase2(train.train_phase1(manifest, cfg, root, arch=arch),
                           manifest, cfg, root, arch=arch)
        assert os.listdir(cfg.out_dir) == ["checkpoints"]
        assert sorted(os.listdir(os.path.join(cfg.out_dir, "checkpoints"))) == [
            "phase1_epoch001.ck", "phase2_epoch001.ck"]


class TestPredictDensity:
    def test_is_the_cache_free_forwards_map(self):
        arch = Arch.tiny()
        params = init_params(arch, np.random.default_rng(1))
        image = np.random.default_rng(2).uniform(0, 1, (30, 41)).astype(np.float32)
        got = train.predict_density(params, image, "x.pgm", arch)
        want = model_forward(image[None, None], params, arch, keep_caches=False).density[0, 0]
        assert got.shape == image.shape and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_evaluate_counts_its_sum(self, dataset):
        manifest, root = dataset
        arch = Arch.tiny()
        params = init_params(arch, np.random.default_rng(1))
        _, _, records = train.evaluate(params, manifest, root, "train", arch=arch)
        for r in records:
            image = io_formats.read_pgm(os.path.join(root, r["image"]))
            want = float(train.predict_density(params, image, r["image"], arch).sum())
            assert r["pred_count"] == want

    def test_sum_matches_float64_oracle(self):
        arch = Arch.tiny()
        params = init_params(arch, np.random.default_rng(1))
        image = np.random.default_rng(2).uniform(0, 1, (64, 64)).astype(np.float32)
        d = train.predict_density(params, image, "x.pgm", arch)
        scale = np.abs(d).sum(dtype=np.float64)
        assert abs(float(d.sum()) - d.sum(dtype=np.float64)) <= 1e-5 * scale

    @pytest.mark.parametrize("value", [np.nan, 1e37])
    def test_non_finite_sum_refused_naming_the_image(self, value):
        # a NaN head bias makes every pixel NaN; 1e37 per pixel is finite,
        # but the float32 sum of 256 pixels overflows
        arch = Arch.tiny()
        params = init_params(arch, np.random.default_rng(1))
        params["fn.conv2.bias"] = np.full_like(params["fn.conv2.bias"], value)
        image = np.random.default_rng(2).uniform(0, 1, (16, 16)).astype(np.float32)
        with pytest.raises(TrainingError, match="^x.pgm: non-finite"):
            train.predict_density(params, image, "x.pgm", arch)


class TestEvaluate:
    def test_records_match_metrics(self, dataset):
        manifest, root = dataset
        arch = Arch.tiny()
        params = init_params(arch, np.random.default_rng(1))
        v_mae, v_mse, records = train.evaluate(params, manifest, root, "train", arch=arch)
        assert len(records) == len(manifest.split_items("train"))
        gt = [r["gt_count"] for r in records]
        pred = [r["pred_count"] for r in records]
        from saan.losses import mae as mae_fn, mse as mse_fn
        assert v_mae == mae_fn(pred, gt)
        assert v_mse == mse_fn(pred, gt)
        assert v_mse >= v_mae

    def test_keeps_no_caches(self, dataset, monkeypatch):
        manifest, root = dataset
        arch = Arch.tiny()
        params = init_params(arch, np.random.default_rng(1))
        outputs = []
        real = train.model_forward

        def recording(*args, **kwargs):
            outputs.append(real(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(train, "model_forward", recording)
        train.evaluate(params, manifest, root, "train", arch=arch)
        assert len(outputs) == len(manifest.split_items("train"))
        assert all(out.cache == {} for out in outputs)

    def test_holds_one_images_outputs_at_a_time(self, tmp_path):
        # the last image's outputs are dropped before the next forward, so
        # two images peak as one does (test_network's 12 MiB bound)
        items = []
        for i in range(2):
            img, pts = synth.synth_scene(i, 384, 512, (3, 12))
            io_formats.write_pgm(str(tmp_path / f"{i}.pgm"), img[0])
            io_formats.write_annotations(str(tmp_path / f"{i}.txt"), pts)
            items.append(ManifestItem(f"{i}.pgm", f"{i}.txt", "test"))
        arch = Arch.default()
        params = init_params(arch, np.random.default_rng(5))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, _, records = train.evaluate(params, Manifest(items, None), str(tmp_path), "test")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(records) == 2
        assert peak < 12 * 2**20

    def test_too_small_image_named(self, tmp_path):
        # the forward refuses a 4x6 image, and the error says which one
        io_formats.write_pgm(str(tmp_path / "small.pgm"), np.zeros((4, 6), dtype=np.float32))
        io_formats.write_annotations(str(tmp_path / "small.txt"), np.zeros((0, 2)))
        manifest = Manifest([ManifestItem("small.pgm", "small.txt", "test")], None)
        params = init_params(Arch.tiny(), np.random.default_rng(1))
        with pytest.raises(ShapeError, match="^small.pgm: input too small"):
            train.evaluate(params, manifest, str(tmp_path), "test", arch=Arch.tiny())

    def test_predict_names_too_small_image(self, tmp_path, capsys):
        # `saan predict` runs the same checked forward, so it names the image too
        image = str(tmp_path / "small.pgm")
        io_formats.write_pgm(image, np.zeros((4, 6), dtype=np.float32))
        ckpt = str(tmp_path / "m.ck")
        save_checkpoint(init_params(Arch.default(), np.random.default_rng(1)), ckpt)
        assert main(["predict", "--checkpoint", ckpt, "--image", image,
                     "--out", str(tmp_path / "p")]) == 1
        assert f"error: {image}: input too small" in capsys.readouterr().err

    def test_empty_split_rejected(self, dataset):
        manifest, root = dataset
        only_train = Manifest(
            items=[it for it in manifest.items if it.split == "train"],
            bins=manifest.bins,
        )
        params = init_params(Arch.tiny(), np.random.default_rng(1))
        with pytest.raises(ManifestError, match="empty"):
            train.evaluate(params, only_train, root, "test", arch=Arch.tiny())

    def test_inventory_checked(self, dataset):
        manifest, root = dataset
        params = init_params(Arch.tiny(), np.random.default_rng(1))
        del params["fn.conv2.weight"]
        from saan.errors import InventoryError
        with pytest.raises(InventoryError):
            train.evaluate(params, manifest, root, "train", arch=Arch.tiny())
