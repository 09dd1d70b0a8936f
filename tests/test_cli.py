"""End-to-end tests for the command-line interface."""

import csv
import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import saan
from saan import cli, io_formats, train
from saan.cli import CONFIG_DEFAULTS, load_config, main
from saan.density import compute_bins
from saan.errors import ConfigError
from saan.io_formats import Manifest, ManifestItem
from saan.losses import mae as mae_fn
from saan.network import Arch
from saan.params import MAGIC, VERSION, init_params, load_checkpoint, save_checkpoint


def run_synth(out, images=12, size="32x32", cmin=3, cmax=9, seed=11):
    return main([
        "synth", "--out", str(out), "--images", str(images), "--size", size,
        "--count-min", str(cmin), "--count-max", str(cmax), "--seed", str(seed),
    ])


def nan_checkpoint(src, tmp_path):
    """A copy of a valid checkpoint whose density head bias is NaN."""
    params = load_checkpoint(src)
    params["fn.conv2.bias"] = np.full_like(params["fn.conv2.bias"], np.nan)
    path = str(tmp_path / "nan.ck")
    save_checkpoint(params, path)
    return path


def read_tree(root):
    """Map of relative path -> bytes for every file under root."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for fn in filenames:
            full = os.path.join(dirpath, fn)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliset")
    assert run_synth(root) == 0
    manifest_path = os.path.join(root, "manifest.json")
    assert main(["prepare", "--manifest", manifest_path]) == 0
    return str(root), manifest_path


@pytest.fixture(scope="module")
def trained(prepared, tmp_path_factory):
    root, manifest_path = prepared
    run_dir = str(tmp_path_factory.mktemp("clirun"))
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump({
            "manifest": manifest_path,
            "out_dir": os.path.join(run_dir, "out"),
            "seed": 3,
            "phase1_epochs": 1,
            "phase2_epochs": 1,
            "learning_rate": 1e-3,
            "crop_size": 32,
        }, fh)
    assert main(["train", "--config", config_path]) == 0
    return root, manifest_path, config_path, os.path.join(run_dir, "out")


class TestSynth:
    def test_writes_dataset(self, prepared):
        root, manifest_path = prepared
        manifest = io_formats.load_manifest(manifest_path)
        assert len(manifest.items) == 12
        splits = [it.split for it in manifest.items]
        assert splits.count("train") == 8
        assert splits.count("val") == 1
        assert splits.count("test") == 3
        for it in manifest.items:
            assert os.path.exists(os.path.join(root, it.image))
            assert os.path.exists(os.path.join(root, it.ann))

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_synth(a, images=4) == 0
        assert run_synth(b, images=4) == 0
        assert read_tree(a) == read_tree(b)

    def test_fixed_count(self, tmp_path):
        assert run_synth(tmp_path / "c", images=3, cmin=4, cmax=4) == 0
        for i in range(3):
            pts = io_formats.read_annotations(
                tmp_path / "c" / "anns" / f"scene_{i:04d}.txt")
            assert len(pts) == 4

    def test_invalid_size_exits_1(self, tmp_path, capsys):
        assert run_synth(tmp_path / "d", size="64by64") == 1
        assert "size" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        assert run_synth(tmp_path, seed=-1) == 1
        assert "--seed" in capsys.readouterr().err

    def test_inverted_count_range_exits_1(self, tmp_path):
        assert run_synth(tmp_path / "e", cmin=9, cmax=3) == 1


class TestPrepare:
    def test_density_files_sum_to_counts(self, prepared):
        root, manifest_path = prepared
        manifest = io_formats.load_manifest(manifest_path)
        assert manifest.bins is not None
        for it in manifest.items[:4]:
            dm = io_formats.load_density(io_formats.density_path(root, it))
            pts = io_formats.read_annotations(os.path.join(root, it.ann))
            assert dm.shape == (32, 32)
            assert abs(float(dm.sum()) - len(pts)) < 1e-4

    def test_bins_match_offline_recomputation(self, prepared):
        root, manifest_path = prepared
        manifest = io_formats.load_manifest(manifest_path)
        maps = [
            io_formats.load_density(io_formats.density_path(root, it)).astype(np.float64)
            for it in manifest.split_items("train")
        ]
        assert compute_bins(maps) == manifest.bins

    def test_memory_does_not_grow_with_the_train_split(self, tmp_path):
        # prepare holds one density map at a time: over 8 train scenes it
        # peaks within one float64 map of its peak over 2 (the first run
        # only warms up)
        peaks = []
        for n in (2, 2, 8):
            root = tmp_path / f"run{len(peaks)}"
            assert run_synth(root, images=n, size="128x128", cmin=5, cmax=60) == 0
            manifest_path = str(root / "manifest.json")
            items = [ManifestItem(it.image, it.ann, "train")
                     for it in io_formats.load_manifest(manifest_path).items]
            io_formats.save_manifest(manifest_path, Manifest(items, None))
            tracemalloc.start()
            try:
                assert main(["prepare", "--manifest", manifest_path]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) < 128 * 128 * 8

    def test_idempotent(self, prepared):
        root, manifest_path = prepared
        manifest = io_formats.load_manifest(manifest_path)
        dm_path = io_formats.density_path(root, manifest.items[0])
        before = (open(manifest_path, "rb").read(), open(dm_path, "rb").read())
        assert main(["prepare", "--manifest", manifest_path]) == 0
        after = (open(manifest_path, "rb").read(), open(dm_path, "rb").read())
        assert before == after

    def test_degenerate_counts_exit_1(self, tmp_path, capsys):
        # every train item references the same scene, so counts match bitwise
        out = tmp_path / "flat"
        assert run_synth(out, images=2, cmin=5, cmax=5) == 0
        items = [
            io_formats.ManifestItem("images/scene_0000.pgm", "anns/scene_0000.txt", s)
            for s in ("train", "train", "test")
        ]
        manifest_path = str(out / "manifest.json")
        io_formats.save_manifest(manifest_path, io_formats.Manifest(items, None))
        code = main(["prepare", "--manifest", manifest_path])
        assert code == 1
        assert "degenerate" in capsys.readouterr().err

    def test_non_utf8_annotation_exits_1(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run_synth(out, images=3) == 0
        ann = out / "anns" / "scene_0001.txt"
        ann.write_bytes(b"\xff\xfe,3\n")
        assert main(["prepare", "--manifest", str(out / "manifest.json")]) == 1
        err = capsys.readouterr().err
        assert str(ann) in err and "UTF-8" in err and "Traceback" not in err

    def test_non_utf8_manifest_exits_1(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_bytes(b'{"items": [], "bins": "\xff"}')
        assert main(["prepare", "--manifest", str(manifest_path)]) == 1
        err = capsys.readouterr().err
        assert str(manifest_path) in err and "UTF-8" in err

    def test_non_string_image_path_exits_1(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            '{"items":[{"image":5,"ann":"anns/a.txt","split":"train"}],"bins":null}'
        )
        assert main(["prepare", "--manifest", str(manifest_path)]) == 1
        err = capsys.readouterr().err
        assert "'image'" in err and "Traceback" not in err

    @pytest.mark.parametrize("sigma", ["nan", "inf", "1e-200"])
    def test_unusable_sigma_exits_1(self, tmp_path, capsys, sigma):
        # 2 * 1e-200**2 underflows to 0, which would make every stamp 0/0
        assert run_synth(tmp_path, images=3) == 0
        code = main(["prepare", "--manifest", str(tmp_path / "manifest.json"),
                     "--sigma", sigma])
        assert code == 1
        err = capsys.readouterr().err
        assert "--sigma must be positive and finite, with 2*sigma^2 > 0" in err
        assert f"got {float(sigma)}" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "density")

    @pytest.mark.parametrize("second", ["b/x.pgm", "a/x.pgm"])
    @pytest.mark.parametrize("command", ["prepare", "train"])
    def test_items_sharing_a_density_map_exit_1(self, tmp_path, capsys, command, second):
        # a/x.pgm and b/x.pgm, or a/x.pgm with two annotation files, would
        # both be prepared into density/x.dm
        assert run_synth(tmp_path, images=4) == 0
        items = io_formats.load_manifest(str(tmp_path / "manifest.json")).items
        for sub, item in zip("ab", items):
            os.makedirs(tmp_path / sub)
            os.replace(tmp_path / item.image, tmp_path / sub / "x.pgm")
        a, b = (ManifestItem(image, item.ann, "train")
                for image, item in zip(["a/x.pgm", second], items))
        manifest_path = str(tmp_path / "manifest.json")
        io_formats.save_manifest(manifest_path, Manifest([a, b] + items[2:], None))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"manifest": manifest_path,
                                      "out_dir": str(tmp_path / "out")}))
        args = ["--manifest", manifest_path] if command == "prepare" else [
            "--config", str(config)]
        assert main([command, *args]) == 1
        err = capsys.readouterr().err
        assert f"items 0 ('a/x.pgm', {a.ann!r}) and 1 ({second!r}, {b.ann!r})" in err
        assert "density/x.dm" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "density")
        assert not os.path.exists(tmp_path / "out")

    def test_one_item_listed_twice_is_prepared(self, tmp_path):
        assert run_synth(tmp_path, images=4) == 0
        manifest_path = str(tmp_path / "manifest.json")
        items = io_formats.load_manifest(manifest_path).items
        twice = [ManifestItem(items[0].image, items[0].ann, "train")] * 2
        io_formats.save_manifest(manifest_path, Manifest(twice + items[1:], None))
        assert main(["prepare", "--manifest", manifest_path]) == 0

    def test_negative_ground_truth_exits_1(self, tmp_path, capsys):
        assert run_synth(tmp_path, images=4) == 0
        manifest_path = str(tmp_path / "manifest.json")
        assert main(["prepare", "--manifest", manifest_path]) == 0
        manifest = io_formats.load_manifest(manifest_path)
        path = io_formats.density_path(str(tmp_path), manifest.split_items("train")[0])
        dm = io_formats.load_density(path)
        dm[0, 1] = -0.5
        io_formats.save_density(path, dm)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"manifest": manifest_path,
                                      "out_dir": str(tmp_path / "out")}))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: density value -0.5 is negative in a ground-truth map" in err
        assert "(at byte offset 20)" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "out")

    def test_ascii_pgm_exits_1_naming_the_file(self, tmp_path, capsys):
        assert run_synth(tmp_path, images=4) == 0
        manifest_path = str(tmp_path / "manifest.json")
        path = os.path.join(str(tmp_path), io_formats.load_manifest(manifest_path).items[2].image)
        pixels = (io_formats.read_pgm(path) * 255).round().astype(int)
        with open(path, "w") as fh:
            fh.write(f"P2\n{pixels.shape[1]} {pixels.shape[0]}\n255\n")
            fh.write(" ".join(map(str, pixels.ravel())) + "\n")
        assert main(["prepare", "--manifest", manifest_path]) == 1
        err = capsys.readouterr().err
        assert f"{path}: not a binary pgm (magic b'P2') (at byte offset 0)" in err
        assert "Traceback" not in err

    def test_truncated_density_map_exits_1_naming_the_file(self, tmp_path, capsys):
        assert run_synth(tmp_path, images=4) == 0
        manifest_path = str(tmp_path / "manifest.json")
        assert main(["prepare", "--manifest", manifest_path]) == 0
        manifest = io_formats.load_manifest(manifest_path)
        path = io_formats.density_path(str(tmp_path), manifest.split_items("train")[0])
        with open(path, "r+b") as fh:
            fh.truncate(30)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"manifest": manifest_path,
                                      "out_dir": str(tmp_path / "out")}))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: density data truncated" in err and "Traceback" not in err


class TestLoadConfig:
    def test_defaults_fill_in(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 9}')
        cfg = load_config(str(path))
        assert cfg.seed == 9
        assert cfg.crop_size == CONFIG_DEFAULTS["crop_size"]
        assert cfg.learning_rate == CONFIG_DEFAULTS["learning_rate"]

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        path = sub / "c.json"
        path.write_text('{"manifest": "data/manifest.json", "out_dir": "run"}')
        cfg = load_config(str(path))
        assert cfg.manifest == str(sub / "data" / "manifest.json")
        assert cfg.out_dir == str(sub / "run")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"learning_rat": 0.1}')
        with pytest.raises(ConfigError, match="learning_rat"):
            load_config(str(path))

    def test_bool_not_an_int(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"batch_size": true}')
        with pytest.raises(ConfigError, match="batch_size"):
            load_config(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("text", ['{"seed": 1, "seed": 2}', '{"seed": 1' + "0" * 5000 + "}"],
                             ids=["repeated-key", "int-past-digit-limit"])
    def test_json_past_the_parsers_limits_rejected(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_integer_for_a_float_key_loads_as_float(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"lambda_g": 18446744073709551616}')
        assert load_config(str(path)).lambda_g == 2.0**64


class TestTrain:
    def test_outputs_exist(self, trained):
        _, _, _, out_dir = trained
        for name in ("phase1.ck", "final.ck", "train.log"):
            assert os.path.exists(os.path.join(out_dir, name))

    def test_log_lines_decompose(self, trained):
        _, _, _, out_dir = trained
        with open(os.path.join(out_dir, "train.log")) as fh:
            records = [json.loads(line) for line in fh]
        assert records
        keys = {"phase", "epoch", "step", "l_dm", "l_gsa", "l_lsa", "l_final"}
        assert all(set(r) == keys for r in records)
        assert {r["phase"] for r in records} == {1, 2}
        for r in records:
            combined = r["l_dm"] + 0.1 * r["l_gsa"] + 0.1 * r["l_lsa"]
            assert r["l_final"] == pytest.approx(combined, abs=1e-12)
        assert all(r["l_lsa"] == 0.0 for r in records if r["phase"] == 1)

    def test_phase1_checkpoint_keeps_initial_lsa(self, trained):
        _, _, _, out_dir = trained
        params = load_checkpoint(os.path.join(out_dir, "phase1.ck"))
        fresh = init_params(Arch.default(), np.random.default_rng([3, 0]))
        for name, value in fresh.items():
            if name.startswith("lsa."):
                np.testing.assert_array_equal(params[name], value)

    @pytest.mark.parametrize("side", [40, 24])
    def test_density_shape_mismatch_exits_1(self, tmp_path, capsys, side):
        # every map rewritten larger or smaller than its 32x32 image
        assert run_synth(tmp_path, images=4) == 0
        manifest_path = str(tmp_path / "manifest.json")
        assert main(["prepare", "--manifest", manifest_path]) == 0
        manifest = io_formats.load_manifest(manifest_path)
        for item in manifest.items:
            io_formats.save_density(io_formats.density_path(str(tmp_path), item),
                                    np.full((side, side), 0.01, dtype=np.float32))
        config = tmp_path / "config.json"
        out_dir = tmp_path / "out"
        config.write_text(json.dumps({"manifest": manifest_path, "out_dir": str(out_dir),
                                      "phase1_epochs": 1, "phase2_epochs": 1,
                                      "crop_size": 16}))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert manifest.split_items("train")[0].image in err
        assert f"{side}x{side}" in err and "32x32" in err
        assert not os.path.exists(out_dir / "final.ck")

    def test_crop_under_8_exits_1_before_training(self, prepared, tmp_path, capsys):
        _, manifest_path = prepared
        config = tmp_path / "config.json"
        out_dir = tmp_path / "out"
        config.write_text(json.dumps({"manifest": manifest_path, "out_dir": str(out_dir),
                                      "crop_size": 4}))
        assert main(["train", "--config", str(config)]) == 1
        assert "crop_size must be a multiple of 4 and at least 8" in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    def test_train_image_under_8_exits_1_before_training(self, tmp_path, capsys):
        # one train image (and its density map) rewritten at 6x40
        assert run_synth(tmp_path, images=4) == 0
        manifest_path = str(tmp_path / "manifest.json")
        assert main(["prepare", "--manifest", manifest_path]) == 0
        item = io_formats.load_manifest(manifest_path).split_items("train")[0]
        io_formats.write_pgm(str(tmp_path / item.image), np.zeros((6, 40)))
        io_formats.save_density(io_formats.density_path(str(tmp_path), item),
                                np.zeros((6, 40), dtype=np.float32))
        config = tmp_path / "config.json"
        out_dir = tmp_path / "out"
        config.write_text(json.dumps({"manifest": manifest_path, "out_dir": str(out_dir),
                                      "crop_size": 16}))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert item.image in err and "6x40" in err and "at least 8x8" in err
        assert not os.path.exists(out_dir)

    def test_annotation_edited_after_prepare_exits_1(self, tmp_path, capsys):
        # one dot added to a train annotation after prepare: its map,
        # made from the old dots, sums to one less than the new count
        assert run_synth(tmp_path, images=4) == 0
        manifest_path = str(tmp_path / "manifest.json")
        assert main(["prepare", "--manifest", manifest_path]) == 0
        item = io_formats.load_manifest(manifest_path).split_items("train")[-1]
        with open(tmp_path / item.ann, "a", encoding="utf-8") as fh:
            fh.write("\n5,5\n")
        config = tmp_path / "config.json"
        out_dir = tmp_path / "out"
        config.write_text(json.dumps({"manifest": manifest_path, "out_dir": str(out_dir),
                                      "crop_size": 16}))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert item.image in err and item.ann in err and "run prepare again" in err
        assert "Traceback" not in err
        assert not os.path.exists(out_dir / "final.ck")

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_reads_the_training_split_once(self, trained, tmp_path, monkeypatch, command):
        _, _, config_path, _ = trained
        monkeypatch.setattr(Arch, "default", Arch.tiny)
        calls = []
        real = train.load_training_set

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(train, "load_training_set", counting)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.load(open(config_path)),
                                      "out_dir": str(tmp_path / "out")}))
        assert main([command, "--config", str(config)]) == 0
        assert len(calls) == 1

    def test_rerun_reproduces_final_checkpoint(self, trained):
        _, _, config_path, out_dir = trained
        final = os.path.join(out_dir, "final.ck")
        before = open(final, "rb").read()
        assert main(["train", "--config", config_path]) == 0
        assert open(final, "rb").read() == before


class TestEval:
    def test_metrics_json_and_csv(self, trained, capsys):
        root, manifest_path, _, out_dir = trained
        ckpt = os.path.join(out_dir, "final.ck")
        code = main(["eval", "--checkpoint", ckpt,
                     "--manifest", manifest_path, "--split", "test"])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) == {"mae", "mse", "n"}
        assert metrics["n"] == 3
        csv_path = os.path.join(out_dir, "eval_test.csv")
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        pred = [float(r["pred_count"]) for r in rows]
        gt = [float(r["gt_count"]) for r in rows]
        assert mae_fn(pred, gt) == metrics["mae"]

    def test_missing_checkpoint_exits_1(self, trained):
        _, manifest_path, _, _ = trained
        assert main(["eval", "--checkpoint", "/no/such.ck",
                     "--manifest", manifest_path]) == 1

    def test_inventory_mismatch_exits_1(self, trained, tmp_path, capsys):
        _, manifest_path, _, out_dir = trained
        params = load_checkpoint(os.path.join(out_dir, "final.ck"))
        del params["fn.conv2.weight"]
        bad = tmp_path / "bad.ck"
        save_checkpoint(params, str(bad))
        assert main(["eval", "--checkpoint", str(bad),
                     "--manifest", manifest_path]) == 1
        assert "fn.conv2.weight" in capsys.readouterr().err

    def test_nan_checkpoint_exits_2(self, trained, tmp_path, capsys):
        _, manifest_path, _, out_dir = trained
        bad = nan_checkpoint(os.path.join(out_dir, "final.ck"), tmp_path)
        assert main(["eval", "--checkpoint", bad, "--manifest", manifest_path]) == 2
        image = io_formats.load_manifest(manifest_path).split_items("test")[0].image
        assert f"error: {image}: non-finite" in capsys.readouterr().err


class TestPredict:
    def test_outputs_and_count(self, trained, tmp_path, capsys):
        root, manifest_path, _, out_dir = trained
        manifest = io_formats.load_manifest(manifest_path)
        image_path = os.path.join(root, manifest.items[0].image)
        prefix = str(tmp_path / "pred")
        code = main(["predict", "--checkpoint", os.path.join(out_dir, "final.ck"),
                     "--image", image_path, "--out", prefix])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        dm = io_formats.load_density(prefix + ".dm")
        assert dm.shape == (32, 32)
        assert printed == pytest.approx(float(dm.sum()), abs=1e-4)
        pgm = io_formats.read_pgm(prefix + ".pgm")
        assert pgm.shape == (32, 32)

    def test_negative_prediction_reads_back(self, trained, tmp_path, capsys):
        # the density head is a linear 1x1 conv, so a prediction may be < 0
        root, manifest_path, _, out_dir = trained
        params = load_checkpoint(os.path.join(out_dir, "final.ck"))
        params["fn.conv2.bias"] = params["fn.conv2.bias"] - 100.0
        ckpt = str(tmp_path / "negative.ck")
        save_checkpoint(params, ckpt)
        image = io_formats.load_manifest(manifest_path).items[0].image
        prefix = str(tmp_path / "pred")
        assert main(["predict", "--checkpoint", ckpt,
                     "--image", os.path.join(root, image), "--out", prefix]) == 0
        printed = float(capsys.readouterr().out.strip())
        dm = io_formats.load_density(prefix + ".dm")
        assert dm.max() < 0
        assert printed == pytest.approx(float(dm.sum()), rel=1e-5)

    def test_deterministic(self, trained, tmp_path):
        root, manifest_path, _, out_dir = trained
        manifest = io_formats.load_manifest(manifest_path)
        image_path = os.path.join(root, manifest.items[0].image)
        args = ["predict", "--checkpoint", os.path.join(out_dir, "final.ck"),
                "--image", image_path]
        assert main(args + ["--out", str(tmp_path / "p1")]) == 0
        assert main(args + ["--out", str(tmp_path / "p2")]) == 0
        assert (tmp_path / "p1.dm").read_bytes() == (tmp_path / "p2.dm").read_bytes()
        assert (tmp_path / "p1.pgm").read_bytes() == (tmp_path / "p2.pgm").read_bytes()

    def test_out_in_missing_directory_exits_1_naming_it(self, trained, tmp_path, capsys,
                                                         monkeypatch):
        root, manifest_path, _, out_dir = trained
        image = os.path.join(root, io_formats.load_manifest(manifest_path).items[0].image)
        monkeypatch.chdir(tmp_path)
        assert main(["predict", "--checkpoint", os.path.join(out_dir, "final.ck"),
                     "--image", image, "--out", "nodir/x"]) == 1
        err = capsys.readouterr().err
        assert err == "error: [Errno 2] No such file or directory: 'nodir/x.dm'\n"

    def _predict(self, trained, tmp_path, ckpt):
        root, manifest_path, _, _ = trained
        image = io_formats.load_manifest(manifest_path).items[0].image
        prefix = tmp_path / "pred"
        code = main(["predict", "--checkpoint", ckpt,
                     "--image", os.path.join(root, image), "--out", str(prefix)])
        assert not os.path.exists(str(prefix) + ".dm")
        return code

    def test_missing_parameter_exits_1(self, trained, tmp_path, capsys):
        _, _, _, out_dir = trained
        params = load_checkpoint(os.path.join(out_dir, "final.ck"))
        del params["fn.conv2.weight"]
        bad = str(tmp_path / "bad.ck")
        save_checkpoint(params, bad)
        assert self._predict(trained, tmp_path, bad) == 1
        assert "fn.conv2.weight" in capsys.readouterr().err

    def test_bad_checkpoint_magic_exits_1_naming_the_file(self, trained, tmp_path, capsys):
        _, _, _, out_dir = trained
        bad = tmp_path / "bad.ck"
        bad.write_bytes(b"NOTACK1\n" + open(os.path.join(out_dir, "final.ck"), "rb").read()[8:])
        assert self._predict(trained, tmp_path, str(bad)) == 1
        err = capsys.readouterr().err
        assert f"{bad}: bad checkpoint magic b'NOTACK1\\n' (at byte offset 0)" in err

    def test_other_arch_exits_1(self, trained, tmp_path, capsys):
        tiny = str(tmp_path / "tiny.ck")
        save_checkpoint(init_params(Arch.tiny(), np.random.default_rng(0)), tiny)
        assert self._predict(trained, tmp_path, tiny) == 1
        assert "shape" in capsys.readouterr().err

    def test_dims_overflowing_int64_exit_1(self, trained, tmp_path, capsys):
        # four dims of 65536: their product wraps a 64-bit int to 0
        bad = tmp_path / "wrap.ck"
        bad.write_bytes(MAGIC + struct.pack("<IIH", VERSION, 1, 1) + b"w"
                        + struct.pack("<B4I", 4, *(65536,) * 4))
        assert self._predict(trained, tmp_path, str(bad)) == 1
        assert "truncated" in capsys.readouterr().err

    def test_nan_checkpoint_exits_2(self, trained, tmp_path, capsys):
        root, manifest_path, _, out_dir = trained
        bad = nan_checkpoint(os.path.join(out_dir, "final.ck"), tmp_path)
        assert self._predict(trained, tmp_path, bad) == 2
        image = os.path.join(root, io_formats.load_manifest(manifest_path).items[0].image)
        assert f"error: {image}: non-finite" in capsys.readouterr().err


# a 384x512 cache-free density and one batch-4 64x64 step's gradients,
# hashed, then `saan train --config argv[1]`
_BITS_SCRIPT = """
import hashlib, sys
import numpy as np
from saan import losses, network, params
from saan.cli import main
arch = network.Arch.default()
p = params.init_params(arch, np.random.default_rng(5))
rng = np.random.default_rng(6)
x = rng.uniform(0, 1, (1, 1, 384, 512)).astype(np.float32)
digest = hashlib.sha256(network.model_forward(x, p, arch, keep_caches=False).density.tobytes())
x = rng.uniform(0, 1, (4, 1, 64, 64)).astype(np.float32)
out = network.model_forward(x, p, arch)
_, grads_out = losses.total_loss(out, np.full(x.shape, 0.01, np.float32), np.array([1, 2, 3, 1]),
                                 rng.integers(1, 4, (4, 16, 16)), lambda_g=1.0, lambda_l=1.0)
grads = network.model_backward(grads_out, out, p)
for k in sorted(grads):
    digest.update(grads[k].tobytes())
print("bits", digest.hexdigest())
sys.exit(main(["train", "--config", sys.argv[1]]))
"""


def saan_env(**extra):
    """The environment of a subprocess that imports this checkout's saan,
    with no BLAS thread variable of its own."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(saan.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


class TestThreadCap:
    def test_any_saan_import_applies_the_cap(self):
        code = "import saan.train, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
        done = subprocess.run([sys.executable, "-c", code], env=saan_env(SAAN_THREADS="1"),
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == "1"

    def test_bits_do_not_depend_on_the_thread_count(self, prepared, tmp_path):
        # the acceptance mini config (12 scenes, 32x32, 1+1 epochs) and two
        # forward/backward hashes, at one and two BLAS threads
        _, manifest_path = prepared
        results = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"run{threads}"
            config = tmp_path / f"config{threads}.json"
            config.write_text(json.dumps({
                "manifest": manifest_path, "out_dir": str(out_dir), "seed": 5,
                "phase1_epochs": 1, "phase2_epochs": 1, "learning_rate": 1e-3,
                "crop_size": 32}))
            done = subprocess.run([sys.executable, "-c", _BITS_SCRIPT, str(config)],
                                  env=saan_env(SAAN_THREADS=threads), capture_output=True,
                                  text=True, timeout=300, check=True)
            bits = [ln for ln in done.stdout.splitlines() if ln.startswith("bits ")]
            results.append((bits, (out_dir / "final.ck").read_bytes(),
                            (out_dir / "train.log").read_bytes()))
        assert len(results[0][0]) == 1
        assert results[0] == results[1]


class TestGradcheck:
    def test_negative_seed_exits_1(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_fresh_build_passes(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if "max_rel_err" in ln]
        assert len(lines) >= 12
        assert all("PASS" in ln for ln in lines)
        assert any("end_to_end" in ln for ln in lines)


class TestAblate:
    def test_variant_without_lsa_logs_one_phase(self, prepared, tmp_path, monkeypatch):
        _, manifest_path = prepared
        monkeypatch.setattr(Arch, "default", Arch.tiny)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"manifest": manifest_path, "out_dir": str(tmp_path / "out"),
                                      "phase1_epochs": 1, "phase2_epochs": 2,
                                      "crop_size": 32}))
        assert main(["ablate", "--config", str(config)]) == 0
        for variant in ("model_base", "model_base_gsa"):
            with open(tmp_path / "out" / "ablate" / variant / "train.log") as fh:
                records = [json.loads(line) for line in fh]
            assert {r["phase"] for r in records} == {1}
            assert {r["epoch"] for r in records} == {1, 2, 3}
        for variant in os.listdir(tmp_path / "out" / "ablate"):
            phase1 = tmp_path / "out" / "ablate" / variant / "phase1.ck"
            assert phase1.exists() == (variant not in ("model_base", "model_base_gsa"))

    def test_empty_test_split_exits_1_before_training(self, prepared, tmp_path, capsys):
        _, manifest_path = prepared
        manifest = io_formats.load_manifest(manifest_path)
        items = [ManifestItem(it.image, it.ann, "val" if it.split == "test" else it.split)
                 for it in manifest.items]
        no_test = os.path.join(os.path.dirname(manifest_path), "no_test.json")
        io_formats.save_manifest(no_test, Manifest(items=items, bins=manifest.bins))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"manifest": no_test, "out_dir": str(tmp_path / "out"),
                                      "phase1_epochs": 1, "phase2_epochs": 1}))
        assert main(["ablate", "--config", str(config)]) == 1
        assert "split 'test' is empty" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out" / "ablate")

    def test_tables_and_json(self, trained, capsys):
        _, _, config_path, out_dir = trained
        assert main(["ablate", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "model variants" in out and "loss variants" in out
        report = json.load(open(os.path.join(out_dir, "ablation.json")))
        assert [r["name"] for r in report["model_variants"]] == [
            "base", "base+GSA", "base+LSA", "full"]
        assert [r["name"] for r in report["loss_variants"]] == [
            "L_DM", "L_DM+L_LSA", "L_DM+L_GSA", "L_DM+L_GSA+L_LSA"]
        for row in report["model_variants"] + report["loss_variants"]:
            assert np.isfinite(row["mae"]) and np.isfinite(row["mse"])
            assert row["mse"] >= row["mae"] - 1e-12
        base = report["model_variants"][0]
        assert base["attention_identity"] is True
        full = report["model_variants"][3]
        all_loss = report["loss_variants"][3]
        assert (full["mae"], full["mse"]) == (all_loss["mae"], all_loss["mse"])


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"learning_rte": 0.1}')
        assert main(["train", "--config", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_removed_sigma_key_exits_1(self, tmp_path, capsys):
        # the ground-truth width is `saan prepare --sigma`; no config key sets it
        path = tmp_path / "c.json"
        path.write_text('{"sigma": 4.0}')
        assert main(["train", "--config", str(path)]) == 1
        assert "unknown config keys: sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, path", [
        ("predict", "--image", "dir"), ("predict", "--checkpoint", "dir"),
        ("eval", "--checkpoint", "dir"), ("predict", "--image", "under_a_file"),
    ], ids=["predict-image", "predict-checkpoint", "eval-checkpoint", "predict-image-under-a-file"])
    def test_directory_for_a_file_exits_1(self, trained, tmp_path, capsys, command, flag, path):
        # a malformed path is a validation error, as a missing file is
        root, manifest_path, _, out_dir = trained
        image = os.path.join(root, io_formats.load_manifest(manifest_path).items[0].image)
        files = {"--image": image, "--checkpoint": os.path.join(out_dir, "final.ck")}
        files[flag] = str(tmp_path) if path == "dir" else os.path.join(image, "x")
        args = {"predict": ["--image", files["--image"], "--out", str(tmp_path / "p")],
                "eval": ["--manifest", manifest_path]}[command]
        assert main([command, "--checkpoint", files["--checkpoint"]] + args) == 1
        err = capsys.readouterr().err
        assert ("Is a directory" if path == "dir" else "Not a directory") in err

    def test_out_dir_naming_a_file_exits_1(self, prepared, tmp_path, capsys):
        _, manifest_path = prepared
        out_dir = tmp_path / "run"
        out_dir.write_text("")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"manifest": manifest_path, "out_dir": str(out_dir)}))
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out_dir ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_negative_config_seed_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "c.json"
        path.write_text('{"seed": -1}')
        assert main([command, "--config", str(path)]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key, literal", [
        ("learning_rate", "NaN"), ("epsilon", "Infinity"), ("lambda_g", "-Infinity"),
        pytest.param("learning_rate", "1" + "0" * 400, id="learning_rate-int-past-float64"),
        pytest.param("lambda_g", "-1" + "0" * 400, id="lambda_g-int-past-float64")])
    def test_non_finite_config_number_exits_1(self, tmp_path, capsys, key, literal):
        path = tmp_path / "c.json"
        path.write_text(f'{{"{key}": {literal}}}')
        assert main(["train", "--config", str(path)]) == 1
        assert f"{key} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("prepare", "[" * 100_000 + "]" * 100_000),
        ("train", '{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}"),
        ("prepare", '{"items": [], "bins": {"global": [0, 18446744073709551616], '
                    '"local": [0, 1]}}'),
    ], ids=["deep-manifest", "deep-config", "bins-past-int64"])
    def test_json_past_the_parsers_limits_exits_1(self, tmp_path, capsys, command, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        flag = "--manifest" if command == "prepare" else "--config"
        assert main([command, flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("exc, code, line", [
        (KeyboardInterrupt(), 130, "error: interrupted"),
        (MemoryError(), 2, "error: out of memory"),
        (MemoryError("Unable to allocate 8.00 GiB"), 2,
         "error: out of memory: Unable to allocate 8.00 GiB"),
    ], ids=["interrupt", "out-of-memory", "out-of-memory-named"])
    def test_interrupt_and_out_of_memory_end_in_one_line(self, monkeypatch, capsys, exc, code,
                                                          line):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_gradcheck", fail)
        assert main(["gradcheck"]) == code
        assert capsys.readouterr().err == line + "\n"

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff{}")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "UTF-8" in err
