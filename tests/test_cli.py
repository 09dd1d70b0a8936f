"""End-to-end tests for the command-line interface."""

import csv
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import saan
from saan import io_formats, train
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

    def test_reads_the_training_split_once(self, trained, tmp_path, monkeypatch):
        _, _, config_path, _ = trained
        monkeypatch.setattr(Arch, "default", Arch.tiny)
        calls = []
        real = train.load_split

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(train, "load_split", counting)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.load(open(config_path)),
                                      "out_dir": str(tmp_path / "out")}))
        assert main(["train", "--config", str(config)]) == 0
        assert calls == ["train"]

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
        assert "non-finite" in capsys.readouterr().err


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
        _, _, _, out_dir = trained
        bad = nan_checkpoint(os.path.join(out_dir, "final.ck"), tmp_path)
        assert self._predict(trained, tmp_path, bad) == 2
        assert "non-finite" in capsys.readouterr().err


class TestThreadCap:
    def test_any_saan_import_applies_the_cap(self):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        src = os.path.dirname(os.path.dirname(os.path.abspath(saan.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["SAAN_THREADS"] = "1"
        code = "import saan.train, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "1"


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

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_negative_config_seed_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "c.json"
        path.write_text('{"seed": -1}')
        assert main([command, "--config", str(path)]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff{}")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "UTF-8" in err
