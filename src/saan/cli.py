"""Command-line interface: dataset synthesis, preparation, training,
evaluation, prediction, gradient checking, and the ablation harness.

Exit codes: 0 success, 1 validation error, 2 runtime or numeric failure.
"""

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import fields, replace

import numpy as np

from . import io_formats, synth, train
from .density import compute_bins, gaussian_density_map
from .errors import ConfigError, SaanError, TrainingError
from .gradcheck import run_suite
from .io_formats import Manifest, ManifestItem
from .network import Arch, model_forward
from .params import load_checkpoint, save_checkpoint, validate_inventory

CONFIG_DEFAULTS = {f.name: f.default for f in fields(train.TrainConfig)}


def load_config(path):
    """Parse a JSON config into a TrainConfig; relative paths resolve
    against the config file's directory."""
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in config {path}: {exc}")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = sorted(set(doc) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = {**CONFIG_DEFAULTS, **doc}
    cfg_dir = os.path.dirname(os.path.abspath(path))
    # integers are checked first, then numbers, then paths
    for f in sorted(fields(train.TrainConfig), key=lambda f: (int, float, str).index(f.type)):
        key, value = f.name, merged[f.name]
        if f.type is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        elif f.type is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
            merged[key] = float(value)
        else:
            if not isinstance(value, str) or not value:
                raise ConfigError(f"config key {key!r} must be a non-empty string")
            merged[key] = os.path.normpath(os.path.join(cfg_dir, value))
    return train.TrainConfig(**merged)


def _parse_size(text):
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise ConfigError(f"invalid size {text!r}, expected HxW (e.g. 64x64)")
    h, w = int(m.group(1)), int(m.group(2))
    if h < 8 or w < 8:
        raise ConfigError(f"size {h}x{w} too small: the network needs at least 8x8")
    return h, w


def _split_labels(n, seed):
    """Seeded 70/10/20 split assignment, one label per scene index."""
    n_train = int(n * 0.7)
    n_val = int(n * 0.1)
    perm = np.random.default_rng([seed, 1]).permutation(n)
    labels = ["test"] * n
    for i in perm[:n_train]:
        labels[i] = "train"
    for i in perm[n_train:n_train + n_val]:
        labels[i] = "val"
    return labels


def cmd_synth(args):
    height, width = _parse_size(args.size)
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.images <= 0:
        raise ConfigError(f"--images must be positive, got {args.images}")
    if args.count_min < 0 or args.count_min > args.count_max:
        raise ConfigError(
            f"invalid count range [{args.count_min}, {args.count_max}]")
    out = args.out
    os.makedirs(os.path.join(out, "images"), exist_ok=True)
    os.makedirs(os.path.join(out, "anns"), exist_ok=True)
    labels = _split_labels(args.images, args.seed)
    items = []
    for i in range(args.images):
        image, points = synth.synth_scene(
            [args.seed, 0, i], height, width, (args.count_min, args.count_max))
        rel_img = f"images/scene_{i:04d}.pgm"
        rel_ann = f"anns/scene_{i:04d}.txt"
        io_formats.write_pgm(os.path.join(out, rel_img), image[0])
        io_formats.write_annotations(os.path.join(out, rel_ann), points)
        items.append(ManifestItem(rel_img, rel_ann, labels[i]))
    manifest_path = os.path.join(out, "manifest.json")
    io_formats.save_manifest(manifest_path, Manifest(items=items, bins=None))
    print(f"wrote {args.images} scenes and {manifest_path}")
    return 0


def cmd_prepare(args):
    manifest = io_formats.load_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    io_formats.validate_manifest_files(manifest, base)
    if args.sigma <= 0:
        raise ConfigError(f"--sigma must be positive, got {args.sigma}")
    os.makedirs(os.path.join(base, "density"), exist_ok=True)
    train_maps = []
    for item in manifest.items:
        points = io_formats.read_annotations(os.path.join(base, item.ann))
        h, w = io_formats.read_pgm(os.path.join(base, item.image)).shape
        dm = gaussian_density_map(points, h, w, sigma=args.sigma)
        path = io_formats.density_path(base, item)
        io_formats.save_density(path, dm)
        if item.split == "train":
            train_maps.append(io_formats.load_density(path).astype(np.float64))
    bins = compute_bins(train_maps)
    io_formats.save_manifest(args.manifest, Manifest(items=manifest.items, bins=bins))
    print(json.dumps({
        "images": len(manifest.items),
        "global": [bins.global_min, bins.global_max],
        "local": [bins.local_min, bins.local_max],
    }))
    return 0


def _train_run(manifest, config, base, on_phase_end=None, **flags):
    """Run train.train into config.out_dir: train.log, the epoch
    checkpoints and final.ck."""
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, "train.log"), "w", encoding="utf-8") as log_fh:
        def log(record):
            log_fh.write(json.dumps(record) + "\n")
        params = train.train(manifest, config, base, log=log, on_phase_end=on_phase_end,
                             **flags)
    save_checkpoint(params, os.path.join(config.out_dir, "final.ck"))
    return params


def cmd_train(args):
    config = load_config(args.config)
    manifest = io_formats.load_manifest(config.manifest)
    base = os.path.dirname(os.path.abspath(config.manifest))

    def on_phase_end(phase, params):
        if phase == 1:
            save_checkpoint(params, os.path.join(config.out_dir, "phase1.ck"))
    _train_run(manifest, config, base, on_phase_end)
    for name in ("phase1.ck", "final.ck", "train.log"):
        print(f"wrote {os.path.join(config.out_dir, name)}")
    return 0


def cmd_eval(args):
    params = load_checkpoint(args.checkpoint)
    manifest = io_formats.load_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    v_mae, v_mse, records = train.evaluate(params, manifest, base, args.split)
    csv_path = os.path.join(
        os.path.dirname(os.path.abspath(args.checkpoint)), f"eval_{args.split}.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "gt_count", "pred_count"])
        for r in records:
            writer.writerow([r["image"], repr(r["gt_count"]), repr(r["pred_count"])])
    print(json.dumps({"mae": v_mae, "mse": v_mse, "n": len(records)}))
    return 0


def cmd_predict(args):
    image = io_formats.read_pgm(args.image)
    params = load_checkpoint(args.checkpoint)
    validate_inventory(params, Arch.default())
    out = model_forward(image[None, None, :, :], params, keep_caches=False)
    density = out.density[0, 0].astype(np.float32)
    if not np.all(np.isfinite(density)):
        raise TrainingError(f"checkpoint {args.checkpoint} gives a non-finite density map")
    io_formats.save_density(args.out + ".dm", density)
    peak = float(density.max())
    if peak > 0:
        visual = np.clip(density / peak, 0.0, 1.0)
    else:
        visual = np.zeros_like(density)
    io_formats.write_pgm(args.out + ".pgm", visual)
    print(float(density.sum()))
    return 0


def cmd_gradcheck(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    results = run_suite(seed=args.seed)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"{r.name:<20} max_rel_err={r.max_rel_err:.3e} "
              f"tol={r.tolerance:.0e} {status}")
    if not ok:
        raise TrainingError("gradient check failed; see report above")
    return 0


_MODEL_VARIANTS = [
    ("base", dict(gsa_enabled=False, lsa_enabled=False)),
    ("base+GSA", dict(gsa_enabled=True, lsa_enabled=False)),
    ("base+LSA", dict(gsa_enabled=False, lsa_enabled=True)),
    ("full", dict(gsa_enabled=True, lsa_enabled=True)),
]

_LOSS_VARIANTS = [
    ("L_DM", dict(include_gsa=False, include_lsa=False)),
    ("L_DM+L_LSA", dict(include_gsa=False, include_lsa=True)),
    ("L_DM+L_GSA", dict(include_gsa=True, include_lsa=False)),
    ("L_DM+L_GSA+L_LSA", dict(include_gsa=True, include_lsa=True)),
]


def _slug(name):
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _run_ablation_variant(manifest, config, base, kind, name, flags):
    variant_cfg = replace(
        config, out_dir=os.path.join(config.out_dir, "ablate", f"{kind}_{_slug(name)}"))
    params = _train_run(manifest, variant_cfg, base, **flags)
    v_mae, v_mse, _ = train.evaluate(
        params, manifest, base, "test",
        lsa_enabled=flags.get("lsa_enabled", True),
        gsa_enabled=flags.get("gsa_enabled", True),
    )
    return params, {"name": name, "mae": v_mae, "mse": v_mse}


def _render_table(title, rows):
    name_w = max(len("variant"), max(len(r["name"]) for r in rows))
    lines = [
        title,
        f"{'variant':<{name_w}}  {'MAE':>10}  {'MSE':>10}",
        "-" * (name_w + 24),
    ]
    for r in rows:
        lines.append(f"{r['name']:<{name_w}}  {r['mae']:>10.4f}  {r['mse']:>10.4f}")
    return "\n".join(lines)


def cmd_ablate(args):
    config = load_config(args.config)
    manifest = io_formats.load_manifest(config.manifest)
    base = os.path.dirname(os.path.abspath(config.manifest))
    train.require_splits(manifest, ["train", "test"])
    model_rows = []
    full_row = None
    for name, flags in _MODEL_VARIANTS:
        params, row = _run_ablation_variant(manifest, config, base, "model", name, flags)
        if name == "base":
            # the disabled-attention contract: both tensors identically one;
            # g and l are read from the caches, so this forward keeps them
            item = manifest.split_items("test")[0]
            image = io_formats.read_pgm(os.path.join(base, item.image))
            out = model_forward(image[None, None, :, :], params,
                                lsa_enabled=False, gsa_enabled=False)
            identity = bool(np.all(out.cache["g"] == 1.0) and np.all(out.cache["l"] == 1.0))
            row["attention_identity"] = identity
        if name == "full":
            full_row = row
        model_rows.append(row)
    loss_rows = []
    for name, flags in _LOSS_VARIANTS:
        if flags["include_gsa"] and flags["include_lsa"]:
            # identical run to the full model variant, reuse its metrics
            loss_rows.append({"name": name, "mae": full_row["mae"], "mse": full_row["mse"]})
            continue
        _, row = _run_ablation_variant(manifest, config, base, "loss", name, flags)
        loss_rows.append(row)
    report = {"model_variants": model_rows, "loss_variants": loss_rows}
    json_path = os.path.join(config.out_dir, "ablation.json")
    with io_formats.atomic_open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(_render_table("model variants", model_rows))
    print()
    print(_render_table("loss variants", loss_rows))
    print(f"wrote {json_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="saan",
        description="Scale-aware attention network for crowd counting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dot-annotated dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--images", type=int, default=200)
    p.add_argument("--size", default="64x64", help="image size as HxW")
    p.add_argument("--count-min", type=int, default=5, dest="count_min")
    p.add_argument("--count-max", type=int, default=50, dest="count_max")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="generate density maps and scale bins")
    p.add_argument("--manifest", required=True)
    p.add_argument("--sigma", type=float, default=4.0)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="two-phase training from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=io_formats.SPLITS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict a density map for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="architecture and loss ablation tables")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SaanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
