#!/usr/bin/env python3
"""Benchmark of the saan crowd counter: training and full-image inference.

    python3 benchmarks/run.py --workload train-64 --seed 0 --seconds 50 --trace 0

runs one workload in this process, single-threaded, against the program in
``src/`` of the checkout this file sits in, and prints one JSON object as
its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run. ``--workload all`` (the default)
runs every workload both ways, each in a fresh process, prints a table and
writes it to ``--out`` if given. The exit code is 0 only when every output
check passed. See README.md in this directory.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train-64", "infer-384x512")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SAAN_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0, help="measured time per run")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", help="with --workload all: write every result here as JSON")
    p.add_argument("--record-reference", action="store_true",
                   help="write this workload's reference values at the default seed")
    return p.parse_args(argv)


def provenance():
    """Where the numbers come from: machine, libraries and commit."""
    import numpy as np

    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            path = os.path.join(cache_dir, index)
            if not index.startswith("index"):
                continue
            with open(os.path.join(path, "level")) as a, open(os.path.join(path, "size")) as b:
                level, size = a.read().strip(), b.read().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = size
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        info["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                        capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        info["commit"] = None
    return info


def run_one(args):
    """One workload in this process; returns the exit code."""
    sys.path.insert(0, SRC)
    import measure
    import workloads as wk

    wl = wk.WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".bench_work")
    root = os.path.join(work_root, f"{wl.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    try:
        wk.write_inputs(wl, root, args.seed)
        if args.record_reference:
            ref = {}
            if os.path.exists(wk.REFERENCE_PATH):
                with open(wk.REFERENCE_PATH, encoding="utf-8") as fh:
                    ref = json.load(fh)
            ref[wl.name] = wk.record_reference(wl, root, wk.DEFAULT_SEED)
            with open(wk.REFERENCE_PATH, "w", encoding="utf-8") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
            return 0
        if args.trace:
            spans_path = os.path.join(work_root, f"spans-{wl.name}.tsv")
            attempted, failed, metrics, details = measure.per_layer(
                wl, root, args.seed, args.seconds, spans_path)
        else:
            attempted, failed, metrics, details = measure.end_to_end(
                wl, root, args.seed, args.seconds)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    details["provenance"] = provenance()
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    results, status = [], 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or len(lines) < 2:
                status = 1
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
            if len(lines) < 2:
                continue
            result = {**json.loads(lines[-2]), **json.loads(lines[-1])}
            results.append(result)
            print(f"\n{name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
    return status


def main(argv=None):
    args = parse_args(argv)
    # BLAS reads its thread count when numpy loads: pin it first. (The
    # program's own SAAN_THREADS cap applies only when saan.cli is imported
    # before numpy, which a library caller cannot rely on.)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "saan", "__init__.py")):
        print(f"error: no program to measure: {os.path.join(SRC, 'saan')} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
