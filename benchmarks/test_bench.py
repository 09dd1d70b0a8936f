"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py

They start the benchmark as a separate process, one short run per workload
and mode, so they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(checkout, workload, trace, seed=0, seconds=0.1):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{\"correct\"") else None
    return proc.returncode, result, proc.stderr


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = run_bench(ROOT, workload, trace)
        return cache[workload, trace]
    return get


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(results, workload, trace):
    code, result, stderr = results(workload, trace)
    assert code == 0, stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0


def test_layer_table_matches_the_program(results):
    train = {k: v["value"] for k, v in results("train-64", 1)[1]["metrics"].items()}
    big = {k: v["value"] for k, v in results("infer-384x512", 1)[1]["metrics"].items()}
    ops = {k: v for k, v in train.items() if k.startswith("ops.") and k.endswith(".ms")}
    assert max(ops, key=ops.get) == "ops.conv2d_backward.ms"
    assert all(v == 0.0 for k, v in big.items() if "backward" in k or "bwd" in k)
    assert 150 < big["network.model_forward.retained_mib"] < 200
    assert train["train.phase1_step_p50_ms"] > 0 and train["train.phase2_step_p50_ms"] > 0


def test_corrupted_reference_fails_the_run(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = tmp_path / "benchmarks" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["train-64"]["l_final"][3] *= 1.01
    ref_path.write_text(json.dumps(ref))
    code, result, _ = run_bench(tmp_path, "train-64", 0)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_checkout_without_program_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, stderr = run_bench(tmp_path, WORKLOADS[0], 0)
    assert code != 0 and result is None and "missing" in stderr


def test_self_time_excludes_direct_children_only():
    #        name  start end  parent
    rows = [["a", 0.0, 10.0, -1], ["b", 1.0, 5.0, 0], ["c", 2.0, 3.0, 1], ["d", 6.0, 7.0, 0]]
    rows = [r + [0, None, 0, 0, 0] for r in rows]
    assert spans.self_times(rows) == [5.0, 3.0, 1.0, 1.0]
