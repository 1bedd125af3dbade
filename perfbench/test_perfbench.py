"""Smoke test of the benchmark itself: every workload at a tiny size, untraced
and traced.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, seed=3):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def outputs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            lines = proc.stdout.strip().splitlines()
            cache[workload, trace] = (json.loads(lines[-1]), lines[:-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_no_failed_op(outputs, workload, trace):
    result, lines = outputs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("metric ")}
    for m in listed:
        assert printed[m["name"]] == m["unit"]
    assert printed["ops_attempted"] == printed["ops_failed"] == "count"
    assert any(line.startswith("record ") for line in lines)


@pytest.mark.parametrize("workload", ["fgsv-wide", "regression-exact"])
def test_single_thread_self_times_cover_traced_wall(outputs, workload):
    metrics = outputs(workload, 1)[0]["metrics"]
    total = sum(metrics[name]["value"] for name in tracing.SELF_TIME_METRICS)
    wall = metrics["trace.wall_s"]["value"]
    assert abs(total - wall) <= 0.1 * wall


def test_run_record_fields(outputs):
    lines = outputs("fgsv-wide", 0)[1]
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    for key in ("nproc", "python", "numpy", "scipy", "groupshapley", "blas_vendor",
                "blas_threads_env", "blas_threads_in_effect", "threads", "seed",
                "git_commit"):
        assert key in record


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
