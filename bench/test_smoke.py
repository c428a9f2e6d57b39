"""Smoke test of the benchmark itself: python3 -m pytest bench/test_smoke.py

Runs a tiny pass of every workload, untraced and traced, and checks that
the summary names every end-to-end metric with its unit, that the result
line has the agreed shape, and that a wrong expectation is reported as a
failure.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ips": "instances/s",
    "latency_gmean_ms": "ms",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "certified_ratio": "ratio",
    "error_ratio": "ratio",
    "bound_slack": "1",
    "peak_rss_mb": "MiB",
}


def bench(workload, *extra, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


@pytest.mark.parametrize("workload", ["roots", "sos", "bisect", "verify"])
def test_untraced_pass_prints_every_metric(workload):
    summary, result = bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in END_TO_END_UNITS.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in f"{line} " for line in summary), name
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["roots", "verify"])
def test_traced_pass_reports_every_layer_metric(workload):
    _, result = bench(workload, trace=1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")


@pytest.mark.parametrize("workload", ["roots", "sos", "bisect", "verify"])
def test_wrong_expectation_is_a_failure(workload):
    summary, result = bench(workload, "--corrupt-oracle")
    assert not result["correct"] and result["failed"] >= 1
    error_ratio = next(line.split()[1] for line in summary if line.split()[:1] == ["error_ratio"])
    assert float(error_ratio) > 0


def test_missing_program_fails_without_result(tmp_path):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "roots", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
