"""Self-test of the benchmark, at tiny problem sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_the_metrics_the_benchmark_emits():
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    assert {(m["name"], m["unit"]) for m in SPEC["end_to_end"]} == set(run.E2E_UNITS.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _, _ in LAYER_METRICS]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _falsify(value):
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: _falsify(value[key])}
    return type(value)([*value[:-1], _falsify(value[-1])])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_falsified_oracle_counts_as_failure(workload):
    ops = workloads.build(workload, 0, tiny=True)
    bad = dataclasses.replace(ops[0], expected=_falsify(ops[0].expected))
    record = workloads.run_pass([bad] + ops[1:])
    assert record["failed"] == 1
    assert record["failures"][0].startswith(bad.name)

    args = argparse.Namespace(workload=workload, seed=0, trace=0)
    records = [{"mode": "setup", "setup_s": 0.5},
               {"mode": "plain", "setup_s": 0.5, "peak_rss_mb": 64.0, **record}]
    _, result = run.report(args, records)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == len(ops)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
