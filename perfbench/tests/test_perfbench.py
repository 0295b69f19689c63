"""The benchmark's own tests: tiny-size runs of every workload through the
same checks and coverage guard as a full run, plus the failure paths.

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import snipe.estimators
import snipe.harness
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "experiment-n5000": replace(workloads.WORKLOADS["experiment-n5000"], n=300, reps=30),
    "variance-n5000": replace(workloads.WORKLOADS["variance-n5000"], n=300, reps=30),
    "oracle-n16": replace(workloads.WORKLOADS["oracle-n16"], n=8, p_edge=0.4, size_tol=10.0),
}


def _run(name, trace, seed=3):
    result, tally, units = workloads.run(TINY[name], seed=seed, seconds=0.01, trace=trace)
    return result, tally


def test_workload_table_matches_benchmark_json():
    names = sorted(w["name"] for w in BENCHMARK["workloads"])
    assert names == sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_checks_and_reports_every_metric(name, trace):
    result, tally = _run(name, trace)
    assert result["correct"], tally.errors
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_work_counts_repeat_exactly_for_a_seed(name):
    counts = ("estimators.fill_ratio", "variance.pairs", "oracle.assignments", "baselines.excluded_frac")
    first = _run(name, True)[0]["metrics"]
    again = _run(name, True)[0]["metrics"]
    assert [first[c]["value"] for c in counts] == [again[c]["value"] for c in counts]
    assert first["estimators.fill_ratio"]["value"] > 0


def test_estimator_returning_nan_counts_as_failed(monkeypatch):
    monkeypatch.setattr(snipe.estimators, "snipe_tte", lambda *a, **k: float("nan"))
    result, tally = _run("experiment-n5000", False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any("snipe_tte returned a non-finite value" in e for e in tally.errors)


def test_call_routed_around_a_wrapper_fails_the_guard(monkeypatch):
    # "snipe" served by the uniform fast path: same numbers, but the
    # snipe_tte span sees no calls
    def est_snipe(g, Y, z, design, params, cfg):
        return snipe.estimators.snipe_tte_uniform(g, Y, z, float(design.probs[0]), params["beta"])

    table = dict(snipe.harness.ESTIMATOR_NAMES)
    table["snipe"] = (est_snipe, table["snipe"][1])
    monkeypatch.setattr(snipe.harness, "ESTIMATOR_NAMES", table)
    result, tally = _run("experiment-n5000", False)
    assert not result["correct"]
    assert any("span estimators.snipe_tte under harness.run_experiment: 0 calls" in e for e in tally.errors)


def test_oracle_checks_catch_a_biased_estimator(monkeypatch):
    original = snipe.estimators.snipe_ate
    monkeypatch.setattr(snipe.estimators, "snipe_ate", lambda *a: np.asarray(original(*a)) + 1e-3)
    result, tally = _run("oracle-n16", False)
    assert not result["correct"]
    assert any(e.startswith("snipe_ate: exact mean") for e in tally.errors)


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "oracle-n16", "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
