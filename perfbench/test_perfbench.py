"""Smoke, exactness and fault-injection tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs at a tiny size in both modes; a wrong pinned digest and
a corrupted step must each raise the failure count instead of crashing;
work counts must repeat exactly across runs and between the traced and
untraced passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from intham import evolver  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _smoke(name, **kwargs):
    kwargs.setdefault("expected", None)
    return run.run_timed(workloads.WORKLOADS[name], seed=5, seconds=0.05, smoke=True, **kwargs)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_passes_every_check(name):
    result = _smoke(name)
    assert result["correct"], result["details"]["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_default_seed_matches_pinned_digest(name):
    workload = workloads.WORKLOADS[name]
    tally = run.reference_check(workload, workloads.EXPECTED_DIGESTS[name], smoke=False)
    assert tally.failures == []
    assert tally.digest == workloads.EXPECTED_DIGESTS[name]


def test_wrong_digest_raises_fail_count():
    result = _smoke("coupled-chain", expected="0" * 64)
    assert not result["correct"]
    assert result["failed"] == 1
    assert "digest" in result["details"]["failures"][0]


def test_wrong_site_from_step_raises_fail_count(monkeypatch):
    monkeypatch.setattr(evolver, "next_site", lambda ham, q, p: (q + 1, p))
    result = _smoke("bowl-orbit")
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any("energy changed" in m for m in result["details"]["failures"])


def test_raising_step_is_counted_not_propagated(monkeypatch):
    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(evolver, "step_inverse", broken)
    result = _smoke("coupled-chain")
    assert not result["correct"]
    assert any("injected" in m for m in result["details"]["failures"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name):
    workload = workloads.WORKLOADS[name]
    first = run.run_traced(workload, seed=5, expected=None, smoke=True, write=False)
    second = run.run_traced(workload, seed=5, expected=None, smoke=True, write=False)
    # run_traced itself fails the run if traced and untraced counts differ
    assert first["correct"], first["details"]["failures"]
    assert first["details"]["counts"] == second["details"]["counts"]
    assert first["details"]["tracer_counts"] == second["details"]["tracer_counts"]
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    assert first["details"]["not_traced"] == []
    assert first["details"]["count_failures"] == []
    assert first["metrics"]["workload.ops"]["value"] > 0


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    timed = _smoke("field-line")
    assert sorted(timed["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    traced = run.run_traced(workloads.WORKLOADS["field-line"], seed=5, expected=None, smoke=True, write=False)
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        reported = (timed["metrics"] | traced["metrics"])[metric["name"]]
        assert reported["unit"] == metric["unit"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bowl-orbit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
