"""Smoke tests for the benchmark itself, at a minimal step budget.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workload  # noqa: E402

TINY = workload.Budget(learn_steps=4, dynamics_epochs=1)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_workloads_the_benchmark_runs():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workload.WORKLOADS.items()}
    assert units("end_to_end") == run.END_TO_END


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, tmp_path):
    reps = run.run_workload(name, seed=0, seconds=0, trace=True, out=tmp_path, budget=TINY)
    assert [r["trace"] for r in reps] == [0, 1]

    plain = run.contract_line(run.summarize(name, 0, False, reps, tmp_path))
    traced = run.contract_line(run.summarize(name, 0, True, reps, tmp_path))
    for line, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert line["correct"], line
        assert line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == units(section)
    assert plain["metrics"]["run_s"]["value"] > 0
    assert plain["metrics"]["setup_s"]["value"] > 0
    layers = traced["metrics"]
    if name == "di-sweep":
        for absent in ("dynamics.train.s", "rollout.branched.s",
                       "critics.featurize.onehot.s"):
            assert layers[absent]["value"] == 0
        assert layers["pipeline.stages_resumed"]["value"] > 0
    else:
        assert layers["rollout.branches_started"]["value"] > 0
        assert layers["dynamics.train.s"]["value"] > 0


def test_injected_stage_failure_counts_as_failed(tmp_path, monkeypatch):
    from reachsafe import pipeline

    def broken(cfg, paths):
        raise RuntimeError("injected")

    monkeypatch.setattr(pipeline, "stage_evaluate", broken)
    rec = workload.run_repetition("grid-full", 0, tmp_path / "run", time.time(),
                                  trace=False, budget=TINY)
    assert rec["errors"] == ["RuntimeError"]
    assert rec["ops"] == 6
    line = run.contract_line(run.summarize("grid-full", 0, False, [rec], tmp_path))
    assert line["failed"] == 1 and not line["correct"]


def test_differing_eval_rows_fail_the_repeat_check(tmp_path):
    def rep(row):
        return {"errors": [], "checks_failed": [], "eval_rows": {"full": row},
                "config_hash": {"full": "c"}, "environment": {"source_hash": "s"}}

    assert run.check_repeats("grid-full", [rep("a"), rep("a")], tmp_path) == []
    assert run.check_repeats("grid-full", [rep("b")], tmp_path) == [
        "eval_rows_differ_from_earlier_run"]
    assert "eval_rows_differ_between_repeats" in run.check_repeats(
        "grid-full", [rep("a"), rep("c")], tmp_path)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "grid-full",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
