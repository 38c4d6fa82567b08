"""One repetition of one benchmark workload, run in its own process.

Usage (``run.py`` starts this; it is not meant to be run by hand):

    python3 perfbench/workload.py --workload grid-full --seed 0 \
        --t0 <time.time() at spawn> --result out/rep.json --run-dir out/run \
        [--trace 1] [--learn-steps N --dynamics-epochs N]

BLAS is pinned to one thread before numpy is imported. The repetition
builds its config from ``default_config(env)``, passes the workload seed
only as ``cfg.seed``, prepares upstream artifacts (set-up), times every
``run_pipeline`` call (the timed section), then checks the outputs and
writes one JSON record.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# Rollout events per learn run: two exercise the rollout window and the buffer.
ROLLOUT_EVENTS = 2


@dataclasses.dataclass(frozen=True)
class Budget:
    """Run-length scaling; every other setting stays at ``default_config``."""

    learn_steps: int = 50
    dynamics_epochs: int = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    env: str
    why: str
    setup_stages: tuple[str, ...]
    calls: tuple[tuple[str, ...], ...]   # ablations of each timed run_pipeline call


WORKLOADS = {
    "grid-full": Workload(
        env="gridworld",
        why="gridworld full pipeline: the tabular one-hot featurizer and wide-input "
            "critic MLP dominate learn; rollouts are cheap",
        setup_stages=(),
        calls=((),),
    ),
    "di-full": Workload(
        env="double_integrator",
        why="double integrator full pipeline: horizon-3 branched rollouts, per-row "
            "predicate labels and the JSONL buffer write dominate",
        setup_stages=(),
        calls=((),),
    ),
    "di-sweep": Workload(
        env="double_integrator",
        why="no-model, ungated, then a resumed no-model run over shared artifacts: "
            "dataset reads, resume checks and MLP updates; no rollouts",
        setup_stages=("data", "oracle", "costgen"),
        calls=(("no-model",), ("ungated",), ("no-model",)),
    ),
}


def source_hash(root: Path = ROOT) -> str:
    """Hash of the package sources: identifies the program being measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path = ROOT) -> str:
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode or Path(top.stdout.strip()).resolve() != root:
            return "none"
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "source_hash": source_hash(),
    }


def make_config(workload: Workload, seed: int, budget: Budget, ablations=()):
    from reachsafe.config import default_config

    cfg = default_config(workload.env)
    cfg.seed = seed
    cfg.ablations = list(ablations)
    cfg.learn.total_steps = budget.learn_steps
    cfg.learn.rollout_frequency = math.ceil(budget.learn_steps / ROLLOUT_EVENTS)
    cfg.dynamics.epochs = budget.dynamics_epochs
    cfg.validate()
    return cfg


def departures(cfg) -> dict:
    """Every setting that differs from ``default_config`` (seed excluded)."""
    from reachsafe.config import default_config, to_text

    def pairs(c) -> dict:
        return dict(line.split(" = ", 1) for line in to_text(c).splitlines())

    base, mine = pairs(default_config(cfg.env.name)), pairs(cfg)
    return {k: [json.loads(base[k]), json.loads(v)] for k, v in mine.items()
            if k not in ("seed", "ablations") and base.get(k) != v}


def needed_stages(cfg) -> list[tuple[str, str]]:
    """(stage, manifest key) pairs a variant's run must have recorded."""
    abl = set(cfg.ablations)
    out = [("data", "data"), ("oracle", "oracle")]
    if not abl & {"no-model", "ungated"}:
        out.append(("dynamics", "dynamics"))
    if "ungated" not in abl:
        out.append(("costgen", "costgen:no-conservative"
                    if "no-conservative" in abl else "costgen"))
    out += [("learn", f"learn:{cfg.variant()}"), ("evaluate", f"evaluate:{cfg.variant()}")]
    return out


def check_variant(cfg, paths) -> tuple[str | None, list[str]]:
    """Checks on one variant's outputs; returns (eval row, violated checks)."""
    from reachsafe.pipeline import stage_hash

    violated = []
    row = None
    try:
        lines = paths.eval_csv(cfg).read_text().strip().splitlines()
        header = lines[0].split(",")
        values = dict(zip(header, lines[1].split(",")))
        if len(lines) != 2 or len(values) != len(header):
            raise ValueError("eval.csv must hold one header and one row")
        cost = float(values["normalized_cost"])
        reward = float(values["normalized_reward"])
        safe = values["safe"]
        row = lines[1]
    except (OSError, IndexError, KeyError, ValueError):
        return None, ["eval_csv_parses"]
    if not (math.isfinite(cost) and math.isfinite(reward)):
        violated.append("eval_finite")
    if safe != str(int(cost <= 1.0)):
        violated.append("safe_matches_cost")
    try:
        manifest = json.loads(paths.manifest.read_text())["stages"]
        for stage, key in needed_stages(cfg):
            if manifest.get(key, {}).get("hash") != stage_hash(cfg, stage):
                violated.append(f"manifest_{key}")
    except (OSError, ValueError, KeyError):
        violated.append("manifest_parses")
    return row, violated


def oracle_agreement(cfg, paths) -> dict:
    """Critic-vs-oracle sign agreement, rebuilt from the run's artifacts.

    ``load_critic`` drops the cost floor, so it is reattached from the
    cost history the way the heatmap command does.
    """
    from reachsafe.config import build_env
    from reachsafe.costgen import load_final_candidate
    from reachsafe.critics import load_critic, sign_agreement
    from reachsafe.oracle import compute_feasible_set_oracle

    env = build_env(cfg)
    oracle = compute_feasible_set_oracle(env)
    critic = load_critic(paths.critic_dir(cfg), env)
    history = paths.cost_history(cfg)
    if env.margin_predicate is not None and history.exists():
        critic.cost_fn = load_final_candidate(history, env).predicate
    return sign_agreement(critic, oracle.model.states, oracle.feasible)


def layer_metrics(tracer, calls, resume_noop_s: float) -> dict:
    """Per-layer figures of one traced repetition (self seconds and counts)."""
    from spans import LEAF_LAYERS, STAGES

    s = tracer.self_time
    c = tracer.counts
    out = {}
    for stage in STAGES:
        out[f"pipeline.stage.{stage}.s"] = s(f"pipeline.stage.{stage}")
    out["pipeline.stage.dynamics.wall_s"] = tracer.wall_s["pipeline.stage.dynamics"]
    out["pipeline.stage.learn.wall_s"] = tracer.wall_s["pipeline.stage.learn"]
    out["pipeline.stages_run"] = sum(1 for call in calls if call.ran)
    out["pipeline.stages_resumed"] = sum(
        1 for call in calls if not call.ran and call.error is None)
    out["pipeline.resume_noop.s"] = resume_noop_s
    timed = ("cmdp.load_dataset", "cmdp.save_dataset", "collect.safe", "collect.unsafe",
             "oracle.compute", "reachability.value_iteration", "dynamics.train",
             "dynamics.elite_predictions", "dynamics.sample_next", "dynamics.cost_label",
             "dynamics.save", "dynamics.load", "approx.forward", "approx.backward",
             "approx.optimizer", "approx.soft_update", "approx.save_mlp", "approx.load_mlp",
             "critics.featurize.onehot", "critics.featurize.normalized", "critics.floor",
             "critics.update", "rollout.branched", "rollout.flatten", "rollout.relabel",
             "rollout.save_buffer", "costgen.validate", "envs.predicate",
             "policy.reward_update", "policy.bc_update", "policy.bc_weights",
             "policy.evaluate")
    for name in timed:
        out[f"{name}.s"] = s(name)
    for name in ("cmdp.load_dataset.calls", "cmdp.load_dataset.bytes",
                 "cmdp.save_dataset.bytes", "collect.safe.rows",
                 "collect.safe.interventions", "oracle.sweeps", "dynamics.train.samples",
                 "dynamics.elite_predictions.rows", "dynamics.cost_label.rows",
                 "approx.forward.calls", "approx.forward.rows", "approx.backward.calls",
                 "approx.optimizer.calls", "approx.soft_update.calls",
                 "approx.save_mlp.bytes", "critics.featurize.onehot.rows",
                 "critics.featurize.normalized.rows", "critics.floor.rows",
                 "critics.update.steps", "rollout.branches_started",
                 "rollout.branches_kept", "rollout.save_buffer.bytes", "costgen.rounds",
                 "costgen.band_passed", "envs.predicate.calls",
                 "policy.reward_update.steps", "policy.bc_update.steps"):
        out[name] = c[name]
    started = c["rollout.branches_started"]
    out["rollout.keep_ratio"] = c["rollout.branches_kept"] / started if started else 0.0
    for stage in ("learn", "dynamics"):
        wall = tracer.wall_s[f"pipeline.stage.{stage}"]
        covered = sum(s(name, stage) for name in LEAF_LAYERS)
        out[f"coverage.{stage}.share"] = covered / wall if wall else 0.0
    return out


def uncovered(tracer, stage: str, top: int = 6) -> list:
    """Largest self times inside ``stage`` that are not named leaf layers."""
    from spans import LEAF_LAYERS

    rest = [(name, sec) for (st, name), sec in tracer.self_s.items()
            if st == stage and name not in LEAF_LAYERS]
    return sorted(rest, key=lambda item: -item[1])[:top]


def run_repetition(name: str, seed: int, run_dir: Path, t0: float, trace: bool,
                   budget: Budget = Budget()) -> dict:
    """Set up, run the timed section, check; returns the repetition record."""
    from spans import StageProbe, Tracer, instrument

    from reachsafe.config import config_hash
    from reachsafe.pipeline import RunPaths, run_pipeline

    workload = WORKLOADS[name]
    base = make_config(workload, seed, budget)
    configs = [make_config(workload, seed, budget, abl) for abl in workload.calls]
    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "budget": dataclasses.asdict(budget),
        "config_hash": {cfg.variant(): config_hash(cfg) for cfg in configs},
        "departures": departures(base),
        "ops": 0, "errors": [], "checks_failed": [], "setup_s": None, "run_s": None,
    }
    shutil.rmtree(run_dir, ignore_errors=True)
    paths = RunPaths(root=run_dir)
    probe = StageProbe()
    tracer = Tracer() if trace else None
    n_setup = 0
    resume_noop_s = 0.0
    with instrument(probe, tracer) as missing:
        record["missing_bindings"] = missing
        try:
            if workload.setup_stages:
                run_pipeline(base, run_dir, stages=workload.setup_stages)
            n_setup = len(probe.calls)
            record["setup_s"] = time.time() - t0
            seen: set[str] = set()
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            for cfg in configs:
                n_before = len(probe.calls)
                t_call = time.perf_counter()
                run_pipeline(cfg, run_dir)
                t_call = time.perf_counter() - t_call
                if cfg.variant() in seen:
                    resume_noop_s += t_call
                    if any(c.ran for c in probe.calls[n_before:]):
                        record["checks_failed"].append("resume_runs_no_stage")
                seen.add(cfg.variant())
            record["run_s"] = time.perf_counter() - start
        except Exception as err:  # noqa: BLE001 - a failed stage is a counted failure
            if not any(c.error for c in probe.calls):
                record["errors"].append(type(err).__name__)
            record["traceback"] = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.active = False
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["ops"] = len(probe.calls)
    record["errors"] += [c.error for c in probe.calls if c.error]
    timed_calls = probe.calls[n_setup:]
    record["learn_s"] = sum(c.seconds for c in timed_calls if c.stage == "learn")
    record["dynamics_s"] = sum(c.seconds for c in timed_calls if c.stage == "dynamics")

    record["eval_rows"] = {}
    if not record["errors"]:
        for cfg in configs:
            row, violated = check_variant(cfg, paths)
            record["eval_rows"][cfg.variant()] = row
            record["checks_failed"] += [f"{cfg.variant()}:{v}" for v in violated]
        last = configs[-1]
        row = record["eval_rows"].get(last.variant())
        if row is not None:
            fields = row.split(",")
            record["normalized_reward"] = float(fields[3])
            record["normalized_cost"] = float(fields[4])
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, timed_calls, resume_noop_s)
        record["uncovered"] = {st: uncovered(tracer, st) for st in ("learn", "dynamics")}
        record["spans"] = len(tracer.spans)
        with_critic = [cfg for cfg in configs if "ungated" not in cfg.ablations]
        if with_critic and not record["errors"]:
            agreement = oracle_agreement(with_critic[-1], paths)
            for key in ("match", "optimistic", "pessimistic"):
                record["layers"][f"critics.oracle.{key}"] = agreement[key]
        spans_path = run_dir.parent / f"spans-{name}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}))
    shutil.rmtree(run_dir, ignore_errors=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--learn-steps", type=int, default=Budget.learn_steps)
    parser.add_argument("--dynamics-epochs", type=int, default=Budget.dynamics_epochs)
    args = parser.parse_args(argv)
    if not (SRC / "reachsafe" / "__init__.py").is_file():
        print(f"reachsafe sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reachsafe

    if Path(reachsafe.__file__).resolve().parent != SRC / "reachsafe":
        print(f"reachsafe imported from {reachsafe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    budget = Budget(learn_steps=args.learn_steps, dynamics_epochs=args.dynamics_epochs)
    record = run_repetition(args.workload, args.seed, args.run_dir, args.t0,
                            bool(args.trace), budget)
    record["environment"] = environment()
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
