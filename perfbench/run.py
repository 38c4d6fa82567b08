"""reachsafe benchmark: closed-loop pipeline workloads, one client, one BLAS thread.

    python3 perfbench/run.py --workload grid-full --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each repetition is a fresh process (``workload.py``) that sets up, runs
the timed section and checks its outputs. Repetitions run one after the
other until ``--seconds`` have passed, and figures are medians over them.
``--trace 0`` reports the end-to-end metrics from untraced repetitions;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones. The last stdout line is one JSON
object: ``correct``, ``attempted`` (stage calls), ``failed`` (raised
stage calls plus violated checks) and ``metrics``. ``--workload all``
prints one row per workload instead and exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workload import WORKLOADS, Budget  # noqa: E402

# End-to-end metrics of the driver contract (BENCHMARK.json ``end_to_end``).
END_TO_END = {"run_s": "s", "setup_s": "s", "learn_s": "s", "peak_rss_mb": "MB"}
# Also shown per workload, outside the contract's metric set: dynamics_s is
# absent on di-sweep and the eval outcomes can be 0 and vary with the seed.
SHOWN = {**END_TO_END, "dynamics_s": "s", "normalized_cost": "ratio",
         "normalized_reward": "ratio"}

RATIOS = ("rollout.keep_ratio", "coverage.learn.share", "coverage.dynamics.share",
          "critics.oracle.match", "critics.oracle.optimistic",
          "critics.oracle.pessimistic", "eval.normalized_cost", "eval.normalized_reward")


def layer_unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def spread(values: list[float]) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_child(name: str, seed: int, trace: bool, out: Path, budget: Budget,
              deadline: float) -> dict:
    """Start one repetition and wait for it; a crash is a failed record."""
    result = out / f"rep-{name}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--result", str(result), "--run-dir", str(out / "runs" / name),
           "--learn-steps", str(budget.learn_steps),
           "--dynamics-epochs", str(budget.dynamics_epochs)]
    timeout = max(30.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([*cmd, "--t0", repr(time.time())], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"errors": ["RepetitionTimeout"], "checks_failed": [], "ops": 0,
                "trace": int(trace)}
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stderr)
        return {"errors": [f"RepetitionExit{proc.returncode}"], "checks_failed": [],
                "ops": 0, "trace": int(trace)}
    return json.loads(result.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out: Path = OUT, budget: Budget = Budget()) -> list[dict]:
    """Repetitions while the next one is expected to end within ``seconds``.

    With ``trace`` they alternate between untraced and traced, starting
    untraced; at least one of each kind runs.
    """
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    deadline = start + 170.0
    reps: list[dict] = []
    durations: list[float] = []

    def more() -> bool:
        kinds = {r.get("trace") for r in reps}
        if not ({0, 1} <= kinds if trace else kinds):
            return True
        elapsed = time.monotonic() - start
        return elapsed + statistics.median(durations) <= seconds

    while more():
        traced = trace and len(reps) % 2 == 1
        began = time.monotonic()
        reps.append(run_child(name, seed, traced, out, budget, deadline))
        durations.append(time.monotonic() - began)
    return reps


def check_repeats(name: str, reps: list[dict], out: Path) -> list[str]:
    """Seeded eval rows must be identical across repetitions of one program.

    Rows are compared within this run and with rows an earlier run of the
    same sources and config stored under ``out``.
    """
    complete = [r for r in reps if r.get("eval_rows") and not r["errors"]]
    if not complete:
        return []
    problems = []
    first = complete[0]
    for rep in complete[1:]:
        if rep["eval_rows"] != first["eval_rows"]:
            problems.append("eval_rows_differ_between_repeats")
    key = ":".join([first["environment"]["source_hash"], name,
                    *sorted(first["config_hash"].values())])
    store = out / "eval_rows.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known and known[key] != first["eval_rows"]:
        problems.append("eval_rows_differ_from_earlier_run")
    known[key] = first["eval_rows"]
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems


def summarize(name: str, seed: int, trace: bool, reps: list[dict], out: Path) -> dict:
    failures = [e for r in reps for e in r["errors"] + r["checks_failed"]]
    failures += check_repeats(name, reps, out)
    ok = [r for r in reps if not r["errors"] and not r["checks_failed"]] or reps
    untraced = [r for r in ok if not r.get("trace")]
    traced = [r for r in ok if r.get("trace")]
    stats = {m: spread([r[m] for r in untraced if r.get(m) is not None]) for m in SHOWN}
    summary = {
        "workload": name, "seed": seed, "trace": int(trace),
        "why": WORKLOADS[name].why,
        "attempted": max(1, sum(r["ops"] for r in reps)),
        "failed": len(failures), "failures": sorted(set(failures)),
        "repetitions": len(reps), "stats": stats,
        "environment": next((r["environment"] for r in reps if "environment" in r), {}),
        "config_hash": next((r["config_hash"] for r in reps if "config_hash" in r), {}),
        "departures": next((r["departures"] for r in reps if "departures" in r), {}),
        "missing_bindings": sorted({b for r in reps for b in r.get("missing_bindings", [])}),
    }
    if trace:
        names = sorted({k for r in traced for k in r.get("layers", {})})
        layers = {k: spread([r["layers"][k] for r in traced if k in r["layers"]])
                  for k in names}
        for k in ("normalized_cost", "normalized_reward"):
            layers[f"eval.{k}"] = spread([r[k] for r in traced if k in r])
        run_traced = spread([r["run_s"] for r in traced if r.get("run_s") is not None])
        layers["trace.overhead_s"] = {**run_traced,
                                      "median": run_traced["median"] - stats["run_s"]["median"]}
        summary["layers"] = layers
        summary["uncovered"] = next((r["uncovered"] for r in traced if "uncovered" in r), {})
    return summary


def contract_line(summary: dict) -> dict:
    if summary["trace"]:
        metrics = {k: {"value": v["median"], "unit": layer_unit(k)}
                   for k, v in summary["layers"].items()}
    else:
        metrics = {k: {"value": summary["stats"][k]["median"], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def describe(summary: dict) -> list[str]:
    lines = [f"workload {summary['workload']} seed {summary['seed']} "
             f"trace {summary['trace']}: {summary['repetitions']} repetitions, "
             f"{summary['failed']} failed of {summary['attempted']} stage calls "
             f"{summary['failures'] or ''}".rstrip()]
    for metric, unit in SHOWN.items():
        st = summary["stats"][metric]
        lines.append(f"  {metric:<18} {st['median']:.6g} {unit}  "
                     f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n={st['n']}")
    layers = summary.get("layers", {})
    for name in ("coverage.learn.share", "coverage.dynamics.share", "trace.overhead_s"):
        if name in layers:
            lines.append(f"  {name:<24} {layers[name]['median']:.4g} {layer_unit(name)}")
    for stage, rest in summary.get("uncovered", {}).items():
        top = ", ".join(f"{n} {s:.3f}s" for n, s in rest)
        lines.append(f"  uncovered self time in {stage}: {top}")
    lines.append(f"  environment {json.dumps(summary['environment'], sort_keys=True)}")
    lines.append(f"  config_hash {json.dumps(summary['config_hash'], sort_keys=True)}")
    lines.append(f"  departures {json.dumps(summary['departures'], sort_keys=True)}")
    if summary["missing_bindings"]:
        lines.append(f"  bindings not found: {', '.join(summary['missing_bindings'])}")
    return lines


def table(summaries: list[dict]) -> list[str]:
    head = ["workload"] + [f"{m} [{u}]" for m, u in SHOWN.items()] + ["failed/ops"]
    rows = [head]
    for s in summaries:
        cells = [s["workload"]]
        for m in SHOWN:
            st = s["stats"][m]
            cells.append(f"{st['median']:.4g} ±{(st['q3'] - st['q1']) / 2:.2g}"
                         if st["n"] else "-")
        cells.append(f"{s['failed']}/{s['attempted']}")
        rows.append(cells)
    widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
    return ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so a running repetition is killed
    # and waited for instead of being left behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "reachsafe" / "__init__.py").is_file():
        print(f"no reachsafe sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        reps = run_workload(name, args.seed, args.seconds, bool(args.trace))
        summary = summarize(name, args.seed, bool(args.trace), reps, OUT)
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"result-{tag}.json").write_text(json.dumps(summary, indent=1))
        print("\n".join(describe(summary)), flush=True)
        summaries.append(summary)
    if args.workload == "all":
        print("\n".join(table(summaries)))
        return 0 if all(s["failed"] == 0 for s in summaries) else 1
    print(json.dumps(contract_line(summaries[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
