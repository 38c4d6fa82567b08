"""Command-line entry points for the experiment pipeline."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import BLAS_THREAD_VARS

# One BLAS thread per product, unless the user set otherwise: parallel work
# runs as whole independent units (``seeding.ordered_map``), which needs a
# pinned BLAS. The variables only take effect before numpy loads BLAS.
if "numpy" not in sys.modules:
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from .cmdp import ConfigurationError  # noqa: E402
from .config import ExperimentConfig, build_env, default_config, load_config  # noqa: E402
from .costgen import load_final_candidate  # noqa: E402
from .critics import export_heatmap, load_critic  # noqa: E402
from .pipeline import (  # noqa: E402
    MissingArtifact,
    RunPaths,
    STAGES,
    StageMismatch,
    critic_floor,
    run_pipeline,
)


# Ablation flags: command-line flag, ablation name, help text.
_TOGGLES = (
    ("--no-model", "no-model", "skip model rollouts; relabeled data only"),
    ("--no-relabel", "no-relabel", "label rollouts only; keep original offline costs"),
    ("--deterministic-rollout", "det-rollout", "no exploration noise during rollouts"),
    ("--no-conservative", "no-conservative",
     "use the plain constraint, no conservative band"),
    ("--ungated", "ungated", "reward-only weighted behavior cloning baseline"),
)


def _load_cfg(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = default_config(args.env)
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "proposer", None):
        cfg.costgen.proposer = args.proposer
    toggles = [ablation for _, ablation, _ in _TOGGLES if getattr(args, ablation, False)]
    if toggles:
        cfg.ablations = toggles
    cfg.validate()
    return cfg


def _resolution(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, ablations: bool = False) -> None:
    p.add_argument("--config", type=str, default="", help="key/value config file")
    p.add_argument("--env", type=str, default="gridworld",
                   choices=("gridworld", "double_integrator"),
                   help="built-in defaults when no config file is given")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, required=True, help="run directory")
    if ablations:
        for flag, ablation, text in _TOGGLES:
            p.add_argument(flag, dest=ablation, action="store_true", help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachsafe",
        description="Model-based offline safe RL on desk-scale environments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the full pipeline")
    _add_common(p_run, ablations=True)
    p_run.add_argument("--stage", type=str, default="",
                       help="run a single stage instead of all "
                            f"({', '.join(STAGES)})")
    p_run.add_argument("--proposer", choices=("scripted", "remote"), default="")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser(
        "oracle", help="brute-force feasibility labels and value-iteration check")
    _add_common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_heat = sub.add_parser("export-heatmap",
                            help="export the critic's value surface as CSV")
    _add_common(p_heat, ablations=True)
    p_heat.add_argument("--resolution", type=_resolution, default=41,
                        help="grid points per axis on continuous envs (at least 2)")
    p_heat.set_defaults(func=_cmd_heatmap)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    paths = run_pipeline(cfg, args.out, stages=(args.stage,) if args.stage else None)
    print(f"run complete: {paths.root}")
    eval_path = paths.eval_csv(cfg)
    if eval_path.exists():
        print(eval_path.read_text().strip())
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    paths = run_pipeline(cfg, args.out, stages=("oracle",))
    report = json.loads(paths.oracle_report.read_text())
    keys = ("h_star", "feasible_fraction", "value_iteration_sign_agreement",
            "gamma_threshold", "warnings")
    print(json.dumps({k: report[k] for k in keys}, indent=2, sort_keys=True))
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    env = build_env(cfg)
    paths = RunPaths(root=Path(args.out))
    critic_dir = paths.critic_dir(cfg)
    if not (critic_dir / "critic.npz").exists():
        raise MissingArtifact(f"no critic checkpoint under {critic_dir}")
    history = paths.cost_history(cfg)
    if not history.exists():
        raise MissingArtifact(f"no cost history at {history}")
    # The floor the learn stage trained the critic with, and no other.
    floor = critic_floor(cfg, load_final_candidate(history, env))
    critic = load_critic(critic_dir, env, cost_fn=floor)
    if env.is_tabular:
        # One value per cell: the grid spans 0..max along x and y.
        x_hi, y_hi = env.states[:, :2].max(axis=0)
        x_range, y_range = (0.0, x_hi, int(x_hi) + 1), (0.0, y_hi, int(y_hi) + 1)
        tail = np.zeros(env.d_s - 2)
    else:
        (x_lo, x_hi, _), (v_lo, v_hi, _) = env.state_grid
        x_range = (x_lo, x_hi, args.resolution)
        y_range = (v_lo, v_hi, args.resolution)
        tail = None
    export_heatmap(paths.heatmap(cfg), critic.v_values, x_range, y_range,
                   fixed_tail=tail)
    print(f"heatmap written to {paths.heatmap(cfg)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, StageMismatch, MissingArtifact) as err:
        print(json.dumps({"error": str(err), "kind": type(err).__name__}),
              file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - still emit the machine-readable line
        print(json.dumps({"error": str(err), "kind": type(err).__name__}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
