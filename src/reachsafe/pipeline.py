"""Staged experiment runner driven by one stage table.

Stage order: data -> oracle -> dynamics -> costgen -> reward -> learn ->
evaluate. Each ``STAGE_TABLE`` row names the configuration sections a
stage hashes (so ablation variants reuse upstream artifacts), its
artifacts, the upstream stages it needs and the ablations that skip it.
``_stage`` applies the row around each ``stage_<name>`` body, which only
computes and writes: a stage recorded in the manifest under the current
hash, with its artifacts present, is resumed without loading anything;
another hash raises ``StageMismatch`` rather than mixing configurations;
a missing upstream artifact raises ``MissingArtifact``; after the body
runs, the manifest records the stage. All randomness flows from the root
seed through named substreams.

The reward Q/V pair trains on the dataset as collected and reads no
ablation, cost candidate or rollout, so ``reward`` hashes no ablations and
runs once per run directory: every variant's ``learn`` reuses the
advantages it stores after each event.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .cmdp import ConfigurationError, Predicate, load_dataset, load_npz, save_dataset, save_npz
from .collect import collect_safe_dataset, collect_unsafe_samples
from .config import ExperimentConfig, build_behavior, build_env, config_hash
from .costgen import (
    CostCandidate,
    RemoteChatProposer,
    ScriptedMarginProposer,
    generation_loop,
    load_final_candidate,
    save_history,
    validate,
)
from .critics import make_feasibility_critic, save_critic, update_feasibility_critics
from .dynamics import load_ensemble, save_ensemble, train_ensemble
from .oracle import compute_feasible_set_oracle
from .policy import (
    CSV_HEADER,
    evaluate_policy,
    feasibility_guided_policy_update,
    load_policy,
    make_policy,
    make_reward_critic,
    reward_advantage,
    reward_norm_from_dataset,
    save_policy,
    update_reward_critic,
)
from .reachability import gamma_threshold, tabular_value_iteration
from .rollout import (
    RolloutConfig,
    branched_rollout,
    relabel_offline,
    save_rollout_buffer,
    stack_buffers,
)
from .seeding import child_seed


class StageMismatch(RuntimeError):
    """An artifact on disk was produced under a different configuration."""


class MissingArtifact(RuntimeError):
    """A stage needs an upstream artifact that has not been produced."""


@dataclass(frozen=True)
class Stage:
    sections: tuple[str, ...]   # hashed configuration sections
    artifacts: Callable[[RunPaths, ExperimentConfig], list[Path]]
    needs: tuple[str, ...] = ()   # upstream stages whose artifacts must exist
    skip: frozenset[str] = frozenset()   # ablations under which the stage does not run


STAGE_TABLE = {
    "data": Stage(("seed", "env", "data"),
                  lambda p, cfg: [p.dataset, p.dataset_unsafe]),
    "oracle": Stage(("env",), lambda p, cfg: [p.oracle_report]),
    "dynamics": Stage(("seed", "env", "data", "dynamics"),
                      lambda p, cfg: [p.ensemble_dir / "ensemble.npz"],
                      needs=("data",), skip=frozenset({"no-model", "ungated"})),
    "costgen": Stage(("seed", "env", "data", "costgen"),
                     lambda p, cfg: [p.cost_history(cfg)],
                     needs=("data",), skip=frozenset({"ungated"})),
    "reward": Stage(("seed", "env", "data", "learn"),
                    lambda p, cfg: [p.reward_advantages, p.reward_dir / "critic.npz"],
                    needs=("data",)),
    # The feasibility critic needs the cost candidate, so a variant that
    # skips cost generation (ungated) saves no critic.
    "learn": Stage(("seed", "ablations", "env", "data", "dynamics", "costgen", "learn"),
                   lambda p, cfg: [p.policy_dir(cfg) / "policy.npz"]
                   + ([p.critic_dir(cfg) / "critic.npz"] if runs("costgen", cfg) else []),
                   needs=("data", "reward", "dynamics", "costgen")),
    "evaluate": Stage(("seed", "ablations", "env", "data", "dynamics", "costgen",
                       "learn", "eval"),
                      lambda p, cfg: [p.eval_csv(cfg)], needs=("data", "learn")),
}
STAGES = tuple(STAGE_TABLE)


def runs(stage: str, cfg: ExperimentConfig) -> bool:
    """Whether ``stage`` belongs to ``cfg``'s variant: no ablation skips it."""
    return not STAGE_TABLE[stage].skip & set(cfg.ablations)


def _cost_ablations(cfg: ExperimentConfig) -> list[str]:
    """The ablations that reach cost generation: at most ``no-conservative``."""
    return ["no-conservative"] if "no-conservative" in cfg.ablations else []


def critic_floor(cfg: ExperimentConfig, candidate: CostCandidate | None
                 ) -> Predicate | None:
    """The predicate that relabels the offline data and floors the feasibility
    critic; ``no-relabel`` keeps the original costs, so it has neither."""
    if candidate is None or "no-relabel" in cfg.ablations:
        return None
    return candidate.predicate


def stage_hash(cfg: ExperimentConfig, stage: str) -> str:
    d = asdict(cfg)
    subset = {key: d[key] for key in STAGE_TABLE[stage].sections}
    if stage == "costgen":
        subset["ablations"] = _cost_ablations(cfg)
    blob = json.dumps(subset, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _stage_key(cfg: ExperimentConfig, stage: str) -> str:
    """Manifest key: one entry per variant for the stages that hash the ablations."""
    if "ablations" in STAGE_TABLE[stage].sections:
        return f"{stage}:{cfg.variant()}"
    return ":".join([stage, *_cost_ablations(cfg)]) if stage == "costgen" else stage


@dataclass
class RunPaths:
    root: Path

    @property
    def manifest(self) -> Path:
        return self.root / "manifest.json"

    @property
    def dataset(self) -> Path:
        return self.root / "dataset.npz"

    @property
    def dataset_unsafe(self) -> Path:
        return self.root / "dataset_unsafe.npz"

    @property
    def oracle_report(self) -> Path:
        return self.root / "oracle.json"

    @property
    def ensemble_dir(self) -> Path:
        return self.root / "ensemble"

    def cost_history(self, cfg: ExperimentConfig) -> Path:
        suffix = "_noconsv" if _cost_ablations(cfg) else ""
        return self.root / f"cost_history{suffix}.jsonl"

    @property
    def reward_dir(self) -> Path:
        return self.root / "reward_critic"

    @property
    def reward_advantages(self) -> Path:
        return self.root / "reward_advantages.npz"

    @property
    def transcripts(self) -> Path:
        return self.root / "proposer_transcripts.jsonl"

    def variant_dir(self, cfg: ExperimentConfig) -> Path:
        return self.root / cfg.variant()

    def critic_dir(self, cfg: ExperimentConfig) -> Path:
        return self.variant_dir(cfg) / "critic"

    def policy_dir(self, cfg: ExperimentConfig) -> Path:
        return self.variant_dir(cfg) / "policy"

    def rollout_buffer(self, cfg: ExperimentConfig) -> Path:
        return self.variant_dir(cfg) / "rollout_buffer.npz"

    def eval_csv(self, cfg: ExperimentConfig) -> Path:
        return self.variant_dir(cfg) / "eval.csv"

    def heatmap(self, cfg: ExperimentConfig) -> Path:
        return self.variant_dir(cfg) / "heatmap.csv"


def _stage(body: Callable[[ExperimentConfig, RunPaths], None]):
    """Apply the stage's table row around ``body`` (see the module docstring)."""
    name = body.__name__.removeprefix("stage_")
    row = STAGE_TABLE[name]

    @functools.wraps(body)
    def run(cfg: ExperimentConfig, paths: RunPaths) -> None:
        manifest = (json.loads(paths.manifest.read_text()) if paths.manifest.exists()
                    else {"stages": {}})
        key, want = _stage_key(cfg, name), stage_hash(cfg, name)
        artifacts = row.artifacts(paths, cfg)
        entry = manifest["stages"].get(key)
        if entry is not None and entry["hash"] != want:
            raise StageMismatch(
                f"stage {key!r} in {paths.root} was produced under config hash "
                f"{entry['hash']}, current is {want}; use a fresh output directory")
        if entry is not None and all(p.exists() for p in artifacts):
            return
        for upstream in (up for up in row.needs if runs(up, cfg)):
            for path in STAGE_TABLE[upstream].artifacts(paths, cfg):
                if not path.exists():
                    raise MissingArtifact(
                        f"stage {name!r} needs {path.relative_to(paths.root)} from "
                        f"stage {upstream!r}; run that stage first")
        body(cfg, paths)
        manifest["config_hash"] = config_hash(cfg)
        manifest["seed"] = cfg.seed
        manifest["stages"][key] = {
            "hash": want,
            "artifacts": [str(p.relative_to(paths.root)) for p in artifacts],
        }
        paths.manifest.write_text(json.dumps(manifest, sort_keys=True, indent=2))
    return run


# ---------------------------------------------------------------------------
# Stages: each body computes and writes its artifacts, and returns nothing.
# ---------------------------------------------------------------------------


@_stage
def stage_data(cfg: ExperimentConfig, paths: RunPaths) -> None:
    env = build_env(cfg)
    behavior = build_behavior(cfg, env)
    dataset = collect_safe_dataset(env, behavior, cfg.data.n_transitions,
                                   seed=child_seed(cfg.seed, "data", "safe"))
    d_unsafe = collect_unsafe_samples(env, cfg.data.n_unsafe,
                                      seed=child_seed(cfg.seed, "data", "unsafe"))
    save_dataset(dataset, paths.dataset)
    save_dataset(d_unsafe, paths.dataset_unsafe)


@_stage
def stage_oracle(cfg: ExperimentConfig, paths: RunPaths) -> None:
    env = build_env(cfg)
    oracle = compute_feasible_set_oracle(env)
    critic = tabular_value_iteration(oracle.model, gamma=env.gamma, tol=1e-10)
    agreement = float(np.mean(critic.feasible_mask() == oracle.feasible))
    h_star = max(oracle.h_star, 1)
    threshold = gamma_threshold(env.h_min, env.h_max, h_star)
    warnings = list(oracle.warnings)
    for name, g in (("env.gamma", env.gamma),
                    ("learn.critic_gamma", cfg.learn.critic_gamma)):
        if g <= threshold:
            warnings.append(
                f"{name}={g} is at or below the threshold {threshold:.6f} for "
                f"horizon {h_star}; doomed states may not be flagged"
            )
    report = {
        "h_star": h_star,
        "n_sweeps": oracle.n_sweeps,
        "feasible_fraction": oracle.feasible_fraction(),
        "value_iteration_sign_agreement": agreement,
        "gamma_threshold": threshold,
        "warnings": warnings,
        "feasible": [int(x) for x in oracle.feasible],
        "distance": [int(x) for x in oracle.distance],
    }
    paths.oracle_report.write_text(json.dumps(report, sort_keys=True))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


@_stage
def stage_dynamics(cfg: ExperimentConfig, paths: RunPaths) -> None:
    model = train_ensemble(load_dataset(paths.dataset), **asdict(cfg.dynamics),
                           seed=child_seed(cfg.seed, "dynamics"))
    save_ensemble(model, paths.ensemble_dir)


@_stage
def stage_costgen(cfg: ExperimentConfig, paths: RunPaths) -> None:
    env = build_env(cfg)
    history_path = paths.cost_history(cfg)
    dataset = load_dataset(paths.dataset)
    d_unsafe = load_dataset(paths.dataset_unsafe)

    if _cost_ablations(cfg):
        # Adopt the plain constraint: margin zero, no band requirement.
        candidate = CostCandidate(predicate=env.margin_predicate(0.0),
                                  provenance="scripted", source="margin=0",
                                  margin=0.0)
        candidate.report = validate(candidate, d_unsafe, dataset, cfg.costgen)
        save_history([], candidate, history_path)
        return

    if cfg.costgen.proposer == "scripted":
        proposer = ScriptedMarginProposer(env, step=cfg.costgen.margin_step)
    else:
        proposer = RemoteChatProposer(cfg.costgen, env, transcript_path=paths.transcripts)
    final, history = generation_loop(proposer, d_unsafe, dataset, cfg.costgen)
    save_history(history, final, history_path)
    report, band = final.report, f"[{cfg.costgen.p_min:g}, {cfg.costgen.p_max:g}]"
    if not report.passed:
        adopted = f"margin {final.margin:g}" if final.margin is not None else repr(final.source)
        print(f"warning: no cost candidate passed validation in {len(history)} rounds; "
              f"adopted {adopted} with recall {report.recall_unsafe:.3f} and "
              f"conservativeness {report.conservativeness:.3f} (band {band})", file=sys.stderr)


def _event_steps(lc) -> list[int]:
    """Gradient steps of each rollout event: ``rollout_frequency``, the last one short."""
    return [min(lc.rollout_frequency, lc.total_steps - start)
            for start in range(0, lc.total_steps, lc.rollout_frequency)]


@_stage
def stage_reward(cfg: ExperimentConfig, paths: RunPaths) -> None:
    dataset = load_dataset(paths.dataset)
    lc = cfg.learn
    reward = make_reward_critic(dataset, lc,
                                seed=child_seed(cfg.seed, "learn", "reward-init"))
    advantages = []
    for event, steps in enumerate(_event_steps(lc)):
        update_reward_critic(reward, dataset,
                             max(1, int(steps * lc.reward_steps_fraction)), lc,
                             seed=child_seed(cfg.seed, "learn", "reward"),
                             stream=("event", event))
        advantages.append(reward_advantage(reward, dataset.s, dataset.a))
    save_critic(reward, paths.reward_dir)
    save_npz(paths.reward_advantages, {"advantages": np.stack(advantages)},
             {"kind": "reward-advantages"})


@_stage
def stage_learn(cfg: ExperimentConfig, paths: RunPaths) -> None:
    env = build_env(cfg)
    dataset = load_dataset(paths.dataset)
    lc = cfg.learn
    # The table decides which upstream artifacts this variant uses. Without
    # a cost candidate (ungated) there is no feasibility critic and no gate;
    # without an ensemble (no-model, ungated) there are no rollouts.
    ensemble = load_ensemble(paths.ensemble_dir) if runs("dynamics", cfg) else None
    candidate = (load_final_candidate(paths.cost_history(cfg), env)
                 if runs("costgen", cfg) else None)
    advantages = load_npz(paths.reward_advantages, "reward-advantages")[0]["advantages"]

    seed = cfg.seed
    critic = rows = None
    if candidate is not None:
        # No predicate: the update and the policy's weights floor with the
        # rows' stored labels; readers of the saved critic attach one on load.
        rows = relabel_offline(dataset, critic_floor(cfg, candidate), env.h_min, env.h_max)
        critic = make_feasibility_critic(env, dataset, lc,
                                         seed=child_seed(seed, "learn", "critic-init"))
    policy = make_policy(env, dataset, lc, seed=child_seed(seed, "learn", "policy-init"))

    rcfg = RolloutConfig(
        batch=lc.rollout_batch, horizon=lc.rollout_horizon, epochs=lc.rollout_epochs,
        noise_std=0.0 if "det-rollout" in cfg.ablations else lc.rollout_noise_std,
    )
    events: list = []  # one buffer per rollout event
    for event, steps in enumerate(_event_steps(lc)):
        if ensemble is not None:
            events.append(branched_rollout(
                policy.act_batch, dataset, ensemble, candidate.predicate, rcfg,
                seed=child_seed(seed, "learn", "rollout"), h_min=env.h_min,
                h_max=env.h_max, event=event, action_bounds=env.action_bounds))
            if len(events) > lc.rollout_window:
                # Only the window's elite means are read again; the saved
                # buffer drops them.
                gone = -lc.rollout_window - 1
                events[gone] = replace(events[gone], elite_next=None)
        if critic is not None:
            # The window's own buffers, read in place (none without rollouts).
            update_feasibility_critics(critic, rows, events[-lc.rollout_window:],
                                       steps=steps, cfg=lc,
                                       seed=child_seed(seed, "learn", "feas"),
                                       stream=("event", event))
        feasibility_guided_policy_update(
            policy, advantages[event], critic, dataset,
            max(1, int(steps * lc.reward_steps_fraction)), lc,
            seed=child_seed(seed, "learn", "policy"), stream=("event", event),
            h_s=None if rows is None else rows.h_s)

    paths.variant_dir(cfg).mkdir(parents=True, exist_ok=True)
    if critic is not None:
        save_critic(critic, paths.critic_dir(cfg))
    save_policy(policy, paths.policy_dir(cfg))
    if ensemble is not None:
        # The saved file drops the elite means: let them go before stacking.
        events = [replace(b, elite_next=None) for b in events]
        save_rollout_buffer(stack_buffers(events),
                            paths.rollout_buffer(cfg), meta={"variant": cfg.variant()})


@_stage
def stage_evaluate(cfg: ExperimentConfig, paths: RunPaths) -> None:
    env = build_env(cfg)
    report = evaluate_policy(load_policy(paths.policy_dir(cfg), env), env,
                             cfg.eval.episodes,
                             reward_norm_from_dataset(load_dataset(paths.dataset)),
                             seed=child_seed(cfg.seed, "evaluate"))
    lines = [CSV_HEADER, report.csv_row(env.name, cfg.seed)]
    paths.eval_csv(cfg).write_text("\n".join(lines) + "\n")


def run_pipeline(cfg: ExperimentConfig, out_dir: str | Path,
                 stages: tuple[str, ...] | None = None) -> RunPaths:
    """Execute the requested stages (all by default) with resume."""
    cfg.validate()
    todo = STAGES if stages is None else tuple(stages)
    for stage in todo:
        if stage not in STAGES:
            raise ConfigurationError(f"unknown stage {stage!r}")
    paths = RunPaths(root=Path(out_dir))
    paths.root.mkdir(parents=True, exist_ok=True)
    for stage in STAGES:
        if stage in todo and runs(stage, cfg):
            # Looked up by name at each call, so a wrapper installed on the
            # module attribute (a tracer, a test recorder) sees every call.
            globals()[f"stage_{stage}"](cfg, paths)
    return paths
