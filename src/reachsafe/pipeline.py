"""Staged experiment runner with per-stage hashing and resumability.

Stage order: data -> oracle -> dynamics -> costgen -> learn -> evaluate.
Every stage records the hash of exactly the configuration slice it
depends on, so ablation variants reuse upstream artifacts, and resuming
with a changed configuration is refused rather than silently mixed. All
randomness flows from the root seed through named substreams.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .cmdp import ConfigurationError, OfflineDataset, load_dataset, save_dataset
from .collect import collect_safe_dataset, collect_unsafe_samples
from .config import ExperimentConfig, build_behavior, build_env, config_hash
from .costgen import (
    CostCandidate,
    GenerationConfig,
    RemoteChatProposer,
    RemoteEndpoint,
    ScriptedMarginProposer,
    generation_loop,
    load_final_candidate,
    save_history,
    validate,
)
from .critics import (
    CriticConfig,
    RewardCriticConfig,
    make_feasibility_critic,
    save_critic,
    update_feasibility_critics,
)
from .dynamics import EnsembleDynamics, TrainConfig, load_ensemble, save_ensemble, train_ensemble
from .oracle import compute_feasible_set_oracle
from .policy import (
    CSV_HEADER,
    PolicyConfig,
    evaluate_policy,
    feasibility_guided_policy_update,
    load_policy,
    make_policy,
    make_reward_critic,
    reward_norm_from_dataset,
    save_policy,
    update_reward_critic,
)
from .reachability import gamma_threshold, tabular_value_iteration
from .rollout import (
    RolloutConfig,
    branched_rollout,
    flatten_branches,
    relabel_offline,
    save_rollout_buffer,
)
from .seeding import child_seed

STAGES = ("data", "oracle", "dynamics", "costgen", "learn", "evaluate")

_STAGE_SECTIONS = {
    "data": ("seed", "env", "data"),
    "oracle": ("env",),
    "dynamics": ("seed", "env", "data", "dynamics"),
    "costgen": ("seed", "env", "data", "costgen"),
    "learn": ("seed", "ablations", "env", "data", "dynamics", "costgen", "learn"),
    "evaluate": ("seed", "ablations", "env", "data", "dynamics", "costgen",
                 "learn", "eval"),
}


class StageMismatch(RuntimeError):
    """An artifact on disk was produced under a different configuration."""


class MissingArtifact(RuntimeError):
    """A stage needs an upstream artifact that has not been produced."""


def stage_hash(cfg: ExperimentConfig, stage: str) -> str:
    import hashlib

    d = asdict(cfg)
    subset = {key: d[key] for key in _STAGE_SECTIONS[stage]}
    if stage == "costgen":
        # Only this toggle reaches cost generation.
        subset["ablations"] = ["no-conservative"] if "no-conservative" in cfg.ablations else []
    blob = json.dumps(subset, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunPaths:
    root: Path

    @property
    def manifest(self) -> Path:
        return self.root / "manifest.json"

    @property
    def dataset(self) -> Path:
        return self.root / "dataset.jsonl"

    @property
    def dataset_unsafe(self) -> Path:
        return self.root / "dataset_unsafe.jsonl"

    @property
    def oracle_report(self) -> Path:
        return self.root / "oracle.json"

    @property
    def ensemble_dir(self) -> Path:
        return self.root / "ensemble"

    def cost_history(self, cfg: ExperimentConfig) -> Path:
        suffix = "_noconsv" if "no-conservative" in cfg.ablations else ""
        return self.root / f"cost_history{suffix}.jsonl"

    def transcripts(self, cfg: ExperimentConfig) -> Path:
        return self.root / "proposer_transcripts.jsonl"

    def variant_dir(self, cfg: ExperimentConfig) -> Path:
        return self.root / cfg.variant()

    def critic_dir(self, cfg: ExperimentConfig) -> Path:
        return self.variant_dir(cfg) / "critic"

    def reward_dir(self, cfg: ExperimentConfig) -> Path:
        return self.variant_dir(cfg) / "reward_critic"

    def policy_dir(self, cfg: ExperimentConfig) -> Path:
        return self.variant_dir(cfg) / "policy"

    def rollout_buffer(self, cfg: ExperimentConfig) -> Path:
        return self.variant_dir(cfg) / "rollout_buffer.npz"

    def eval_csv(self, cfg: ExperimentConfig) -> Path:
        return self.variant_dir(cfg) / "eval.csv"

    def heatmap(self, cfg: ExperimentConfig) -> Path:
        return self.variant_dir(cfg) / "heatmap.csv"


def _load_manifest(paths: RunPaths) -> dict:
    if paths.manifest.exists():
        return json.loads(paths.manifest.read_text())
    return {"stages": {}}


def _save_manifest(paths: RunPaths, manifest: dict) -> None:
    paths.manifest.write_text(json.dumps(manifest, sort_keys=True, indent=2))


def _stage_key(cfg: ExperimentConfig, stage: str) -> str:
    """Manifest key: per variant downstream, per cost toggle for costgen."""
    if stage in ("learn", "evaluate"):
        return f"{stage}:{cfg.variant()}"
    if stage == "costgen" and "no-conservative" in cfg.ablations:
        return "costgen:no-conservative"
    return stage


def _stage_state(cfg: ExperimentConfig, paths: RunPaths, stage: str,
                 artifacts: list[Path]) -> str:
    """done | absent; raises on a hash mismatch (refused resume)."""
    manifest = _load_manifest(paths)
    want = stage_hash(cfg, stage)
    key = _stage_key(cfg, stage)
    entry = manifest["stages"].get(key)
    if entry is None:
        return "absent"
    if entry["hash"] != want:
        raise StageMismatch(
            f"stage {key!r} in {paths.root} was produced under config hash "
            f"{entry['hash']}, current is {want}; use a fresh output directory"
        )
    if not all(p.exists() for p in artifacts):
        return "absent"
    return "done"


def _mark_done(cfg: ExperimentConfig, paths: RunPaths, stage: str,
               artifacts: list[Path]) -> None:
    manifest = _load_manifest(paths)
    manifest["config_hash"] = config_hash(cfg)
    manifest["seed"] = cfg.seed
    manifest["stages"][_stage_key(cfg, stage)] = {
        "hash": stage_hash(cfg, stage),
        "artifacts": [str(p.relative_to(paths.root)) for p in artifacts],
    }
    _save_manifest(paths, manifest)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_data(cfg: ExperimentConfig, paths: RunPaths) -> tuple[OfflineDataset, OfflineDataset]:
    artifacts = [paths.dataset, paths.dataset_unsafe]
    if _stage_state(cfg, paths, "data", artifacts) == "done":
        return load_dataset(paths.dataset), load_dataset(paths.dataset_unsafe)
    env = build_env(cfg)
    behavior = build_behavior(cfg, env)
    dataset = collect_safe_dataset(env, behavior, cfg.data.n_transitions,
                                   cfg.data.intervention_margin,
                                   seed=child_seed(cfg.seed, "data", "safe"))
    d_unsafe = collect_unsafe_samples(env, cfg.data.n_unsafe,
                                      seed=child_seed(cfg.seed, "data", "unsafe"))
    save_dataset(dataset, paths.dataset)
    save_dataset(d_unsafe, paths.dataset_unsafe)
    _mark_done(cfg, paths, "data", artifacts)
    return load_dataset(paths.dataset), load_dataset(paths.dataset_unsafe)


def stage_oracle(cfg: ExperimentConfig, paths: RunPaths) -> dict:
    artifacts = [paths.oracle_report]
    if _stage_state(cfg, paths, "oracle", artifacts) == "done":
        return json.loads(paths.oracle_report.read_text())
    env = build_env(cfg)
    oracle = compute_feasible_set_oracle(env)
    critic = tabular_value_iteration(oracle.model, "standard", gamma=env.gamma,
                                     tol=1e-10)
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
    _mark_done(cfg, paths, "oracle", artifacts)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return report


def stage_dynamics(cfg: ExperimentConfig, paths: RunPaths) -> EnsembleDynamics:
    artifacts = [paths.ensemble_dir / "ensemble.npz"]
    if _stage_state(cfg, paths, "dynamics", artifacts) == "done":
        return load_ensemble(paths.ensemble_dir)
    if not paths.dataset.exists():
        raise MissingArtifact("dynamics stage needs the dataset; run gen-data first")
    dataset = load_dataset(paths.dataset)
    d = cfg.dynamics
    model = train_ensemble(
        dataset, n_total=d.n_total, n_elite=d.n_elite,
        val_fraction=d.val_fraction, epochs=d.epochs,
        seed=child_seed(cfg.seed, "dynamics"),
        cfg=TrainConfig(hidden=tuple(d.hidden), lr=d.lr,
                        batch_size=d.batch_size, loss=d.loss),
    )
    save_ensemble(model, paths.ensemble_dir)
    _mark_done(cfg, paths, "dynamics", artifacts)
    return load_ensemble(paths.ensemble_dir)


def stage_costgen(cfg: ExperimentConfig, paths: RunPaths) -> CostCandidate:
    env = build_env(cfg)
    history_path = paths.cost_history(cfg)
    artifacts = [history_path]
    if _stage_state(cfg, paths, "costgen", artifacts) == "done":
        return load_final_candidate(history_path, env)
    if not paths.dataset.exists() or not paths.dataset_unsafe.exists():
        raise MissingArtifact("cost generation needs the datasets; run gen-data first")
    dataset = load_dataset(paths.dataset)
    d_unsafe = load_dataset(paths.dataset_unsafe)
    gen_cfg = GenerationConfig(p_min=cfg.costgen.p_min, p_max=cfg.costgen.p_max,
                               max_queries=cfg.costgen.max_queries,
                               task_text=env.task_text, cost_text=env.cost_text)

    if "no-conservative" in cfg.ablations:
        # Adopt the plain constraint: margin zero, no band requirement.
        candidate = CostCandidate(predicate=env.margin_predicate(0.0),
                                  provenance="scripted", source="margin=0",
                                  margin=0.0)
        candidate.report = validate(candidate, d_unsafe, dataset, gen_cfg)
        save_history([], candidate, history_path)
        _mark_done(cfg, paths, "costgen", artifacts)
        return load_final_candidate(history_path, env)

    if cfg.costgen.proposer == "scripted":
        proposer = ScriptedMarginProposer(env, step=cfg.costgen.margin_step)
    else:
        if not cfg.costgen.remote_base_url or not cfg.costgen.remote_model:
            raise ConfigurationError(
                "remote proposer needs costgen.remote_base_url and "
                "costgen.remote_model")
        endpoint = RemoteEndpoint(base_url=cfg.costgen.remote_base_url,
                                  model=cfg.costgen.remote_model,
                                  token_env=cfg.costgen.remote_token_env)
        proposer = RemoteChatProposer(endpoint, env, gen_cfg,
                                      transcript_path=paths.transcripts(cfg))
    final, history = generation_loop(proposer, d_unsafe, dataset, gen_cfg)
    save_history(history, final, history_path)
    _mark_done(cfg, paths, "costgen", artifacts)
    return load_final_candidate(history_path, env)


def stage_learn(cfg: ExperimentConfig, paths: RunPaths) -> None:
    variant = cfg.variant()
    artifacts = [paths.policy_dir(cfg) / "policy.npz"]
    ungated = "ungated" in cfg.ablations
    if not ungated:
        artifacts.append(paths.critic_dir(cfg) / "critic.npz")
    if _stage_state(cfg, paths, "learn", artifacts) == "done":
        return
    env = build_env(cfg)
    if not paths.dataset.exists():
        raise MissingArtifact("learning needs the dataset; run gen-data first")
    dataset = load_dataset(paths.dataset)
    lc = cfg.learn

    no_model = "no-model" in cfg.ablations or ungated
    ensemble = None
    if not no_model:
        if not (paths.ensemble_dir / "ensemble.npz").exists():
            raise MissingArtifact("learning needs the ensemble; run train-dynamics")
        ensemble = load_ensemble(paths.ensemble_dir)

    candidate = None
    if not ungated:
        history_path = paths.cost_history(cfg)
        if not history_path.exists():
            raise MissingArtifact("learning needs the cost candidate; run gen-cost")
        candidate = load_final_candidate(history_path, env)

    if ungated or "no-relabel" in cfg.ablations or candidate is None:
        offline = dataset
        floor_fn = None
    else:
        offline = relabel_offline(dataset, candidate.predicate, env.h_min, env.h_max)
        floor_fn = candidate.predicate

    seed = cfg.seed
    critic = None
    if not ungated:
        critic = make_feasibility_critic(
            env, offline,
            CriticConfig(gamma=lc.critic_gamma, tau=lc.critic_tau,
                         lr=lc.critic_lr, batch_size=lc.batch_size,
                         target_rate=lc.critic_target_rate,
                         hidden=tuple(lc.hidden),
                         include_rollout_in_v=lc.include_rollout_in_v,
                         rollout_batch_fraction=lc.rollout_batch_fraction),
            seed=child_seed(seed, "learn", "critic-init"), cost_fn=floor_fn)
    reward = make_reward_critic(
        env, dataset,
        RewardCriticConfig(gamma=lc.reward_gamma, expectile=lc.reward_expectile,
                           lr=lc.policy_lr, batch_size=lc.batch_size,
                           hidden=tuple(lc.hidden)),
        seed=child_seed(seed, "learn", "reward-init"))
    policy = make_policy(
        env, dataset,
        PolicyConfig(lr=lc.policy_lr, batch_size=lc.batch_size,
                     hidden=tuple(lc.hidden), temperature=lc.policy_temperature,
                     weight_clip=lc.policy_weight_clip,
                     noise_std=lc.rollout_noise_std),
        seed=child_seed(seed, "learn", "policy-init"))

    rcfg = RolloutConfig(
        frequency=lc.rollout_frequency, batch=lc.rollout_batch,
        horizon=lc.rollout_horizon, epochs=lc.rollout_epochs,
        noise_std=0.0 if "det-rollout" in cfg.ablations else lc.rollout_noise_std,
    )
    window: list[list] = []
    all_branches: list = []
    total = lc.total_steps
    n_events = (total + rcfg.frequency - 1) // rcfg.frequency
    for event in range(n_events):
        steps = min(rcfg.frequency, total - event * rcfg.frequency)
        buffer = None
        if ensemble is not None and critic is not None and candidate is not None:
            kept = branched_rollout(
                policy.act_batch, offline, ensemble, candidate.predicate,
                rcfg, seed=child_seed(seed, "learn", "rollout"), event=event,
                action_bounds=env.action_bounds)
            window.append(kept)
            all_branches.extend(kept)
            recent = [b for ev in window[-lc.rollout_window:] for b in ev]
            buffer = flatten_branches(recent, env.h_min, env.h_max)
        if critic is not None:
            update_feasibility_critics(critic, offline, buffer, ensemble,
                                       steps, seed=child_seed(seed, "learn", "feas"),
                                       stream=("event", event))
        update_reward_critic(reward, dataset,
                             max(1, int(steps * lc.reward_steps_fraction)),
                             seed=child_seed(seed, "learn", "reward"),
                             stream=("event", event))
        feasibility_guided_policy_update(
            policy, reward, critic, dataset,
            max(1, int(steps * lc.reward_steps_fraction)),
            seed=child_seed(seed, "learn", "policy"), gate=not ungated,
            stream=("event", event))

    paths.variant_dir(cfg).mkdir(parents=True, exist_ok=True)
    if critic is not None:
        save_critic(critic, paths.critic_dir(cfg))
    save_critic(reward, paths.reward_dir(cfg))
    save_policy(policy, paths.policy_dir(cfg))
    save_rollout_buffer(flatten_branches(all_branches, env.h_min, env.h_max),
                        paths.rollout_buffer(cfg), meta={"variant": variant})
    _mark_done(cfg, paths, "learn", artifacts)


def stage_evaluate(cfg: ExperimentConfig, paths: RunPaths) -> dict:
    artifacts = [paths.eval_csv(cfg)]
    if _stage_state(cfg, paths, "evaluate", artifacts) == "done":
        return _read_eval(paths.eval_csv(cfg))
    env = build_env(cfg)
    if not (paths.policy_dir(cfg) / "policy.npz").exists():
        raise MissingArtifact("evaluation needs a trained policy; run learn")
    policy = load_policy(paths.policy_dir(cfg), env)
    dataset = load_dataset(paths.dataset)
    report = evaluate_policy(policy, env, cfg.eval.episodes,
                             reward_norm_from_dataset(dataset),
                             seed=child_seed(cfg.seed, "evaluate"))
    lines = [CSV_HEADER, report.csv_row(env.name, cfg.seed)]
    paths.eval_csv(cfg).write_text("\n".join(lines) + "\n")
    _mark_done(cfg, paths, "evaluate", artifacts)
    return _read_eval(paths.eval_csv(cfg))


def _read_eval(path: Path) -> dict:
    header, row = path.read_text().strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    return {
        "env": values["env"], "seed": int(values["seed"]),
        "episodes": int(values["episodes"]),
        "normalized_reward": float(values["normalized_reward"]),
        "normalized_cost": float(values["normalized_cost"]),
        "safe": values["safe"] == "1",
    }


def run_pipeline(cfg: ExperimentConfig, out_dir: str | Path,
                 stages: tuple[str, ...] | None = None) -> RunPaths:
    """Execute the requested stages (all by default) with resume."""
    cfg.validate()
    paths = RunPaths(root=Path(out_dir))
    paths.root.mkdir(parents=True, exist_ok=True)
    todo = STAGES if stages is None else tuple(stages)
    for stage in todo:
        if stage not in STAGES:
            raise ConfigurationError(f"unknown stage {stage!r}")
    if "data" in todo:
        stage_data(cfg, paths)
    if "oracle" in todo:
        stage_oracle(cfg, paths)
    if "dynamics" in todo and not ({"no-model", "ungated"} & set(cfg.ablations)):
        stage_dynamics(cfg, paths)
    if "costgen" in todo and "ungated" not in cfg.ablations:
        stage_costgen(cfg, paths)
    if "learn" in todo:
        stage_learn(cfg, paths)
    if "evaluate" in todo:
        stage_evaluate(cfg, paths)
    return paths
