"""Offline policy extraction gated by the feasibility critics.

The reward critics train on offline transitions only (rollout data is
rejected by contract). The policy is advantage-weighted behavior cloning
with a feasibility gate: inside the feasible region the reward advantage
drives the weights but actions with positive Q_h are never cloned; inside
the infeasible region the weights instead prefer the least-violating
actions, ignoring reward.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .approx import Mlp, Trainer, concat, load_mlp, save_mlp
from .cmdp import HardCMDP, OfflineDataset
from .critics import (
    Featurizer,
    FeasibilityCritic,
    RewardCritic,
    RewardCriticConfig,
    normalized_featurizer,
)
from .rollout import RolloutBuffer
from .seeding import substream


class RolloutDataRejected(TypeError):
    """Reward critics only ever see the original offline dataset."""


def make_reward_critic(env: HardCMDP, dataset: OfflineDataset,
                       cfg: RewardCriticConfig | None = None,
                       seed: int = 0,
                       state_feat: Featurizer | None = None,
                       action_feat: Featurizer | None = None) -> RewardCritic:
    cfg = cfg or RewardCriticConfig()
    if state_feat is None:
        state_feat = normalized_featurizer(dataset.s)
    if action_feat is None:
        action_feat = normalized_featurizer(dataset.a)
    return RewardCritic.fresh(state_feat, action_feat, cfg, seed,
                              "reward-critic", ("q", "v"))


def _reject_rollout_data(data) -> None:
    if isinstance(data, RolloutBuffer):
        raise RolloutDataRejected("reward critic update received rollout data")
    meta = getattr(data, "meta", {})
    if isinstance(meta, dict) and meta.get("kind") == "rollout-buffer":
        raise RolloutDataRejected("reward critic update received rollout data")


def update_reward_critic(critic: RewardCritic, offline: OfflineDataset,
                         steps: int, seed: int = 0,
                         stream: tuple = ()) -> RewardCritic:
    """Expectile TD learning on offline transitions only."""
    _reject_rollout_data(offline)
    if len(offline) == 0:
        raise ValueError("offline batch must not be empty")
    critic.sources_seen.append(offline.tag)
    cfg = critic.cfg
    feat_s = critic.state_feat(offline.s)
    feat_sa = concat([feat_s, critic.action_feat(offline.a)], axis=1)
    feat_s2 = critic.state_feat(offline.s2)
    rewards = offline.r
    not_done = 1.0 - offline.done.astype(float)
    rng = substream(seed, "reward-update", *stream)

    for _ in range(steps):
        idx = rng.integers(len(offline), size=min(cfg.batch_size, len(offline)))
        v2 = critic.v_target.forward(feat_s2[idx], cache=False)[:, 0]
        target_q = rewards[idx] + cfg.gamma * not_done[idx] * v2
        q_in = feat_sa[idx]
        # The expectile weight |e - 1(u < 0)| is the reverse one at 1 - e.
        critic.gradient_step(q_in, target_q, feat_s[idx], q_in, 1.0 - cfg.expectile)
    return critic


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------


@dataclass
class PolicyConfig:
    lr: float = 3e-4
    batch_size: int = 256
    hidden: tuple[int, ...] = (64, 64)
    temperature: float = 3.0
    weight_clip: float = 100.0
    noise_std: float = 0.1  # exploration scale used by rollout callers


@dataclass
class SafePolicy:
    """Deterministic-mean action network squashed into the action box."""

    net: Mlp
    state_feat: Featurizer
    low: np.ndarray
    high: np.ndarray
    cfg: PolicyConfig
    steps_trained: int = 0
    trainer: Trainer | None = None

    def act(self, s: np.ndarray) -> np.ndarray:
        return self.act_batch(np.asarray(s, dtype=float).reshape(1, -1))[0]

    def act_batch(self, s: np.ndarray) -> np.ndarray:
        raw = self.net.forward(self.state_feat(s), cache=False)
        return self.low + (self.high - self.low) * (np.tanh(raw) + 1.0) / 2.0


def make_policy(env: HardCMDP, dataset: OfflineDataset,
                cfg: PolicyConfig | None = None, seed: int = 0,
                state_feat: Featurizer | None = None) -> SafePolicy:
    cfg = cfg or PolicyConfig()
    if state_feat is None:
        state_feat = normalized_featurizer(dataset.s)
    net = Mlp([state_feat.dim, *cfg.hidden, env.d_a],
              seed=int(substream(seed, "policy-init").integers(1 << 31)))
    return SafePolicy(net=net, state_feat=state_feat,
                      low=env.action_bounds[:, 0].copy(),
                      high=env.action_bounds[:, 1].copy(), cfg=cfg)


def bc_weights(reward_critic: RewardCritic, feas_critic: FeasibilityCritic | None,
               s: np.ndarray, a: np.ndarray, temperature: float,
               weight_clip: float) -> np.ndarray:
    """Per-sample cloning weights.

    Feasible states weight by the exponentiated reward advantage and drop
    any action whose Q_h is positive; infeasible states weight by how much
    the action reduces the violation value, ignoring reward. Without a
    feasibility critic the weights are the ungated reward advantage.
    """
    adv_r = reward_critic.q_values(s, a) - reward_critic.v_values(s)
    if feas_critic is None:
        return np.clip(np.exp(temperature * adv_r), 0.0, weight_clip)
    v_h = feas_critic.v_values(s)
    q_h = feas_critic.q_values(s, a)
    feasible = v_h <= 0.0
    w_feasible = np.exp(temperature * adv_r) * (q_h <= 0.0)
    w_infeasible = np.exp(-temperature * (q_h - v_h))
    return np.clip(np.where(feasible, w_feasible, w_infeasible), 0.0, weight_clip)


def feasibility_guided_policy_update(
    policy: SafePolicy,
    reward_critic: RewardCritic,
    feas_critic: FeasibilityCritic | None,
    offline: OfflineDataset,
    steps: int,
    seed: int = 0,
    stream: tuple = (),
) -> SafePolicy:
    """Weighted behavior cloning on the offline dataset only."""
    _reject_rollout_data(offline)
    if len(offline) == 0:
        raise ValueError("offline batch must not be empty")
    cfg = policy.cfg
    if policy.trainer is None:
        policy.trainer = Trainer(policy.net, lr=cfg.lr)

    feat_s = policy.state_feat(offline.s)
    weights = bc_weights(reward_critic, feas_critic, offline.s, offline.a,
                         cfg.temperature, cfg.weight_clip)
    span = (policy.high - policy.low) / 2.0
    rng = substream(seed, "policy-update", *stream)

    for _ in range(steps):
        idx = rng.integers(len(offline), size=min(cfg.batch_size, len(offline)))
        fs = feat_s[idx]
        target_a = offline.a[idx]
        w = weights[idx][:, None]
        raw = policy.net.forward(fs)
        squashed = policy.low + span * (np.tanh(raw) + 1.0)
        diff = squashed - target_a
        dsquash = span * (1.0 - np.tanh(raw) ** 2)
        upstream = 2.0 * w * diff * dsquash / len(idx)
        grads, _ = policy.net.backward(upstream)
        policy.trainer.apply(grads)
        policy.steps_trained += 1
    return policy


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    normalized_reward: float
    normalized_cost: float
    episodes: int
    safe: bool
    mean_violations: float
    mean_return: float

    def csv_row(self, env_name: str, seed: int) -> str:
        return (f"{env_name},{seed},{self.episodes},"
                f"{self.normalized_reward:.6f},{self.normalized_cost:.6f},"
                f"{int(self.safe)}")


CSV_HEADER = "env,seed,episodes,normalized_reward,normalized_cost,safe"

COST_SCALE = 10.0


def evaluate_policy(policy: SafePolicy, env: HardCMDP, episodes: int,
                    reward_norm: tuple[float, float], seed: int = 0) -> EvalReport:
    """Roll the deterministic policy; normalize rewards and scale costs.

    Normalized reward maps the dataset's return range onto [0, 1]; the
    per-episode violation count is divided by the cost scale, and a run
    is safe when that normalized cost stays at or below 1.
    """
    if episodes < 1:
        raise ValueError("need at least one evaluation episode")
    lo, hi = reward_norm
    if hi <= lo:
        raise ValueError(f"degenerate reward normalization range [{lo}, {hi}]")
    returns, violations = [], []
    for ep in range(episodes):
        rng = substream(seed, "eval-episode", ep)
        s = env.initial_state(rng)
        total_r, total_c = 0.0, 0
        for _ in range(env.horizon):
            a = env.clip_action(policy.act(s))
            s2 = env.transition(s, a)
            total_r += env.reward(s, a, s2)
            total_c += env.cost(s2)
            s = s2
        returns.append(total_r)
        violations.append(total_c)
    norm_reward = (float(np.mean(returns)) - lo) / (hi - lo)
    norm_cost = float(np.mean(violations)) / COST_SCALE
    return EvalReport(
        normalized_reward=norm_reward, normalized_cost=norm_cost,
        episodes=episodes, safe=norm_cost <= 1.0,
        mean_violations=float(np.mean(violations)),
        mean_return=float(np.mean(returns)),
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_policy(policy: SafePolicy, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "low": policy.low.tolist(), "high": policy.high.tolist(),
        "cfg": asdict(policy.cfg),
        "steps_trained": policy.steps_trained,
        "state_feat": policy.state_feat.to_meta(),
    }
    save_mlp({"net": policy.net}, directory / "policy.npz", meta)


def load_policy(directory: str | Path, env: HardCMDP) -> SafePolicy:
    nets, meta = load_mlp(Path(directory) / "policy.npz")
    cfg = PolicyConfig(**{**meta["cfg"], "hidden": tuple(meta["cfg"]["hidden"])})
    return SafePolicy(net=nets["net"],
                      state_feat=Featurizer.from_meta(meta["state_feat"], env),
                      low=np.asarray(meta["low"]), high=np.asarray(meta["high"]),
                      cfg=cfg, steps_trained=meta["steps_trained"])


def reward_norm_from_dataset(dataset: OfflineDataset) -> tuple[float, float]:
    lo = dataset.meta.get("return_min")
    hi = dataset.meta.get("return_max")
    if lo is None or hi is None or hi <= lo:
        raise ValueError("dataset metadata lacks a usable return range")
    return float(lo), float(hi)
