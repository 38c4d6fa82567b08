"""Offline policy extraction gated by the feasibility critics.

The reward critics train on offline transitions only (rollout data is
rejected by contract). The policy is advantage-weighted behavior cloning
with a feasibility gate: inside the feasible region the reward advantage
drives the weights but actions with positive Q_h are never cloned; inside
the infeasible region the weights instead prefer the least-violating
actions, ignoring reward. The cloning weights read stored advantages
(``reward_advantage`` over the dataset rows), not the reward critic, so
the pair trains once and every variant clones from the same values.
Every setting comes from the configuration's ``learn`` section.

Evaluation steps all its episodes in lockstep: one row-exact policy pass
(``SafePolicy.act``) over every episode's state per time step, then each
row through the environment's per-row step, so every episode's trajectory
is bit-identical to rolling that episode alone.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from .approx import Mlp, Trainer, concat, load_mlp, save_mlp, split_rows
from .cmdp import HardCMDP, OfflineDataset
from .config import LearnSection
from .critics import Featurizer, FeasibilityCritic, QVCritic, normalized_featurizer
from .rollout import RolloutBuffer
from .seeding import substream

# Polyak rate of the reward pair's targets; only the feasibility pair's
# rate is a configuration key.
REWARD_TARGET_RATE = 0.005


class RolloutDataRejected(TypeError):
    """Reward critics only ever see the original offline dataset."""


def make_reward_critic(dataset: OfflineDataset, cfg: LearnSection, seed: int = 0) -> QVCritic:
    """The reward Q/V pair; it trains at the policy's learning rate."""
    return QVCritic.fresh(normalized_featurizer(dataset.s), normalized_featurizer(dataset.a),
                          cfg.hidden, seed, "reward-critic", ("q", "v"), lr=cfg.policy_lr,
                          target_rate=REWARD_TARGET_RATE)


def _reject_rollout_data(data) -> None:
    if isinstance(data, RolloutBuffer):
        raise RolloutDataRejected("reward critic update received rollout data")


def update_reward_critic(critic: QVCritic, offline: OfflineDataset,
                         steps: int, cfg: LearnSection, seed: int = 0,
                         stream: tuple = ()) -> QVCritic:
    """Expectile TD learning on offline transitions only."""
    _reject_rollout_data(offline)
    if len(offline) == 0:
        raise ValueError("offline batch must not be empty")
    feat_s = critic.state_feat(offline.s)
    feat_sa = concat([feat_s, critic.action_feat(offline.a)], axis=1)
    feat_s2 = critic.state_feat(offline.s2)
    rewards = offline.r
    not_done = 1.0 - offline.done.astype(float)
    rng = substream(seed, "reward-update", *stream)

    for _ in range(steps):
        idx = rng.integers(len(offline), size=min(cfg.batch_size, len(offline)))
        v2 = critic.v_target.forward(feat_s2[idx], cache=False)[:, 0]
        target_q = rewards[idx] + cfg.reward_gamma * not_done[idx] * v2
        q_in = feat_sa[idx]
        # The expectile weight |e - 1(u < 0)| is the reverse one at 1 - e.
        critic.gradient_step(q_in, target_q, feat_s[idx], q_in, 1.0 - cfg.reward_expectile)
    return critic


def reward_advantage(critic: QVCritic, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Q(s, a) - V(s) per row: the reward signal of the cloning weights."""
    return critic.q_values(s, a) - critic.v_values(s)


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------


@dataclass
class SafePolicy:
    """Deterministic-mean action network squashed into the action box."""

    net: Mlp
    state_feat: Featurizer
    low: np.ndarray
    high: np.ndarray
    lr: InitVar[float]  # held by the trainer only
    trainer: Trainer = field(init=False, repr=False)

    def __post_init__(self, lr: float) -> None:
        self.trainer = Trainer(self.net, lr=lr)

    def act(self, s: np.ndarray) -> np.ndarray:
        """Actions for an (n, d_s) batch, row i bit-identical to acting on
        row i alone: one row-exact (``split_rows``) pass."""
        raw = self.net.forward(split_rows(self.state_feat(s)), cache=False)
        return self._squash(raw[:, 0])

    def act_batch(self, s: np.ndarray) -> np.ndarray:
        """Actions for an (n, d_s) batch in one GEMM pass; a row's last bit
        may depend on the batch it shares."""
        return self._squash(self.net.forward(self.state_feat(s), cache=False))

    def _squash(self, raw: np.ndarray) -> np.ndarray:
        return self.low + (self.high - self.low) * (np.tanh(raw) + 1.0) / 2.0


def make_policy(env: HardCMDP, dataset: OfflineDataset, cfg: LearnSection,
                seed: int = 0) -> SafePolicy:
    state_feat = normalized_featurizer(dataset.s)
    net = Mlp([state_feat.dim, *cfg.hidden, env.d_a],
              seed=int(substream(seed, "policy-init").integers(1 << 31)))
    return SafePolicy(net=net, state_feat=state_feat,
                      low=env.action_bounds[:, 0].copy(),
                      high=env.action_bounds[:, 1].copy(), lr=cfg.policy_lr)


def bc_weights(adv_r: np.ndarray, feas_critic: FeasibilityCritic | None,
               s: np.ndarray, a: np.ndarray, temperature: float,
               weight_clip: float, h_s: np.ndarray | None = None) -> np.ndarray:
    """Per-sample cloning weights from the rows' reward advantages ``adv_r``.

    Feasible states weight by the exponentiated reward advantage and drop
    any action whose Q_h is positive; infeasible states weight by how much
    the action reduces the violation value, ignoring reward. Without a
    feasibility critic the weights are the ungated reward advantage.
    ``h_s`` holds the rows' stored h labels, the floor of both value reads;
    without it the critic's predicate labels ``s`` (``FeasibilityCritic``).
    An overflowing ``exp`` clips to ``weight_clip``; a gated-out action weighs 0.
    """
    with np.errstate(over="ignore"):
        if feas_critic is None:
            return np.clip(np.exp(temperature * adv_r), 0.0, weight_clip)
        v_h = feas_critic.v_values(s, h_s=h_s)
        q_h = feas_critic.q_values(s, a, h_s=h_s)
        w_feasible = np.where(q_h <= 0.0, np.exp(temperature * adv_r), 0.0)
        w_infeasible = np.exp(-temperature * (q_h - v_h))
    return np.clip(np.where(v_h <= 0.0, w_feasible, w_infeasible), 0.0, weight_clip)


def feasibility_guided_policy_update(
    policy: SafePolicy,
    advantages: np.ndarray,
    feas_critic: FeasibilityCritic | None,
    dataset: OfflineDataset,
    steps: int,
    cfg: LearnSection,
    seed: int = 0,
    stream: tuple = (),
    h_s: np.ndarray | None = None,
) -> SafePolicy:
    """Weighted behavior cloning on the offline dataset only.

    ``advantages`` holds one reward advantage per ``dataset`` row. The gate
    floors the critic's values with ``h_s``, the critic's offline rows'
    labels (``relabel_offline``), so no predicate runs over the dataset.
    """
    _reject_rollout_data(dataset)
    if len(dataset) == 0:
        raise ValueError("offline batch must not be empty")
    if len(advantages) != len(dataset):
        raise ValueError(f"{len(advantages)} advantages for {len(dataset)} offline rows")
    feat_s = policy.state_feat(dataset.s)
    weights = bc_weights(advantages, feas_critic, dataset.s, dataset.a,
                         cfg.policy_temperature, cfg.policy_weight_clip, h_s=h_s)
    span = (policy.high - policy.low) / 2.0
    rng = substream(seed, "policy-update", *stream)

    for _ in range(steps):
        idx = rng.integers(len(dataset), size=min(cfg.batch_size, len(dataset)))
        fs = feat_s[idx]
        target_a = dataset.a[idx]
        w = weights[idx][:, None]
        raw = policy.net.forward(fs)
        squashed = policy.low + span * (np.tanh(raw) + 1.0)
        diff = squashed - target_a
        dsquash = span * (1.0 - np.tanh(raw) ** 2)
        upstream = 2.0 * w * diff * dsquash / len(idx)
        policy.trainer.apply(policy.net.backward(upstream))
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

    The episodes run in lockstep. Episode ep starts from its own
    ``("eval-episode", ep)`` substream; each time step stacks the episodes'
    state rows into one array for one row-exact ``policy.act`` pass, then
    clips, steps, rewards and costs each tuple row through the per-row calls.
    Every episode thus follows the trajectory it would follow alone.

    Normalized reward maps the dataset's return range onto [0, 1]; the
    per-episode violation count is divided by the cost scale, and a run
    is safe when that normalized cost stays at or below 1.
    """
    if episodes < 1:
        raise ValueError("need at least one evaluation episode")
    lo, hi = reward_norm
    if hi <= lo:
        raise ValueError(f"degenerate reward normalization range [{lo}, {hi}]")
    states = [env.initial_state(substream(seed, "eval-episode", ep))
              for ep in range(episodes)]
    returns, violations = [0.0] * episodes, [0] * episodes
    for _ in range(env.horizon):
        actions = policy.act(np.array(states)).tolist()
        for ep, s in enumerate(states):
            a = env.clip_action(actions[ep])
            s2 = env.transition(s, a)
            returns[ep] += env.reward(s, a, s2)
            violations[ep] += env.violation(s2)
            states[ep] = s2
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
        "cfg": {"lr": policy.trainer.lr},
        "state_feat": policy.state_feat.to_meta(),
    }
    save_mlp({"net": policy.net}, directory / "policy.npz", meta)


def load_policy(directory: str | Path, env: HardCMDP) -> SafePolicy:
    nets, meta = load_mlp(Path(directory) / "policy.npz")
    return SafePolicy(net=nets["net"],
                      state_feat=Featurizer.from_meta(meta["state_feat"], env),
                      low=np.asarray(meta["low"]), high=np.asarray(meta["high"]),
                      lr=meta["cfg"]["lr"])


def reward_norm_from_dataset(dataset: OfflineDataset) -> tuple[float, float]:
    lo = dataset.meta.get("return_min")
    hi = dataset.meta.get("return_max")
    if lo is None or hi is None or hi <= lo:
        raise ValueError("dataset metadata lacks a usable return range")
    return float(lo), float(hi)
