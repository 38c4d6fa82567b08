"""Parametric Q/V critics: the reachability pair and the reward pair.

Both pairs share one core (``QVCritic``): four networks, two optimizers
and one gradient step. For the reachability pair, Q fits squared error
against the feasible backup: on offline transitions the successor value
comes from the dataset next state, on retained rollout steps from the
worst (largest) target value across the elite mean successors the rollout
recorded in its buffer, all elites in one featurize and one forward. The
update reads the rollout window's event buffers in place, rows indexed as
if concatenated; ``rollout.stack_buffers`` serves only a rollout's epochs
and the saved buffer. Every violation value a target needs is a label
stored with its row (the relabelled offline ``h_s`` and ``cost``, a rollout
row's ``label`` and ``h_s``), so the update calls no cost predicate. V
regresses toward Q with the reverse expectile loss, whose tau near 1
approximates the min over actions without ever querying
out-of-distribution actions. The reward pair's TD target lives with the
policy code that consumes it. Both pairs read their settings from the
configuration's ``learn`` section.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .approx import Mlp, OneHot, Trainer, concat, load_mlp, save_mlp, soft_update
from .cmdp import HardCMDP, OfflineDataset, Predicate, cost_labels, nearest_rows, require_finite
from .config import LearnSection
from .reachability import feasible_backup, reverse_expectile_grad
from .rollout import RolloutBuffer
from .seeding import substream


@dataclass
class Featurizer:
    """State/action encoding for the critic networks.

    ``normalized`` shifts and scales raw vectors; ``onehot`` maps tabular
    states and the declared action set to a ``OneHot`` batch.
    """

    kind: str
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    table: np.ndarray | None = None            # enumerated rows for onehot
    index: Callable[[np.ndarray], np.ndarray] | None = None  # (n, d) -> (n,) rows

    @property
    def dim(self) -> int:
        return len(self.table) if self.kind == "onehot" else len(self.mean)

    def __call__(self, x: np.ndarray) -> np.ndarray | OneHot:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "normalized":
            return (x - self.mean) / self.std
        require_finite(x, "one-hot featurizer input")
        return OneHot(self.index(x)[:, None], len(self.table))

    def to_meta(self) -> dict:
        if self.kind == "normalized":
            return {"kind": self.kind, "mean": self.mean.tolist(),
                    "std": self.std.tolist()}
        return {"kind": self.kind}

    @classmethod
    def from_meta(cls, spec: dict, env: HardCMDP, action: bool = False) -> Featurizer:
        """Inverse of ``to_meta``; onehot tables are rebuilt from ``env``."""
        if spec["kind"] == "normalized":
            return cls(kind="normalized", mean=np.asarray(spec["mean"]),
                       std=np.asarray(spec["std"]))
        return onehot_action_featurizer(env) if action else onehot_state_featurizer(env)


def normalized_featurizer(samples: np.ndarray) -> Featurizer:
    return Featurizer(kind="normalized", mean=samples.mean(axis=0),
                      std=np.maximum(samples.std(axis=0), 1e-6))


def onehot_state_featurizer(env: HardCMDP) -> Featurizer:
    table = env.states

    def index(s: np.ndarray) -> np.ndarray:
        rows = env.state_index(s)
        # Model-predicted states need not be valid grid states; snap.
        miss = rows < 0
        if miss.any():
            rows[miss] = nearest_rows(table, s[miss])
        return rows

    return Featurizer(kind="onehot", table=table, index=index)


def onehot_action_featurizer(env: HardCMDP) -> Featurizer:
    table = env.action_set
    return Featurizer(kind="onehot", table=table,
                      index=lambda a: nearest_rows(table, a))


@dataclass
class QVCritic:
    """Q(s,a) and V(s) networks, their slow targets and their optimizers.

    Both critic pairs of the learner share this core and its gradient
    step: Q regresses onto a caller-built target by squared error, V onto
    the slow Q target by an asymmetric expectile loss, and both targets
    then track their networks by Polyak averaging at ``target_rate``.
    """

    q_net: Mlp
    v_net: Mlp
    q_target: Mlp
    v_target: Mlp
    state_feat: Featurizer
    action_feat: Featurizer
    lr: InitVar[float]  # held by the two trainers only
    target_rate: float
    steps_trained: int = 0
    q_trainer: Trainer = field(init=False, repr=False)
    v_trainer: Trainer = field(init=False, repr=False)

    def __post_init__(self, lr: float) -> None:
        self.q_trainer = Trainer(self.q_net, lr=lr)
        self.v_trainer = Trainer(self.v_net, lr=lr)

    @classmethod
    def fresh(cls, state_feat: Featurizer, action_feat: Featurizer,
              hidden: list[int], seed: int, stream: str, labels: tuple[str, str],
              out_bias: float = 0.0, **fields) -> QVCritic:
        """New Q and V nets seeded from ``stream``; the targets start as copies."""
        q_net = Mlp([state_feat.dim + action_feat.dim, *hidden, 1],
                    seed=_net_seed(seed, stream, labels[0]))
        v_net = Mlp([state_feat.dim, *hidden, 1],
                    seed=_net_seed(seed, stream, labels[1]))
        q_net.biases[-1][:] = out_bias
        v_net.biases[-1][:] = out_bias
        return cls(q_net=q_net, v_net=v_net, q_target=q_net.copy(),
                   v_target=v_net.copy(), state_feat=state_feat,
                   action_feat=action_feat, **fields)

    def q_values(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        x = concat([self.state_feat(s), self.action_feat(a)], axis=1)
        return self.q_net.forward(x, cache=False)[:, 0]

    def v_values(self, s: np.ndarray) -> np.ndarray:
        return self.v_net.forward(self.state_feat(s), cache=False)[:, 0]

    def gradient_step(self, q_in: np.ndarray, q_tgt: np.ndarray,
                      v_in: np.ndarray, q_ref_in: np.ndarray, tau: float) -> None:
        """One update from featurized inputs.

        Q fits ``q_tgt`` on ``q_in``; V fits the slow Q on ``q_ref_in`` by
        the reverse expectile loss at ``tau``, so ``tau`` near 1 drives V
        toward the minimum of Q and ``1 - e`` gives the plain expectile e.
        """
        q_pred = self.q_net.forward(q_in)[:, 0]
        upstream = (2.0 * (q_pred - q_tgt) / len(q_tgt))[:, None]
        self.q_trainer.apply(self.q_net.backward(upstream))

        q_ref = self.q_target.forward(q_ref_in, cache=False)[:, 0]
        u = q_ref - self.v_net.forward(v_in)[:, 0]
        upstream_v = (-reverse_expectile_grad(u, tau) / len(u))[:, None]
        self.v_trainer.apply(self.v_net.backward(upstream_v))

        soft_update(self.q_target, self.q_net, self.target_rate)
        soft_update(self.v_target, self.v_net, self.target_rate)
        self.steps_trained += 1


@dataclass
class FeasibilityCritic(QVCritic):
    """Q_h(s,a) and V_h(s) on the Q/V core.

    When the conservative cost predicate is attached, values are read as
    max(h(s), net(...)): every valid reachability value dominates the
    state's own violation value, so the known binary labels act as an
    architectural floor rather than a learned fact. ``cost_fn`` serves only
    these reads (``q_values``, ``v_values``); the bootstrap targets floor
    their successors with the labels stored beside the rows instead.
    """

    h_min: float = -1.0
    h_max: float = 1.0
    cost_fn: Predicate | None = None

    def floor_values(self, s: np.ndarray) -> np.ndarray:
        s = np.atleast_2d(np.asarray(s, dtype=float))
        if self.cost_fn is None:
            return np.full(len(s), self.h_min)
        return np.where(cost_labels(self.cost_fn, s) > 0, self.h_max, self.h_min)

    def q_values(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        return np.maximum(self.floor_values(s), super().q_values(s, a))

    def v_values(self, s: np.ndarray) -> np.ndarray:
        return np.maximum(self.floor_values(s), super().v_values(s))


def make_feasibility_critic(env: HardCMDP, dataset: OfflineDataset,
                            cfg: LearnSection, seed: int = 0,
                            cost_fn: Predicate | None = None
                            ) -> FeasibilityCritic:
    if env.is_tabular:
        state_feat = onehot_state_featurizer(env)
        action_feat = onehot_action_featurizer(env)
    else:
        state_feat = normalized_featurizer(dataset.s)
        action_feat = normalized_featurizer(dataset.a)
    # Start the value surface at h_min, mirroring the tabular iteration:
    # safe regions are then already at their fixed point and only the
    # doomed region has to propagate upward.
    return FeasibilityCritic.fresh(
        state_feat, action_feat, cfg.hidden, seed, "critic-init", ("qh", "vh"),
        out_bias=env.h_min, lr=cfg.critic_lr, target_rate=cfg.critic_target_rate,
        h_min=env.h_min, h_max=env.h_max, cost_fn=cost_fn,
    )


def _net_seed(seed: int, *labels: str) -> int:
    return int(substream(seed, *labels).integers(1 << 31))


def update_feasibility_critics(
    critic: FeasibilityCritic,
    offline: OfflineDataset,
    rollouts: Sequence[RolloutBuffer],
    steps: int,
    cfg: LearnSection,
    seed: int = 0,
    stream: tuple = (),
) -> FeasibilityCritic:
    """Run gradient steps on Q_h and V_h from offline plus rollout batches.

    The offline dataset must carry h labels (``h_s``); a missing column
    means everything sits at h_min. ``rollouts`` is the rollout window, a
    sequence of event buffers (empty: no rollouts). The buffers are read in
    place, never stacked: their rows are indexed as if concatenated in
    order, and each step makes one draw over that range, as from a stacked
    buffer. Rollout rows back up against the elite mean successors the
    rollout recorded (``RolloutBuffer.elite_next``), which every non-empty
    buffer must carry with the same (n_elites, d_s). The floor at those
    successors is the row's stored any-elite ``label`` mapped to h_max or
    h_min, the max over elites of their own floors under the predicate the
    rollout labelled with; no predicate runs here.

    The violation value in a backup differs by source: an offline row's
    ``h_s`` is its own state's label (``relabel_offline``), a rollout row's
    is its successor's any-elite label (``branched_rollout``). So offline
    targets back up h(s) and rollout targets h(s'). The critic object is
    updated in place and returned.
    """
    if len(offline) == 0:
        raise ValueError("offline batch must not be empty")
    window = [b for b in rollouts if len(b)]
    if any(b.elite_next is None for b in window):
        raise ValueError("rollout buffer has no elite_next (a saved buffer drops it)")
    shapes = {(b.elite_next.shape[0], b.elite_next.shape[2]) for b in window}
    if len(shapes) > 1:
        raise ValueError(f"rollout buffers disagree on elite_next's (n_elites, d_s): "
                         f"{sorted(shapes)}")
    gamma, tau = cfg.critic_gamma, cfg.critic_tau

    # Featurized views and labels, reused across steps. The relabeled cost
    # column is the predicate at the next state.
    feat_s = critic.state_feat(offline.s)
    feat_sa = concat([feat_s, critic.action_feat(offline.a)], axis=1)
    feat_s2 = critic.state_feat(offline.s2)
    h_s = (np.full(len(offline), critic.h_min) if offline.h_s is None
           else np.asarray(offline.h_s, dtype=float))
    h_s2 = np.where(offline.cost > 0, critic.h_max, critic.h_min).astype(float)
    if window:
        # Per buffer: featurized rows, labels, the elite means as a
        # (rows, n_elites, d_s) view and the successor floor from the label.
        n_elites, d_s = shapes.pop()
        roll_s = [critic.state_feat(b.s) for b in window]
        roll_sa = [concat([f, critic.action_feat(b.a)], axis=1)
                   for f, b in zip(roll_s, window)]
        roll_h = [np.asarray(b.h_s, dtype=float) for b in window]
        roll_next = [b.elite_next.swapaxes(0, 1) for b in window]
        roll_floor = [np.where(b.label > 0, critic.h_max, critic.h_min) for b in window]
        sizes = np.array([len(b) for b in window])
        ends = np.cumsum(sizes)
        starts = ends - sizes
    rng = substream(seed, "critic-update", *stream)

    for _ in range(steps):
        idx = rng.integers(len(offline), size=min(cfg.batch_size, len(offline)))
        fs = feat_s[idx]
        v2 = np.maximum(h_s2[idx], critic.v_target.forward(feat_s2[idx], cache=False)[:, 0])
        target_off = feasible_backup(h_s[idx], v2, gamma)

        if window:
            want = max(1, int(cfg.batch_size * cfg.rollout_batch_fraction))
            ridx = rng.integers(ends[-1], size=min(want, ends[-1]))
            part = np.searchsorted(ends, ridx, side="right")  # buffer of each draw
            local = ridx - starts[part]
            picks = [(at, local[at]) for at in
                     (np.flatnonzero(part == j) for j in range(len(window)))]
            succ = _gather(roll_next, picks).swapaxes(0, 1).reshape(-1, d_s)
            v_succ = critic.v_target.forward(critic.state_feat(succ), cache=False)[:, 0]
            v_next = np.maximum(_gather(roll_floor, picks),
                                v_succ.reshape(n_elites, -1).max(axis=0))
            target_roll = feasible_backup(_gather(roll_h, picks), v_next, gamma)
            q_in = concat([feat_sa[idx], _gather(roll_sa, picks)])
            q_tgt = np.concatenate([target_off, target_roll])
        else:
            q_in, q_tgt = feat_sa[idx], target_off

        if window and cfg.include_rollout_in_v:
            v_in, q_ref_in = concat([fs, _gather(roll_s, picks)]), q_in
        else:
            v_in, q_ref_in = fs, q_in[:len(fs)]
        critic.gradient_step(q_in, q_tgt, v_in, q_ref_in, tau)

    return critic


def _gather(parts: list, picks: list[tuple[np.ndarray, np.ndarray]]):
    """Rows of the concatenated ``parts`` in draw order; ``picks`` holds
    each part's (draw positions, rows in the part)."""
    if isinstance(parts[0], OneHot):
        return OneHot(_gather([p.cols for p in parts], picks), parts[0].width)
    out = np.empty((sum(len(at) for at, _ in picks), *parts[0].shape[1:]),
                   dtype=parts[0].dtype)
    for part, (at, rows) in zip(parts, picks):
        out[at] = part[rows]
    return out


# ---------------------------------------------------------------------------
# Evaluation helpers and exports
# ---------------------------------------------------------------------------


def sign_agreement(critic: FeasibilityCritic, states: np.ndarray,
                   reference_feasible: np.ndarray) -> dict:
    """Three-way agreement breakdown against a reference labeling.

    ``match`` counts identical verdicts; ``optimistic`` the states the
    critic calls feasible against an infeasible reference (the dangerous
    direction); ``pessimistic`` the opposite.
    """
    v = critic.v_values(states)
    feasible = v <= 0.0
    ref = reference_feasible.astype(bool)
    n = len(states)
    return {
        "match": float(np.mean(feasible == ref)),
        "optimistic": float(np.mean(feasible & ~ref)),
        "pessimistic": float(np.mean(~feasible & ref)),
        "n": n,
    }


def export_heatmap(path: str | Path, value_fn: Callable[[np.ndarray], np.ndarray],
                   x_range: tuple[float, float, int],
                   y_range: tuple[float, float, int],
                   fixed_tail: np.ndarray | None = None) -> None:
    """Comma-separated row-major grid of values over a 2-D state slice.

    The header line carries both axis ranges. ``fixed_tail`` appends
    constant trailing state dimensions (velocity slice for the gridworld).
    """
    x_lo, x_hi, nx = x_range
    y_lo, y_hi, ny = y_range
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(y_lo, y_hi, ny)
    tail = np.zeros(0) if fixed_tail is None else np.asarray(fixed_tail, dtype=float)
    rows = []
    for x in xs:
        states = np.stack([np.concatenate([[x, y], tail]) for y in ys])
        rows.append(value_fn(states))
    grid = np.stack(rows)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("x_lo,x_hi,nx,y_lo,y_hi,ny\n")
        fh.write(f"{x_lo:.9g},{x_hi:.9g},{nx},{y_lo:.9g},{y_hi:.9g},{ny}\n")
        for row in grid:
            fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


def save_critic(critic: QVCritic, directory: str | Path) -> None:
    """Write either critic as ``critic.npz``: nets, update rates, featurizers."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "kind": type(critic).__name__,
        "cfg": {"lr": critic.q_trainer.lr, "target_rate": critic.target_rate},
        "steps_trained": critic.steps_trained,
        "state_feat": critic.state_feat.to_meta(),
        "action_feat": critic.action_feat.to_meta(),
    }
    if isinstance(critic, FeasibilityCritic):
        meta.update(h_min=critic.h_min, h_max=critic.h_max)
    nets = {"q_net": critic.q_net, "v_net": critic.v_net,
            "q_target": critic.q_target, "v_target": critic.v_target}
    save_mlp(nets, directory / "critic.npz", meta)


def load_critic(directory: str | Path, env: HardCMDP,
                cost_fn: Predicate | None = None) -> QVCritic:
    """Rebuild a saved critic; ``cost_fn`` attaches a feasibility critic's floor."""
    nets, meta = load_mlp(Path(directory) / "critic.npz")
    parts = dict(
        nets,
        state_feat=Featurizer.from_meta(meta["state_feat"], env),
        action_feat=Featurizer.from_meta(meta["action_feat"], env, action=True),
        lr=meta["cfg"]["lr"], target_rate=meta["cfg"]["target_rate"],
        steps_trained=meta["steps_trained"],
    )
    if meta["kind"] == "FeasibilityCritic":
        return FeasibilityCritic(**parts, h_min=meta["h_min"], h_max=meta["h_max"],
                                 cost_fn=cost_fn)
    return QVCritic(**parts)
