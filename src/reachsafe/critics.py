"""Parametric Q/V critics: the reachability pair and the reward pair.

Both pairs share one core (``QVCritic``): four networks, two optimizers
and one gradient step. The reachability pair trains on rows of one type
(``RolloutBuffer``) from two sources: the relabelled dataset transitions,
each with one successor (its next state), and the rollout window, whose
rows carry the elite mean successors the rollout recorded. Q fits squared
error against one feasible backup for every row, from the worst (largest)
target value over its successors; every violation value is a label
stored with the row, so the update calls no cost predicate. V regresses
toward Q with the reverse expectile loss, whose tau near 1 approximates
the min over actions without ever querying out-of-distribution actions.
The reward pair's TD target lives with the policy code that consumes it.
Both pairs read their settings from the configuration's ``learn`` section.
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
    architectural floor rather than a learned fact. A read given the rows'
    stored h labels (``h_s``) floors with those, and the bootstrap targets
    floor successors with the rows' stored ``label``; otherwise ``cost_fn``
    labels the rows.
    """

    h_min: float = -1.0
    h_max: float = 1.0
    cost_fn: Predicate | None = None

    def floor_values(self, s: np.ndarray) -> np.ndarray:
        s = np.atleast_2d(np.asarray(s, dtype=float))
        if self.cost_fn is None:
            return np.full(len(s), self.h_min)
        return np.where(cost_labels(self.cost_fn, s) > 0, self.h_max, self.h_min)

    def q_values(self, s: np.ndarray, a: np.ndarray,
                 h_s: np.ndarray | None = None) -> np.ndarray:
        floor = self.floor_values(s) if h_s is None else h_s
        return np.maximum(floor, super().q_values(s, a))

    def v_values(self, s: np.ndarray, h_s: np.ndarray | None = None) -> np.ndarray:
        floor = self.floor_values(s) if h_s is None else h_s
        return np.maximum(floor, super().v_values(s))


def make_feasibility_critic(env: HardCMDP, dataset: OfflineDataset,
                            cfg: LearnSection, seed: int = 0) -> FeasibilityCritic:
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
        h_min=env.h_min, h_max=env.h_max,
    )


def _net_seed(seed: int, *labels: str) -> int:
    return int(substream(seed, *labels).integers(1 << 31))


def update_feasibility_critics(
    critic: FeasibilityCritic,
    offline: RolloutBuffer,
    rollouts: Sequence[RolloutBuffer],
    steps: int,
    cfg: LearnSection,
    seed: int = 0,
    stream: tuple = (),
) -> FeasibilityCritic:
    """Run gradient steps on Q_h and V_h from rows of two sources.

    Both sources hold ``RolloutBuffer`` rows: ``offline`` the dataset's
    transitions from ``relabel_offline``, one successor each, of which a
    step draws ``batch_size``; ``rollouts`` the rollout window's event
    buffers (empty: no rollouts), of which it draws the rollout share. A
    source's non-empty buffers are read in place, their rows indexed as if
    concatenated, and must carry successors (``elite_next``) of one
    (n_elites, d_s). Every row is backed up as ``feasible_backup(h_s,
    max(floor(label), max over its successors of V_target), gamma)``; the
    floor maps the stored label to h_max or h_min, so no predicate runs.
    ``h_s`` is h(s) on offline rows and h(s') on rollout rows
    (``branched_rollout``). The critic is updated in place and returned.
    """
    if len(offline) == 0:
        raise ValueError("offline batch must not be empty")
    sources = [_Source(critic, [offline], cfg.batch_size, True)]
    window = [b for b in rollouts if len(b)]
    if window:
        share = max(1, int(cfg.batch_size * cfg.rollout_batch_fraction))
        sources.append(_Source(critic, window, share, cfg.include_rollout_in_v))
    gamma, tau, d_s = cfg.critic_gamma, cfg.critic_tau, offline.s.shape[1]
    rng = substream(seed, "critic-update", *stream)

    for _ in range(steps):
        picks = [src.draw(rng) for src in sources]
        succ = [_gather(src.next, p) for src, p in zip(sources, picks)]
        # One featurize over every source's successors, one V pass per source.
        feat_next = critic.state_feat(np.concatenate(
            [x.swapaxes(0, 1).reshape(-1, d_s) for x in succ]))
        q_parts, q_tgt, v_parts, at = [], [], [], 0
        for src, p, x in zip(sources, picks, succ):
            n, n_elites = x.shape[:2]
            v = critic.v_target.forward(feat_next[at:at + n * n_elites], cache=False)[:, 0]
            at += n * n_elites
            v_next = np.maximum(_gather(src.floor, p), v.reshape(n_elites, n).max(axis=0))
            q_tgt.append(feasible_backup(_gather(src.h_s, p), v_next, gamma))
            q_parts.append(_gather(src.feat_sa, p))
            if src.in_v:
                v_parts.append(_gather(src.feat_s, p))
        q_in, v_in = concat(q_parts), concat(v_parts)
        critic.gradient_step(q_in, np.concatenate(q_tgt), v_in, q_in[:len(v_in)], tau)

    return critic


class _Source:
    """Buffers of one row source, featurized and labelled once per update
    call; a step draws ``share`` rows, and V trains on them when ``in_v``."""

    def __init__(self, critic: FeasibilityCritic, buffers: list[RolloutBuffer],
                 share: int, in_v: bool) -> None:
        if any(b.elite_next is None for b in buffers):
            raise ValueError("rollout buffer has no elite_next (a saved buffer drops it)")
        shapes = {(b.elite_next.shape[0], b.elite_next.shape[2]) for b in buffers}
        if len(shapes) > 1:
            raise ValueError(f"rollout buffers disagree on elite_next's (n_elites, d_s): "
                             f"{sorted(shapes)}")
        self.share, self.in_v = share, in_v
        self.feat_s = [critic.state_feat(b.s) for b in buffers]
        self.feat_sa = [concat([f, critic.action_feat(b.a)], axis=1)
                        for f, b in zip(self.feat_s, buffers)]
        self.h_s = [np.asarray(b.h_s, dtype=float) for b in buffers]
        self.floor = [np.where(b.label > 0, critic.h_max, critic.h_min) for b in buffers]
        self.next = [b.elite_next.swapaxes(0, 1) for b in buffers]  # (rows, n_elites, d_s)
        self.ends = np.cumsum([len(b) for b in buffers])

    def draw(self, rng: np.random.Generator) -> list:
        """One step's draw as ``_gather`` picks."""
        idx = rng.integers(self.ends[-1], size=min(self.share, self.ends[-1]))
        if len(self.ends) == 1:
            return [(None, idx)]
        part = np.searchsorted(self.ends, idx, side="right")  # buffer of each draw
        local = idx - np.append(0, self.ends[:-1])[part]
        return [(at, local[at]) for at in
                (np.flatnonzero(part == j) for j in range(len(self.ends)))]


def _gather(parts: list, picks: list[tuple[np.ndarray | None, np.ndarray]]):
    """Rows of the concatenated ``parts`` in draw order; ``picks`` holds each
    part's (draw positions, rows in the part), positions unread for one part."""
    if len(parts) == 1:
        return parts[0][picks[0][1]]
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
