"""Branched model rollouts and conservative relabeling of offline data.

Rollouts branch off dataset states with exploration noise on the policy
action, step through the learned ensemble, and return as buffer rows the
steps of every branch whose conservative labels ever fire. A step is
flagged when any elite's mean successor is flagged (the any-elite rule),
the label the rows carry into critic training. Relabelled offline
transitions are critic rows of the same type.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .cmdp import (
    ConfigurationError,
    OfflineDataset,
    Predicate,
    cost_labels,
    load_npz,
    save_npz,
)
from .dynamics import (
    EnsembleDynamics,
    conservative_cost_label_batch,
    sample_next_batch,
)
from .seeding import ordered_map, substream


@dataclass
class RolloutConfig:
    """Branched-rollout schedule of one event.

    The event samples ``batch`` start states and rolls each for ``horizon``
    steps, repeated ``epochs`` times. The values are the ``learn``
    section's ``rollout_*`` keys, which ``ExperimentConfig.validate``
    checks at load.
    """

    batch: int
    horizon: int
    epochs: int
    noise_std: float


@dataclass
class RolloutBuffer:
    """Critic rows as columns: rollout steps, with one successor per elite,
    or offline transitions (``relabel_offline``), with one, the dataset's
    ``s2``, and their own index as ``origin``. ``h_s`` is h(s') on rollout
    rows and h(s) on offline rows. ``elite_next`` is not saved and loads as None.
    """

    s: np.ndarray                          # (rows, d_s)
    a: np.ndarray                          # (rows, d_a)
    label: np.ndarray                      # (rows,) label of the successors (any-elite on
                                           # rollout rows): the backup's successor floor
    h_s: np.ndarray                        # (rows,) h_max or h_min
    origin: np.ndarray                     # (rows,) index into the start-state pool
    elite_next: np.ndarray | None = None   # (n_elites, rows, d_s) successors

    def __post_init__(self) -> None:
        n = len(self.label)
        rows = {name: len(getattr(self, name)) for name in ("s", "a", "h_s", "origin")}
        if self.elite_next is not None:
            shape = self.elite_next.shape
            if len(shape) != 3 or shape[2:] != self.s.shape[1:]:
                raise ConfigurationError(f"column elite_next has shape {shape}, not "
                                         f"(n_elites, rows, d_s) for s of shape {self.s.shape}")
            rows["elite_next"] = shape[1]
        for name, m in rows.items():
            if m != n:
                raise ConfigurationError(f"column {name} has {m} rows, label has {n}")

    def __len__(self) -> int:
        return len(self.label)


def branched_rollout(
    policy: Callable[[np.ndarray], np.ndarray],
    dataset: OfflineDataset,
    model: EnsembleDynamics,
    cost_fn: Predicate,
    cfg: RolloutConfig,
    seed: int,
    h_min: float,
    h_max: float,
    event: int = 0,
    *,
    action_bounds: np.ndarray,
) -> RolloutBuffer:
    """Run one rollout event; return the steps of its violating branches.

    ``policy`` maps a batch of states to a batch of actions. Start states
    are drawn uniformly without replacement (per epoch) from the dataset's
    states plus its episode terminals. A kept branch gives ``horizon`` rows
    with one ``origin``, the first its start state. A row's label is the
    conservative any-elite label of its successor, and ``h_s`` maps it to
    h_max or h_min: h(s'), where ``relabel_offline``'s rows hold h(s). Noise,
    elite choice and Gaussian sampling all derive from (seed, event,
    epoch), so results do not depend on scheduling: the epochs run as
    independent units through ``ordered_map``, and their rows are stacked
    in epoch order. ``policy`` and ``cost_fn`` may therefore be called
    from several threads at once.
    Noisy actions are clipped to ``action_bounds`` ((d_a, 2) lo/hi).
    """
    if len(dataset) == 0:
        raise ConfigurationError("cannot roll out from an empty dataset")
    pool = dataset.rollout_start_states()
    lo, hi = action_bounds[:, 0], action_bounds[:, 1]
    d_s, d_a, n_elites = pool.shape[1], model.d_a, model.n_elites

    def run_epoch(epoch: int) -> RolloutBuffer:
        rng = substream(seed, "rollout", event, epoch)
        n = min(cfg.batch, len(pool))
        starts = rng.choice(len(pool), size=n, replace=False)
        s = pool[starts].copy()
        # Branch-major steps, so a kept branch's steps are adjacent rows.
        steps_s = np.zeros((n, cfg.horizon, d_s))
        steps_a = np.zeros((n, cfg.horizon, d_a))
        labels = np.zeros((n, cfg.horizon), dtype=int)
        steps_m = np.zeros((n_elites, n, cfg.horizon, d_s))
        for t in range(cfg.horizon):
            a = np.atleast_2d(policy(s))
            if cfg.noise_std > 0:
                a = a + rng.normal(scale=cfg.noise_std, size=a.shape)
            a = np.clip(a, lo, hi)
            steps_s[:, t] = s
            steps_a[:, t] = a
            means, variances = model.elite_predictions(s, a)
            steps_m[:, :, t] = means
            labels[:, t] = conservative_cost_label_batch(means, cost_fn)
            if t + 1 < cfg.horizon:  # the last step's successor is never read
                s = sample_next_batch(means, variances, rng)
        kept = labels.any(axis=1)
        label = labels[kept].reshape(-1)
        return RolloutBuffer(
            s=steps_s[kept].reshape(-1, d_s), a=steps_a[kept].reshape(-1, d_a),
            label=label, h_s=np.where(label > 0, h_max, h_min),
            origin=np.repeat(starts[kept], cfg.horizon),
            elite_next=steps_m[:, kept].reshape(n_elites, -1, d_s))

    return stack_buffers(ordered_map(run_epoch, range(cfg.epochs)))


def stack_buffers(buffers: Sequence[RolloutBuffer]) -> RolloutBuffer:
    """Row-concatenation of buffers, in order. The elite means are stacked
    only when every buffer carries them; otherwise the result has None.

    Its users are a rollout event, which stacks its epochs, and the learn
    stage's saved buffer; the critic update reads the rollout window's
    buffers in place instead.
    """
    columns = {name: np.concatenate([getattr(b, name) for b in buffers])
               for name in _BUFFER_COLUMNS}
    elite = [b.elite_next for b in buffers]
    elite_next = None if any(e is None for e in elite) else np.concatenate(elite, axis=1)
    return RolloutBuffer(**columns, elite_next=elite_next)


def relabel_offline(dataset: OfflineDataset, cost_fn: Predicate | None,
                    h_min: float, h_max: float) -> RolloutBuffer:
    """The dataset's transitions as critic rows, each with one successor,
    ``s2``: ``label`` is ``cost_fn`` at ``s2`` and ``h_s`` the h label of
    ``s``, or without ``cost_fn`` (``no-relabel``) the dataset's cost and
    h_min. Row i starts from state i of the start pool; no column is copied."""
    if cost_fn is None:
        label, h_s = dataset.cost, np.full(len(dataset), h_min)
    else:
        label = cost_labels(cost_fn, dataset.s2)
        h_s = np.where(cost_labels(cost_fn, dataset.s) > 0, h_max, h_min)
    return RolloutBuffer(s=dataset.s, a=dataset.a, label=label, h_s=h_s,
                         origin=np.arange(len(dataset)), elite_next=dataset.s2[None])


_BUFFER_COLUMNS = ("s", "a", "label", "h_s", "origin")


def save_rollout_buffer(buffer: RolloutBuffer, path: str | Path,
                        meta: dict | None = None) -> None:
    """One ``.npz`` of the buffer columns plus a JSON meta string."""
    save_npz(path, {name: getattr(buffer, name) for name in _BUFFER_COLUMNS},
             {"kind": "rollout-buffer", "meta": meta or {}, "n": len(buffer)})


def load_rollout_buffer(path: str | Path) -> RolloutBuffer:
    arrays, _ = load_npz(path, "rollout-buffer")
    return RolloutBuffer(**{name: arrays[name] for name in _BUFFER_COLUMNS})
