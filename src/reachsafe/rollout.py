"""Branched model rollouts and conservative relabeling of offline data.

Rollouts branch off dataset states with exploration noise on the policy
action, step through the learned ensemble, and keep only branches whose
conservative step labels ever fire. The labels use the any-elite rule:
a step is flagged when any elite's mean successor is flagged, which is
also the label the retained data carries into critic training.
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
    """Branched-rollout schedule.

    ``frequency`` is the number of gradient steps between rollout events
    during critic training; each event samples ``batch`` start states and
    rolls each for ``horizon`` steps, repeated ``epochs`` times.
    """

    frequency: int = 2500
    batch: int = 2048
    horizon: int = 1
    epochs: int = 10
    noise_std: float = 0.1
    max_horizon: int = 10

    def __post_init__(self) -> None:
        if min(self.frequency, self.batch, self.horizon, self.epochs) < 1:
            raise ConfigurationError("rollout parameters must be positive")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be nonnegative")
        if self.horizon > self.max_horizon:
            raise ConfigurationError(
                f"rollout horizon {self.horizon} exceeds the supported "
                f"maximum of {self.max_horizon}"
            )


@dataclass
class BranchTrajectory:
    """One retained branch: (state, action, label) steps, provenance, elite means."""

    origin: int
    s: np.ndarray           # (h, d_s)
    a: np.ndarray           # (h, d_a)
    label: np.ndarray       # (h,) conservative any-elite labels
    elite_next: np.ndarray  # (n_elites, h, d_s) elite mean successors

    def __len__(self) -> int:
        return len(self.label)


def branched_rollout(
    policy: Callable[[np.ndarray], np.ndarray],
    dataset: OfflineDataset,
    model: EnsembleDynamics,
    cost_fn: Predicate,
    cfg: RolloutConfig,
    seed: int,
    event: int = 0,
    action_bounds: np.ndarray | None = None,
) -> list[BranchTrajectory]:
    """Run one rollout event; return only branches containing a violation.

    ``policy`` maps a batch of states to a batch of actions. Start states
    are drawn uniformly without replacement (per epoch) from the dataset's
    states plus its episode terminals. Noise, elite choice and Gaussian
    sampling all derive from (seed, event, epoch), so results do not
    depend on scheduling: the epochs run as independent units through
    ``ordered_map``, and their branches are returned in epoch order.
    ``policy`` and ``cost_fn`` may therefore be called from several
    threads at once. Noisy actions are clipped to ``action_bounds`` when
    given ((d_a, 2) lo/hi columns).
    """
    if len(dataset) == 0:
        raise ConfigurationError("cannot roll out from an empty dataset")
    pool = dataset.rollout_start_states()
    if action_bounds is not None:
        lo, hi = action_bounds[:, 0], action_bounds[:, 1]
    else:
        lo, hi = -np.inf, np.inf

    def run_epoch(epoch: int) -> list[BranchTrajectory]:
        rng = substream(seed, "rollout", event, epoch)
        n = min(cfg.batch, len(pool))
        starts = rng.choice(len(pool), size=n, replace=False)
        s = pool[starts].copy()
        steps_s = np.zeros((cfg.horizon, n, s.shape[1]))
        steps_a = np.zeros((cfg.horizon, n, model.d_a))
        steps_c = np.zeros((cfg.horizon, n), dtype=int)
        steps_m = np.zeros((model.n_elites, cfg.horizon, n, s.shape[1]))
        for t in range(cfg.horizon):
            a = np.atleast_2d(policy(s))
            if cfg.noise_std > 0:
                a = a + rng.normal(scale=cfg.noise_std, size=a.shape)
            a = np.clip(a, lo, hi)
            steps_s[t] = s
            steps_a[t] = a
            means, variances = model.elite_predictions(s, a)
            steps_m[:, t] = means
            steps_c[t] = conservative_cost_label_batch(means, cost_fn)
            s = sample_next_batch(means, variances, rng)
        violated = steps_c.sum(axis=0) > 0
        return [BranchTrajectory(
                    origin=int(starts[i]),
                    s=steps_s[:, i].copy(),
                    a=steps_a[:, i].copy(),
                    label=steps_c[:, i].copy(),
                    elite_next=steps_m[:, :, i].copy(),
                ) for i in np.nonzero(violated)[0]]

    return [branch for kept in ordered_map(run_epoch, range(cfg.epochs))
            for branch in kept]


@dataclass
class RolloutBuffer:
    """Flat view over retained branch steps for critic training; the rows'
    elite mean successors ``elite_next`` are not saved, and read back as None."""

    s: np.ndarray
    a: np.ndarray
    label: np.ndarray
    h_s: np.ndarray
    origin: np.ndarray
    elite_next: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.label)


def flatten_branches(branches: Sequence[BranchTrajectory], h_min: float,
                     h_max: float) -> RolloutBuffer:
    """Stack retained branches; h labels derive from the step labels."""
    if not branches:
        return stack_buffers([])
    s = np.concatenate([b.s for b in branches])
    a = np.concatenate([b.a for b in branches])
    label = np.concatenate([b.label for b in branches])
    origin = np.concatenate([np.full(len(b), b.origin) for b in branches])
    h_s = np.where(label > 0, h_max, h_min)
    elite_next = np.concatenate([b.elite_next for b in branches], axis=1)
    return RolloutBuffer(s=s, a=a, label=label, h_s=h_s, origin=origin,
                         elite_next=elite_next)


def stack_buffers(buffers: Sequence[RolloutBuffer]) -> RolloutBuffer:
    """Row-concatenation of fresh buffers (elite means included), in order,
    skipping empty ones."""
    full = [b for b in buffers if len(b)]
    if not full:
        return RolloutBuffer(s=np.zeros((0, 1)), a=np.zeros((0, 1)),
                             label=np.zeros(0, dtype=int), h_s=np.zeros(0),
                             origin=np.zeros(0, dtype=int))
    columns = {name: np.concatenate([getattr(b, name) for b in full])
               for name in _BUFFER_COLUMNS}
    elite_next = np.concatenate([b.elite_next for b in full], axis=1)
    return RolloutBuffer(**columns, elite_next=elite_next)


def relabel_offline(dataset: OfflineDataset, cost_fn: Predicate,
                    h_min: float, h_max: float) -> OfflineDataset:
    """Fresh copy of the dataset with costs and h labels from ``cost_fn``.

    The cost column becomes the predicate at the next state; ``h_s``
    carries the label of the current state for backup targets. The input
    dataset is never touched, and the operation is idempotent.
    """
    cost = cost_labels(cost_fn, dataset.s2)
    cbar_s = cost_labels(cost_fn, dataset.s)
    out = OfflineDataset(
        s=dataset.s.copy(), a=dataset.a.copy(), r=dataset.r.copy(),
        s2=dataset.s2.copy(), done=dataset.done.copy(), cost=cost,
        tag="mixed", meta={**dataset.meta, "relabeled": True,
                           "source_tag": dataset.tag},
        h_s=np.where(cbar_s > 0, h_max, h_min),
    )
    return out


_BUFFER_COLUMNS = ("s", "a", "label", "h_s", "origin")


def save_rollout_buffer(buffer: RolloutBuffer, path: str | Path,
                        meta: dict | None = None) -> None:
    """One ``.npz`` of the buffer columns plus a JSON meta string."""
    save_npz(path, {name: getattr(buffer, name) for name in _BUFFER_COLUMNS},
             {"kind": "rollout-buffer", "meta": meta or {}, "n": len(buffer)})


def load_rollout_buffer(path: str | Path) -> RolloutBuffer:
    arrays, _ = load_npz(path, "rollout-buffer")
    return RolloutBuffer(**{name: arrays[name] for name in _BUFFER_COLUMNS})
