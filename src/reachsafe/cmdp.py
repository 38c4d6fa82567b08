"""Hard-constraint CMDP core types and the offline-transition dataset.

A hard-constraint CMDP couples a reward signal with a binary
constraint-violation function ``h``: ``h(s) = h_min <= 0`` on safe states
and ``h(s) = h_max > 0`` on violating ones, with the cost indicator
``c(s) = 1 iff h(s) > 0``. Environments are deterministic and immutable
after construction; all sampling goes through caller-supplied generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SAFE_ONLY = "safe_only"
UNSAFE_SMALL = "unsafe_small"
MIXED = "mixed"

UNSAFE_SMALL_LIMIT = 100

END_INTERVENTION = "intervention"
END_HORIZON = "horizon"


# A cost predicate: states (n, d_s) -> int array (n,), 1 where flagged.
Predicate = Callable[[np.ndarray], np.ndarray]


class ConfigurationError(ValueError):
    """Raised when an environment or dataset is constructed inconsistently."""


def require_finite(x: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` when ``x`` holds a NaN or an infinity."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")


def cost_labels(predicate: Predicate, states: np.ndarray) -> np.ndarray:
    """Evaluate a batch-first predicate on ``states``: an int 0/1 array (n,).

    Every predicate call goes through here, so a predicate that breaks
    the contract (such as a per-row ``lambda s: 0`` that would broadcast
    one scalar over the batch) or a non-finite state fails loudly.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError(f"predicate states must have shape (n, d_s), got {states.shape}")
    require_finite(states, "predicate states")
    out = np.asarray(predicate(states))
    if out.shape != (len(states),):
        raise ValueError(
            f"predicate returned shape {out.shape} for {len(states)} states; "
            f"expected ({len(states)},)")
    return (out != 0).astype(int)


@dataclass(frozen=True)
class HardCMDP:
    """Deterministic hard-constraint CMDP.

    Fields beyond the core tuple support the tabular oracles and the
    parametric learners:

    - ``action_set``: declared finite action grid used by backward
      reachability and exact tabular backups (continuous envs discretize,
      discrete envs enumerate natively).
    - ``states``/``state_index``: exact state enumeration for natively
      finite environments; ``None`` for continuous ones. ``state_index``
      is batch-first: states of shape (n, d_s) in, an int array of shape
      (n,) out, holding each rounded row's position in ``states`` or -1
      for a row that is no enumerated state.
    - ``margin_predicate``: builds a state predicate flagging everything
      within ``margin`` of the violating region. ``margin == 0``
      reproduces the true cost indicator; conservativeness grows
      monotonically with the margin.

    Cost predicates (``Predicate``), whether built by ``margin_predicate``
    or compiled from generated source, are batch-first too: they take
    states of shape (n, d_s) and return an int array of shape (n,) with
    1 where a state is flagged. Callers evaluate them through
    ``cost_labels``, which enforces that contract.
    """

    name: str
    d_s: int
    d_a: int
    action_bounds: np.ndarray  # (d_a, 2) columns lo, hi
    gamma: float
    horizon: int
    transition: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reward: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    violation: Callable[[np.ndarray], int]
    initial_state: Callable[[np.random.Generator], np.ndarray]
    action_set: np.ndarray  # (n_actions, d_a)
    h_min: float = -1.0
    h_max: float = 1.0
    states: np.ndarray | None = None
    state_index: Callable[[np.ndarray], np.ndarray] | None = None
    margin_predicate: Callable[[float], Predicate] | None = None
    state_grid: tuple | None = None  # ((lo, hi, n) per dim) for continuous envs
    obs_fields: tuple[str, ...] = ()
    task_text: str = ""
    cost_text: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.h_min > 0.0 or self.h_max <= 0.0:
            raise ConfigurationError(
                f"need h_min <= 0 < h_max, got h_min={self.h_min}, h_max={self.h_max}"
            )
        if self.horizon < 1:
            raise ConfigurationError("horizon must be positive")

    def h(self, s: np.ndarray) -> float:
        """Binary constraint-violation value: exactly h_min or h_max."""
        return self.h_max if self.violation(s) else self.h_min

    def cost(self, s: np.ndarray) -> int:
        return int(self.violation(s))

    def clip_action(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float).reshape(self.d_a)
        return np.clip(a, self.action_bounds[:, 0], self.action_bounds[:, 1])

    @property
    def is_tabular(self) -> bool:
        return self.states is not None


@dataclass
class OfflineDataset:
    """Column-oriented transition store.

    ``tag`` encodes the collection contract: ``safe_only`` datasets carry
    no cost-1 transition, ``unsafe_small`` ones hold at most 100
    transitions, all with cost 1. Episode ends are kept in ``meta``
    under ``episode_ends`` with their reason, so learners can
    distinguish horizon exhaustion from intervention truncation.
    """

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s2: np.ndarray
    done: np.ndarray
    cost: np.ndarray
    tag: str
    meta: dict = field(default_factory=dict)
    h_s: np.ndarray | None = None  # attached by relabeling; h label of s

    def __post_init__(self) -> None:
        n = len(self.r)
        for name in ("s", "a", "s2", "done", "cost"):
            if len(getattr(self, name)) != n:
                raise ConfigurationError(f"column {name} length mismatch")
        self.validate_tag()

    def __len__(self) -> int:
        return len(self.r)

    def validate_tag(self) -> None:
        if self.tag == SAFE_ONLY and len(self) and int(self.cost.max(initial=0)) != 0:
            raise ConfigurationError("safe_only dataset contains a cost-1 transition")
        if self.tag == UNSAFE_SMALL and len(self) > UNSAFE_SMALL_LIMIT:
            raise ConfigurationError(
                f"unsafe_small dataset exceeds {UNSAFE_SMALL_LIMIT} transitions"
            )

    def episode_end_indices(self, reason: str | None = None) -> list[int]:
        ends = self.meta.get("episode_ends", [])
        return [e["index"] for e in ends if reason is None or e["reason"] == reason]

    def rollout_start_states(self) -> np.ndarray:
        """States from which branched rollouts may start.

        The ``s`` column plus every episode-terminal next state; terminal
        states only ever appear as an ``s2``, yet the intervention
        terminals are exactly the near-violation states rollouts must probe.
        """
        ends = self.episode_end_indices()
        if not ends:
            return self.s.copy()
        return np.concatenate([self.s, self.s2[np.asarray(ends, dtype=int)]], axis=0)

    def subset(self, idx: np.ndarray) -> "OfflineDataset":
        return OfflineDataset(
            s=self.s[idx], a=self.a[idx], r=self.r[idx], s2=self.s2[idx],
            done=self.done[idx], cost=self.cost[idx], tag=MIXED,
            meta={"parent": self.meta.get("env", ""), "note": "subset"},
            h_s=None if self.h_s is None else self.h_s[idx],
        )


def empty_dataset(env: HardCMDP, tag: str, seed: int, meta: dict | None = None) -> OfflineDataset:
    base = {
        "env": env.name, "d_s": env.d_s, "d_a": env.d_a,
        "tag": tag, "seed": seed, "episode_ends": [],
    }
    if meta:
        base.update(meta)
    return OfflineDataset(
        s=np.zeros((0, env.d_s)), a=np.zeros((0, env.d_a)),
        r=np.zeros(0), s2=np.zeros((0, env.d_s)),
        done=np.zeros(0, dtype=bool), cost=np.zeros(0, dtype=int),
        tag=tag, meta=base,
    )


def save_dataset(dataset: OfflineDataset, path: str | Path) -> None:
    """Write the line-delimited transition format.

    First line is a JSON header with d_s, d_a, env name, tag, seed and
    collection metadata; each further line is one transition with fields
    s, a, r, s2, done, c (plus origin for rollout buffers).
    """
    path = Path(path)
    header = {
        "kind": "transitions",
        "d_s": int(dataset.meta.get("d_s", dataset.s.shape[1] if dataset.s.size else 0)),
        "d_a": int(dataset.meta.get("d_a", dataset.a.shape[1] if dataset.a.size else 0)),
        "env": dataset.meta.get("env", ""),
        "tag": dataset.tag,
        "seed": dataset.meta.get("seed", None),
        "meta": {k: v for k, v in dataset.meta.items()
                 if k not in ("env", "d_s", "d_a", "tag", "seed")},
    }
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for i in range(len(dataset)):
            row = {
                "s": [float(x) for x in dataset.s[i]],
                "a": [float(x) for x in dataset.a[i]],
                "r": float(dataset.r[i]),
                "s2": [float(x) for x in dataset.s2[i]],
                "done": int(dataset.done[i]),
                "c": int(dataset.cost[i]),
            }
            if dataset.h_s is not None:
                row["h_s"] = float(dataset.h_s[i])
            fh.write(json.dumps(row) + "\n")


def load_dataset(path: str | Path) -> OfflineDataset:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "transitions":
            raise ConfigurationError(f"{path} is not a transition file")
        rows = [json.loads(line) for line in fh if line.strip()]
    d_s, d_a = int(header["d_s"]), int(header["d_a"])
    n = len(rows)
    ds = OfflineDataset(
        s=np.array([r["s"] for r in rows], dtype=float).reshape(n, d_s),
        a=np.array([r["a"] for r in rows], dtype=float).reshape(n, d_a),
        r=np.array([r["r"] for r in rows], dtype=float),
        s2=np.array([r["s2"] for r in rows], dtype=float).reshape(n, d_s),
        done=np.array([r["done"] for r in rows], dtype=bool),
        cost=np.array([r["c"] for r in rows], dtype=int),
        tag=header["tag"],
        meta={"env": header.get("env", ""), "d_s": d_s, "d_a": d_a,
              "tag": header["tag"], "seed": header.get("seed"),
              **header.get("meta", {})},
    )
    if rows and "h_s" in rows[0]:
        ds.h_s = np.array([r["h_s"] for r in rows], dtype=float)
    return ds

