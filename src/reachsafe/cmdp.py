"""Hard-constraint CMDP core types and the offline-transition dataset.

A hard-constraint CMDP couples a reward signal with a binary
constraint-violation function ``h``: ``h(s) = h_min <= 0`` on safe states
and ``h(s) = h_max > 0`` on violating ones, with the cost indicator
``c(s) = 1 iff h(s) > 0``. Environments are deterministic and immutable
after construction; all sampling goes through caller-supplied generators.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

SAFE_ONLY = "safe_only"
UNSAFE_SMALL = "unsafe_small"
MIXED = "mixed"

UNSAFE_SMALL_LIMIT = 100

END_INTERVENTION = "intervention"
END_HORIZON = "horizon"


# A cost predicate: states (n, d_s) -> int array (n,), 1 where flagged.
Predicate = Callable[[np.ndarray], np.ndarray]
Row = Sequence[float]  # a state or action row of the per-row step (see ``HardCMDP``)


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


# Rows per block in ``nearest_rows``: keeps the (rows, table, d) difference
# tensor at a few megabytes for the largest (245-row) state table.
_NEAREST_BLOCK = 1024


def nearest_rows(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the ``table`` row nearest to each row of ``x`` (first on ties)."""
    out = np.empty(len(x), dtype=int)
    for lo in range(0, len(x), _NEAREST_BLOCK):
        diff = x[lo:lo + _NEAREST_BLOCK, None, :] - table[None]
        out[lo:lo + _NEAREST_BLOCK] = np.argmin(np.sum(diff * diff, axis=2), axis=1)
    return out


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

    The per-row step (``transition``, ``violation``, ``reward``,
    ``initial_state``, ``clip_action``) is the opposite: rows that unpack
    into floats in, computed in Python floats with the numpy formula's
    operations in the same order, a tuple, an int or a float out; callers
    build arrays once (per dataset column, per model, per time step).
    Transcendental calls stay in numpy, so that no value moves with the libm.

    ``transitions`` is its batch-first twin, bit-equal row by row: states
    (n, d_s) and actions (n, d_a) in, successors (n, d_s) out. The tabular
    models step every state-action pair through it in one call; collection
    and evaluation keep ``transition``, since they step one row at a time
    from one random stream and an array call is slower there.
    """

    name: str
    d_s: int
    d_a: int
    action_bounds: np.ndarray  # (d_a, 2) columns lo, hi
    gamma: float
    horizon: int
    transition: Callable[[Row, Row], Row]
    transitions: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reward: Callable[[Row, Row, Row], float]
    violation: Callable[[Row], int]
    initial_state: Callable[[np.random.Generator], Row]
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
        object.__setattr__(self, "_bounds", self.action_bounds.T.tolist())  # [lows, highs]

    def h(self, s: Row) -> float:
        """Binary constraint-violation value: exactly h_min or h_max."""
        return self.h_max if self.violation(s) else self.h_min

    def cost(self, s: Row) -> int:
        return self.violation(s)

    def clip_action(self, a: Row) -> tuple[float, ...]:
        """``a`` clipped into the bounds as ``np.clip`` clips; an action of
        another length, or with a NaN or an infinity, raises ``ValueError``
        rather than be clipped onto a bound or stepped as NaN."""
        a = tuple(map(float, a))
        if len(a) != self.d_a or not all(map(math.isfinite, a)):
            raise ValueError(f"action must be finite and of length {self.d_a}, got {a}")
        lo, hi = self._bounds
        return tuple(map(min, map(max, a, lo), hi))

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


# ---------------------------------------------------------------------------
# Array artifacts: one .npz of named arrays plus a JSON ``meta`` string, read
# without pickle. Datasets, rollout buffers and model checkpoints use it.
# ---------------------------------------------------------------------------


def save_npz(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write ``arrays`` and the JSON-encoded ``meta`` to one ``.npz`` at ``path``."""
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_npz(path: str | Path, kind: str | None = None
             ) -> tuple[dict[str, np.ndarray], dict]:
    """Read a ``save_npz`` file: (arrays by name, meta).

    With ``kind``, a file whose meta names another kind is refused.
    """
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"])) if "meta" in archive.files else {}
        if kind is not None and meta.get("kind") != kind:
            raise ConfigurationError(f"{path} is not a {kind} file")
        arrays = {name: archive[name] for name in archive.files if name != "meta"}
    return arrays, meta


# Dataset columns and the dtypes a load restores.
_DATASET_DTYPES = {"s": float, "a": float, "r": float, "s2": float,
                   "done": bool, "cost": int}


def save_dataset(dataset: OfflineDataset, path: str | Path) -> None:
    """Write the columns, the tag and the collection metadata to one ``.npz``."""
    columns = {name: getattr(dataset, name) for name in _DATASET_DTYPES}
    save_npz(path, columns, {"kind": "transitions", "tag": dataset.tag,
                             "meta": dataset.meta})


def load_dataset(path: str | Path) -> OfflineDataset:
    arrays, header = load_npz(path, "transitions")
    columns = {name: np.asarray(arrays[name], dtype=dtype)
               for name, dtype in _DATASET_DTYPES.items()}
    return OfflineDataset(**columns, tag=header["tag"], meta=header["meta"])
