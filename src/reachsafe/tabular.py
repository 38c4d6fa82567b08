"""Finite transition models: native enumeration and grid discretization.

A ``TabularModel`` is the shared substrate for the brute-force feasible-set
oracle and exact value iteration: an explicit state list, a finite action
set, a deterministic next-state index table and the binary violation
values per state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmdp import ConfigurationError, HardCMDP
from .seeding import substream


@dataclass(frozen=True)
class TabularModel:
    """Deterministic finite-state model of an environment."""

    states: np.ndarray      # (n, d_s)
    actions: np.ndarray     # (m, d_a)
    next_idx: np.ndarray    # (n, m) int
    h: np.ndarray           # (n,) in {h_min, h_max}
    h_min: float
    h_max: float
    grid_shape: tuple | None = None
    grid_ranges: tuple | None = None

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def violating(self) -> np.ndarray:
        return self.h > 0.0

    def snap(self, s: np.ndarray) -> int:
        """Index of the model state nearest to ``s``."""
        if self.grid_shape is not None:
            return self._snap_grid(s)
        d = np.sum((self.states - np.asarray(s, dtype=float)) ** 2, axis=1)
        return int(np.argmin(d))

    def snap_many(self, s: np.ndarray) -> np.ndarray:
        s = np.atleast_2d(np.asarray(s, dtype=float))
        if self.grid_shape is not None:
            return self._snap_grid_many(s)
        d = np.sum((s[:, None, :] - self.states[None, :, :]) ** 2, axis=2)
        return np.argmin(d, axis=1)

    def _snap_grid(self, s: np.ndarray) -> int:
        return int(self._snap_grid_many(np.asarray(s, dtype=float)[None, :])[0])

    def _snap_grid_many(self, s: np.ndarray) -> np.ndarray:
        idx = 0
        for dim, (lo, hi, n) in enumerate(self.grid_ranges):
            step = (hi - lo) / (n - 1)
            k = np.clip(np.rint((s[:, dim] - lo) / step).astype(int), 0, n - 1)
            idx = idx * n + k
        return idx


def tabulate(env: HardCMDP) -> TabularModel:
    """Exact model of a natively finite environment."""
    if not env.is_tabular:
        raise ConfigurationError(f"{env.name} has no native state enumeration")
    states = env.states
    actions = env.action_set
    n, m = len(states), len(actions)
    successors = np.array([env.transition(s, a) for s in states for a in actions])
    next_idx = env.state_index(successors).reshape(n, m)
    if (next_idx < 0).any():
        raise ConfigurationError(f"{env.name} steps outside its enumerated states")
    h = np.array([env.h(s) for s in states])
    return TabularModel(states=states.copy(), actions=actions.copy(),
                        next_idx=next_idx, h=h, h_min=env.h_min, h_max=env.h_max)


def discretize(env: HardCMDP, grid: tuple | None = None) -> TabularModel:
    """Grid model of a continuous environment.

    Cell centers are the states; stepping from a center snaps the exact
    next state back to the nearest center. The declared discretized
    action set of the environment supplies the actions.
    """
    ranges = grid if grid is not None else env.state_grid
    if ranges is None:
        raise ConfigurationError(f"{env.name} declares no state grid")
    axes = [np.linspace(lo, hi, n) for lo, hi, n in ranges]
    mesh = np.meshgrid(*axes, indexing="ij")
    states = np.stack([m.ravel() for m in mesh], axis=1)
    shape = tuple(n for _, _, n in ranges)
    actions = env.action_set
    n, m = len(states), len(actions)

    model = TabularModel(states=states, actions=actions,
                         next_idx=np.zeros((n, m), dtype=int),
                         h=np.array([env.h(s) for s in states]),
                         h_min=env.h_min, h_max=env.h_max,
                         grid_shape=shape, grid_ranges=tuple(ranges))
    next_idx = np.zeros((n, m), dtype=int)
    for j in range(m):
        nxt = np.stack([env.transition(states[i], actions[j]) for i in range(n)])
        next_idx[:, j] = model._snap_grid_many(nxt)
    object.__setattr__(model, "next_idx", next_idx)
    return model


def build_model(env: HardCMDP, grid: tuple | None = None) -> TabularModel:
    return tabulate(env) if env.is_tabular else discretize(env, grid)


def perturbed_models(model: TabularModel, n_extra: int, seed: int,
                     shift: int = 1) -> list[TabularModel]:
    """A calibrated synthetic ensemble: the true model plus perturbations.

    Each perturbed member redirects every transition to a random state
    within ``shift`` index steps of the true next state, so the true
    model always remains one member of the returned set.
    """
    members = [model]
    n = model.n_states
    for k in range(n_extra):
        rng = substream(seed, "perturbed-model", k)
        offsets = rng.integers(-shift, shift + 1, size=model.next_idx.shape)
        shifted = np.clip(model.next_idx + offsets, 0, n - 1)
        members.append(TabularModel(
            states=model.states, actions=model.actions, next_idx=shifted,
            h=model.h, h_min=model.h_min, h_max=model.h_max,
            grid_shape=model.grid_shape, grid_ranges=model.grid_ranges,
        ))
    return members
