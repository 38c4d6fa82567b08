"""Finite transition models: native enumeration and grid discretization.

A ``TabularModel`` is the shared substrate for the brute-force feasible-set
oracle and exact value iteration: an explicit state list, a finite action
set, a deterministic next-state index table and the binary violation
values per state. ``TabularModel.index`` is the one map from arbitrary
states to model rows: the grid formula for a discretized model, the
nearest enumerated row otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmdp import ConfigurationError, HardCMDP, nearest_rows, require_finite


@dataclass(frozen=True)
class TabularModel:
    """Deterministic finite-state model of an environment."""

    states: np.ndarray      # (n, d_s)
    actions: np.ndarray     # (m, d_a)
    next_idx: np.ndarray    # (n, m) int
    h: np.ndarray           # (n,) in {h_min, h_max}
    h_min: float
    h_max: float
    grid_ranges: tuple | None = None   # ((lo, hi, n) per dim) for a grid model

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def violating(self) -> np.ndarray:
        return self.h > 0.0

    def index(self, states: np.ndarray) -> np.ndarray:
        """Row of the model state nearest to each of ``states`` (n, d_s); a
        NaN or infinite state raises."""
        states = np.asarray(states, dtype=float)
        if self.grid_ranges is None:
            require_finite(states, "states")
            return nearest_rows(self.states, states)
        return _grid_rows(self.grid_ranges, states)


def _grid_rows(ranges: tuple, states: np.ndarray) -> np.ndarray:
    """Row-major index of the nearest grid center, clipped into the grid. A
    NaN or infinite state raises; the int cast and clip would hide it."""
    require_finite(states, "states")
    idx = 0
    for dim, (lo, hi, n) in enumerate(ranges):
        step = (hi - lo) / (n - 1)
        k = np.clip(np.rint((states[:, dim] - lo) / step).astype(int), 0, n - 1)
        idx = idx * n + k
    return idx


def _step_all(env: HardCMDP, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Row i*m + j: ``states[i]`` stepped with ``actions[j]``, in one call."""
    n, m = len(states), len(actions)
    return env.transitions(np.repeat(states, m, axis=0), np.tile(actions, (n, 1)))


def tabulate(env: HardCMDP) -> TabularModel:
    """Exact model of a natively finite environment."""
    if not env.is_tabular:
        raise ConfigurationError(f"{env.name} has no native state enumeration")
    states = env.states
    actions = env.action_set
    n, m = len(states), len(actions)
    next_idx = env.state_index(_step_all(env, states, actions)).reshape(n, m)
    if (next_idx < 0).any():
        raise ConfigurationError(f"{env.name} steps outside its enumerated states")
    h = np.array([env.h(s) for s in states.tolist()])
    return TabularModel(states=states.copy(), actions=actions.copy(),
                        next_idx=next_idx, h=h, h_min=env.h_min, h_max=env.h_max)


def discretize(env: HardCMDP) -> TabularModel:
    """Grid model of a continuous environment.

    Cell centers are the states; stepping from a center snaps the exact
    next state back to the nearest center. The declared discretized
    action set of the environment supplies the actions.
    """
    ranges = env.state_grid
    if ranges is None:
        raise ConfigurationError(f"{env.name} declares no state grid")
    axes = [np.linspace(lo, hi, n) for lo, hi, n in ranges]
    mesh = np.meshgrid(*axes, indexing="ij")
    states = np.stack([m.ravel() for m in mesh], axis=1)
    actions = env.action_set
    n, m = len(states), len(actions)
    next_idx = _grid_rows(ranges, _step_all(env, states, actions)).reshape(n, m)
    return TabularModel(states=states, actions=actions, next_idx=next_idx,
                        h=np.array([env.h(s) for s in states.tolist()]),
                        h_min=env.h_min, h_max=env.h_max, grid_ranges=tuple(ranges))


def build_model(env: HardCMDP) -> TabularModel:
    return tabulate(env) if env.is_tabular else discretize(env)
