"""Brute-force feasible-set computation by backward reachability.

A state is infeasible when every action sequence from it is doomed: the
sweep marks a state once all of its actions lead into the already-marked
set, and repeats until no label changes. The sweep index at which a state
is marked equals the longest violation postponement any policy can
achieve from it, which later doubles as an exact per-state oracle for
the reachability value functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cmdp import HardCMDP
from .tabular import TabularModel, build_model


@dataclass
class FeasibleSetOracle:
    """Ground-truth feasibility labels over a finite state set."""

    model: TabularModel
    feasible: np.ndarray       # (n,) bool
    distance: np.ndarray       # (n,) int; sweeps to forced violation, -1 if feasible
    h_star: int                # max finite distance (0 when nothing violates)
    n_sweeps: int
    warnings: list[str] = field(default_factory=list)

    @property
    def infeasible(self) -> np.ndarray:
        return ~self.feasible

    def feasible_fraction(self) -> float:
        return float(self.feasible.mean()) if len(self.feasible) else 1.0

    def label(self, states: np.ndarray) -> np.ndarray:
        """Feasibility of the model state nearest to each of ``states`` (n, d_s)."""
        return self.feasible[self.model.index(states)]

    def sweep_once(self) -> np.ndarray:
        """One more backward sweep; returns the resulting infeasible mask.

        Used by tests to confirm the fixed point: the result must equal
        the stored labels.
        """
        infeasible = ~self.feasible
        doomed = np.all(infeasible[self.model.next_idx], axis=1)
        return infeasible | doomed


def compute_feasible_set_oracle(env: HardCMDP) -> FeasibleSetOracle:
    """Exhaustive backward-reachability labeling of ``env``'s state set.

    Sweeps run to the fixed point: each sweep that does not stop marks a
    new state, so there are at most as many as states. A warning is
    recorded when the grid cannot separate the safe and unsafe regions.
    """
    model = build_model(env)
    infeasible = model.violating().copy()
    distance = np.where(infeasible, 0, -1)
    warnings: list[str] = []

    sweeps = 0
    while (doomed := np.all(infeasible[model.next_idx], axis=1) & ~infeasible).any():
        sweeps += 1
        infeasible |= doomed
        distance[doomed] = sweeps

    if not model.violating().any():
        warnings.append("no violating state on the grid; h is h_min everywhere")
    elif infeasible.all():
        warnings.append("grid too coarse: every cell is infeasible")

    reached_h_star = int(distance.max(initial=0))
    return FeasibleSetOracle(model=model, feasible=~infeasible, distance=distance,
                             h_star=reached_h_star, n_sweeps=sweeps, warnings=warnings)
