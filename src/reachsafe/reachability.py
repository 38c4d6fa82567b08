"""The feasible Bellman backup and exact tabular reachability critics.

The backup ``(1-g) h(s) + g max(h(s), V(s'))`` with ``V(s) = min_a Q(s,a)``
is written once, in ``feasible_backup``; its fixed point certifies
feasibility by sign. The conservative operator passes the max of the
successor values over the ensemble's elite successors, which can only
raise values and hence never calls a doomed state safe for lack of model
confidence. Exact value iteration over a tabular model and the learned
critics' Q targets both call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tabular import TabularModel


def feasible_backup(h, v_next, gamma: float):
    """The feasible backup of violation values ``h``, elementwise.

    ``v_next`` is the successor value, or for the conservative backup the
    max over a successor set.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    return (1.0 - gamma) * h + gamma * np.maximum(h, v_next)


def gamma_threshold(h_min: float, h_max: float, h_star: int) -> float:
    """Smallest discount for which every doomed state gets a positive value.

    Any ``gamma`` strictly above ``(h_min / (h_min - h_max)) ** (1 / h_star)``
    makes the violation-distance lower bound
    ``h_min + gamma**h_star (h_max - h_min)`` positive.
    """
    if not (h_min < 0.0 < h_max):
        raise ValueError(f"need h_min < 0 < h_max, got {h_min}, {h_max}")
    if h_star < 1:
        raise ValueError("h_star must be at least 1")
    return float((h_min / (h_min - h_max)) ** (1.0 / h_star))


def reverse_expectile_loss(u, tau: float):
    """Asymmetric squared loss |tau - 1(u > 0)| u^2.

    With ``tau`` near 1, positive residuals (target above the fit) are
    nearly free while negative ones are expensive, so the minimizer drifts
    toward the minimum of the regressed target.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0,1), got {tau}")
    u = np.asarray(u, dtype=float)
    weight = np.abs(tau - (u > 0.0).astype(float))
    out = weight * u * u
    return float(out) if out.ndim == 0 else out


def reverse_expectile_grad(u, tau: float):
    """d/du of reverse_expectile_loss (u is target - fit everywhere here)."""
    u = np.asarray(u, dtype=float)
    weight = np.abs(tau - (u > 0.0).astype(float))
    return 2.0 * weight * u


# ---------------------------------------------------------------------------
# Exact tabular value iteration
# ---------------------------------------------------------------------------


@dataclass
class TabularCritic:
    """Fixed point of a reachability operator over a finite model."""

    model: TabularModel
    q: np.ndarray            # (n_states, n_actions)
    gamma: float

    def v(self) -> np.ndarray:
        return self.q.min(axis=1)

    def feasible_mask(self) -> np.ndarray:
        return self.v() <= 0.0


def apply_operator(q: np.ndarray, h: np.ndarray, next_idx: np.ndarray,
                   gamma: float) -> np.ndarray:
    """One sweep of the feasible backup over all pairs.

    ``next_idx`` (n_states, n_actions) is the successor row of each pair.
    """
    return feasible_backup(h[:, None], q.min(axis=1)[next_idx], gamma)


def tabular_value_iteration(
    model: TabularModel,
    gamma: float = 0.99,
    tol: float = 1e-9,
    max_iters: int = 200_000,
) -> TabularCritic:
    """Iterate the feasible operator to its fixed point with exact minima.

    Convergence is a sup-norm test; the operator is a gamma-contraction, so
    failure to converge within ``max_iters`` indicates a bug and raises.
    """
    q = np.full((model.n_states, model.n_actions), float(model.h_min))
    for _ in range(max_iters):
        q_new = apply_operator(q, model.h, model.next_idx, gamma)
        delta = float(np.max(np.abs(q_new - q)))
        q = q_new
        if delta < tol:
            return TabularCritic(model=model, q=q, gamma=gamma)
    raise AssertionError(
        f"value iteration failed to reach tol={tol} within {max_iters} sweeps; "
        "the operator implementation violates the contraction"
    )
