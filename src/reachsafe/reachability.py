"""The feasible Bellman backup and exact tabular reachability critics.

The backup ``(1-g) h(s) + g max(h(s), V(s'))`` with ``V(s) = min_a Q(s,a)``
is written once, in ``feasible_backup``; its fixed point certifies
feasibility by sign. The conservative operator passes the max of the
successor values over a set (ensemble members, every successor observed
for a pair), which can only raise values and hence never calls a doomed
state safe for lack of model confidence. Exact value iteration over a
tabular model, the fixed point over observed pairs and the learned
critics' Q targets all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def apply_operator(q: np.ndarray, h: np.ndarray, next_sets: np.ndarray,
                   gamma: float) -> np.ndarray:
    """One sweep of the feasible backup over all pairs.

    ``next_sets`` has shape (n_members, n_states, n_actions); each pair
    backs up against the max of its successor values across the members.
    """
    v_next = q.min(axis=1)[next_sets].max(axis=0)
    return feasible_backup(h[:, None], v_next, gamma)


def tabular_value_iteration(
    model: TabularModel | Sequence[TabularModel],
    gamma: float = 0.99,
    tol: float = 1e-9,
    max_iters: int = 200_000,
) -> TabularCritic:
    """Iterate the feasible operator to its fixed point with exact minima.

    One model gives the standard operator; a list of members (shared
    state and action sets) gives the conservative one, which coincides
    with the standard operator for a single member. Convergence is a
    sup-norm test; the operator is a gamma-contraction, so failure to
    converge within ``max_iters`` indicates a bug and raises.
    """
    members = [model] if isinstance(model, TabularModel) else list(model)
    if not members:
        raise ValueError("need at least one model")
    base = members[0]
    next_sets = np.stack([m.next_idx for m in members])

    q = np.full((base.n_states, base.n_actions), float(base.h_min))
    for _ in range(max_iters):
        q_new = apply_operator(q, base.h, next_sets, gamma)
        delta = float(np.max(np.abs(q_new - q)))
        q = q_new
        if delta < tol:
            return TabularCritic(model=base, q=q, gamma=gamma)
    raise AssertionError(
        f"value iteration failed to reach tol={tol} within {max_iters} sweeps; "
        "the operator implementation violates the contraction"
    )


# ---------------------------------------------------------------------------
# Dataset-fitted tabular critic (observed pairs only)
# ---------------------------------------------------------------------------


@dataclass
class FittedTabularCritic:
    """Reachability critic restricted to state-action pairs seen in data.

    Values default to the state's own h label where nothing was observed;
    V takes the exact minimum over observed actions.
    """

    model: TabularModel
    q: dict            # (state_idx, action_idx) -> value
    v_arr: np.ndarray  # (n_states,)
    gamma: float

    def v(self, state_idx: int) -> float:
        return float(self.v_arr[state_idx])


def fit_tabular_critic(
    model: TabularModel,
    h_labels: np.ndarray,
    offline_pairs: Sequence[tuple[int, int, int]],
    rollout_pairs: Sequence[tuple[int, int, Sequence[int]]] = (),
    gamma: float = 0.95,
    tol: float = 1e-10,
    max_iters: int = 100_000,
) -> FittedTabularCritic:
    """Exact fixed point over observed pairs.

    ``offline_pairs`` are (state, action, next_state) index triples;
    ``rollout_pairs`` are (state, action, successor-candidates) triples.
    Each pair backs up against the worst (largest) value of every
    successor observed for it, from either source. Unobserved states
    keep ``V(s) = h(s)``.
    """
    edges = np.array(list(offline_pairs)
                     + [(s, a, n) for s, a, cand in rollout_pairs for n in cand],
                     dtype=int).reshape(-1, 3)
    keys, pair = np.unique(edges[:, :2], axis=0, return_inverse=True)
    pair, states, succ = pair.reshape(-1), keys[:, 0], edges[:, 2]

    h = np.asarray(h_labels, dtype=float)
    v = h.copy()
    q = np.full(len(keys), float(model.h_min))
    for _ in range(max_iters):
        v_next = np.full(len(keys), -np.inf)
        np.maximum.at(v_next, pair, v[succ])
        new_q = feasible_backup(h[states], v_next, gamma)
        new_v = h.copy()
        new_v[states] = np.inf
        np.minimum.at(new_v, states, new_q)
        delta = max(float(np.max(np.abs(new_q - q), initial=0.0)),
                    float(np.max(np.abs(new_v - v))))
        q, v = new_q, new_v
        if delta < tol:
            break
    else:
        raise AssertionError("fitted critic failed to converge; contraction bug")

    return FittedTabularCritic(
        model=model, q={(int(s), int(a)): float(x) for (s, a), x in zip(keys, q)},
        v_arr=v, gamma=gamma)
