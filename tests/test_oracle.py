import numpy as np

from reachsafe.envs import make_double_integrator, make_hazard_gridworld
from reachsafe.oracle import compute_feasible_set_oracle
from reachsafe.tabular import build_model


def test_gridworld_without_momentum_infeasible_equals_hazards():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=0)
    oracle = compute_feasible_set_oracle(env)
    hazard_mask = np.array([env.violation(s) == 1 for s in env.states])
    assert np.array_equal(oracle.infeasible, hazard_mask)
    # Standing still is legal, so (2,1) right next to the hazard is fine.
    assert oracle.label(np.array([[2.0, 1.0]]))[0]


def test_hazard_free_grid_everything_feasible():
    env = make_hazard_gridworld(5, 5, [], momentum=0)
    oracle = compute_feasible_set_oracle(env)
    assert oracle.feasible.all()
    assert oracle.h_star == 0
    assert any("no violating state" in w for w in oracle.warnings)


def test_momentum_creates_safe_but_doomed_states():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1)
    oracle = compute_feasible_set_oracle(env)
    # Adjacent cell, moving straight into the hazard: the coast step is fatal.
    doomed = np.array([1.0, 2.0, 1.0, 0.0])
    assert not oracle.label(doomed[None])[0]
    assert env.violation(doomed) == 0
    # Same cell at rest is fine.
    assert oracle.label(np.array([[1.0, 2.0, 0.0, 0.0]]))[0]
    # Hazard cells themselves are infeasible with distance zero.
    idx = env.state_index(np.array([[2.0, 2.0, 0.0, 0.0]]))[0]
    assert oracle.distance[idx] == 0
    assert oracle.h_star >= 1


def test_oracle_is_a_fixed_point():
    env = make_hazard_gridworld(6, 4, [(2, 2), (4, 1)], momentum=1)
    oracle = compute_feasible_set_oracle(env)
    assert np.array_equal(oracle.sweep_once(), oracle.infeasible)


def test_double_integrator_feasible_fraction_and_braking_boundary():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    oracle = compute_feasible_set_oracle(env)
    frac = oracle.feasible_fraction()
    assert 0.0 < frac < 1.0

    # The analytic braking inequality |x| + v*|v|/(2 a) <= x_lim seeds the
    # boundary; oracle labels may deviate only within one grid cell of it.
    model = oracle.model
    (x_lo, x_hi, nx), (v_lo, v_hi, nv) = model.grid_ranges
    dx = (x_hi - x_lo) / (nx - 1)
    dv = (v_hi - v_lo) / (nv - 1)
    for i, s in enumerate(model.states):
        x, v = s
        outward = x * v
        margin = abs(x) + v * v / 2.0 - 1.0  # braking distance overshoot
        if abs(x) <= 1.0 and (outward <= 0 or margin < -(2 * dx + 2 * dv)):
            assert oracle.feasible[i], (x, v)
        if abs(x) > 1.0:
            assert not oracle.feasible[i]


def test_double_integrator_braking_example_states():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    oracle = compute_feasible_set_oracle(env)
    assert oracle.label(np.array([[0.0, 0.0]]))[0]
    # Fast toward the near boundary with overshooting braking distance.
    assert not oracle.label(np.array([[0.95, 0.9]]))[0]
    # On the far boundary but moving away from it.
    assert oracle.label(np.array([[-1.0, 0.1]]))[0]


def test_feasible_cells_admit_a_safe_action():
    # One-step certificate: every feasible cell has an action that stays
    # feasible, which by induction extends to sequences of any length.
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    oracle = compute_feasible_set_oracle(env)
    model = oracle.model
    ok = oracle.feasible[model.next_idx].any(axis=1)
    assert np.all(ok[oracle.feasible])


def test_distance_counts_forced_violation_steps():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1)
    oracle = compute_feasible_set_oracle(env)
    model = oracle.model
    # From any state at distance k, every action leads to distance <= k-1,
    # and some action attains exactly k-1.
    for i in range(model.n_states):
        k = oracle.distance[i]
        if k <= 0:
            continue
        succ = oracle.distance[model.next_idx[i]]
        assert np.all((succ >= 0) & (succ <= k - 1))
        assert np.any(succ == k - 1)


def test_tabular_snap_roundtrip_on_grid():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    model = build_model(env)
    idx = np.arange(0, model.n_states, 17)
    assert np.array_equal(model.index(model.states[idx]), idx)
