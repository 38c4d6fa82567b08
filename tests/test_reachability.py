import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsafe.envs import make_double_integrator, make_hazard_gridworld
from reachsafe.oracle import compute_feasible_set_oracle
from reachsafe.reachability import (
    apply_operator,
    feasible_backup,
    gamma_threshold,
    reverse_expectile_grad,
    reverse_expectile_loss,
    tabular_value_iteration,
)
from reachsafe.seeding import substream
from reachsafe.tabular import tabulate


def test_feasible_backup_plugins():
    assert feasible_backup(-1.0, -1.0, 0.9) == pytest.approx(-1.0)
    assert feasible_backup(1.0, 0.3, 0.9) == pytest.approx(1.0)
    assert feasible_backup(-1.0, 1.0, 0.9) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        feasible_backup(-1.0, 0.0, 1.0)


def test_conservative_backup_plugins():
    # The conservative backup is the backup of the max successor value.
    assert feasible_backup(-1.0, max([0.2]), 0.9) == pytest.approx(
        feasible_backup(-1.0, 0.2, 0.9))
    assert feasible_backup(-1.0, max([-1.0, 0.5]), 0.9) == pytest.approx(0.35)
    # Elementwise: one backup per row of successor values.
    v_sets = np.array([[-1.0, 0.5], [0.3, -1.0], [-1.0, -1.0]])
    got = feasible_backup(np.array([-1.0, 1.0, -1.0]), v_sets.max(axis=1), 0.9)
    assert np.allclose(got, [0.35, 1.0, -1.0])


def test_conservative_backup_dominates_each_elite():
    rng = substream(0, "dominance-unit")
    for _ in range(200):
        h = float(rng.choice([-1.0, 1.0]))
        vals = rng.uniform(-1, 1, size=4)
        gamma = float(rng.uniform(0.1, 0.99))
        combined = feasible_backup(h, vals.max(), gamma)
        for v in vals:
            assert combined >= feasible_backup(h, float(v), gamma) - 1e-12


@given(
    h=st.sampled_from([-1.0, 1.0]),
    base=st.lists(st.floats(-1, 1), min_size=1, max_size=5),
    bump=st.floats(0, 2),
    which=st.integers(0, 4),
    gamma=st.floats(0.05, 0.97),
)
def test_backup_monotone_in_elite_values(h, base, bump, which, gamma):
    raised = list(base)
    raised[which % len(base)] += bump
    assert (feasible_backup(h, max(raised), gamma)
            >= feasible_backup(h, max(base), gamma) - 1e-12)


def test_gamma_threshold_plugins():
    assert gamma_threshold(-1.0, 1.0, 2) == pytest.approx(0.5 ** 0.5)
    assert gamma_threshold(-1.0, 1.0, 1) == pytest.approx(0.5)
    assert gamma_threshold(-1.0, 1e12, 1) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        gamma_threshold(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        gamma_threshold(-1.0, 1.0, 0)


def test_reverse_expectile_plugins():
    assert reverse_expectile_loss(2.0, 0.9) == pytest.approx(0.4)
    assert reverse_expectile_loss(-2.0, 0.9) == pytest.approx(3.6)
    assert reverse_expectile_loss(0.0, 0.9) == 0.0
    with pytest.raises(ValueError):
        reverse_expectile_loss(1.0, 1.0)


@given(u=st.floats(1e-6, 1e3), tau=st.floats(0.01, 0.99))
def test_reverse_expectile_asymmetry_ratio(u, tau):
    ratio = reverse_expectile_loss(-u, tau) / reverse_expectile_loss(u, tau)
    assert ratio == pytest.approx(tau / (1 - tau), rel=1e-9)


def test_reverse_expectile_grad_matches_finite_difference():
    for u in (-1.3, -0.2, 0.4, 2.0):
        for tau in (0.3, 0.9):
            step = 1e-7
            num = (reverse_expectile_loss(u + step, tau)
                   - reverse_expectile_loss(u - step, tau)) / (2 * step)
            assert reverse_expectile_grad(u, tau) == pytest.approx(num, rel=1e-5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), gamma=st.sampled_from([0.5, 0.9, 0.99]))
def test_operator_is_a_gamma_contraction(seed, gamma):
    rng = substream(seed, "contraction")
    next_idx = rng.integers(0, 12, size=(12, 3))
    h = rng.choice([-1.0, 1.0], size=12)
    q1 = rng.uniform(-1, 1, size=(12, 3))
    q2 = rng.uniform(-1, 1, size=(12, 3))
    lhs = np.max(np.abs(apply_operator(q1, h, next_idx, gamma)
                        - apply_operator(q2, h, next_idx, gamma)))
    rhs = gamma * np.max(np.abs(q1 - q2))
    assert lhs <= rhs + 1e-12


def test_value_iteration_exact_values_from_oracle_distances():
    # Fixed point in closed form: V = h_min at feasible states and
    # h_min + gamma^k (h_max - h_min) at states forced to violate in k steps.
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1, gamma=0.99)
    model = tabulate(env)
    oracle = compute_feasible_set_oracle(env)
    critic = tabular_value_iteration(model, gamma=0.99, tol=1e-12)
    v = critic.v()
    expected = np.where(
        oracle.feasible, -1.0, -1.0 + (0.99 ** np.maximum(oracle.distance, 0)) * 2.0
    )
    assert np.allclose(v, expected, atol=1e-9)


def test_value_iteration_sign_matches_oracle_on_gridworld():
    env = make_hazard_gridworld(6, 5, [(2, 2), (4, 3)], momentum=1, gamma=0.99)
    critic = tabular_value_iteration(tabulate(env), gamma=0.99)
    oracle = compute_feasible_set_oracle(env)
    assert np.array_equal(critic.feasible_mask(), oracle.feasible)


def test_hazard_states_saturate_at_h_max():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=0, gamma=0.9)
    model = tabulate(env)
    critic = tabular_value_iteration(model, gamma=0.9)
    hazard_idx = env.state_index(np.array([[2.0, 2.0]]))[0]
    assert np.allclose(critic.q[hazard_idx], 1.0)


def test_violation_distance_lower_bound_plugin():
    # k = 2, h_min = -1, h_max = 1, gamma = 0.9 gives the bound 0.62.
    assert -1.0 + (0.9 ** 2) * 2.0 == pytest.approx(0.62)


def test_violation_distance_bound_holds_on_gridworld():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1, gamma=0.95)
    model = tabulate(env)
    oracle = compute_feasible_set_oracle(env)
    critic = tabular_value_iteration(model, gamma=0.95, tol=1e-12)
    bound = -1.0 + (0.95 ** oracle.h_star) * 2.0
    q_infeasible = critic.q[oracle.infeasible]
    assert np.all(q_infeasible >= bound - 1e-9)
