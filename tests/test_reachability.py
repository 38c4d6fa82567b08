import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsafe.envs import make_double_integrator, make_hazard_gridworld
from reachsafe.oracle import compute_feasible_set_oracle
from reachsafe.reachability import (
    apply_operator,
    feasible_backup,
    fit_tabular_critic,
    gamma_threshold,
    reverse_expectile_grad,
    reverse_expectile_loss,
    tabular_value_iteration,
)
from reachsafe.seeding import substream
from reachsafe.tabular import perturbed_models, tabulate


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


def _random_instance(rng, n=12, m=3, n_members=3):
    next_sets = rng.integers(0, n, size=(n_members, n, m))
    h = rng.choice([-1.0, 1.0], size=n)
    return next_sets, h


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), gamma=st.sampled_from([0.5, 0.9, 0.99]))
def test_operator_is_a_gamma_contraction(seed, gamma):
    rng = substream(seed, "contraction")
    next_sets, h = _random_instance(rng)
    q1 = rng.uniform(-1, 1, size=(12, 3))
    q2 = rng.uniform(-1, 1, size=(12, 3))
    lhs = np.max(np.abs(apply_operator(q1, h, next_sets, gamma)
                        - apply_operator(q2, h, next_sets, gamma)))
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


def test_conservative_fixed_point_dominates_every_member():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1, gamma=0.9)
    model = tabulate(env)
    members = perturbed_models(model, n_extra=2, seed=0)
    conservative = tabular_value_iteration(members, gamma=0.9, tol=1e-12)
    for member in members:
        single = tabular_value_iteration(member, gamma=0.9, tol=1e-12)
        assert np.all(conservative.q >= single.q - 1e-9)


def test_conservative_flags_all_infeasible_pairs_above_threshold():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1)
    model = tabulate(env)
    oracle = compute_feasible_set_oracle(env)
    gamma = 0.95
    assert gamma > gamma_threshold(-1.0, 1.0, max(oracle.h_star, 1))
    members = perturbed_models(model, n_extra=2, seed=1)  # true model included
    critic = tabular_value_iteration(members, gamma=gamma, tol=1e-12)
    assert np.all(critic.q[oracle.infeasible] > 0.0)


def test_fitted_critic_defaults_to_labels_and_uses_observed_min():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=0, gamma=0.9)
    model = tabulate(env)
    h = model.h.copy()
    s0 = env.state_index(np.array([[0.0, 0.0]]))[0]
    s1 = env.state_index(np.array([[1.0, 0.0]]))[0]
    critic = fit_tabular_critic(model, h, offline_pairs=[(s0, 1, s1)], gamma=0.9)
    # Unobserved states sit at their own labels.
    assert critic.v(env.state_index(np.array([[4.0, 4.0]]))[0]) == pytest.approx(-1.0)
    assert critic.v(env.state_index(np.array([[2.0, 2.0]]))[0]) == pytest.approx(1.0)
    # The observed pair backs up through the next state's default.
    assert critic.q[(s0, 1)] == pytest.approx(-1.0)


def test_fitted_critic_conservative_rollout_pairs_raise_values():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=0, gamma=0.9)
    model = tabulate(env)
    h = model.h.copy()
    s0 = env.state_index(np.array([[2.0, 1.0]]))[0]
    hazard = env.state_index(np.array([[2.0, 2.0]]))[0]
    safe = env.state_index(np.array([[2.0, 0.0]]))[0]
    critic = fit_tabular_critic(
        model, h, offline_pairs=[],
        rollout_pairs=[(s0, 3, [safe, hazard])], gamma=0.9,
    )
    # Worst-case successor is the hazard, so the pair goes positive.
    assert critic.q[(s0, 3)] == pytest.approx(0.8)
    assert critic.v(s0) == pytest.approx(0.8)


def _fitted_q_array(critic, model):
    q = np.full((model.n_states, model.n_actions), np.nan)
    for (s, a), value in critic.q.items():
        q[s, a] = value
    return q


def test_fitted_critic_on_every_true_pair_is_value_iteration():
    # Every (s, a) observed with its true successor: the fit over observed
    # pairs and value iteration over the model run the same operator.
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1, gamma=0.95)
    model = tabulate(env)
    pairs = [(s, a, model.next_idx[s, a])
             for s in range(model.n_states) for a in range(model.n_actions)]
    fitted = fit_tabular_critic(model, model.h, pairs, gamma=0.95)
    exact = tabular_value_iteration(model, gamma=0.95, tol=1e-10)
    assert np.array_equal(_fitted_q_array(fitted, model), exact.q)
    assert np.array_equal(fitted.v_arr, exact.v())


def test_fitted_critic_with_member_successors_is_conservative_iteration():
    # Perturbed members' successors added as rollout candidates: each pair
    # backs up against the worst member, as the conservative iteration does.
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1, gamma=0.95)
    model = tabulate(env)
    members = perturbed_models(model, n_extra=2, seed=3)
    pairs = [(s, a, model.next_idx[s, a])
             for s in range(model.n_states) for a in range(model.n_actions)]
    candidates = [(s, a, [m.next_idx[s, a] for m in members[1:]])
                  for s, a, _ in pairs]
    fitted = fit_tabular_critic(model, model.h, pairs, candidates, gamma=0.95)
    exact = tabular_value_iteration(members, gamma=0.95, tol=1e-10)
    assert np.array_equal(_fitted_q_array(fitted, model), exact.q)
    assert np.array_equal(fitted.v_arr, exact.v())
    assert not np.array_equal(exact.q, tabular_value_iteration(model, gamma=0.95).q)


def _fit_loop_reference(h, edges, gamma, h_min, tol=1e-10):
    """Per-pair loop: each pair backs up against its worst observed successor."""
    succ: dict = {}
    for s, a, n in edges:
        succ.setdefault((s, a), set()).add(n)
    v, q = h.copy(), {key: h_min for key in succ}
    while True:
        new_q = {(s, a): (1 - gamma) * h[s] + gamma * max(h[s], max(v[n] for n in ns))
                 for (s, a), ns in succ.items()}
        new_v = h.copy()
        for s in {s for s, _ in succ}:
            new_v[s] = min(x for (t, _), x in new_q.items() if t == s)
        delta = max([abs(new_q[k] - q[k]) for k in q] + list(np.abs(new_v - v)))
        q, v = new_q, new_v
        if delta < tol:
            return q, v


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), gamma=st.sampled_from([0.5, 0.9, 0.95]))
def test_fitted_critic_matches_the_per_pair_loop(seed, gamma):
    # Partial observation, repeated pairs with different successors, and
    # rollout candidates that overlap offline pairs.
    rng = substream(seed, "fit-loop")
    model = tabulate(make_hazard_gridworld(5, 5, [(2, 2)], momentum=0))
    n, m = model.n_states, model.n_actions
    h = rng.choice([-1.0, 1.0], size=n)
    offline = [tuple(int(x) for x in row) for row in
               np.stack([rng.integers(0, n, 40), rng.integers(0, 2, 40),
                         rng.integers(0, n, 40)], axis=1)]
    rollout = [(int(rng.integers(n)), int(rng.integers(m)),
                [int(x) for x in rng.integers(0, n, int(rng.integers(1, 4)))])
               for _ in range(15)]
    fitted = fit_tabular_critic(model, h, offline, rollout, gamma=gamma)
    q, v = _fit_loop_reference(
        h, offline + [(s, a, c) for s, a, cand in rollout for c in cand], gamma, -1.0)
    assert fitted.q == q
    assert np.array_equal(fitted.v_arr, v)
