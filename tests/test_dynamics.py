import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reachsafe import BLAS_THREAD_VARS
from reachsafe.cmdp import ConfigurationError
from reachsafe.collect import collect_safe_dataset
from reachsafe.dynamics import (
    LOGVAR_MAX,
    LOGVAR_MIN,
    _bound_logvar,
    _bound_logvar_grad,
    _sigmoid,
    _softplus,
    EnsembleDynamics,
    conservative_cost_label_batch,
    load_ensemble,
    sample_next_batch,
    save_ensemble,
    train_ensemble,
)
from reachsafe.envs import behavior_mixture, make_double_integrator, make_hazard_gridworld
from reachsafe.seeding import substream
from reachsafe.tabular import build_model

from helpers import assert_same_bits, dynamics


@pytest.fixture(scope="module")
def integrator_setup():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    mix = behavior_mixture(env, [("creep", 0.4), ("random", 0.4), ("brake", 0.2)])
    data = collect_safe_dataset(env, mix, n_transitions=3000, seed=21)
    return env, data


@pytest.fixture(scope="module")
def trained(integrator_setup):
    env, data = integrator_setup
    model = train_ensemble(data, **dynamics(n_total=7, n_elite=5, epochs=25), seed=5)
    return env, data, model


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 3)),
                  elements=st.floats(-60.0, 60.0)))
@example(np.linspace(-60.0, 60.0, 4001).reshape(-1, 1))
def test_bounded_logvar_and_derivative_match_the_joint_formula(raw):
    # The former single function, which always computed the derivative.
    upper = LOGVAR_MAX - _softplus(LOGVAR_MAX - raw)
    d_upper = _sigmoid(LOGVAR_MAX - raw)
    bounded = LOGVAR_MIN + _softplus(upper - LOGVAR_MIN)
    d_bounded = _sigmoid(upper - LOGVAR_MIN) * d_upper
    value, derivative = _bound_logvar_grad(raw)
    assert _bound_logvar(raw).tobytes() == bounded.tobytes()
    assert value.tobytes() == bounded.tobytes()
    assert derivative.tobytes() == d_bounded.tobytes()


def test_defaults_and_elite_count(trained):
    _, _, model = trained
    assert len(model.members) == 7
    assert model.n_elites == 5


def test_elite_errors_dominate_non_elites(trained):
    _, _, model = trained
    errs = model.val_errors
    elite = errs[model.elites]
    others = np.delete(errs, model.elites)
    assert elite.max() <= others.min() + 1e-15


def test_linear_system_is_learned_accurately():
    # With the velocity cap far from the data the integrator is exactly
    # linear, so normalized held-out error collapses below 1e-3.
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60,
                                 v_max=5.0)
    mix = behavior_mixture(env, [("creep", 0.4), ("random", 0.4), ("brake", 0.2)])
    data = collect_safe_dataset(env, mix, n_transitions=2500, seed=21)
    model = train_ensemble(data, **dynamics(n_total=3, n_elite=2, epochs=60), seed=5)
    assert model.val_errors[model.elites].mean() < 1e-3


def test_predicted_set_contains_truth_on_held_out_pairs(trained):
    # Executable calibration stand-in: some elite mean lands within one
    # oracle grid cell of the true next state for nearly every pair.
    env, data, model = trained
    grid = build_model(env)
    (x_lo, x_hi, nx), (v_lo, v_hi, nv) = grid.grid_ranges
    cell = np.array([(x_hi - x_lo) / (nx - 1), (v_hi - v_lo) / (nv - 1)])
    rng = substream(1, "calibration")
    idx = rng.choice(len(data), size=500, replace=False)
    means, _ = model.elite_predictions(data.s[idx], data.a[idx])
    close = np.all(np.abs(means - data.s2[idx][None]) <= cell[None, None, :], axis=2)
    assert close.any(axis=0).mean() >= 0.99


def test_predict_set_length_and_identical_members():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    mix = behavior_mixture(env, [("random", 1.0)])
    data = collect_safe_dataset(env, mix, n_transitions=600, seed=3)
    model = train_ensemble(data, **dynamics(n_total=3, n_elite=3, epochs=5), seed=9)
    clones = EnsembleDynamics(
        members=[model.members[0]] * 3, elites=[0, 1, 2],
        in_mean=model.in_mean, in_std=model.in_std,
        delta_mean=model.delta_mean, delta_std=model.delta_std,
        d_s=model.d_s, d_a=model.d_a,
    )
    means, variances = clones.elite_predictions(data.s[:1], data.a[:1])
    assert means.shape == variances.shape == (3, 1, 2)
    for k in (1, 2):
        assert np.allclose(means[k], means[0])
        assert np.allclose(variances[k], variances[0])


def test_trained_members_keep_no_gradient(trained):
    # A member is a twin holding the best epoch's parameters, like a loaded one.
    assert all(member.grad is None for member in trained[2].members)


def test_elite_predictions_keep_no_activations(trained):
    _, data, model = trained
    # A training pass caches activations; an inference pass drops them.
    for member in model.members:
        member.forward(np.zeros((8, member.sizes[0])))
    model.elite_predictions(data.s[:50], data.a[:50])
    assert all(model.members[e]._cache is None for e in model.elites)


def _float64_predictions(model, s, a):
    """``elite_predictions`` in float64 throughout, layer by layer: the
    reference for its float32 member passes."""
    x = (np.concatenate([s, a], axis=1) - model.in_mean) / model.in_std
    means, variances = [], []
    for e in model.elites:
        net, h = model.members[e], x
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            h = h @ w + b
            if i < len(net.weights) - 1:
                h = np.tanh(h)
        means.append(s + h[:, :model.d_s] * model.delta_std + model.delta_mean)
        variances.append(np.exp(_bound_logvar(h[:, model.d_s:])) * model.delta_std ** 2)
    return np.stack(means), np.stack(variances)


@pytest.fixture(scope="module")
def grid_trained():
    env = make_hazard_gridworld(7, 7, [(3, 3), (2, 4)], momentum=1, horizon=30)
    data = collect_safe_dataset(env, behavior_mixture(env, [("random", 1.0)]),
                                n_transitions=2000, seed=4)
    model = train_ensemble(data, **dynamics(n_total=3, n_elite=3, epochs=15), seed=5)
    return env, data, model


@pytest.mark.parametrize("world, margin", [("trained", 0.04), ("grid_trained", 1.0)])
def test_float32_elite_passes_track_the_float64_reference(request, world, margin):
    # The members run in float32; means, variances and any-elite labels stay
    # within the stated tolerance of a float64 pass on 20,000 rows.
    env, data, model = request.getfixturevalue(world)
    rng = np.random.default_rng(11)
    s = data.s[rng.integers(len(data), size=20_000)]
    a = env.action_set[rng.integers(len(env.action_set), size=20_000)]
    means, variances = model.elite_predictions(s, a)
    want_means, want_variances = _float64_predictions(model, s, a)
    assert means.dtype == variances.dtype == np.float64
    assert np.abs(means - want_means).max() <= 1e-6
    assert (np.abs(variances - want_variances) / want_variances).max() <= 1e-5
    cost_fn = env.margin_predicate(margin)
    labels = conservative_cost_label_batch(means, cost_fn)
    assert 0 < labels.sum() < len(labels)
    assert np.array_equal(labels, conservative_cost_label_batch(want_means, cost_fn))


def _per_elite_predictions(model, s, a):
    """``elite_predictions`` with the Gaussian head run elite by elite: the
    reference for the one head over all elites."""
    s2d = np.atleast_2d(np.asarray(s, dtype=float))
    x = np.concatenate([s2d, np.atleast_2d(np.asarray(a, dtype=float))], axis=1)
    x = ((x - model.in_mean) / model.in_std).astype(np.float32)
    means, variances = [], []
    for e in model.elites:
        out = model.members[e].forward(x, cache=False).astype(float)
        mu, var = out[:, :model.d_s], np.exp(_bound_logvar(out[:, model.d_s:]))
        means.append(s2d + mu * model.delta_std + model.delta_mean)
        variances.append(var * model.delta_std ** 2)
    return np.stack(means), np.stack(variances)


@pytest.mark.parametrize("world", ["trained", "grid_trained"])
@pytest.mark.parametrize("n", [1, 5000])
def test_one_head_over_all_elites_equals_the_per_elite_loop(request, world, n):
    env, data, model = request.getfixturevalue(world)
    rng = np.random.default_rng(12)
    s = data.s[rng.integers(len(data), size=n)]
    a = env.action_set[rng.integers(len(env.action_set), size=n)]
    for got, want in zip(model.elite_predictions(s, a), _per_elite_predictions(model, s, a)):
        assert_same_bits(got, want)


def test_elites_equal_members_when_requested(integrator_setup):
    _, data = integrator_setup
    model = train_ensemble(data, **dynamics(n_total=3, n_elite=3, epochs=3), seed=2)
    assert sorted(model.elites) == [0, 1, 2]


def test_sample_next_modes(trained):
    _, data, model = trained
    single = EnsembleDynamics(
        members=[model.members[model.elites[0]]], elites=[0],
        in_mean=model.in_mean, in_std=model.in_std,
        delta_mean=model.delta_mean, delta_std=model.delta_std,
        d_s=model.d_s, d_a=model.d_a,
    )
    s, a = data.s[:1], data.a[:1]
    means, variances = single.elite_predictions(s, a)
    out = sample_next_batch(means, np.zeros_like(variances), substream(0, "det"))
    assert np.array_equal(out, means[0])
    one = sample_next_batch(*model.elite_predictions(s, a), substream(4, "fixed"))
    two = sample_next_batch(*model.elite_predictions(s, a), substream(4, "fixed"))
    assert np.array_equal(one, two)


def test_elite_choice_is_uniform(trained):
    _, data, model = trained
    rng = substream(6, "uniform")
    n = 10_000
    s = np.repeat(data.s[:1], n, axis=0)
    a = np.repeat(data.a[:1], n, axis=0)
    means, _ = model.elite_predictions(data.s[0], data.a[0])
    elite_means, variances = model.elite_predictions(s, a)
    samples = sample_next_batch(elite_means, np.zeros_like(variances), rng)
    counts = np.array([
        int(np.sum(np.all(np.isclose(samples, means[k, 0]), axis=1)))
        for k in range(model.n_elites)
    ])
    assert counts.sum() == n
    p = 1.0 / model.n_elites
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


def test_conservative_label_any_elite(trained):
    env, data, model = trained
    # Drifting over the boundary next step, then resting at the origin.
    s = np.array([[0.93, 0.6], [0.0, 0.0]])
    a = np.array([[1.0], [0.0]])
    means, _ = model.elite_predictions(s, a)
    labels = conservative_cost_label_batch(means, env.margin_predicate(0.05))
    assert labels.tolist() == [1, 0]
    # A predicate that never fires yields 0 everywhere (hazard-free analog).
    never = conservative_cost_label_batch(means, lambda x: np.zeros(len(x), dtype=int))
    assert never.tolist() == [0, 0]


def test_conservative_label_fires_when_one_elite_flags():
    # Three elites, three rows: row 0 flagged by one elite only, row 1 by
    # all of them, row 2 by none.
    means = np.zeros((3, 3, 2))
    means[1, 0, 0] = 2.0
    means[:, 1, 0] = -2.0
    flag = lambda s: (np.abs(s[:, 0]) > 1.0).astype(int)  # noqa: E731
    assert conservative_cost_label_batch(means, flag).tolist() == [1, 1, 0]


def test_conservative_label_dominates_single_elites(trained):
    env, data, model = trained
    pred = env.margin_predicate(0.1)
    rng = substream(7, "label-dominance")
    idx = rng.choice(len(data), size=100, replace=False)
    combined = conservative_cost_label_batch(
        model.elite_predictions(data.s[idx], data.a[idx])[0], pred)
    for e in model.elites:
        single = EnsembleDynamics(
            members=[model.members[e]], elites=[0],
            in_mean=model.in_mean, in_std=model.in_std,
            delta_mean=model.delta_mean, delta_std=model.delta_std,
            d_s=model.d_s, d_a=model.d_a,
        )
        alone = conservative_cost_label_batch(
            single.elite_predictions(data.s[idx], data.a[idx])[0], pred)
        assert np.all(combined >= alone)


def test_training_rejects_bad_configs(integrator_setup):
    _, data = integrator_setup
    with pytest.raises(ConfigurationError):
        train_ensemble(data, **dynamics(n_total=3, n_elite=4, epochs=1), seed=0)
    with pytest.raises(ConfigurationError):
        train_ensemble(data.subset(np.arange(10)),
                       **dynamics(n_total=2, n_elite=1, epochs=1), seed=0)


def test_training_is_deterministic(integrator_setup):
    _, data = integrator_setup
    a = train_ensemble(data, **dynamics(n_total=2, n_elite=1, epochs=2), seed=8)
    b = train_ensemble(data, **dynamics(n_total=2, n_elite=1, epochs=2), seed=8)
    for ma, mb in zip(a.members, b.members):
        for p, q in zip(ma.parameters(), mb.parameters()):
            assert np.array_equal(p, q)


def test_ensemble_checkpoint_roundtrip(trained, tmp_path):
    _, data, model = trained
    save_ensemble(model, tmp_path / "ens")
    back = load_ensemble(tmp_path / "ens")
    assert back.elites == model.elites
    m1, v1 = back.elite_predictions(data.s[:5], data.a[:5])
    m2, v2 = model.elite_predictions(data.s[:5], data.a[:5])
    assert np.array_equal(m1, m2)
    assert np.array_equal(v1, v2)


def test_members_in_threads_equal_the_serial_loop(integrator_setup, monkeypatch):
    _, data = integrator_setup

    def train(blas):
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, blas)
        return train_ensemble(data, **dynamics(n_total=3, n_elite=2, epochs=2), seed=8)

    threaded, serial = train("1"), train("2")
    assert threaded.elites == serial.elites
    assert np.array_equal(threaded.val_errors, serial.val_errors)
    for ma, mb in zip(threaded.members, serial.members):
        for p, q in zip(ma.parameters(), mb.parameters()):
            assert np.array_equal(p, q)
