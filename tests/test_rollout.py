from dataclasses import replace

import numpy as np
import pytest

from reachsafe import BLAS_THREAD_VARS
from reachsafe.approx import Mlp
from reachsafe.collect import collect_safe_dataset
from reachsafe.cmdp import ConfigurationError
from reachsafe.costgen import GenerationConfig, validate, CostCandidate
from reachsafe.critics import make_feasibility_critic, update_feasibility_critics
from reachsafe.dynamics import train_ensemble
from reachsafe.envs import behavior_mixture, integrator_behavior, make_double_integrator
from reachsafe.rollout import (
    RolloutConfig,
    branched_rollout,
    flatten_branches,
    load_rollout_buffer,
    relabel_offline,
    save_rollout_buffer,
    stack_buffers,
)


@pytest.fixture(scope="module")
def setup():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    mix = [(integrator_behavior(env, "hover"), 0.35),
           (integrator_behavior(env, "creep"), 0.15),
           (integrator_behavior(env, "random"), 0.3),
           (integrator_behavior(env, "brake"), 0.2)]
    data = collect_safe_dataset(env, mix, n_transitions=2500, seed=7)
    model = train_ensemble(data, n_total=3, n_elite=2, val_fraction=0.2,
                           epochs=30, seed=1)
    return env, data, model


def _outward_policy(states):
    states = np.atleast_2d(states)
    return np.sign(states[:, :1] + 1e-12)


def _constant(value):
    return lambda s: np.full(len(s), value)


def test_defaults_match_expected_schedule():
    cfg = RolloutConfig()
    assert cfg.horizon == 1
    assert cfg.epochs == 10
    assert cfg.noise_std == 0.1


def test_horizon_cap_enforced():
    with pytest.raises(ConfigurationError):
        RolloutConfig(horizon=11)


def test_retained_branches_all_violate(setup):
    env, data, model = setup
    cfg = RolloutConfig(batch=256, epochs=3)
    pred = env.margin_predicate(0.04)
    kept = branched_rollout(_outward_policy, data, model, pred, cfg, seed=3,
                            action_bounds=env.action_bounds)
    assert kept, "outward pushes from boundary data must violate"
    for branch in kept:
        assert branch.label.sum() > 0
        assert len(branch) <= cfg.horizon


def test_no_label_no_branches(setup):
    env, data, model = setup
    cfg = RolloutConfig(batch=128, epochs=2)
    kept = branched_rollout(_outward_policy, data, model, _constant(0), cfg, seed=3,
                            action_bounds=env.action_bounds)
    assert kept == []


def test_constant_label_keeps_every_branch(setup):
    env, data, model = setup
    cfg = RolloutConfig(batch=64, epochs=2)
    kept = branched_rollout(_outward_policy, data, model, _constant(1), cfg, seed=3,
                            action_bounds=env.action_bounds)
    assert len(kept) == cfg.batch * cfg.epochs


def test_rollout_determinism(setup):
    env, data, model = setup
    cfg = RolloutConfig(batch=128, epochs=2)
    pred = env.margin_predicate(0.08)

    def run():
        return branched_rollout(_outward_policy, data, model, pred, cfg, seed=11,
                                action_bounds=env.action_bounds)

    a, b = run(), run()
    assert len(a) == len(b)
    for ba, bb in zip(a, b):
        assert ba.origin == bb.origin
        assert np.array_equal(ba.s, bb.s)
        assert np.array_equal(ba.a, bb.a)
        assert np.array_equal(ba.label, bb.label)


def test_noise_is_injected_and_clipped(setup):
    env, data, model = setup
    cfg = RolloutConfig(batch=256, epochs=1, noise_std=0.5)
    kept = branched_rollout(_outward_policy, data, model, _constant(1), cfg, seed=5,
                            action_bounds=env.action_bounds)
    actions = np.concatenate([b.a for b in kept]).ravel()
    assert actions.max() <= 1.0 + 1e-12
    assert actions.min() >= -1.0 - 1e-12
    # With noise the clipped pile-up at the bound is not a single atom.
    assert len(np.unique(actions.round(6))) > 10


def test_flatten_branches_h_labels(setup):
    env, data, model = setup
    cfg = RolloutConfig(batch=128, epochs=2)
    pred = env.margin_predicate(0.08)
    kept = branched_rollout(_outward_policy, data, model, pred, cfg, seed=9,
                            action_bounds=env.action_bounds)
    buf = flatten_branches(kept, h_min=-1.0, h_max=1.0)
    assert np.all(buf.h_s[buf.label > 0] == 1.0)
    assert np.all(buf.h_s[buf.label == 0] == -1.0)
    assert len(buf) == sum(len(b) for b in kept)


def test_relabel_matches_validate_exactly(setup):
    env, data, _ = setup
    pred = env.margin_predicate(0.06)
    relabeled = relabel_offline(data, pred, h_min=-1.0, h_max=1.0)
    cand = CostCandidate(predicate=pred, provenance="scripted", margin=0.06)
    report = validate(cand, data.subset(np.array([], dtype=int)), data,
                      GenerationConfig())
    assert relabeled.cost.mean() == pytest.approx(report.conservativeness)


def test_relabel_is_idempotent_and_nonmutating(setup):
    env, data, _ = setup
    pred = env.margin_predicate(0.06)
    before = data.cost.copy()
    once = relabel_offline(data, pred, -1.0, 1.0)
    twice = relabel_offline(once, pred, -1.0, 1.0)
    assert np.array_equal(once.cost, twice.cost)
    assert np.array_equal(once.h_s, twice.h_s)
    assert np.array_equal(data.cost, before)


def test_relabel_ground_truth_on_safe_data_changes_nothing(setup):
    env, data, _ = setup
    relabeled = relabel_offline(data, lambda s: np.array([env.cost(row) for row in s]),
                                -1.0, 1.0)
    assert int(relabeled.cost.sum()) == 0
    assert np.all(relabeled.h_s == -1.0)


def test_relabel_constant_one_sets_h_max(setup):
    env, data, _ = setup
    relabeled = relabel_offline(data, _constant(1), -1.0, 1.0)
    assert np.all(relabeled.cost == 1)
    assert np.all(relabeled.h_s == 1.0)


def test_rollout_buffer_roundtrip(setup, tmp_path):
    env, data, model = setup
    cfg = RolloutConfig(batch=64, epochs=2)
    kept = branched_rollout(_outward_policy, data, model,
                            env.margin_predicate(0.08), cfg, seed=13,
                            action_bounds=env.action_bounds)
    buf = flatten_branches(kept, -1.0, 1.0)
    path = tmp_path / "rollouts.npz"
    save_rollout_buffer(buf, path)
    back = load_rollout_buffer(path)
    assert np.array_equal(back.s, buf.s)
    assert np.array_equal(back.a, buf.a)
    assert np.array_equal(back.h_s, buf.h_s)
    assert np.array_equal(back.label, buf.label)
    assert np.array_equal(back.origin, buf.origin)


def test_buffer_carries_the_elite_means_of_every_row(setup):
    env, data, model = setup
    cfg = RolloutConfig(batch=128, epochs=2, horizon=3)
    kept = branched_rollout(_outward_policy, data, model,
                            env.margin_predicate(0.08), cfg, seed=17,
                            action_bounds=env.action_bounds)
    buf = flatten_branches(kept, -1.0, 1.0)
    assert len(buf) > cfg.batch
    assert buf.elite_next.shape == (model.n_elites, len(buf), env.d_s)
    means, _ = model.elite_predictions(buf.s, buf.a)
    for carried, recomputed in zip(buf.elite_next, means):
        assert np.allclose(carried, recomputed, rtol=0, atol=1e-12)


def test_critic_update_refuses_a_buffer_without_elite_means(setup, tmp_path):
    env, data, model = setup
    kept = branched_rollout(_outward_policy, data, model,
                            env.margin_predicate(0.08), RolloutConfig(batch=64, epochs=1),
                            seed=13, action_bounds=env.action_bounds)
    path = tmp_path / "rollouts.npz"
    save_rollout_buffer(flatten_branches(kept, -1.0, 1.0), path)
    back = load_rollout_buffer(path)
    assert len(back) and back.elite_next is None
    critic = make_feasibility_critic(env, data, seed=0,
                                     cost_fn=env.margin_predicate(0.08))
    with pytest.raises(ValueError, match="elite_next"):
        update_feasibility_critics(critic, data, back, steps=1)


def test_rollout_epochs_in_threads_equal_the_serial_loop(setup, monkeypatch):
    env, data, model = setup
    cfg = RolloutConfig(batch=256, horizon=3, epochs=5)
    net = Mlp([2, 16, 1], seed=4)  # one policy net, shared by every epoch

    def policy(states):
        return np.tanh(net.forward(states, cache=False))

    def run(blas, epochs=cfg.epochs):
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, blas)
        return branched_rollout(policy, data, model, env.margin_predicate(0.04),
                                replace(cfg, epochs=epochs), seed=3, event=1,
                                action_bounds=env.action_bounds)

    threaded, serial = run("1"), run("2")
    first_two = run("1", epochs=2)  # branches come in epoch order
    assert len(threaded) == len(serial) > len(first_two) > 0
    for a, b in [*zip(threaded, serial), *zip(threaded, first_two)]:
        assert a.origin == b.origin
        for name in ("s", "a", "label", "elite_next"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_window_and_saved_buffers_stack_the_event_buffers(setup):
    env, data, model = setup
    cfg = RolloutConfig(batch=128, epochs=2, horizon=2)
    events = [branched_rollout(_outward_policy, data, model, env.margin_predicate(0.04),
                               cfg, seed=3, event=e, action_bounds=env.action_bounds)
              for e in range(3)]
    per_event = [flatten_branches(kept, -1.0, 1.0) for kept in events]
    nothing = flatten_branches([], -1.0, 1.0)
    whole = flatten_branches([b for kept in events for b in kept], -1.0, 1.0)
    stacked = stack_buffers([nothing, *per_event[:1], nothing, *per_event[1:]])
    for name in ("s", "a", "label", "h_s", "origin", "elite_next"):
        assert np.array_equal(getattr(stacked, name), getattr(whole, name))
        assert getattr(stacked, name).dtype == getattr(whole, name).dtype
    empty = stack_buffers([nothing, nothing])
    assert len(empty) == 0 and empty.s.shape == nothing.s.shape
