from dataclasses import replace

import numpy as np
import pytest

from reachsafe import BLAS_THREAD_VARS
from reachsafe.approx import Mlp
from reachsafe.cmdp import ConfigurationError, cost_labels
from reachsafe.collect import collect_safe_dataset
from reachsafe.config import CostGenSection, default_config
from reachsafe.costgen import validate, CostCandidate
from reachsafe.critics import make_feasibility_critic, update_feasibility_critics
from reachsafe.dynamics import conservative_cost_label_batch, train_ensemble
from reachsafe.envs import behavior_mixture, integrator_behavior, make_double_integrator
from reachsafe.rollout import (
    RolloutBuffer,
    branched_rollout,
    load_rollout_buffer,
    relabel_offline,
    save_rollout_buffer,
    stack_buffers,
)

from helpers import dynamics, rollout

COLUMNS = ("s", "a", "label", "h_s", "origin")


@pytest.fixture(scope="module")
def setup():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    mix = [(integrator_behavior(env, "hover"), 0.35),
           (integrator_behavior(env, "creep"), 0.15),
           (integrator_behavior(env, "random"), 0.3),
           (integrator_behavior(env, "brake"), 0.2)]
    data = collect_safe_dataset(env, mix, n_transitions=2500, seed=7)
    model = train_ensemble(data, **dynamics(n_total=3, n_elite=2, epochs=30), seed=1)
    return env, data, model


def _outward_policy(states):
    states = np.atleast_2d(states)
    return np.sign(states[:, :1] + 1e-12)


def _constant(value):
    return lambda s: np.full(len(s), value)


def _rollout(setup, cost_fn, cfg, seed, **kwargs):
    env, data, model = setup
    return branched_rollout(_outward_policy, data, model, cost_fn, cfg, seed=seed,
                            h_min=-1.0, h_max=1.0, action_bounds=env.action_bounds,
                            **kwargs)


def test_retained_branches_all_violate(setup):
    env, _, _ = setup
    cfg = rollout(batch=256, epochs=3)
    buf = _rollout(setup, env.margin_predicate(0.04), cfg, seed=3)
    assert len(buf), "outward pushes from boundary data must violate"
    assert np.all(buf.label.reshape(-1, cfg.horizon).sum(axis=1) > 0)


def test_no_label_no_branches(setup):
    env, _, model = setup
    cfg = rollout(batch=128, epochs=2)
    buf = _rollout(setup, _constant(0), cfg, seed=3)
    assert len(buf) == 0
    assert buf.s.shape == (0, env.d_s) and buf.a.shape == (0, env.d_a)
    assert buf.elite_next.shape == (model.n_elites, 0, env.d_s)


def test_constant_label_keeps_every_branch(setup):
    cfg = rollout(batch=64, epochs=2)
    buf = _rollout(setup, _constant(1), cfg, seed=3)
    assert len(buf) == cfg.batch * cfg.epochs * cfg.horizon


def test_rows_form_one_group_per_kept_branch(setup):
    env, data, model = setup
    h = 3
    cfg = rollout(batch=128, epochs=2, horizon=h)
    pred = env.margin_predicate(0.08)
    every, buf = (_rollout(setup, cost_fn, cfg, seed=9) for cost_fn in (_constant(1), pred))
    assert len(every) == cfg.batch * cfg.epochs * h
    for b in (every, buf):
        origin = b.origin.reshape(-1, h)
        assert np.all(origin == origin[:, :1])
        assert np.array_equal(b.s[::h], data.rollout_start_states()[origin[:, 0]])
        assert np.all(b.label.reshape(-1, h).any(axis=1))
        assert np.array_equal(b.h_s, np.where(b.label > 0, 1.0, -1.0))
    # Labels do not steer the branches, so ``buf`` holds exactly the groups
    # of ``every`` that ``pred`` flags at some step, under the any-elite rule.
    labels = conservative_cost_label_batch(every.elite_next, pred).reshape(-1, h)
    violating = labels.any(axis=1)
    assert 0 < violating.sum() < len(violating)
    assert (labels[violating] == 0).any(), "some kept branch has an unflagged step"
    rows = np.repeat(violating, h)
    assert np.array_equal(buf.label, labels[violating].ravel())
    for name in ("s", "a", "origin"):
        assert np.array_equal(getattr(buf, name), getattr(every, name)[rows])
    assert np.array_equal(buf.elite_next, every.elite_next[:, rows])


def test_rollout_determinism(setup):
    env, _, _ = setup
    cfg = rollout(batch=128, epochs=2)
    a, b = (_rollout(setup, env.margin_predicate(0.08), cfg, seed=11) for _ in range(2))
    assert len(a) == len(b) > 0
    for name in (*COLUMNS, "elite_next"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_noise_is_injected_and_clipped(setup):
    cfg = rollout(batch=256, epochs=1, noise_std=0.5)
    actions = _rollout(setup, _constant(1), cfg, seed=5).a.ravel()
    assert actions.max() <= 1.0 + 1e-12
    assert actions.min() >= -1.0 - 1e-12
    # With noise the clipped pile-up at the bound is not a single atom.
    assert len(np.unique(actions.round(6))) > 10


def test_relabel_matches_validate_exactly(setup):
    env, data, _ = setup
    pred = env.margin_predicate(0.06)
    relabeled = relabel_offline(data, pred, h_min=-1.0, h_max=1.0)
    cand = CostCandidate(predicate=pred, provenance="scripted", margin=0.06)
    report = validate(cand, data.subset(np.array([], dtype=int)), data,
                      CostGenSection())
    assert relabeled.label.mean() == pytest.approx(report.conservativeness)


@pytest.mark.parametrize("relabel", [True, False], ids=["relabel", "no-relabel"])
def test_relabelled_rows_view_the_dataset_and_leave_it_as_it_is(setup, relabel):
    # Rows with one successor each, the dataset's s2; row i starts from
    # state i of the start pool. No column is copied, and none is written.
    env, data, _ = setup
    pred = env.margin_predicate(0.06) if relabel else None
    before = {name: getattr(data, name).copy() for name in ("s", "a", "s2", "cost")}
    rows = relabel_offline(data, pred, -1.0, 1.0)
    assert rows.s is data.s and rows.a is data.a
    assert rows.elite_next.shape == (1, len(data), env.d_s)
    assert np.shares_memory(rows.elite_next, data.s2)
    assert np.array_equal(rows.elite_next[0], data.s2)
    assert np.array_equal(rows.origin, np.arange(len(data)))
    assert np.array_equal(data.rollout_start_states()[rows.origin], data.s)
    if relabel:
        assert np.array_equal(rows.label, cost_labels(pred, data.s2))
    else:
        assert rows.label is data.cost and np.all(rows.h_s == -1.0)
    for name, column in before.items():
        assert np.array_equal(getattr(data, name), column)


def test_relabel_ground_truth_on_safe_data_changes_nothing(setup):
    env, data, _ = setup
    relabeled = relabel_offline(data, lambda s: np.array([env.cost(row) for row in s]),
                                -1.0, 1.0)
    assert int(relabeled.label.sum()) == 0
    assert np.all(relabeled.h_s == -1.0)


def test_relabel_constant_one_sets_h_max(setup):
    env, data, _ = setup
    relabeled = relabel_offline(data, _constant(1), -1.0, 1.0)
    assert np.all(relabeled.label == 1)
    assert np.all(relabeled.h_s == 1.0)


def test_rollout_buffer_roundtrip(setup, tmp_path):
    env, _, _ = setup
    buf = _rollout(setup, env.margin_predicate(0.08), rollout(batch=64, epochs=2),
                   seed=13)
    path = tmp_path / "rollouts.npz"
    save_rollout_buffer(buf, path)
    back = load_rollout_buffer(path)
    for name in COLUMNS:
        assert np.array_equal(getattr(back, name), getattr(buf, name))
    # Loaded buffers carry no elite means; stacking them gives none either.
    both = stack_buffers([buf, back])
    assert len(both) == 2 * len(buf) and both.elite_next is None


@pytest.mark.parametrize("name", ["s", "a", "h_s", "origin", "elite_next"])
def test_a_buffer_with_a_short_column_is_refused(name):
    columns = dict(s=np.zeros((4, 2)), a=np.zeros((4, 1)), label=np.ones(4, dtype=int),
                   h_s=np.ones(4), origin=np.arange(4), elite_next=np.zeros((2, 4, 2)))
    assert len(RolloutBuffer(**columns)) == 4
    columns[name] = columns[name][:, :2] if name == "elite_next" else columns[name][:2]
    with pytest.raises(ConfigurationError, match=f"column {name} has 2 rows, label has 4"):
        RolloutBuffer(**columns)


@pytest.mark.parametrize("shape", [(5, 4, 3), (5, 4), (5, 4, 2, 1)],
                         ids=["three-wide", "2-d", "4-d"])
def test_elite_means_that_are_not_n_elites_by_rows_by_state_width_are_refused(shape):
    columns = dict(s=np.zeros((4, 2)), a=np.zeros((4, 1)), label=np.ones(4, dtype=int),
                   h_s=np.ones(4), origin=np.arange(4))
    with pytest.raises(ConfigurationError, match="column elite_next has shape"):
        RolloutBuffer(**columns, elite_next=np.zeros(shape))


def test_buffer_carries_the_elite_means_of_every_row(setup):
    env, _, model = setup
    cfg = rollout(batch=128, epochs=2, horizon=3)
    buf = _rollout(setup, env.margin_predicate(0.08), cfg, seed=17)
    assert len(buf) > cfg.batch
    assert buf.elite_next.shape == (model.n_elites, len(buf), env.d_s)
    means, _ = model.elite_predictions(buf.s, buf.a)
    for carried, recomputed in zip(buf.elite_next, means):
        assert np.allclose(carried, recomputed, rtol=0, atol=1e-12)


def test_h_s_is_the_successor_label_in_rollouts_and_the_state_label_offline(setup):
    # Both are critic rows, so the critic update backs up h(s') on rollout
    # rows and h(s) on the relabelled offline rows (``update_feasibility_critics``).
    env, data, _ = setup
    pred = env.margin_predicate(0.08)
    buf = _rollout(setup, pred, rollout(batch=128, epochs=2, horizon=3), seed=17)
    successor = conservative_cost_label_batch(buf.elite_next, pred)
    assert np.array_equal(buf.h_s, np.where(successor > 0, 1.0, -1.0))
    assert (successor != cost_labels(pred, buf.s)).any()
    offline = relabel_offline(data, pred, -1.0, 1.0)
    assert np.array_equal(offline.h_s, np.where(cost_labels(pred, data.s) > 0, 1.0, -1.0))


def test_critic_update_refuses_a_buffer_without_elite_means(setup, tmp_path):
    env, data, _ = setup
    buf = _rollout(setup, env.margin_predicate(0.08), rollout(batch=64, epochs=1),
                   seed=13)
    path = tmp_path / "rollouts.npz"
    save_rollout_buffer(buf, path)
    back = load_rollout_buffer(path)
    assert len(back) and back.elite_next is None
    learn = default_config("double_integrator").learn
    critic = make_feasibility_critic(env, data, learn, seed=0)
    critic.cost_fn = env.margin_predicate(0.08)
    rows = relabel_offline(data, critic.cost_fn, env.h_min, env.h_max)
    with pytest.raises(ValueError, match="elite_next"):
        update_feasibility_critics(critic, rows, [back], steps=1, cfg=learn)
    with pytest.raises(ValueError, match="elite_next"):
        update_feasibility_critics(critic, rows, [buf, back], steps=1, cfg=learn)


def test_critic_update_refuses_a_window_whose_elite_means_disagree(setup):
    env, data, model = setup
    cfg = rollout(batch=64, epochs=1)
    first, second = (_rollout(setup, env.margin_predicate(0.08), cfg, seed=13, event=e)
                     for e in range(2))
    assert len(first) and len(second) and model.n_elites > 1
    fewer = replace(second, elite_next=second.elite_next[:1])
    learn = default_config("double_integrator").learn
    critic = make_feasibility_critic(env, data, learn, seed=0)
    critic.cost_fn = env.margin_predicate(0.08)
    rows = relabel_offline(data, critic.cost_fn, env.h_min, env.h_max)
    with pytest.raises(ValueError, match=r"disagree on elite_next's \(n_elites, d_s\)"):
        update_feasibility_critics(critic, rows, [first, fewer], steps=1, cfg=learn)
    assert critic.steps_trained == 0
    # An empty buffer adds no rows, so its elite means are never read.
    nothing = replace(first, **{name: getattr(first, name)[:0] for name in COLUMNS},
                      elite_next=None)
    update_feasibility_critics(critic, rows, [first, nothing, second], steps=1, cfg=learn)
    assert critic.steps_trained == 1


def test_rollout_epochs_in_threads_equal_the_serial_loop(setup, monkeypatch):
    env, data, model = setup
    cfg = rollout(batch=256, horizon=3, epochs=5)
    net = Mlp([2, 16, 1], seed=4)  # one policy net, shared by every epoch

    def policy(states):
        return np.tanh(net.forward(states, cache=False))

    def run(blas, epochs=cfg.epochs):
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, blas)
        return branched_rollout(policy, data, model, env.margin_predicate(0.04),
                                replace(cfg, epochs=epochs), seed=3, h_min=-1.0,
                                h_max=1.0, event=1, action_bounds=env.action_bounds)

    threaded, serial = run("1"), run("2")
    first_two = run("1", epochs=2)  # rows come in epoch order
    n = len(first_two)
    assert len(threaded) == len(serial) > n > 0
    for name in COLUMNS:
        assert np.array_equal(getattr(threaded, name), getattr(serial, name))
        assert np.array_equal(getattr(threaded, name)[:n], getattr(first_two, name))
    assert np.array_equal(threaded.elite_next, serial.elite_next)
    assert np.array_equal(threaded.elite_next[:, :n], first_two.elite_next)


def test_window_and_saved_buffers_stack_the_event_buffers(setup):
    env, _, model = setup
    cfg = rollout(batch=128, epochs=2, horizon=2)
    events = [_rollout(setup, env.margin_predicate(0.04), cfg, seed=3, event=e)
              for e in range(3)]
    nothing = _rollout(setup, _constant(0), cfg, seed=3, event=3)  # every epoch empty
    assert len(nothing) == 0 and all(len(b) for b in events)
    parts = [nothing, events[0], nothing, *events[1:]]
    window = stack_buffers(parts)
    saved = stack_buffers([replace(b, elite_next=None) for b in parts])
    assert saved.elite_next is None
    start = 0
    for part in parts:
        rows = slice(start, start + len(part))
        for name in COLUMNS:
            for stacked in (window, saved):
                assert np.array_equal(getattr(stacked, name)[rows], getattr(part, name))
                assert getattr(stacked, name).dtype == getattr(part, name).dtype
        assert np.array_equal(window.elite_next[:, rows], part.elite_next)
        start += len(part)
    assert start == len(window) == len(saved)
    empty = stack_buffers([nothing, nothing])
    assert len(empty) == 0 and empty.s.shape == (0, env.d_s)
    assert empty.elite_next.shape == (model.n_elites, 0, env.d_s)
