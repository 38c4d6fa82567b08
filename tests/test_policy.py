from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachsafe.approx import BackwardBeforeForward, Mlp, concat
from reachsafe.collect import collect_safe_dataset
from reachsafe.cmdp import H_MAX, H_MIN, MIXED, OfflineDataset, SAFE_ONLY, cost_labels
from reachsafe.config import default_config
from reachsafe.critics import (
    QVCritic,
    make_feasibility_critic,
    onehot_action_featurizer,
    onehot_state_featurizer,
    update_feasibility_critics,
)
from reachsafe.dynamics import conservative_cost_label_batch, train_ensemble
from reachsafe.envs import behavior_mixture, make_double_integrator, make_hazard_gridworld
from reachsafe.policy import (
    REWARD_TARGET_RATE,
    EvalReport,
    RolloutDataRejected,
    SafePolicy,
    bc_weights,
    evaluate_policy,
    feasibility_guided_policy_update,
    load_policy,
    make_policy,
    make_reward_critic,
    reward_advantage,
    reward_norm_from_dataset,
    save_policy,
    update_reward_critic,
)
from reachsafe.reachability import feasible_backup, tabular_value_iteration
from reachsafe.rollout import RolloutBuffer, branched_rollout, relabel_offline, stack_buffers
from reachsafe.seeding import substream
from reachsafe.tabular import tabulate

import array_rows
from helpers import assert_same_bits, dynamics, rollout

LEARN = default_config("double_integrator").learn


def _toy_dataset(n=64, r_value=1.0, done=True, seed=0):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-1, 1, size=(n, 2))
    a = rng.uniform(-1, 1, size=(n, 1))
    s2 = s + 0.1 * a
    return OfflineDataset(
        s=s, a=a, r=np.full(n, r_value), s2=s2,
        done=np.full(n, done, dtype=bool), cost=np.zeros(n, dtype=int),
        tag=SAFE_ONLY, meta={"env": "toy", "episode_ends": []},
    )


@pytest.fixture(scope="module")
def integrator():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    mix = behavior_mixture(env, [("probe", 0.4), ("random", 0.4), ("brake", 0.2)])
    data = collect_safe_dataset(env, mix, n_transitions=2000, seed=2)
    return env, data


def test_reward_critic_rejects_rollout_data():
    ds = _toy_dataset()
    critic = make_reward_critic(ds, LEARN)
    buffer = RolloutBuffer(s=ds.s, a=ds.a, label=np.zeros(len(ds), dtype=int),
                           h_s=np.full(len(ds), -1.0), elite_next=ds.s2[None])
    with pytest.raises(RolloutDataRejected):
        update_reward_critic(critic, buffer, steps=1, cfg=LEARN)


def test_reward_critic_fits_terminal_reward():
    # Every transition is terminal with r = 1, so q must go to 1.
    ds = _toy_dataset(r_value=1.0, done=True)
    critic = make_reward_critic(ds, replace(LEARN, policy_lr=3e-3), seed=1)
    update_reward_critic(critic, ds, steps=1500, cfg=LEARN, seed=1)
    q = critic.q_values(ds.s, ds.a)
    assert np.allclose(q, 1.0, atol=0.05)


def test_reward_critic_geometric_series_on_chain():
    # Constant reward, never done, self-loop-ish chain: q -> r / (1 - gamma).
    n = 128
    rng = np.random.default_rng(3)
    s = rng.uniform(-1, 1, size=(n, 2))
    ds = OfflineDataset(
        s=s, a=np.zeros((n, 1)), r=np.full(n, 0.5), s2=s,
        done=np.zeros(n, dtype=bool), cost=np.zeros(n, dtype=int),
        tag=SAFE_ONLY, meta={"env": "toy", "episode_ends": []},
    )
    cfg = replace(LEARN, reward_gamma=0.9, policy_lr=3e-3)
    critic = make_reward_critic(ds, cfg, seed=2)
    critic.target_rate = 0.05
    update_reward_critic(critic, ds, steps=4000, cfg=cfg, seed=2)
    q = critic.q_values(ds.s, ds.a)
    assert np.allclose(q, 5.0, atol=0.25), q.mean()


def test_learn_settings_reach_the_critics_and_the_policy():
    # Each value differs from both environments' defaults, so a consumer
    # that kept a default of its own would show here.
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    one = OfflineDataset(s=np.array([[0.5, 0.2]]), a=np.array([[0.3]]), r=np.array([0.7]),
                         s2=np.array([[0.52, 0.23]]), done=np.array([False]),
                         cost=np.array([1]), tag=MIXED)
    cfg = replace(LEARN, critic_gamma=0.9, reward_gamma=0.8, critic_lr=2e-3,
                  policy_lr=5e-4, critic_target_rate=0.02, hidden=[8, 4])
    feas = make_feasibility_critic(env, one, cfg, seed=0)
    reward = make_reward_critic(one, cfg, seed=0)
    policy = make_policy(env, one, cfg, seed=0)
    assert (feas.q_trainer.lr, feas.v_trainer.lr, feas.target_rate) == (2e-3, 2e-3, 0.02)
    assert (reward.q_trainer.lr, reward.v_trainer.lr) == (5e-4, 5e-4)
    assert reward.target_rate == REWARD_TARGET_RATE and policy.trainer.lr == 5e-4
    assert all(net.sizes[1:-1] == [8, 4] for net in (feas.q_net, reward.v_net, policy.net))

    # One step each, recording the Q target instead of stepping.
    targets = {}
    for name, critic in (("feas", feas), ("reward", reward)):
        critic.gradient_step = (lambda q_in, q_tgt, *rest, name=name:
                                targets.setdefault(name, q_tgt))
    reward.v_target.biases[-1][:] = 2.0   # a successor value far from zero
    v_feas, v_reward = (c.v_target.forward(c.state_feat(one.s2), cache=False)[0, 0]
                        for c in (feas, reward))
    update_feasibility_critics(feas, relabel_offline(one, None), [],
                               steps=1, cfg=cfg)
    update_reward_critic(reward, one, steps=1, cfg=cfg)
    # Feasible backup from h(s) = -1 with the successor flagged, h(s') = +1.
    assert targets["feas"][0] == pytest.approx(0.1 * -1.0 + 0.9 * max(1.0, v_feas))
    assert targets["reward"][0] == pytest.approx(0.7 + 0.8 * v_reward)


def _stub_elite_next(env, s, a, violating):
    """Elite means: the true successor, and a second one that may violate."""
    true = np.stack([env.transition(x, u) for x, u in zip(s, a)])
    other = np.tile([1.5, 0.0], (len(s), 1)) if violating else true
    return np.stack([true, other])


def test_rollout_rows_back_up_against_the_worst_elite_successor(integrator):
    # One elite predicting a violating successor lifts the rollout rows'
    # Q_h target from about h_min to (1-g) h_min + g h_max.
    env, data = integrator
    rows = np.arange(0, 400, 2)
    cost_fn = env.margin_predicate(0.0)
    q = {}
    for violating in (False, True):
        elite_next = _stub_elite_next(env, data.s[rows], data.a[rows], violating)
        buffer = RolloutBuffer(
            s=data.s[rows], a=data.a[rows],
            label=conservative_cost_label_batch(elite_next, cost_fn),
            h_s=np.full(len(rows), H_MIN), elite_next=elite_next)
        cfg = replace(LEARN, critic_lr=1e-2, rollout_batch_fraction=1.0)
        critic = make_feasibility_critic(env, data, cfg, seed=0)
        critic.cost_fn = cost_fn
        update_feasibility_critics(critic, relabel_offline(data, None),
                                   [buffer], steps=100, cfg=cfg)
        q[violating] = float(critic.q_values(buffer.s, buffer.a).mean())
    assert q[True] > q[False] + 0.5, q


@pytest.mark.parametrize("world", ["integrator", "gridworld"])
def test_the_critic_update_trains_from_stored_labels_and_calls_no_predicate(request, world):
    # A window of two real rollout events: the update reads the labels the
    # rollout stored, so a critic whose predicate raises on any call trains
    # exactly as one carrying the rollout's predicate.
    env, data = request.getfixturevalue(world)
    cost_fn = env.margin_predicate(0.1)
    rows = relabel_offline(data, cost_fn)
    model = train_ensemble(data, **dynamics(n_total=2, n_elite=2, epochs=2, hidden=[16],
                                            batch_size=64), seed=0)
    policy = make_policy(env, data, LEARN, seed=0)
    window = [branched_rollout(policy.act_batch, data, model, cost_fn,
                               rollout(batch=64, horizon=2, epochs=2), seed=1,
                               event=event, action_bounds=env.action_bounds)
              for event in (0, 1)]
    assert all(len(b) for b in window)

    def no_predicate(s):
        raise AssertionError("the critic update called a cost predicate")

    cfg = replace(LEARN, hidden=[16, 16], batch_size=64)
    got, want = (make_feasibility_critic(env, data, cfg, seed=3) for _ in range(2))
    got.cost_fn, want.cost_fn = no_predicate, cost_fn
    for critic in (got, want):
        update_feasibility_critics(critic, rows, window, steps=10, cfg=cfg, seed=5)
    for name in ("q_net", "v_net", "q_target", "v_target"):
        assert_same_bits(getattr(got, name).params, getattr(want, name).params)


@pytest.mark.parametrize("world, margin", [("integrator", 0.1), ("gridworld", 1.0)])
def test_the_policy_update_gates_with_stored_labels_and_calls_no_predicate(request, world,
                                                                          margin):
    # The cloning weights floor the critic's values with the relabelled
    # rows' h_s, so a critic whose predicate raises on any call trains the
    # policy exactly as one carrying the predicate.
    env, data = request.getfixturevalue(world)
    cost_fn = env.margin_predicate(margin)
    rows = relabel_offline(data, cost_fn)
    assert (rows.h_s == H_MAX).any() and (rows.h_s == H_MIN).any()

    def no_predicate(s):
        raise AssertionError("the policy update called a cost predicate")

    cfg = replace(LEARN, hidden=[16, 16], batch_size=64)
    advantages = np.random.default_rng(2).normal(size=len(data))
    policies = []
    for fn in (no_predicate, cost_fn):
        critic = make_feasibility_critic(env, data, cfg, seed=3)
        critic.cost_fn = fn
        policy = make_policy(env, data, cfg, seed=4)
        feasibility_guided_policy_update(policy, advantages, critic, data, steps=10,
                                         cfg=cfg, seed=6, h_s=rows.h_s)
        policies.append(policy)
    assert_same_bits(policies[0].net.params, policies[1].net.params)


def _event_window(env, data, sizes, n_elites=3, seed=0):
    """Rollout buffers of dataset rows; each elite mean is the dataset
    successor moved by noise, so the one-hot featurizer has to snap some."""
    rng = np.random.default_rng(seed)
    window = []
    for n in sizes:
        rows = rng.choice(len(data), size=n, replace=False)
        label = rng.integers(2, size=n)
        window.append(RolloutBuffer(
            s=data.s[rows], a=data.a[rows], label=label,
            h_s=np.where(label > 0, H_MAX, H_MIN),
            elite_next=data.s2[rows] + rng.normal(scale=0.3, size=(n_elites, n, env.d_s))))
    return window


@pytest.mark.parametrize("in_v", [True, False], ids=["rollout-in-v", "offline-v"])
@pytest.mark.parametrize("world", ["integrator", "gridworld"])
def test_a_window_updates_the_critic_as_its_stacked_buffer_does(request, world, in_v):
    # The window's buffers are read in place, an empty one among them; the
    # result is the update on the one stacked buffer, bit for bit.
    env, data = request.getfixturevalue(world)
    rows = relabel_offline(data, env.margin_predicate(0.1))
    window = _event_window(env, data, sizes=(90, 0, 70))
    cfg = replace(LEARN, hidden=[16, 16], batch_size=64, include_rollout_in_v=in_v)
    got, want = (make_feasibility_critic(env, data, cfg, seed=3) for _ in range(2))
    update_feasibility_critics(got, rows, window, steps=25, cfg=cfg, seed=5,
                               stream=("event", 1))
    update_feasibility_critics(want, rows, [stack_buffers(window)], steps=25, cfg=cfg,
                               seed=5, stream=("event", 1))
    assert got.q_trainer.step == want.q_trainer.step == 25
    for name in ("q_net", "v_net", "q_target", "v_target"):
        assert_same_bits(getattr(got, name).params, getattr(want, name).params)
    assert not np.array_equal(got.q_net.params, make_feasibility_critic(
        env, data, cfg, seed=3).q_net.params)


def _two_path_update(critic, data, cost_fn, rollouts, steps, cfg, seed=0, stream=()):
    """The critic update with its former two target paths, as a plain loop.

    Offline rows back up h(s) through the dataset's featurized next states
    (``feat_s2``) floored by the relabelled cost (``h_s2``); ``cost_fn``
    None keeps the dataset's costs and h_min. Rollout rows are picked one
    by one from the window, as if concatenated, and back up h(s') through
    the worst target value over their elite means.
    """
    h_min, h_max, gamma = H_MIN, H_MAX, cfg.critic_gamma
    if cost_fn is None:
        cost, h_s = data.cost, np.full(len(data), h_min)
    else:
        cost = cost_labels(cost_fn, data.s2)
        h_s = np.where(cost_labels(cost_fn, data.s) > 0, h_max, h_min)
    feat_s = critic.state_feat(data.s)
    feat_sa = concat([feat_s, critic.action_feat(data.a)], axis=1)
    feat_s2 = critic.state_feat(data.s2)
    h_s2 = np.where(cost > 0, h_max, h_min).astype(float)
    rows = [(b, i) for b in rollouts for i in range(len(b))]
    rng = substream(seed, "critic-update", *stream)
    for _ in range(steps):
        idx = rng.integers(len(data), size=min(cfg.batch_size, len(data)))
        v2 = np.maximum(h_s2[idx], critic.v_target.forward(feat_s2[idx], cache=False)[:, 0])
        q_in, q_tgt = feat_sa[idx], feasible_backup(h_s[idx], v2, gamma)
        v_in, q_ref_in = feat_s[idx], q_in
        if rows:
            want = max(1, int(cfg.batch_size * cfg.rollout_batch_fraction))
            picked = [rows[j] for j in rng.integers(len(rows), size=min(want, len(rows)))]
            s = np.array([b.s[i] for b, i in picked])
            a = np.array([b.a[i] for b, i in picked])
            means = np.array([b.elite_next[:, i] for b, i in picked])  # (r, n_elites, d_s)
            v_succ = critic.v_target.forward(critic.state_feat(
                means.swapaxes(0, 1).reshape(-1, s.shape[1])), cache=False)[:, 0]
            floor = np.array([h_max if b.label[i] > 0 else h_min for b, i in picked])
            v_next = np.maximum(floor, v_succ.reshape(means.shape[1], -1).max(axis=0))
            roll_h = np.array([float(b.h_s[i]) for b, i in picked])
            roll_s = critic.state_feat(s)
            q_in = concat([q_in, concat([roll_s, critic.action_feat(a)], axis=1)])
            q_tgt = np.concatenate([q_tgt, feasible_backup(roll_h, v_next, gamma)])
            q_ref_in = q_in
            if cfg.include_rollout_in_v:
                v_in = concat([v_in, roll_s])
        critic.gradient_step(q_in, q_tgt, v_in, q_ref_in[:len(v_in)], cfg.critic_tau)
    return critic


@pytest.mark.parametrize("relabel", [True, False], ids=["relabel", "no-relabel"])
@pytest.mark.parametrize("sizes, in_v", [((), False), ((90, 0, 70), True),
                                         ((90, 0, 70), False)],
                         ids=["offline-only", "window-rollout-in-v", "window-offline-v"])
@pytest.mark.parametrize("world", ["integrator", "gridworld"])
def test_one_backup_path_equals_the_two_path_update_bit_for_bit(request, world, sizes,
                                                                in_v, relabel):
    # Offline rows are rows with one successor: backed up on the rollout
    # rows' path, they train the critic exactly as the offline path did.
    env, data = request.getfixturevalue(world)
    cost_fn = env.margin_predicate(0.1 if world == "integrator" else 1.0) if relabel else None
    rows = relabel_offline(data, cost_fn)
    if relabel:
        assert (rows.label > 0).any() and (rows.h_s != np.where(rows.label > 0, H_MAX,
                                                                 H_MIN)).any()
    window = _event_window(env, data, sizes)
    cfg = replace(LEARN, hidden=[16, 16], batch_size=64, include_rollout_in_v=in_v)
    got, want = (make_feasibility_critic(env, data, cfg, seed=3) for _ in range(2))
    update_feasibility_critics(got, rows, window, steps=25, cfg=cfg, seed=5,
                               stream=("event", 1))
    _two_path_update(want, data, cost_fn, window, 25, cfg, seed=5, stream=("event", 1))
    assert got.q_trainer.step == want.q_trainer.step == 25
    for name in ("q_net", "v_net", "q_target", "v_target"):
        assert_same_bits(getattr(got, name).params, getattr(want, name).params)


def test_critic_rows_are_no_cloning_or_reward_data(integrator):
    # Relabelled offline rows are critic rows, of the rollout rows' type:
    # the cloning update and the reward critic refuse them as rollout data.
    env, data = integrator
    rows = relabel_offline(data, env.margin_predicate(0.1))
    policy = make_policy(env, data, LEARN, seed=0)
    with pytest.raises(RolloutDataRejected):
        feasibility_guided_policy_update(policy, np.zeros(len(data)), None, rows, steps=1,
                                         cfg=LEARN, h_s=rows.h_s)
    with pytest.raises(RolloutDataRejected):
        update_reward_critic(make_reward_critic(data, LEARN), rows, steps=1, cfg=LEARN)
    assert policy.trainer.step == 0


def test_bc_weights_gate_blocks_positive_qh(integrator):
    env, data = integrator
    reward = make_reward_critic(data, LEARN, seed=0)
    update_reward_critic(critic=reward, offline=data, cfg=LEARN, steps=50)
    feas = make_feasibility_critic(env, data, LEARN, seed=0)
    feas.cost_fn = env.margin_predicate(0.04)
    # Push q_h net strongly positive so every action is gated off.
    feas.q_net.biases[-1][:] = 5.0
    feas.v_net.biases[-1][:] = -5.0  # states look feasible
    w = bc_weights(reward_advantage(reward, data.s[:32], data.a[:32]), feas,
                   data.s[:32], data.a[:32], 3.0, 100.0)
    assert np.all(w == 0.0)


def test_bc_weights_reduce_to_awr_when_all_safe(integrator):
    env, data = integrator
    reward = make_reward_critic(data, LEARN, seed=0)
    update_reward_critic(critic=reward, offline=data, cfg=LEARN, steps=50)
    feas = make_feasibility_critic(env, data, LEARN, seed=0)
    feas.q_net.biases[-1][:] = -5.0
    feas.v_net.biases[-1][:] = -5.0
    adv = reward_advantage(reward, data.s[:64], data.a[:64])
    gated = bc_weights(adv, feas, data.s[:64], data.a[:64], 3.0, 100.0)
    plain = bc_weights(adv, None, data.s[:64], data.a[:64], 3.0, 100.0)
    assert np.allclose(gated, plain)


def test_bc_weights_bounded(integrator):
    env, data = integrator
    reward = make_reward_critic(data, LEARN, seed=0)
    feas = make_feasibility_critic(env, data, LEARN, seed=0)
    w = bc_weights(reward_advantage(reward, data.s, data.a), feas, data.s, data.a,
                   10.0, 100.0)
    assert np.all(w >= 0.0)
    assert np.all(w <= 100.0)


class _FixedValues:
    """A feasibility critic stand-in that reads the given V_h and Q_h."""

    def __init__(self, v, q):
        self.v, self.q = v, q

    def v_values(self, s, h_s=None):
        return self.v

    def q_values(self, s, a, h_s=None):
        return self.q


def test_an_overflowing_advantage_of_a_gated_out_action_weighs_zero():
    # exp(1000) overflows: a gated-out action (q_h > 0) weighs 0, not
    # inf * 0 = NaN; a kept one clips to weight_clip, without a warning.
    v = np.array([-1.0, -1.0, -1.0, 0.5])  # the last state is infeasible
    q = np.array([0.5, -0.5, -0.5, 2.0])
    adv, s = np.array([1000.0, 1000.0, 0.1, 1000.0]), np.zeros((4, 1))
    w = bc_weights(adv, _FixedValues(v, q), s, s, 1.0, 100.0)
    assert np.isfinite(w).all()
    assert_same_bits(w, np.array([0.0, 100.0, np.exp(0.1), np.exp(-1.5)]))
    assert bc_weights(adv, None, s, s, 1.0, 100.0).tolist() == [100.0, 100.0, np.exp(0.1), 100.0]
    # Where the former product was finite, the weights keep its bits.
    rng = np.random.default_rng(3)
    v, q, adv = rng.normal(size=(3, 500))
    s = np.zeros((500, 1))
    former = np.clip(np.where(v <= 0.0, np.exp(3.0 * adv) * (q <= 0.0),
                              np.exp(-3.0 * (q - v))), 0.0, 20.0)
    assert_same_bits(bc_weights(adv, _FixedValues(v, q), s, s, 3.0, 20.0), former)


def test_weight_scaling_preserves_action_ranking(integrator):
    env, data = integrator
    reward = make_reward_critic(data, LEARN, seed=0)
    update_reward_critic(critic=reward, offline=data, cfg=LEARN, steps=50)
    w = bc_weights(reward_advantage(reward, data.s[:100], data.a[:100]), None,
                   data.s[:100], data.a[:100], 3.0, np.inf)
    order = np.argsort(w)
    order_scaled = np.argsort(2.5 * w)
    assert np.array_equal(order, order_scaled)


def test_policy_update_trains_and_respects_bounds(integrator):
    env, data = integrator
    reward = make_reward_critic(data, LEARN, seed=0)
    update_reward_critic(critic=reward, offline=data, cfg=LEARN, steps=200)
    policy = make_policy(env, data, replace(LEARN, policy_lr=1e-3), seed=0)
    feasibility_guided_policy_update(policy, reward_advantage(reward, data.s, data.a),
                                     None, data, steps=300, cfg=LEARN, seed=0)
    acts = policy.act_batch(data.s[:200])
    assert acts.min() >= env.action_bounds[0, 0] - 1e-9
    assert acts.max() <= env.action_bounds[0, 1] + 1e-9
    assert policy.trainer.step == 300


def test_policy_update_rejects_empty_batch(integrator):
    env, data = integrator
    policy = make_policy(env, data, LEARN, seed=0)
    empty = data.subset(np.array([], dtype=int))
    with pytest.raises(ValueError):
        feasibility_guided_policy_update(policy, np.zeros(0), None, empty, steps=1,
                                         cfg=LEARN)
    with pytest.raises(ValueError, match="advantages for"):
        feasibility_guided_policy_update(policy, np.zeros(len(data) - 1), None, data,
                                         steps=1, cfg=LEARN)


def test_greedy_actions_stay_feasible_with_oracle_critic():
    # Clone only the feasibility-sound actions on the momentum gridworld:
    # greedy actions from feasible states must keep the oracle value <= 0.
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1, gamma=0.95)
    mix = behavior_mixture(env, [("goal_greedy", 0.5), ("random", 0.5)])
    data = collect_safe_dataset(env, mix, n_transitions=2500, seed=4)
    model = tabulate(env)
    q_exact = tabular_value_iteration(model, gamma=0.95, tol=1e-12)
    v_exact = q_exact.min(axis=1)

    # The reward pair and the policy read one-hot states, as the critics do.
    state_feat = onehot_state_featurizer(env)
    reward = QVCritic.fresh(state_feat, onehot_action_featurizer(env), LEARN.hidden, 0,
                            "reward-critic", ("q", "v"), lr=LEARN.policy_lr,
                            target_rate=REWARD_TARGET_RATE)
    update_reward_critic(critic=reward, offline=data, cfg=LEARN, steps=400, seed=0)

    class OracleCritic:
        def v_values(self, s, h_s=None):
            return v_exact[env.state_index(np.atleast_2d(s))]

        def q_values(self, s, a, h_s=None):
            s, a = np.atleast_2d(s), np.atleast_2d(a)
            ai = [int(np.argmin(np.sum((env.action_set - arow) ** 2, axis=1)))
                  for arow in a]
            return q_exact[env.state_index(s), ai]

    net = Mlp([state_feat.dim, *LEARN.hidden, env.d_a],
              seed=int(substream(0, "policy-init").integers(1 << 31)))
    policy = SafePolicy(net=net, state_feat=state_feat, low=env.action_bounds[:, 0].copy(),
                        high=env.action_bounds[:, 1].copy(), lr=1e-3)
    feasibility_guided_policy_update(policy, reward_advantage(reward, data.s, data.a),
                                     OracleCritic(), data, steps=800, cfg=LEARN, seed=0)
    feasible_states = env.states[v_exact[env.state_index(env.states)] <= 0]
    for s in feasible_states[::3]:
        state = s.copy()
        for _ in range(10):
            a = env.clip_action(policy.act(state[None])[0])
            state = np.array(env.transition(state, a))
            assert v_exact[env.state_index(state[None])[0]] <= 0.0, (s, state)


def test_evaluate_policy_normalization(integrator):
    env, data = integrator
    policy = make_policy(env, data, LEARN, seed=0)
    report = evaluate_policy(policy, env, episodes=3, reward_norm=(-10.0, 10.0),
                             seed=0)
    assert report.episodes == 3
    assert report.safe == (report.normalized_cost <= 1.0)
    with pytest.raises(ValueError):
        evaluate_policy(policy, env, episodes=3, reward_norm=(1.0, 1.0))
    with pytest.raises(ValueError):
        evaluate_policy(policy, env, episodes=0, reward_norm=(0.0, 1.0))


def reference_evaluate(policy, env, episodes, reward_norm, seed):
    """The per-row evaluation loop: each episode alone, one one-row GEMM
    pass per step, in the order ``evaluate_policy`` used before lockstep."""
    lo, hi = reward_norm
    returns, violations = [], []
    for ep in range(episodes):
        s = env.initial_state(substream(seed, "eval-episode", ep))
        total_r, total_c = 0.0, 0
        for _ in range(env.horizon):
            a = env.clip_action(policy.act_batch(np.array([s]))[0])
            s2 = env.transition(s, a)
            total_r += env.reward(s, a, s2)
            total_c += env.violation(s2)
            s = s2
        returns.append(total_r)
        violations.append(total_c)
    norm_cost = float(np.mean(violations)) / 10.0
    return EvalReport(
        normalized_reward=(float(np.mean(returns)) - lo) / (hi - lo),
        normalized_cost=norm_cost, episodes=episodes, safe=norm_cost <= 1.0,
        mean_violations=float(np.mean(violations)), mean_return=float(np.mean(returns)))


def report_bits(report):
    return [v.hex() if isinstance(v, float) else v for v in astuple(report)]


@pytest.fixture(scope="module")
def gridworld():
    env = make_hazard_gridworld(7, 7, [(3, 3), (2, 4)], momentum=1, horizon=30)
    mix = behavior_mixture(env, [("random", 1.0)])
    return env, collect_safe_dataset(env, mix, n_transitions=600, seed=4)


@pytest.mark.parametrize("world", ["integrator", "gridworld"])
@settings(max_examples=15, deadline=None)
@given(net_seed=st.integers(0, 2**31 - 1), seed=st.integers(0, 2**31 - 1),
       episodes=st.integers(1, 25), scale=st.sampled_from([0.5, 1.0, 4.0]))
@example(net_seed=0, seed=0, episodes=20, scale=1.0)
def test_lockstep_evaluation_equals_the_per_row_loop_bit_for_bit(
        request, world, net_seed, seed, episodes, scale):
    env, data = request.getfixturevalue(world)
    policy = make_policy(env, data, LEARN, seed=net_seed)
    rng = np.random.default_rng(net_seed)
    for w, b in zip(policy.net.weights, policy.net.biases):
        w *= scale
        b[:] = rng.normal(scale=0.5, size=b.shape)
    got = evaluate_policy(policy, env, episodes, reward_norm=(-5.0, 5.0), seed=seed)
    want = reference_evaluate(policy, env, episodes, (-5.0, 5.0), seed)
    assert report_bits(got) == report_bits(want)


def test_trained_policy_evaluates_like_the_per_row_loop(integrator):
    env, data = integrator
    policy = make_policy(env, data, LEARN, seed=5)
    feasibility_guided_policy_update(policy, np.zeros(len(data)), None, data,
                                     steps=30, cfg=LEARN, seed=5)
    got = evaluate_policy(policy, env, 40, reward_norm=(-5.0, 5.0), seed=9)
    assert report_bits(got) == report_bits(reference_evaluate(policy, env, 40, (-5.0, 5.0), 9))


@pytest.mark.parametrize("world", ["integrator", "gridworld"])
def test_evaluation_equals_the_array_row_code(request, world):
    env, data = request.getfixturevalue(world)
    rows = (array_rows.integrator_rows(1.0, 1.0, 0.1, 1.0) if world == "integrator"
            else array_rows.grid_rows(7, 7, [(3, 3), (2, 4)], 1))
    policy = make_policy(env, data, LEARN, seed=7)
    feasibility_guided_policy_update(policy, np.zeros(len(data)), None, data,
                                     steps=30, cfg=LEARN, seed=7)
    got = evaluate_policy(policy, env, 20, reward_norm=(-5.0, 5.0), seed=3)
    want = array_rows.evaluate_policy(policy, array_rows.ArrayRowEnv(env, rows), 20,
                                      reward_norm=(-5.0, 5.0), seed=3)
    assert report_bits(got) == report_bits(want)


@pytest.mark.parametrize("world", ["integrator", "gridworld"])
def test_evaluation_makes_one_policy_pass_per_time_step(request, world, monkeypatch):
    env, data = request.getfixturevalue(world)
    policy = make_policy(env, data, LEARN, seed=0)
    passes = []
    forward = Mlp.forward

    def counted(net, x, cache=True):
        passes.append(len(x))
        return forward(net, x, cache=cache)

    monkeypatch.setattr(Mlp, "forward", counted)
    evaluate_policy(policy, env, 7, reward_norm=(-5.0, 5.0), seed=0)
    assert passes == [7] * env.horizon


def test_eval_report_cost_scaling():
    report = EvalReport(normalized_reward=0.5, normalized_cost=1.5, episodes=1,
                        safe=False, mean_violations=15.0, mean_return=0.0)
    assert report.mean_violations / 10.0 == report.normalized_cost
    assert not report.safe
    row = report.csv_row("toy", 3)
    assert row.startswith("toy,3,1,")


def test_reward_norm_from_dataset(integrator):
    env, data = integrator
    lo, hi = reward_norm_from_dataset(data)
    assert hi > lo


def test_policy_checkpoint_roundtrip(integrator, tmp_path):
    env, data = integrator
    policy = make_policy(env, data, LEARN, seed=3)
    save_policy(policy, tmp_path / "pol")
    back = load_policy(tmp_path / "pol", env)
    assert back.trainer.lr == policy.trainer.lr
    acts_a = policy.act_batch(data.s[:16])
    acts_b = back.act_batch(data.s[:16])
    assert np.array_equal(acts_a, acts_b)


def test_inference_passes_leave_no_activations_for_backward(integrator):
    # Value, policy, target and validation passes never feed backward, so
    # they keep no activations: none stays pinned in memory after the call.
    env, data = integrator
    s, a = data.s[:32], data.a[:32]
    reward = make_reward_critic(data, LEARN, seed=1)
    feas = make_feasibility_critic(env, data, LEARN, seed=1)
    policy = make_policy(env, data, LEARN, seed=1)
    nets = [net for c in (reward, feas)
            for net in (c.q_net, c.v_net, c.q_target, c.v_target)] + [policy.net]

    def assert_no_cache(nets):
        for net in nets:
            with pytest.raises(BackwardBeforeForward):
                net.backward(np.zeros((4, net.sizes[-1])))

    for net in nets:
        net.forward(np.zeros((4, net.sizes[0])))  # a training pass caches
    for critic in (reward, feas):
        critic.q_values(s, a)
        critic.v_values(s)
    policy.act_batch(s)
    assert_no_cache([net for c in (reward, feas) for net in (c.q_net, c.v_net)]
                    + [policy.net])

    # The target nets are read only by the updates.
    update_reward_critic(reward, data, steps=1, cfg=LEARN)
    update_feasibility_critics(feas, relabel_offline(data, None), [],
                               steps=1, cfg=LEARN)
    assert_no_cache([net for c in (reward, feas) for net in (c.q_target, c.v_target)])

    model = train_ensemble(data, **dynamics(n_total=2, n_elite=1, epochs=1), seed=3)
    assert_no_cache(model.members)
