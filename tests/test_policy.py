import numpy as np
import pytest

from reachsafe.approx import BackwardBeforeForward
from reachsafe.collect import collect_safe_dataset
from reachsafe.cmdp import OfflineDataset, SAFE_ONLY
from reachsafe.critics import (
    CriticConfig,
    make_feasibility_critic,
    onehot_action_featurizer,
    onehot_state_featurizer,
    update_feasibility_critics,
)
from reachsafe.dynamics import TrainConfig, train_ensemble
from reachsafe.envs import behavior_mixture, make_double_integrator, make_hazard_gridworld
from reachsafe.oracle import compute_feasible_set_oracle
from reachsafe.policy import (
    EvalReport,
    PolicyConfig,
    RewardCriticConfig,
    RolloutDataRejected,
    bc_weights,
    evaluate_policy,
    feasibility_guided_policy_update,
    load_policy,
    make_policy,
    make_reward_critic,
    reward_norm_from_dataset,
    save_policy,
    update_reward_critic,
)
from reachsafe.reachability import tabular_value_iteration
from reachsafe.rollout import RolloutBuffer
from reachsafe.tabular import tabulate


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
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    critic = make_reward_critic(env, ds)
    buffer = RolloutBuffer(s=ds.s, a=ds.a, label=np.zeros(len(ds), dtype=int),
                           h_s=np.full(len(ds), -1.0),
                           origin=np.zeros(len(ds), dtype=int))
    with pytest.raises(RolloutDataRejected):
        update_reward_critic(critic, buffer, steps=1)
    tagged = _toy_dataset()
    tagged.meta["kind"] = "rollout-buffer"
    with pytest.raises(RolloutDataRejected):
        update_reward_critic(critic, tagged, steps=1)


def test_reward_critic_fits_terminal_reward():
    # Every transition is terminal with r = 1, so q must go to 1.
    ds = _toy_dataset(r_value=1.0, done=True)
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    critic = make_reward_critic(env, ds, RewardCriticConfig(lr=3e-3), seed=1)
    update_reward_critic(critic, ds, steps=1500, seed=1)
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
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    critic = make_reward_critic(env, ds, RewardCriticConfig(gamma=0.9, lr=3e-3,
                                                            target_rate=0.05),
                                seed=2)
    update_reward_critic(critic, ds, steps=4000, seed=2)
    q = critic.q_values(ds.s, ds.a)
    assert np.allclose(q, 5.0, atol=0.25), q.mean()


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
    q = {}
    for violating in (False, True):
        buffer = RolloutBuffer(
            s=data.s[rows], a=data.a[rows], label=np.zeros(len(rows), dtype=int),
            h_s=np.full(len(rows), env.h_min), origin=rows,
            elite_next=_stub_elite_next(env, data.s[rows], data.a[rows], violating))
        critic = make_feasibility_critic(
            env, data, CriticConfig(lr=1e-2, rollout_batch_fraction=1.0), seed=0,
            cost_fn=env.margin_predicate(0.0))
        update_feasibility_critics(critic, data, buffer, steps=100)
        q[violating] = float(critic.q_values(buffer.s, buffer.a).mean())
    assert q[True] > q[False] + 0.5, q


def test_reward_critic_tracks_sources(integrator):
    env, data = integrator
    critic = make_reward_critic(env, data)
    update_reward_critic(critic, data, steps=5)
    assert critic.sources_seen == [SAFE_ONLY]


def test_bc_weights_gate_blocks_positive_qh(integrator):
    env, data = integrator
    reward = make_reward_critic(env, data, seed=0)
    update_reward_critic(critic=reward, offline=data, steps=50)
    feas = make_feasibility_critic(env, data, CriticConfig(), seed=0,
                                   cost_fn=env.margin_predicate(0.04))
    # Push q_h net strongly positive so every action is gated off.
    feas.q_net.biases[-1][:] = 5.0
    feas.v_net.biases[-1][:] = -5.0  # states look feasible
    w = bc_weights(reward, feas, data.s[:32], data.a[:32], 3.0, 100.0)
    assert np.all(w == 0.0)


def test_bc_weights_reduce_to_awr_when_all_safe(integrator):
    env, data = integrator
    reward = make_reward_critic(env, data, seed=0)
    update_reward_critic(critic=reward, offline=data, steps=50)
    feas = make_feasibility_critic(env, data, CriticConfig(), seed=0)
    feas.q_net.biases[-1][:] = -5.0
    feas.v_net.biases[-1][:] = -5.0
    gated = bc_weights(reward, feas, data.s[:64], data.a[:64], 3.0, 100.0)
    plain = bc_weights(reward, None, data.s[:64], data.a[:64], 3.0, 100.0)
    assert np.allclose(gated, plain)


def test_bc_weights_bounded(integrator):
    env, data = integrator
    reward = make_reward_critic(env, data, seed=0)
    feas = make_feasibility_critic(env, data, CriticConfig(), seed=0)
    w = bc_weights(reward, feas, data.s, data.a, 10.0, 100.0)
    assert np.all(w >= 0.0)
    assert np.all(w <= 100.0)


def test_weight_scaling_preserves_action_ranking(integrator):
    env, data = integrator
    reward = make_reward_critic(env, data, seed=0)
    update_reward_critic(critic=reward, offline=data, steps=50)
    w = bc_weights(reward, None, data.s[:100], data.a[:100], 3.0, np.inf)
    order = np.argsort(w)
    order_scaled = np.argsort(2.5 * w)
    assert np.array_equal(order, order_scaled)


def test_policy_update_trains_and_respects_bounds(integrator):
    env, data = integrator
    reward = make_reward_critic(env, data, seed=0)
    update_reward_critic(critic=reward, offline=data, steps=200)
    policy = make_policy(env, data, PolicyConfig(lr=1e-3), seed=0)
    feasibility_guided_policy_update(policy, reward, None, data, steps=300, seed=0)
    acts = policy.act_batch(data.s[:200])
    assert acts.min() >= env.action_bounds[0, 0] - 1e-9
    assert acts.max() <= env.action_bounds[0, 1] + 1e-9
    assert policy.steps_trained == 300


def test_policy_update_rejects_empty_batch(integrator):
    env, data = integrator
    reward = make_reward_critic(env, data, seed=0)
    policy = make_policy(env, data, seed=0)
    empty = data.subset(np.array([], dtype=int))
    with pytest.raises(ValueError):
        feasibility_guided_policy_update(policy, reward, None, empty, steps=1)


def test_greedy_actions_stay_feasible_with_oracle_critic():
    # Clone only the feasibility-sound actions on the momentum gridworld:
    # greedy actions from feasible states must keep the oracle value <= 0.
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1, gamma=0.95)
    mix = behavior_mixture(env, [("goal_greedy", 0.5), ("random", 0.5)])
    data = collect_safe_dataset(env, mix, n_transitions=2500, seed=4)
    model = tabulate(env)
    exact = tabular_value_iteration(model, gamma=0.95, tol=1e-12)
    v_exact = exact.v()

    reward = make_reward_critic(env, data, seed=0,
                                state_feat=onehot_state_featurizer(env),
                                action_feat=onehot_action_featurizer(env))
    update_reward_critic(critic=reward, offline=data, steps=400, seed=0)

    class OracleCritic:
        h_min, h_max = env.h_min, env.h_max

        def v_values(self, s, target=False):
            return v_exact[env.state_index(np.atleast_2d(s))]

        def q_values(self, s, a, target=False):
            s, a = np.atleast_2d(s), np.atleast_2d(a)
            ai = [int(np.argmin(np.sum((env.action_set - arow) ** 2, axis=1)))
                  for arow in a]
            return exact.q[env.state_index(s), ai]

    policy = make_policy(env, data, PolicyConfig(lr=1e-3), seed=0,
                         state_feat=onehot_state_featurizer(env))
    feasibility_guided_policy_update(policy, reward, OracleCritic(), data,
                                     steps=800, seed=0)
    feasible_states = env.states[v_exact[env.state_index(env.states)] <= 0]
    for s in feasible_states[::3]:
        state = s.copy()
        for _ in range(10):
            a = env.clip_action(policy.act(state))
            state = env.transition(state, a)
            assert v_exact[env.state_index(state[None])[0]] <= 0.0, (s, state)


def test_evaluate_policy_normalization(integrator):
    env, data = integrator
    policy = make_policy(env, data, seed=0)
    report = evaluate_policy(policy, env, episodes=3, reward_norm=(-10.0, 10.0),
                             seed=0)
    assert report.episodes == 3
    assert report.safe == (report.normalized_cost <= 1.0)
    with pytest.raises(ValueError):
        evaluate_policy(policy, env, episodes=3, reward_norm=(1.0, 1.0))
    with pytest.raises(ValueError):
        evaluate_policy(policy, env, episodes=0, reward_norm=(0.0, 1.0))


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
    policy = make_policy(env, data, seed=3)
    save_policy(policy, tmp_path / "pol")
    back = load_policy(tmp_path / "pol", env)
    assert back.cfg == policy.cfg
    acts_a = policy.act_batch(data.s[:16])
    acts_b = back.act_batch(data.s[:16])
    assert np.array_equal(acts_a, acts_b)


def test_inference_passes_leave_no_activations_for_backward(integrator):
    # Value, policy, target and validation passes never feed backward, so
    # they keep no activations: none stays pinned in memory after the call.
    env, data = integrator
    s, a = data.s[:32], data.a[:32]
    reward = make_reward_critic(env, data, seed=1)
    feas = make_feasibility_critic(env, data, seed=1)
    policy = make_policy(env, data, seed=1)
    nets = [net for c in (reward, feas)
            for net in (c.q_net, c.v_net, c.q_target, c.v_target)] + [policy.net]

    def assert_no_cache(nets):
        for net in nets:
            with pytest.raises(BackwardBeforeForward):
                net.backward(np.zeros((4, net.sizes[-1])))

    for net in nets:
        net.forward(np.zeros((4, net.sizes[0])))  # a training pass caches
    for critic in (reward, feas):
        for target in (False, True):
            critic.q_values(s, a, target=target)
            critic.v_values(s, target=target)
    policy.act_batch(s)
    assert_no_cache(nets)

    update_reward_critic(reward, data, steps=1)
    update_feasibility_critics(feas, data, None, steps=1)
    assert_no_cache([net for c in (reward, feas) for net in (c.q_target, c.v_target)])

    for loss in ("nll", "mse"):
        model = train_ensemble(data, n_total=2, n_elite=1, epochs=1, seed=3,
                               cfg=TrainConfig(loss=loss))
        assert_no_cache([member.net for member in model.members])
