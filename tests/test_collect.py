import numpy as np
import pytest

import array_rows
from helpers import assert_same_bits
from reachsafe.collect import (
    MAX_EMPTY_EPISODES,
    SafeCollectionStalled,
    UnsafeSampleShortage,
    collect_safe_dataset,
    collect_unsafe_samples,
)
from reachsafe.cmdp import END_INTERVENTION, SAFE_ONLY, UNSAFE_SMALL
from reachsafe.config import build_behavior, build_env, default_config
from reachsafe.envs import (
    behavior_mixture,
    integrator_behavior,
    make_double_integrator,
    make_hazard_gridworld,
)
from reachsafe.oracle import compute_feasible_set_oracle


def test_safe_dataset_contains_no_violation():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1)
    mix = behavior_mixture(env, [("goal_greedy", 0.5), ("random", 0.5)])
    ds = collect_safe_dataset(env, mix, n_transitions=800, seed=3)
    assert ds.tag == SAFE_ONLY
    assert len(ds) == 800
    assert int(ds.cost.sum()) == 0
    for i in range(len(ds)):
        assert env.violation(ds.s[i]) == 0
        assert env.violation(ds.s2[i]) == 0


def intervention_ends(ds) -> list[int]:
    return [e["index"] for e in ds.meta["episode_ends"] if e["reason"] == END_INTERVENTION]


def test_straight_driver_terminals_are_infeasible():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    driver = integrator_behavior(env, "outward")
    ds = collect_safe_dataset(env, driver, n_transitions=400, seed=0)
    oracle = compute_feasible_set_oracle(env)
    terminals = intervention_ends(ds)
    assert terminals, "full-throttle driving must trigger interventions"
    assert not oracle.label(ds.s2[terminals]).any()
    assert "no_infeasible_terminals" not in ds.meta


def test_always_brake_never_triggers_intervention():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    braker = integrator_behavior(env, "brake")
    ds = collect_safe_dataset(env, braker, n_transitions=300, seed=1)
    assert ds.meta.get("no_infeasible_terminals") is True
    assert intervention_ends(ds) == []
    oracle = compute_feasible_set_oracle(env)
    assert oracle.label(ds.s[::7]).all()


def test_zero_transitions_is_a_valid_empty_dataset():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=0)
    ds = collect_safe_dataset(env, lambda s, rng: np.zeros(2), 0, seed=0)
    assert len(ds) == 0
    assert ds.tag == SAFE_ONLY


def test_collection_is_deterministic_per_seed():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    mix = behavior_mixture(env, [("creep", 0.6), ("random", 0.4)])
    a = collect_safe_dataset(env, mix, n_transitions=500, seed=11)
    b = collect_safe_dataset(env, mix, n_transitions=500, seed=11)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.a, b.a)
    assert np.array_equal(a.r, b.r)
    c = collect_safe_dataset(env, mix, n_transitions=500, seed=12)
    assert not np.array_equal(a.s, c.s)


def test_episode_metadata_distinguishes_end_reasons():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    mix = behavior_mixture(env, [("outward", 0.5), ("brake", 0.5)])
    ds = collect_safe_dataset(env, mix, n_transitions=600, seed=5)
    reasons = {e["reason"] for e in ds.meta["episode_ends"]}
    assert END_INTERVENTION in reasons
    assert "horizon" in reasons
    # rollout_start_states pulls in the terminal next states as well.
    starts = ds.rollout_start_states()
    assert len(starts) == len(ds) + len(ds.meta["episode_ends"])


def test_unsafe_samples_all_violate():
    env = make_hazard_gridworld(6, 6, [(3, 3), (1, 4)], momentum=0)
    ds = collect_unsafe_samples(env, n=100, seed=2)
    assert ds.tag == UNSAFE_SMALL
    assert len(ds) == 100
    assert np.all(ds.cost == 1)
    for i in range(len(ds)):
        assert env.violation(ds.s2[i]) == 1


def test_unsafe_zero_request_is_empty():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=0)
    ds = collect_unsafe_samples(env, n=0, seed=0)
    assert len(ds) == 0


def test_unsafe_sampling_errors_on_hazard_free_env():
    env = make_hazard_gridworld(5, 5, [], momentum=0)
    with pytest.raises(UnsafeSampleShortage) as err:
        collect_unsafe_samples(env, n=1, seed=0)
    assert err.value.found == 0


@pytest.mark.parametrize("kind", ["straight", "goal_greedy"])
def test_collection_that_keeps_no_step_fails_fast(kind):
    # From the one safe cell of this grid every move enters a hazard.
    cfg = default_config("gridworld")
    cfg.env.width = cfg.env.height = 3
    cfg.env.momentum = 0
    cfg.env.hazards = [[x, y] for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    cfg.data.behavior = [[kind, 1.0]]
    cfg.validate()
    env = build_env(cfg)
    with pytest.raises(SafeCollectionStalled, match=f"{MAX_EMPTY_EPISODES} episodes"):
        collect_safe_dataset(env, build_behavior(cfg, env), 100)


def _default_env(name):
    cfg = default_config("double_integrator" if name == "double_integrator" else "gridworld")
    if name == "gridworld_flat":
        cfg.env.momentum = 0
        cfg.validate()
    return cfg, build_env(cfg)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["gridworld", "gridworld_flat", "double_integrator"])
def test_collectors_equal_the_array_row_code(name, seed):
    cfg, env = _default_env(name)
    ref = array_rows.array_row_env(cfg.env, env)
    mixture = array_rows.behavior_mixture(ref, [(k, float(w)) for k, w in cfg.data.behavior])
    pairs = [
        (collect_safe_dataset(env, build_behavior(cfg, env), cfg.data.n_transitions, seed),
         array_rows.collect_safe_dataset(ref, mixture, cfg.data.n_transitions, seed)),
        (collect_unsafe_samples(env, cfg.data.n_unsafe, seed),
         array_rows.collect_unsafe_samples(ref, cfg.data.n_unsafe, seed)),
    ]
    for got, want in pairs:
        assert got.tag == want.tag and got.meta == want.meta
        for column in ("s", "a", "r", "s2", "done", "cost"):
            assert_same_bits(getattr(got, column), getattr(want, column))


@pytest.mark.parametrize("bounds", [[[-1.0, 1.0]], [[-1.0, 1.0], [-0.5, 2.0]]],
                         ids=["d_a=1", "d_a=2"])
def test_scalar_action_draws_equal_one_array_draw(bounds):
    # The unsafe collector draws a continuous action one dimension at a
    # time; every seeded unsafe set rests on this matching the array call.
    lo, hi = np.array(bounds).T
    for seed in range(200):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = [rng.uniform(low, high) for low, high in bounds]
            assert_same_bits(got, twin.uniform(lo, hi))
            assert rng.bit_generator.state == twin.bit_generator.state
