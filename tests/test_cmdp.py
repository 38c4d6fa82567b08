from dataclasses import replace

import numpy as np
import pytest

from reachsafe.cmdp import (
    ConfigurationError,
    OfflineDataset,
    SAFE_ONLY,
    UNSAFE_SMALL,
    empty_dataset,
    load_dataset,
    save_dataset,
    save_npz,
)
from reachsafe.envs import make_double_integrator, make_hazard_gridworld


def test_h_is_binary_and_matches_cost_indicator():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=0)
    for s in env.states:
        h = env.h(s)
        assert h in (env.h_min, env.h_max)
        assert int(h > 0) == env.cost(s)


def test_h_defaults_on_hazard_cell():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=0)
    assert env.h(np.array([2.0, 2.0])) == 1.0
    assert env.h(np.array([0.0, 0.0])) == -1.0


def test_hazard_out_of_bounds_rejected():
    with pytest.raises(ConfigurationError):
        make_hazard_gridworld(5, 5, [(9, 1)], momentum=0)


def test_grid_too_small_rejected():
    with pytest.raises(ConfigurationError):
        make_hazard_gridworld(2, 5, [], momentum=0)


def test_double_integrator_parameter_validation():
    with pytest.raises(ConfigurationError):
        make_double_integrator(x_lim=-1.0, a_max=1.0, dt=0.1, horizon=10)
    with pytest.raises(ConfigurationError):
        make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.0, horizon=10)


def test_double_integrator_dynamics_and_violation():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=50)
    s2 = env.transition(np.array([0.0, 0.5]), np.array([1.0]))
    assert np.allclose(s2, [0.05, 0.6])
    assert env.cost(np.array([1.01, 0.0])) == 1
    assert env.cost(np.array([1.0, 0.0])) == 0
    assert env.cost(np.array([-1.2, 0.0])) == 1


def test_momentum_gridworld_coasts_then_steers():
    env = make_hazard_gridworld(5, 5, [(2, 2)], momentum=1)
    s = np.array([1.0, 1.0, 1.0, 0.0])  # moving +x
    s2 = env.transition(s, np.array([0.0, 1.0]))  # steer +y
    assert np.allclose(s2, [2.0, 1.0, 0.0, 1.0])
    # Reversal is forbidden: asking for -x keeps the +x motion.
    s3 = env.transition(s, np.array([-1.0, 0.0]))
    assert np.allclose(s3, [2.0, 1.0, 1.0, 0.0])
    # A wall bump absorbs momentum, after which any direction is legal.
    s_wall = np.array([4.0, 1.0, 1.0, 0.0])
    s4 = env.transition(s_wall, np.array([-1.0, 0.0]))
    assert np.allclose(s4, [4.0, 1.0, -1.0, 0.0])


def test_state_enumeration_roundtrip():
    env = make_hazard_gridworld(4, 3, [(1, 1)], momentum=1)
    assert np.array_equal(env.state_index(env.states), np.arange(len(env.states)))


def test_margin_predicate_matches_ground_truth_at_zero():
    for env in (
        make_hazard_gridworld(5, 5, [(2, 2), (3, 1)], momentum=0),
        make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=50),
    ):
        pred = env.margin_predicate(0.0)
        if env.is_tabular:
            probe = env.states
        else:
            rng = np.random.default_rng(0)
            probe = np.stack([rng.uniform(-1.3, 1.3, 200), rng.uniform(-1, 1, 200)], axis=1)
        assert np.array_equal(pred(probe), [env.cost(s) for s in probe])


def test_margin_predicate_monotone_in_margin():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=50)
    rng = np.random.default_rng(1)
    probe = np.stack([rng.uniform(-1.3, 1.3, 200), rng.uniform(-1, 1, 200)], axis=1)
    small = env.margin_predicate(0.1)(probe)
    large = env.margin_predicate(0.3)(probe)
    assert np.all(large >= small)


def test_dataset_tag_invariants():
    bad = dict(
        s=np.zeros((1, 2)), a=np.zeros((1, 1)), r=np.zeros(1), s2=np.zeros((1, 2)),
        done=np.zeros(1, dtype=bool), cost=np.ones(1, dtype=int),
    )
    with pytest.raises(ConfigurationError):
        OfflineDataset(tag=SAFE_ONLY, **bad)
    too_many = dict(
        s=np.zeros((101, 2)), a=np.zeros((101, 1)), r=np.zeros(101),
        s2=np.zeros((101, 2)), done=np.zeros(101, dtype=bool),
        cost=np.ones(101, dtype=int),
    )
    with pytest.raises(ConfigurationError):
        OfflineDataset(tag=UNSAFE_SMALL, **too_many)


def _assert_same_dataset(back, ds):
    for name in ("s", "a", "r", "s2", "done", "cost"):
        x, y = getattr(back, name), getattr(ds, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name
    assert back.tag == ds.tag and back.meta == ds.meta


def test_dataset_file_roundtrip(tmp_path):
    ds = OfflineDataset(
        s=np.array([[0.0, 1.0], [1.0, 1.0 / 3.0]]),
        a=np.array([[0.5], [-0.5]]),
        r=np.array([0.1, -0.2]),
        s2=np.array([[1.0, 1.0], [2.0, 1.0]]),
        done=np.array([False, True]),
        cost=np.array([0, 0]),
        tag=SAFE_ONLY,
        meta={"env": "toy", "d_s": 2, "d_a": 1, "seed": 7,
              "episode_ends": [{"index": 1, "reason": "horizon"}]},
    )
    path = tmp_path / "ds.npz"
    save_dataset(ds, path)
    back = load_dataset(path)
    _assert_same_dataset(back, ds)
    assert back.r.dtype == np.float64 and back.done.dtype == bool
    assert back.cost.dtype == np.dtype(int)
    assert back.meta["episode_ends"] == [{"index": 1, "reason": "horizon"}]


def test_a_saved_dataset_with_a_short_column_is_refused_on_load(tmp_path):
    n = 10
    ds = OfflineDataset(s=np.zeros((n, 2)), a=np.zeros((n, 1)), r=np.zeros(n),
                        s2=np.zeros((n, 2)), done=np.zeros(n, dtype=bool),
                        cost=np.zeros(n, dtype=int), tag=SAFE_ONLY)
    with pytest.raises(ConfigurationError, match="column cost"):
        replace(ds, cost=np.zeros(3, dtype=int))
    ds.cost = np.zeros(3, dtype=int)  # set after the check, as a corrupt file would carry it
    save_dataset(ds, tmp_path / "short.npz")
    with pytest.raises(ConfigurationError, match="column cost"):
        load_dataset(tmp_path / "short.npz")


def test_empty_dataset_roundtrip(tmp_path):
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    ds = empty_dataset(env, UNSAFE_SMALL, seed=3)
    save_dataset(ds, tmp_path / "empty.npz")
    back = load_dataset(tmp_path / "empty.npz")
    _assert_same_dataset(back, ds)
    assert back.s.shape == (0, env.d_s) and back.a.shape == (0, env.d_a)


def test_load_dataset_rejects_other_npz_files(tmp_path):
    save_npz(tmp_path / "buffer.npz", {"s": np.zeros((1, 2))}, {"kind": "rollout-buffer"})
    np.savez(tmp_path / "bare.npz", s=np.zeros((1, 2)))
    for name in ("buffer.npz", "bare.npz"):
        with pytest.raises(ConfigurationError, match="not a transitions file"):
            load_dataset(tmp_path / name)
