"""Per-row environment steps against the numpy formulas they replaced.

The steps compute in Python floats on tuple rows; the former numpy forms
of ``transition``, ``violation``, ``clip_action``, ``_snap_move`` and the
scripted behaviors are kept here as references, and every value must
match them bit for bit, signed zeros and NaN positions included. So must
the array-row code that the tuple rows replaced, kept in ``array_rows``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import array_rows
from array_rows import ArrayRowEnv, grid_rows, integrator_rows
from helpers import assert_same_bits
from reachsafe.collect import collect_safe_dataset, collect_unsafe_samples
from reachsafe.config import build_behavior, build_env, default_config
from reachsafe.envs import (
    GRID_MOVES,
    _snap_move,
    gridworld_behavior,
    integrator_behavior,
    make_double_integrator,
    make_hazard_gridworld,
)
from reachsafe.policy import evaluate_policy
from reachsafe.tabular import build_model

# The numpy references warn where an input overflows or adds inf to -inf;
# the Python-float steps give the same inf or NaN without a warning.
pytestmark = pytest.mark.filterwarnings(
    "ignore:(overflow|invalid value) encountered:RuntimeWarning")

# ---------------------------------------------------------------------------
# References: the numpy forms of the steps.
# ---------------------------------------------------------------------------


def ref_snap_move(a):
    d = np.sum((GRID_MOVES - np.asarray(a, dtype=float).reshape(2)) ** 2, axis=1)
    return int(np.argmin(d))


def ref_grid_steps(width, height, hazard_cells, momentum):
    hazards = {(int(x), int(y)) for x, y in hazard_cells}

    def in_grid(x, y):
        return 0 <= x < width and 0 <= y < height

    def violation(s):
        x, y = int(round(s[0])), int(round(s[1]))
        return int((x, y) in hazards)

    def transition(s, a):
        move = GRID_MOVES[ref_snap_move(a)]
        if momentum:
            x, y, vx, vy = s
            tx, ty = x + vx, y + vy
            if in_grid(tx, ty):
                nx, ny = tx, ty
                vin = np.array([vx, vy])
            else:
                nx, ny = x, y
                vin = np.zeros(2)
            if np.any(vin) and np.all(move == -vin):
                nv = vin
            else:
                nv = move
            return np.array([nx, ny, nv[0], nv[1]], dtype=float)
        x, y = s
        tx, ty = x + move[0], y + move[1]
        if not in_grid(tx, ty):
            tx, ty = x, y
        return np.array([tx, ty], dtype=float)

    return transition, violation


def ref_integrator_steps(x_lim, a_max, dt, v_max):
    def violation(s):
        return int(abs(float(s[0])) > x_lim)

    def transition(s, a):
        x, v = float(s[0]), float(s[1])
        acc = float(np.clip(np.asarray(a).reshape(-1)[0], -a_max, a_max))
        nx = x + v * dt
        nv = float(np.clip(v + acc * dt, -v_max, v_max))
        return np.array([nx, nv])

    return transition, violation


def ref_clip_action(env, a):
    a = np.asarray(a, dtype=float).reshape(env.d_a)
    return np.clip(a, env.action_bounds[:, 0], env.action_bounds[:, 1])


def ref_gridworld_behavior(env, kind, explore=0.25):
    gx, gy = env.states[:, :2].max(axis=0)

    def greedy(s, rng):
        if rng.random() < explore:
            return GRID_MOVES[int(rng.integers(1, len(GRID_MOVES)))]
        best, best_d = GRID_MOVES[0], np.inf
        for mv in GRID_MOVES[1:]:
            d = abs(s[0] + mv[0] - gx) + abs(s[1] + mv[1] - gy)
            if d < best_d:
                best, best_d = mv, d
        return best.copy()

    def random_walk(s, rng):
        return GRID_MOVES[int(rng.integers(len(GRID_MOVES)))]

    def straight(s, rng):
        if env.d_s == 4 and (s[2] != 0 or s[3] != 0):
            return np.array([s[2], s[3]])
        return GRID_MOVES[int(rng.integers(1, len(GRID_MOVES)))]

    return {"goal_greedy": greedy, "random": random_walk, "straight": straight}[kind]


def ref_integrator_behavior(env, kind, creep_speed=0.15, push_until=0.7,
                            hover_at=0.97, rush_speed=0.7):
    a_max = float(env.action_bounds[0, 1])
    dt = float(env.transition(np.array([0.0, 1.0]), np.array([0.0]))[0])

    def outward(s, rng):
        direction = np.sign(s[0]) if s[0] != 0 else 1.0
        return np.array([direction * a_max])

    def rush(direction, v):
        if v * direction < rush_speed:
            return np.array([direction * a_max])
        return np.array([np.clip((direction * rush_speed - v) / dt, -a_max, a_max)])

    def creep(s, rng):
        direction = np.sign(s[0]) if s[0] != 0 else 1.0
        if abs(s[0]) < push_until:
            return rush(direction, s[1])
        v_des = direction * creep_speed
        return np.array([np.clip((v_des - s[1]) / dt, -a_max, a_max)])

    def random_walk(s, rng):
        return np.array([rng.uniform(-a_max, a_max)])

    def brake(s, rng):
        return np.array([-np.sign(s[1]) * a_max]) if abs(s[1]) > 1e-9 else np.array([0.0])

    def hover(s, rng):
        direction = np.sign(s[0]) if s[0] != 0 else 1.0
        target = direction * hover_at
        if abs(s[0]) < push_until:
            return rush(direction, s[1])
        v_des = np.clip(1.5 * (target - s[0]), -0.2, 0.2)
        return np.array([np.clip((v_des - s[1]) / dt, -a_max, a_max)])

    def probe(s, rng):
        direction = np.sign(s[0]) if s[0] != 0 else 1.0
        outward_v = s[1] * direction
        if abs(s[0]) < 0.75 * push_until:
            return rush(direction, s[1])
        if outward_v > 0.3 or abs(s[0]) > hover_at:
            return np.array([-direction * a_max])
        v_des = direction * np.clip(1.2 * (hover_at * direction - s[0]) * direction,
                                    -0.3, 0.3)
        return np.array([np.clip((v_des - s[1]) / dt, -a_max, a_max)])

    return {"outward": outward, "creep": creep, "random": random_walk,
            "brake": brake, "hover": hover, "probe": probe}[kind]


def reference_env(cfg, env):
    """``env`` with the numpy ``transition`` and ``violation`` swapped in."""
    e = cfg.env
    if e.name == "gridworld":
        transition, violation = ref_grid_steps(e.width, e.height, e.hazards, e.momentum)
    else:
        transition, violation = ref_integrator_steps(e.x_lim, e.a_max, e.dt, e.v_max)
    return dataclasses.replace(env, transition=transition, violation=violation)


def reference_mixture(env, cfg):
    maker = ref_gridworld_behavior if env.name.startswith("gridworld") else ref_integrator_behavior
    return [(maker(env, kind), float(w)) for kind, w in cfg.data.behavior]


def outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as err:
        return type(err)


# ---------------------------------------------------------------------------
# Environments and inputs.
# ---------------------------------------------------------------------------

HAZARDS = [(2, 2), (4, 4), (5, 1)]
GRID = make_hazard_gridworld(7, 7, HAZARDS, momentum=1)
FLAT = make_hazard_gridworld(5, 4, [(1, 2)], momentum=0)
DI = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=50, v_max=1.0)
GRID_REF = ref_grid_steps(7, 7, HAZARDS, 1)
FLAT_REF = ref_grid_steps(5, 4, [(1, 2)], 0)
DI_REF = ref_integrator_steps(1.0, 1.0, 0.1, 1.0)
# The same environments with the array-row code in front.
ARRAY_ROW = {"grid": (GRID, ArrayRowEnv(GRID, grid_rows(7, 7, HAZARDS, 1))),
             "flat": (FLAT, ArrayRowEnv(FLAT, grid_rows(5, 4, [(1, 2)], 0))),
             "di": (DI, ArrayRowEnv(DI, integrator_rows(1.0, 1.0, 0.1, 1.0)))}

EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.7, -0.7, 0.97, -0.97, 0.525, -0.525,
         float("nan"), float("inf"), float("-inf")]
# Any float, with the clip bounds, signed zeros, behavior thresholds and
# non-finite values drawn often.
any_float = st.one_of(st.sampled_from(EDGES), st.floats(-3.0, 3.0),
                      st.floats(allow_nan=True, allow_infinity=True))
finite_float = st.one_of(st.sampled_from([v for v in EDGES if np.isfinite(v)]),
                         st.floats(-3.0, 3.0), st.floats(-1e300, 1e300))
# Cell coordinates one step past every wall, momentum components, and the
# off-grid reals a learned model predicts.
grid_coord = st.one_of(st.integers(-1, 7).map(float), any_float)
move_coord = st.one_of(st.sampled_from([-1.0, 0.0, -0.0, 1.0]), any_float)


def vec(*coords):
    """A row of Python floats, as the collectors and the evaluator pass it."""
    return st.tuples(*coords)


# ---------------------------------------------------------------------------
# Steps.
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(vec(any_float, any_float), vec(any_float))
@example(np.array([0.3, 1.0]), np.array([1.0]))      # velocity at the cap
@example(np.array([0.3, -1.0]), np.array([-1.0]))
@example(np.array([-0.0, 0.0]), np.array([-0.0]))    # signed zeros
@example(np.array([0.0, -0.0]), np.array([0.0]))
@example(np.array([1.0, 0.9]), np.array([5.0]))      # action beyond the bound
def test_integrator_step_matches_numpy_reference(s, a):
    transition, violation = DI_REF
    assert_same_bits(DI.transition(s, a), transition(s, a))
    assert DI.violation(s) == violation(s)


@settings(max_examples=400, deadline=None)
@given(vec(grid_coord, grid_coord, move_coord, move_coord), vec(move_coord, move_coord))
@example(np.array([0.0, 3.0, -1.0, 0.0]), np.array([1.0, 0.0]))   # wall bump
@example(np.array([6.0, 6.0, 0.0, 1.0]), np.array([0.0, -1.0]))   # bump, then reverse
@example(np.array([3.0, 3.0, 1.0, 0.0]), np.array([-1.0, 0.0]))   # reversal refused
@example(np.array([3.0, 3.0, -0.0, 1.0]), np.array([0.0, -1.0]))
@example(np.array([3.0, 3.0, 0.0, -0.0]), np.array([-0.0, 0.0]))
@example(np.array([2.6, 3.4, 0.4, -0.6]), np.array([0.2, -0.9]))  # model-predicted
def test_grid_step_matches_numpy_reference(s, a):
    transition, violation = GRID_REF
    assert_same_bits(GRID.transition(s, a), transition(s, a))
    assert outcome(GRID.violation, s) == outcome(violation, s)
    flat_transition, flat_violation = FLAT_REF
    assert_same_bits(FLAT.transition(s[:2], a), flat_transition(s[:2], a))
    assert outcome(FLAT.violation, s[:2]) == outcome(flat_violation, s[:2])


def test_grid_violation_still_raises_on_nan():
    with pytest.raises(ValueError):
        GRID.violation(np.array([np.nan, 1.0, 0.0, 0.0]))


@settings(max_examples=300, deadline=None)
@given(vec(any_float, any_float))
@example(np.array([0.5, 0.0]))     # stay/right tie: the first row wins
@example(np.array([0.0, -0.5]))
@example(np.array([-0.0, -0.0]))
def test_snap_move_matches_argmin(a):
    assert _snap_move(a) == ref_snap_move(a)


@settings(max_examples=200, deadline=None)
@given(vec(finite_float, finite_float))
@example(np.array([1.0, -1.0]))
@example(np.array([-0.0, 0.0]))
def test_clip_action_matches_np_clip(a):
    assert_same_bits(GRID.clip_action(a), ref_clip_action(GRID, a))
    assert_same_bits(DI.clip_action(a[:1]), ref_clip_action(DI, a[:1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("env", [GRID, DI], ids=["grid", "di"])
def test_clip_action_refuses_a_non_finite_action(env, bad):
    a = np.zeros(env.d_a)
    a[-1] = bad
    with pytest.raises(ValueError, match="action must be finite"):
        env.clip_action(a)


@pytest.mark.parametrize("env", [GRID, DI], ids=["grid", "di"])
def test_a_nan_emitting_policy_is_refused_not_scored_safe(env):
    class NanPolicy:
        def act(self, s):
            return np.full((len(s), env.d_a), np.nan)

    with pytest.raises(ValueError, match="action must be finite"):
        evaluate_policy(NanPolicy(), env, episodes=2, reward_norm=(-1.0, 1.0))


@pytest.mark.parametrize("kind", ["outward", "creep", "random", "brake", "hover", "probe"])
@settings(max_examples=150, deadline=None)
@given(s=vec(any_float, any_float), seed=st.integers(0, 2**32 - 1))
@example(s=np.array([-0.0, 0.2]), seed=0)
@example(s=np.array([0.8, 1e-10]), seed=0)
@example(s=np.array([0.8, 1e-9]), seed=0)       # the brake's dead band
@example(s=np.array([-0.8, -1e-9]), seed=0)
def test_integrator_behaviors_match_numpy_reference(kind, s, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_bits(integrator_behavior(DI, kind)(s, rng),
                     ref_integrator_behavior(DI, kind)(s, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", ["goal_greedy", "random", "straight"])
@settings(max_examples=150, deadline=None)
@given(s=vec(grid_coord, grid_coord, move_coord, move_coord),
       seed=st.integers(0, 2**32 - 1))
def test_grid_behaviors_match_numpy_reference(kind, s, seed):
    for env, state in ((GRID, s), (FLAT, s[:2])):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_bits(gridworld_behavior(env, kind)(state, rng),
                         ref_gridworld_behavior(env, kind)(state, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# Whole collectors and models on the default environments.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["gridworld", "double_integrator"])
def test_collectors_and_models_match_the_reference_env(name):
    cfg = default_config(name)
    env = build_env(cfg)
    ref = reference_env(cfg, env)

    got = collect_safe_dataset(env, build_behavior(cfg, env), 1500, seed=5)
    want = collect_safe_dataset(ref, reference_mixture(ref, cfg), 1500, seed=5)
    assert got.meta == want.meta
    assert got.meta["n_intervened_episodes"] > 0
    for column in ("s", "a", "r", "s2", "done", "cost"):
        assert_same_bits(getattr(got, column), getattr(want, column))

    got = collect_unsafe_samples(env, 40, seed=5)
    want = collect_unsafe_samples(ref, 40, seed=5)
    for column in ("s", "a", "r", "s2"):
        assert_same_bits(getattr(got, column), getattr(want, column))

    # The model steps through the batch ``transitions``; the reference
    # loops the numpy per-row step over the same state-action pairs.
    model = build_model(env)
    n, m = model.n_states, model.n_actions
    successors = np.array([ref.transition(s, a) for s in model.states for a in model.actions])
    assert np.array_equal(model.next_idx, model.index(successors).reshape(n, m))
    assert_same_bits(model.h, np.array([ref.h(s) for s in model.states]))


# ---------------------------------------------------------------------------
# Tuple rows against the array-row code they replaced.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["grid", "flat", "di"])
@settings(max_examples=300, deadline=None)
@given(s=vec(grid_coord, grid_coord, move_coord, move_coord),
       a=vec(any_float, any_float), s2=vec(grid_coord, grid_coord, move_coord, move_coord))
@example(s=(3.0, 3.0, 1.0, 0.0), a=(-1.0, 0.0), s2=(4.0, 3.0, 1.0, 0.0))
@example(s=(0.3, 1.0, 0.0, 0.0), a=(5.0, 0.0), s2=(0.2, -0.0, 0.0, 0.0))
@example(s=(-0.0, 0.0, 0.0, 0.0), a=(-0.0, -0.0), s2=(-0.0, 0.0, 0.0, 0.0))
def test_row_steps_equal_the_array_row_code(name, s, a, s2):
    env, ref = ARRAY_ROW[name]
    s, s2, a = s[:env.d_s], s2[:env.d_s], a[:env.d_a]
    assert isinstance(env.transition(s, a), tuple)
    assert_same_bits(env.transition(s, a), ref.transition(np.array(s), np.array(a)))
    assert_same_bits(env.reward(s, a, s2), ref.reward(np.array(s), np.array(a), np.array(s2)))
    for method in ("violation", "cost", "h"):
        assert outcome(getattr(env, method), s) == outcome(getattr(ref, method), np.array(s))
    got, want = outcome(env.clip_action, a), outcome(ref.clip_action, np.array(a))
    if isinstance(want, type):
        assert got is want
    else:
        assert isinstance(got, tuple)
        assert_same_bits(got, want)


@pytest.mark.parametrize("name", ["grid", "flat", "di"])
def test_initial_states_equal_the_array_row_code(name):
    env, ref = ARRAY_ROW[name]
    for seed in range(50):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = env.initial_state(rng)
        assert isinstance(got, tuple) and all(type(x) is float for x in got)
        assert_same_bits(got, ref.initial_state(ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


BEHAVIORS = {"di": (integrator_behavior, array_rows.integrator_behavior, ["di"]),
             "grid": (gridworld_behavior, array_rows.gridworld_behavior, ["grid", "flat"])}


@pytest.mark.parametrize("family,kind", [
    *(("di", k) for k in ("outward", "creep", "random", "brake", "hover", "probe")),
    *(("grid", k) for k in ("goal_greedy", "random", "straight"))])
@settings(max_examples=150, deadline=None)
@given(s=vec(grid_coord, grid_coord, move_coord, move_coord),
       seed=st.integers(0, 2**32 - 1))
@example(s=(0.8, 1e-9, 0.0, 0.0), seed=0)
@example(s=(3.0, 3.0, -0.0, 1.0), seed=0)
def test_behaviors_equal_the_array_row_code(family, kind, s, seed):
    make, make_ref, names = BEHAVIORS[family]
    for env, ref in map(ARRAY_ROW.get, names):
        state = s[:env.d_s]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = make(env, kind)(state, rng)
        assert isinstance(got, tuple)
        assert_same_bits(got, make_ref(ref, kind)(np.array(state), ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
