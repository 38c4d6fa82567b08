"""Batch-first steps, predicates, state lookup and one-hot features.

Each batch implementation is checked against the per-row code it
replaced, kept here as the reference, and each contract breach must fail
loudly instead of broadcasting or rounding a bad value away.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import assert_same_bits
from test_safexpr import reference_label
from reachsafe.cmdp import ConfigurationError, cost_labels, nearest_rows
from reachsafe.config import build_env, default_config
from reachsafe.critics import onehot_action_featurizer, onehot_state_featurizer
from reachsafe.dynamics import conservative_cost_label_batch
from reachsafe.envs import make_double_integrator, make_hazard_gridworld
from reachsafe.oracle import compute_feasible_set_oracle
from reachsafe.safexpr import compile_predicate
from reachsafe.tabular import build_model, tabulate

GRID = make_hazard_gridworld(7, 7, [(2, 2), (4, 4), (5, 1)], momentum=1)
FLAT = make_hazard_gridworld(5, 4, [(1, 2)], momentum=0)
DI = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=50)
DI_MODEL = build_model(DI)   # 61 x 41 grid over |x| <= 1.2, |v| <= 1

# Whole numbers, .5 ties (round half to even), negatives, arbitrary reals.
coordinate = st.one_of(
    st.integers(-3, 9).map(float),
    st.integers(-8, 20).map(lambda k: k / 2.0),
    st.floats(-3.0, 9.0, allow_nan=False),
)


def grid_batch(d_s):
    return hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(d_s)),
                      elements=coordinate)


def reference_index(env, s):
    """The former per-row lookup: dict of the rounded row, else nearest row."""
    index = {tuple(row): i for i, row in enumerate(env.states.tolist())}
    key = tuple(float(round(float(v))) for v in s)
    if key in index:
        return index[key], index[key]
    return -1, int(np.argmin(np.sum((env.states - s) ** 2, axis=1)))


@settings(max_examples=150, deadline=None)
@given(grid_batch(4))
def test_state_index_and_snap_match_per_row_reference(states):
    rows = [reference_index(GRID, s) for s in states]
    assert GRID.state_index(states).tolist() == [hit for hit, _ in rows]
    feats = onehot_state_featurizer(GRID)(states)
    assert feats.shape == (len(states), len(GRID.states))
    assert feats.cols.tolist() == [[snap] for _, snap in rows]


@settings(max_examples=60, deadline=None)
@given(grid_batch(2))
def test_state_index_without_momentum(states):
    assert FLAT.state_index(states).tolist() == [
        reference_index(FLAT, s)[0] for s in states]


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 10), st.just(1)),
                  elements=st.floats(-2.0, 2.0, allow_nan=False)))
def test_action_featurizer_matches_per_row_argmin(actions):
    table = DI.action_set
    want = [int(np.argmin(np.sum((table - a) ** 2, axis=1))) for a in actions]
    feats = onehot_action_featurizer(DI)(actions)
    assert feats.shape == (len(actions), len(table))
    assert feats.cols.tolist() == [[col] for col in want]


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(2)),
                  elements=st.one_of(st.floats(-2.0, 2.0, allow_nan=False),
                                     st.integers(-40, 40).map(lambda k: k / 20.0))))
def test_grid_model_index_is_the_nearest_row(states):
    # Inside and outside the grid box. Where one row is strictly nearest
    # the grid formula finds it; at an exact tie (a cell midpoint such as
    # x = 0.5) it picks one of the equally near rows.
    rows = DI_MODEL.index(states)
    nearest = nearest_rows(DI_MODEL.states, states)
    dist = np.sum((states[:, None, :] - DI_MODEL.states[None]) ** 2, axis=2)
    best = np.sort(dist, axis=1)[:, :2]
    unique = best[:, 1] - best[:, 0] > 1e-9
    assert np.array_equal(rows[unique], nearest[unique])
    assert np.allclose(dist[np.arange(len(states)), rows], best[:, 0], rtol=0, atol=1e-9)


def grid_margin_reference(s, margin, hazards):
    x, y = int(round(float(s[0]))), int(round(float(s[1])))
    return int(min(abs(x - hx) + abs(y - hy) for hx, hy in hazards) <= margin)


@settings(max_examples=100, deadline=None)
@given(grid_batch(4), st.one_of(st.just(0.0), st.floats(0.0, 6.0)))
def test_grid_margin_predicate_matches_scalar_formula(states, margin):
    hazards = [(2, 2), (4, 4), (5, 1)]
    want = [grid_margin_reference(s, margin, hazards) for s in states]
    assert GRID.margin_predicate(margin)(states).tolist() == want


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(2)),
                  elements=st.one_of(st.floats(-1.5, 1.5, allow_nan=False),
                                     st.sampled_from([-1.0, -0.5, 0.5, 1.0]))),
       st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 0.5)))
def test_integrator_margin_predicate_matches_scalar_formula(states, margin):
    want = [int(abs(float(s[0])) > 1.0 - margin) for s in states]
    assert DI.margin_predicate(margin)(states).tolist() == want


SOURCES = (
    "abs(x) > 0.8 and v > 0 or x < -0.9",
    "-0.5 < x < 0.5 <= v",
    "1 if max(abs(x), abs(v)) > 0.7 else min(x, v) > 0.2",
    "def get_cost(obs, limit=0.6):\n    return obs[0] > limit or obs[-1] < -limit\n",
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SOURCES),
       hnp.arrays(float, st.tuples(st.integers(0, 10), st.just(2)),
                  elements=st.floats(-1.2, 1.2, allow_nan=False)))
def test_compiled_predicate_matches_row_by_row_eval(source, states):
    want = [reference_label(source, ("x", "v"), vec) for vec in states]
    got = compile_predicate(source, ("x", "v"))(states)
    assert got.shape == (len(states),)
    assert got.tolist() == want


def test_cost_labels_rejects_a_per_row_predicate():
    states = np.zeros((3, 2))
    with pytest.raises(ValueError, match=r"shape \(\)"):
        cost_labels(lambda s: 0, states)
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        cost_labels(lambda s: np.zeros(2, dtype=int), states)
    means = np.zeros((2, 3, 2))
    with pytest.raises(ValueError, match="shape"):
        conservative_cost_label_batch(means, lambda s: 1)


def test_cost_labels_rejects_non_finite_and_unbatched_states():
    pred = DI.margin_predicate(0.1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            cost_labels(pred, np.array([[0.0, 0.0], [bad, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        cost_labels(pred, np.array([0.0, 0.0]))
    assert cost_labels(pred, np.array([[0.95, 0.0], [0.0, 0.0]])).tolist() == [1, 0]


def test_state_index_and_featurizers_reject_non_finite():
    bad = np.array([[1.0, 2.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        GRID.state_index(bad)
    with pytest.raises(ValueError, match="finite"):
        onehot_state_featurizer(GRID)(bad)
    with pytest.raises(ValueError, match="finite"):
        onehot_action_featurizer(GRID)(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        GRID.state_index(np.array([1.0, 2.0, 0.0, 0.0]))


def test_tabulate_rejects_steps_off_the_enumeration():
    env = dataclasses.replace(FLAT, transitions=lambda s, a: s + 10.0)
    with pytest.raises(ConfigurationError):
        tabulate(env)


def test_model_index_and_oracle_label_refuse_non_finite_states():
    oracle = compute_feasible_set_oracle(DI)
    flat_model = tabulate(FLAT)
    for bad in (np.nan, np.inf, -np.inf):
        states = np.array([[0.0, 0.0], [bad, 0.0]])
        for lookup in (DI_MODEL.index, oracle.label, flat_model.index):
            with pytest.raises(ValueError, match="states must be finite"):
                lookup(states)
    assert DI_MODEL.index(np.array([[-9.0, 9.0]])).tolist() == [40]   # clipped, finite


def test_discretize_refuses_non_finite_successors():
    env = dataclasses.replace(DI, transitions=lambda s, a: np.full(s.shape, np.nan))
    with pytest.raises(ValueError, match="states must be finite"):
        build_model(env)


# ---------------------------------------------------------------------------
# Batch steps: ``transitions`` against the per-row ``transition``, row by row.
# ---------------------------------------------------------------------------

STEP_EDGES = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 5.0, -5.0,
              np.nan, np.inf, -np.inf]
step_value = st.one_of(st.sampled_from(STEP_EDGES), st.floats(-3.0, 3.0),
                       st.floats(allow_nan=True, allow_infinity=True))
cell_value = st.one_of(st.integers(-1, 7).map(float), step_value)


def step_batches(d_s, d_a, state_values):
    return st.integers(1, 12).flatmap(lambda n: st.tuples(
        hnp.arrays(float, (n, d_s), elements=state_values),
        hnp.arrays(float, (n, d_a), elements=step_value)))


def looped(env, states, actions):
    return np.array([env.transition(s, a) for s, a in zip(states, actions)])


# The per-row steps compute in Python floats and stay silent where the
# array forms warn on inf - inf or an overflow.
quiet = pytest.mark.filterwarnings(
    "ignore:(overflow|invalid value) encountered:RuntimeWarning")


@quiet
@settings(max_examples=300, deadline=None)
@given(step_batches(2, 1, step_value))
@example((np.array([[0.3, 1.0], [0.3, -1.0], [-0.0, 0.0], [0.9, 1.0], [0.0, -0.0],
                    [0.2, 0.95], [0.2, 0.5], [0.2, 0.5], [0.2, 0.5]]),
          np.array([[1.0], [-1.0], [-0.0], [5.0], [0.0], [-9.0], [np.nan],
                    [np.inf], [-np.inf]])))
def test_integrator_batch_step_is_the_per_row_step(batch):
    states, actions = batch
    assert_same_bits(DI.transitions(states, actions), looped(DI, states, actions))


@quiet
@settings(max_examples=400, deadline=None)
@given(step_batches(4, 2, cell_value))
@example((np.array([[0.0, 3.0, -1.0, 0.0],     # wall bump
                    [6.0, 6.0, 0.0, 1.0],      # bump, then reverse
                    [3.0, 3.0, 1.0, 0.0],      # reversal refused
                    [3.0, 3.0, -0.0, 1.0],
                    [3.0, 3.0, 0.0, -0.0],
                    [3.0, 3.0, 0.0, 1.0],      # tie actions
                    [3.0, 3.0, 0.0, 1.0],
                    [3.0, 3.0, 0.0, 1.0],
                    [3.0, 3.0, 1.0, 0.0],      # NaN and inf actions
                    [3.0, 3.0, 1.0, 0.0],
                    [2.6, 3.4, 0.4, -0.6]]),   # model-predicted
          np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.0, -1.0], [-0.0, 0.0],
                    [0.5, 0.5], [0.5, 0.0], [0.0, -0.5], [np.nan, 0.0],
                    [np.inf, -np.inf], [0.2, -0.9]])))
def test_grid_batch_step_is_the_per_row_step(batch):
    states, actions = batch
    assert_same_bits(GRID.transitions(states, actions), looped(GRID, states, actions))
    flat = states[:, :2]
    assert_same_bits(FLAT.transitions(flat, actions), looped(FLAT, flat, actions))


@pytest.mark.parametrize("name", ["gridworld", "double_integrator"])
def test_build_model_steps_every_pair_in_one_batch_call(name):
    env = build_env(default_config(name))
    calls = {"transition": 0, "transitions": 0}

    def counted(field):
        step = getattr(env, field)

        def call(s, a):
            calls[field] += 1
            return step(s, a)
        return call

    model = build_model(dataclasses.replace(
        env, transition=counted("transition"), transitions=counted("transitions")))
    assert calls == {"transition": 0, "transitions": 1}
    assert np.array_equal(model.next_idx, build_model(env).next_idx)
