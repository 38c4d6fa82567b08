"""Built-in desk-scale environments and their scripted behavior policies.

Two families:

- a hazard gridworld, natively finite, optionally with momentum. With
  momentum the state is (cell, last-move): the agent first coasts one
  cell along its current move, then the chosen action sets the next move
  and may not reverse the current one. Cells adjacent to a hazard with
  the move pointing into it are therefore safe yet doomed.
- a double integrator on a line, position clamped between two unsafe
  boundaries, with reward for outward speed so that reward-greedy
  behavior violates.

Per-row step contract: ``transition``, ``violation``, ``reward`` and the
scripted behaviors take one state row (d_s,) and, where they take one,
one action row (d_a,). They compute in Python floats, with the IEEE
operations of the numpy formulas they replace in the same order, and
return (d_s,) and (d_a,) float64 arrays. Transcendental calls (the
integrator reward's ``np.tanh``) stay in numpy so that no value moves.

Batch step contract: ``transitions`` maps states (n, d_s) and actions
(n, d_a) to successors (n, d_s), each row bit-equal to ``transition``: the
same operations in the same order, a clip as ``np.minimum(np.maximum(...))``
and a branch as ``np.where``. Only the tabular models call it (see
``HardCMDP``); the per-row step stays for collection and evaluation.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .cmdp import ConfigurationError, HardCMDP, Predicate, require_finite

GRID_MOVES = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
_MOVES = GRID_MOVES.tolist()  # the rows as Python floats


def _clip(x: float, lo: float, hi: float) -> float:
    """``np.clip`` of one float: a NaN ``x`` stays NaN."""
    return min(max(x, lo), hi)


def _snap_move(a: np.ndarray) -> int:
    """Row of ``GRID_MOVES`` nearest to ``a``: ``argmin`` of ``dx*dx + dy*dy``,
    the first on ties, and row 0 for a NaN action (every distance is NaN)."""
    ax, ay = np.asarray(a, dtype=float).reshape(2).tolist()
    d = [(mx - ax) * (mx - ax) + (my - ay) * (my - ay) for mx, my in _MOVES]
    return min(range(len(d)), key=d.__getitem__)


def _snap_moves(a: np.ndarray) -> np.ndarray:
    """``GRID_MOVES[_snap_move(row)]`` for each row of ``a`` (n, 2): ``argmin``
    also keeps the first minimum and returns 0 for a NaN row."""
    mx, my = GRID_MOVES[:, 0], GRID_MOVES[:, 1]
    ax, ay = a[:, 0:1], a[:, 1:2]
    d = (mx - ax) * (mx - ax) + (my - ay) * (my - ay)
    return GRID_MOVES[np.argmin(d, axis=1)]


def make_hazard_gridworld(
    width: int,
    height: int,
    hazard_cells: Sequence[tuple[int, int]],
    momentum: int,
    *,
    goal: tuple[int, int] | None = None,
    gamma: float = 0.99,
    h_min: float = -1.0,
    h_max: float = 1.0,
    horizon: int = 40,
) -> HardCMDP:
    """Finite gridworld with hazard cells and optional movement momentum."""
    if width < 3 or height < 3:
        raise ConfigurationError("grid must be at least 3x3")
    hazards = {(int(x), int(y)) for x, y in hazard_cells}
    for x, y in hazards:
        if not (0 <= x < width and 0 <= y < height):
            raise ConfigurationError(f"hazard cell ({x},{y}) outside the grid")
    if goal is None:
        goal = (width - 1, height - 1)
    gx, gy = goal
    momentum = int(momentum)
    if momentum not in (0, 1):
        raise ConfigurationError("momentum must be 0 or 1")

    d_s = 4 if momentum else 2
    reward_scale = float(width + height)

    def in_grid(x, y):
        # ``&`` rather than ``and``: one formula for floats and arrays.
        return (0 <= x) & (x < width) & (0 <= y) & (y < height)

    def violation(s: np.ndarray) -> int:
        return int((round(float(s[0])), round(float(s[1]))) in hazards)

    hazard_xy = np.array(sorted(hazards), dtype=float).reshape(-1, 2)

    def hazard_distance(s: np.ndarray) -> np.ndarray:
        # Manhattan distance of each row's cell to the nearest hazard; 0
        # inside one. ``rint`` rounds half to even, like ``round``.
        if not hazards:
            return np.full(len(s), float(width + height))
        cells = np.rint(s[:, :2])
        return np.abs(cells[:, None, :] - hazard_xy[None]).sum(axis=2).min(axis=1)

    def transition(s: np.ndarray, a: np.ndarray) -> np.ndarray:
        mx, my = _MOVES[_snap_move(a)]
        if momentum:
            x, y, vx, vy = np.asarray(s, dtype=float).tolist()
            tx, ty = x + vx, y + vy
            if in_grid(tx, ty):
                x, y = tx, ty
            else:
                vx, vy = 0.0, 0.0  # wall bump absorbs the momentum
            if (vx or vy) and mx == -vx and my == -vy:
                mx, my = vx, vy  # reversal forbidden: keep going
            return np.array([x, y, mx, my])
        x, y = np.asarray(s, dtype=float).tolist()
        tx, ty = x + mx, y + my
        if not in_grid(tx, ty):
            tx, ty = x, y
        return np.array([tx, ty])

    def transitions(s: np.ndarray, a: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        mx, my = _snap_moves(np.asarray(a, dtype=float)).T
        if momentum:
            x, y, vx, vy = s.T
            tx, ty = x + vx, y + vy
            inside = in_grid(tx, ty)
            x, y = np.where(inside, tx, x), np.where(inside, ty, y)
            vx, vy = np.where(inside, vx, 0.0), np.where(inside, vy, 0.0)
            back = ((vx != 0) | (vy != 0)) & (mx == -vx) & (my == -vy)
            return np.stack([x, y, np.where(back, vx, mx), np.where(back, vy, my)], axis=1)
        x, y = s.T
        tx, ty = x + mx, y + my
        inside = in_grid(tx, ty)
        return np.stack([np.where(inside, tx, x), np.where(inside, ty, y)], axis=1)

    def reward(s: np.ndarray, a: np.ndarray, s2: np.ndarray) -> float:
        dist = abs(float(s2[0]) - gx) + abs(float(s2[1]) - gy)
        return 1.0 - dist / reward_scale if dist < 0.5 else -dist / reward_scale

    safe_cells = [(x, y) for x in range(width) for y in range(height)
                  if (x, y) not in hazards]
    if not safe_cells:
        raise ConfigurationError("every cell is a hazard")

    def initial_state(rng: np.random.Generator) -> np.ndarray:
        x, y = safe_cells[int(rng.integers(len(safe_cells)))]
        if momentum:
            return np.array([x, y, 0.0, 0.0])
        return np.array([x, y], dtype=float)

    if momentum:
        states = np.array([
            [x, y, mv[0], mv[1]]
            for x in range(width) for y in range(height) for mv in GRID_MOVES
        ], dtype=float)
    else:
        states = np.array([[x, y] for x in range(width) for y in range(height)],
                          dtype=float)
    # Dense lookup over the box the states span: position in ``states``
    # for every enumerated integer point, -1 for the rest of the box.
    box_lo = states.min(axis=0)
    box_shape = (states.max(axis=0) - box_lo).astype(int) + 1
    dense = np.full(box_shape, -1, dtype=int)
    dense[tuple((states - box_lo).astype(int).T)] = np.arange(len(states))

    def state_index(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.ndim != 2 or s.shape[1] != d_s:
            raise ValueError(f"state_index needs states of shape (n, {d_s}), got {s.shape}")
        require_finite(s, "states")
        k = np.rint(s) - box_lo
        inside = np.all((k >= 0) & (k < box_shape), axis=1)
        out = np.full(len(s), -1, dtype=int)
        out[inside] = dense[tuple(k[inside].astype(int).T)]
        return out

    def margin_predicate(margin: float) -> Predicate:
        def predicate(s: np.ndarray) -> np.ndarray:
            return (hazard_distance(s) <= margin).astype(int)
        return predicate

    return HardCMDP(
        name=f"gridworld{'_m' if momentum else ''}_{width}x{height}",
        d_s=d_s, d_a=2,
        action_bounds=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        gamma=gamma, horizon=horizon,
        transition=transition, transitions=transitions,
        reward=reward, violation=violation,
        initial_state=initial_state, action_set=GRID_MOVES.copy(),
        h_min=h_min, h_max=h_max,
        states=states, state_index=state_index,
        margin_predicate=margin_predicate,
        obs_fields=("x", "y", "vx", "vy") if momentum else ("x", "y"),
        task_text=(
            f"A robot moves on a {width}x{height} grid. "
            + ("The state is [x, y, vx, vy]: grid cell plus the last move; the robot "
               "first drifts one cell along its last move, then the action picks the "
               "next move and cannot reverse the current one. "
               if momentum else "The state is [x, y], the grid cell. ")
            + "Coordinates are integer cell indices starting at 0."
        ),
        cost_text=(
            "Entering any of these hazard cells is unsafe: "
            + ", ".join(f"({x},{y})" for x, y in sorted(hazards))
            + ". All other cells are safe."
        ),
    )


def make_double_integrator(
    x_lim: float,
    a_max: float,
    dt: float,
    horizon: int,
    *,
    v_max: float = 1.0,
    n_actions: int = 9,
    gamma: float = 0.995,
    h_min: float = -1.0,
    h_max: float = 1.0,
    grid_shape: tuple[int, int] = (61, 41),
    grid_margin: float = 0.2,
) -> HardCMDP:
    """Point mass on a line; crossing either boundary at +-x_lim is unsafe."""
    if x_lim <= 0 or a_max <= 0 or dt <= 0:
        raise ConfigurationError("x_lim, a_max and dt must all be positive")
    if v_max <= 0 or horizon < 1:
        raise ConfigurationError("v_max and horizon must be positive")

    def violation(s: np.ndarray) -> int:
        return int(abs(float(s[0])) > x_lim)

    def transition(s: np.ndarray, a: np.ndarray) -> np.ndarray:
        x, v = float(s[0]), float(s[1])
        acc = _clip(float(np.asarray(a).reshape(-1)[0]), -a_max, a_max)
        return np.array([x + v * dt, _clip(v + acc * dt, -v_max, v_max)])

    def transitions(s: np.ndarray, a: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        x, v = s[:, 0], s[:, 1]
        acc = np.minimum(np.maximum(np.asarray(a, dtype=float)[:, 0], -a_max), a_max)
        v2 = np.minimum(np.maximum(v + acc * dt, -v_max), v_max)
        return np.stack([x + v * dt, v2], axis=1)

    def reward(s: np.ndarray, a: np.ndarray, s2: np.ndarray) -> float:
        # Positive when moving away from the origin: greed pushes outward.
        return float(s2[1] * np.tanh(4.0 * s2[0]))

    def initial_state(rng: np.random.Generator) -> np.ndarray:
        x = rng.uniform(-0.8 * x_lim, 0.8 * x_lim)
        v = rng.uniform(-0.3 * v_max, 0.3 * v_max)
        return np.array([x, v])

    def margin_predicate(margin: float) -> Predicate:
        def predicate(s: np.ndarray) -> np.ndarray:
            return (np.abs(s[:, 0]) > x_lim - margin).astype(int)
        return predicate

    x_hi = x_lim + grid_margin
    return HardCMDP(
        name="double_integrator",
        d_s=2, d_a=1,
        action_bounds=np.array([[-a_max, a_max]]),
        gamma=gamma, horizon=horizon,
        transition=transition, transitions=transitions,
        reward=reward, violation=violation,
        initial_state=initial_state,
        action_set=np.linspace(-a_max, a_max, n_actions).reshape(-1, 1),
        h_min=h_min, h_max=h_max,
        margin_predicate=margin_predicate,
        state_grid=((-x_hi, x_hi, grid_shape[0]), (-v_max, v_max, grid_shape[1])),
        obs_fields=("x", "v"),
        task_text=(
            "A point mass moves on a line. The state is [x, v]: position and "
            f"velocity. Each step x increases by v*{dt} and v by the chosen "
            f"acceleration times {dt}, with |v| capped at {v_max}."
        ),
        cost_text=(
            f"The position must stay within the band [-{x_lim}, {x_lim}]; "
            f"any |x| beyond {x_lim} is unsafe."
        ),
    )


# ---------------------------------------------------------------------------
# Scripted behavior policies for dataset collection.
# ---------------------------------------------------------------------------

BehaviorFn = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def gridworld_behavior(env: HardCMDP, kind: str, *, goal: tuple[int, int] | None = None,
                       explore: float = 0.25) -> BehaviorFn:
    # The default goal is the far corner of the grid.
    gx, gy = map(float, env.states[:, :2].max(axis=0) if goal is None else goal)

    def greedy(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if rng.random() < explore:
            return GRID_MOVES[int(rng.integers(1, len(GRID_MOVES)))]
        x, y = float(s[0]), float(s[1])
        best, best_d = _MOVES[0], math.inf
        for mx, my in _MOVES[1:]:
            d = abs(x + mx - gx) + abs(y + my - gy)
            if d < best_d:
                best, best_d = (mx, my), d
        return np.array(best)

    def random_walk(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return GRID_MOVES[int(rng.integers(len(GRID_MOVES)))]

    def straight(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if env.d_s == 4 and (s[2] != 0 or s[3] != 0):
            return np.array([s[2], s[3]])
        return GRID_MOVES[int(rng.integers(1, len(GRID_MOVES)))]

    table = {"goal_greedy": greedy, "random": random_walk, "straight": straight}
    if kind not in table:
        raise ConfigurationError(f"unknown gridworld behavior {kind!r}")
    return table[kind]


def integrator_behavior(env: HardCMDP, kind: str, *, creep_speed: float = 0.15,
                        push_until: float = 0.7, hover_at: float = 0.97,
                        rush_speed: float = 0.7) -> BehaviorFn:
    a_max = float(env.action_bounds[0, 1])
    # Recover dt from one probe step; dynamics are x' = x + v dt.
    dt = float(env.transition(np.array([0.0, 1.0]), np.array([0.0]))[0])

    def away(x: float) -> float:
        # Outward direction: the sign of x, +1 at either zero, NaN stays NaN.
        return 1.0 if x >= 0 else -1.0 if x < 0 else x

    def outward(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.array([away(float(s[0])) * a_max])

    def rush(direction: float, v: float) -> np.ndarray:
        # Approach at a capped cruise speed; full throttle only below it.
        if v * direction < rush_speed:
            return np.array([direction * a_max])
        return np.array([_clip((direction * rush_speed - v) / dt, -a_max, a_max)])

    def creep(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x, v = float(s[0]), float(s[1])
        direction = away(x)
        if abs(x) < push_until:
            return rush(direction, v)
        return np.array([_clip((direction * creep_speed - v) / dt, -a_max, a_max)])

    def random_walk(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.array([rng.uniform(-a_max, a_max)])

    def brake(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        v = float(s[1])
        return np.array([(-a_max if v > 0 else a_max) if abs(v) > 1e-9 else 0.0])

    def hover(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Work right at the edge of the safe band, the way teleoperated
        # data hugs an obstacle: rush out, then hold position near it.
        x, v = float(s[0]), float(s[1])
        direction = away(x)
        if abs(x) < push_until:
            return rush(direction, v)
        v_des = _clip(1.5 * (direction * hover_at - x), -0.2, 0.2)
        return np.array([_clip((v_des - v) / dt, -a_max, a_max)])

    def probe(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Touch-and-retreat: approach the boundary, kill the speed, back
        # off. Leaves braking and inward actions throughout the outer ring.
        x, v = float(s[0]), float(s[1])
        direction = away(x)
        if abs(x) < 0.75 * push_until:
            return rush(direction, v)
        if v * direction > 0.3 or abs(x) > hover_at:
            return np.array([-direction * a_max])
        v_des = direction * _clip(1.2 * (hover_at * direction - x) * direction, -0.3, 0.3)
        return np.array([_clip((v_des - v) / dt, -a_max, a_max)])

    table = {"outward": outward, "creep": creep, "random": random_walk,
             "brake": brake, "hover": hover, "probe": probe}
    if kind not in table:
        raise ConfigurationError(f"unknown integrator behavior {kind!r}")
    return table[kind]


def behavior_mixture(env: HardCMDP, spec: Sequence[tuple[str, float]]) -> list[tuple[BehaviorFn, float]]:
    """Episode-level mixture used by the collectors: [(behavior, weight)]."""
    maker = gridworld_behavior if env.name.startswith("gridworld") else integrator_behavior
    return [(maker(env, kind), weight) for kind, weight in spec]
