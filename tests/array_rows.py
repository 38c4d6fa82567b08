"""Frozen references: the per-row code as it stood when a row was an array.

The environment steps, ``HardCMDP``'s row methods, the scripted behaviors,
both collectors and ``evaluate_policy`` are copied here unchanged from the
version that wrapped every row in a numpy array, so that the tuple-row code
can be checked against them bit for bit. ``ArrayRowEnv`` puts the copied
steps and methods in front of a built environment.
"""

from __future__ import annotations

import math

import numpy as np

from reachsafe.cmdp import (
    END_HORIZON,
    END_INTERVENTION,
    ConfigurationError,
    OfflineDataset,
    SAFE_ONLY,
    UNSAFE_SMALL,
    UNSAFE_SMALL_LIMIT,
    empty_dataset,
    require_finite,
)
from reachsafe.collect import MAX_EMPTY_EPISODES, SafeCollectionStalled, UnsafeSampleShortage
from reachsafe.envs import GRID_MOVES
from reachsafe.policy import COST_SCALE, EvalReport
from reachsafe.seeding import substream

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


# ---------------------------------------------------------------------------
# Environment steps: the per-row closures of the two env factories.
# ---------------------------------------------------------------------------


def grid_rows(width, height, hazard_cells, momentum, goal=None):
    """``transition``, ``violation``, ``reward`` and ``initial_state`` of
    ``make_hazard_gridworld`` with these arguments."""
    hazards = {(int(x), int(y)) for x, y in hazard_cells}
    if goal is None:
        goal = (width - 1, height - 1)
    gx, gy = goal
    momentum = int(momentum)
    reward_scale = float(width + height)

    def in_grid(x, y):
        # ``&`` rather than ``and``: one formula for floats and arrays.
        return (0 <= x) & (x < width) & (0 <= y) & (y < height)

    def violation(s: np.ndarray) -> int:
        return int((round(float(s[0])), round(float(s[1]))) in hazards)

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

    return transition, violation, reward, initial_state


def integrator_rows(x_lim, a_max, dt, v_max):
    """``transition``, ``violation``, ``reward`` and ``initial_state`` of
    ``make_double_integrator`` with these arguments."""

    def violation(s: np.ndarray) -> int:
        return int(abs(float(s[0])) > x_lim)

    def transition(s: np.ndarray, a: np.ndarray) -> np.ndarray:
        x, v = float(s[0]), float(s[1])
        acc = _clip(float(np.asarray(a).reshape(-1)[0]), -a_max, a_max)
        return np.array([x + v * dt, _clip(v + acc * dt, -v_max, v_max)])

    def reward(s: np.ndarray, a: np.ndarray, s2: np.ndarray) -> float:
        # Positive when moving away from the origin: greed pushes outward.
        return float(s2[1] * np.tanh(4.0 * s2[0]))

    def initial_state(rng: np.random.Generator) -> np.ndarray:
        x = rng.uniform(-0.8 * x_lim, 0.8 * x_lim)
        v = rng.uniform(-0.3 * v_max, 0.3 * v_max)
        return np.array([x, v])

    return transition, violation, reward, initial_state


class ArrayRowEnv:
    """``env`` with the array-row steps and ``HardCMDP`` row methods; every
    other attribute is ``env``'s own."""

    def __init__(self, env, rows):
        self._env = env
        self.transition, self.violation, self.reward, self.initial_state = rows

    def __getattr__(self, name):
        return getattr(self._env, name)

    def h(self, s: np.ndarray) -> float:
        """Binary constraint-violation value: exactly h_min or h_max."""
        return self.h_max if self.violation(s) else self.h_min

    def cost(self, s: np.ndarray) -> int:
        return int(self.violation(s))

    def clip_action(self, a: np.ndarray) -> np.ndarray:
        """``a`` clipped into the bounds; a NaN or infinite action raises
        rather than be clipped onto a bound or stepped as NaN."""
        a = np.asarray(a, dtype=float).reshape(self.d_a)
        if not all(map(math.isfinite, a.tolist())):  # a fifth of np.isfinite(a).all()
            require_finite(a, "action")
        return np.minimum(np.maximum(a, self.action_bounds[:, 0]), self.action_bounds[:, 1])


def array_row_env(cfg_env, env):
    """``ArrayRowEnv`` of ``env``, built from the config section ``cfg_env``."""
    e = cfg_env
    if e.name == "gridworld":
        return ArrayRowEnv(env, grid_rows(e.width, e.height, e.hazards, e.momentum))
    return ArrayRowEnv(env, integrator_rows(e.x_lim, e.a_max, e.dt, e.v_max))


# ---------------------------------------------------------------------------
# Scripted behaviors.
# ---------------------------------------------------------------------------


def gridworld_behavior(env, kind: str, *, goal: tuple[int, int] | None = None,
                       explore: float = 0.25):
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


def integrator_behavior(env, kind: str, *, creep_speed: float = 0.15,
                        push_until: float = 0.7, hover_at: float = 0.97,
                        rush_speed: float = 0.7):
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


def behavior_mixture(env, spec):
    """Episode-level mixture used by the collectors: [(behavior, weight)]."""
    maker = gridworld_behavior if env.name.startswith("gridworld") else integrator_behavior
    return [(maker(env, kind), weight) for kind, weight in spec]


# ---------------------------------------------------------------------------
# Collectors.
# ---------------------------------------------------------------------------


def _pick_behavior(behavior, rng: np.random.Generator):
    if callable(behavior):
        return behavior
    fns, weights = zip(*behavior)
    w = np.asarray(weights, dtype=float)
    return fns[int(rng.choice(len(fns), p=w / w.sum()))]


def collect_safe_dataset(
    env,
    behavior,
    n_transitions: int,
    seed: int = 0,
) -> OfflineDataset:
    """Roll the behavior policy, truncating episodes before any violation.

    ``behavior`` is a policy ``(s, rng) -> a`` or a weighted list of them,
    one drawn per episode. A step whose successor violates is discarded
    entirely and the episode ends at the previous state.
    """
    if n_transitions < 0:
        raise ConfigurationError("n_transitions must be >= 0")
    if n_transitions == 0:
        return empty_dataset(env, SAFE_ONLY, seed)

    rng_policy = substream(seed, "collect", "policy")
    rng_init = substream(seed, "collect", "init")

    s_rows, a_rows, r_rows, s2_rows, done_rows, cost_rows = [], [], [], [], [], []
    episode_ends: list[dict] = []
    episode_returns: list[float] = []
    n_intervened = 0
    empty_streak = 0

    while len(r_rows) < n_transitions:
        policy = _pick_behavior(behavior, rng_policy)
        s = env.initial_state(rng_init)
        ep_return = 0.0
        ep_len = 0
        intervened = False
        for _ in range(env.horizon):
            a = env.clip_action(policy(s, rng_policy))
            s2 = env.transition(s, a)
            if env.cost(s2) == 1:
                intervened = True
                n_intervened += 1
                break
            r = env.reward(s, a, s2)
            s_rows.append(s); a_rows.append(a); r_rows.append(r)
            s2_rows.append(s2); done_rows.append(False); cost_rows.append(0)
            ep_return += r
            ep_len += 1
            s = s2
            if len(r_rows) >= n_transitions:
                break
        if ep_len:
            done_rows[-1] = True
            episode_ends.append({"index": len(r_rows) - 1,
                                 "reason": END_INTERVENTION if intervened else END_HORIZON})
            episode_returns.append(ep_return)
        empty_streak = 0 if ep_len else empty_streak + 1
        if empty_streak == MAX_EMPTY_EPISODES:
            raise SafeCollectionStalled(
                f"{MAX_EMPTY_EPISODES} episodes in a row ended before a safe step; "
                f"collected {len(r_rows)} of {n_transitions} transitions")

    meta = {
        "env": env.name, "d_s": env.d_s, "d_a": env.d_a,
        "tag": SAFE_ONLY, "seed": seed,
        "episode_ends": episode_ends,
        "n_intervened_episodes": n_intervened,
        "return_min": float(min(episode_returns)) if episode_returns else 0.0,
        "return_max": float(max(episode_returns)) if episode_returns else 0.0,
    }
    if n_intervened == 0:
        meta["no_infeasible_terminals"] = True

    return OfflineDataset(
        s=np.array(s_rows), a=np.array(a_rows), r=np.array(r_rows),
        s2=np.array(s2_rows), done=np.array(done_rows, dtype=bool),
        cost=np.array(cost_rows, dtype=int), tag=SAFE_ONLY, meta=meta,
    )


def collect_unsafe_samples(
    env,
    n: int,
    seed: int = 0,
    step_budget: int | None = None,
) -> OfflineDataset:
    """Gather exactly ``n`` cost-1 transitions by random exploration.

    States are drawn across the whole state box (not just the initial
    distribution) and paired with random actions; a transition is kept
    when its successor violates.
    """
    if n > UNSAFE_SMALL_LIMIT:
        raise ConfigurationError(f"n must not exceed {UNSAFE_SMALL_LIMIT}")
    if n == 0:
        return empty_dataset(env, UNSAFE_SMALL, seed)

    rng = substream(seed, "collect", "unsafe")
    budget = step_budget if step_budget is not None else max(2000, 500 * n)

    if env.is_tabular:
        def random_state() -> np.ndarray:
            return env.states[int(rng.integers(len(env.states)))].copy()
    else:
        ranges = env.state_grid
        if ranges is None:
            raise ConfigurationError(f"{env.name} declares no state box to explore")

        def random_state() -> np.ndarray:
            return np.array([rng.uniform(lo, hi) for lo, hi, _ in ranges])

    s_rows, a_rows, r_rows, s2_rows = [], [], [], []
    for _ in range(budget):
        if len(r_rows) >= n:
            break
        s = random_state()
        if env.cost(s) == 1:
            continue  # start from a safe state so the violation is the step's doing
        a = env.clip_action(env.action_set[int(rng.integers(len(env.action_set)))]
                            if rng.random() < 0.5 else
                            rng.uniform(env.action_bounds[:, 0], env.action_bounds[:, 1]))
        s2 = env.transition(s, a)
        if env.cost(s2) == 1:
            s_rows.append(s); a_rows.append(a)
            r_rows.append(env.reward(s, a, s2)); s2_rows.append(s2)

    if len(r_rows) < n:
        raise UnsafeSampleShortage(n, len(r_rows))

    meta = {"env": env.name, "d_s": env.d_s, "d_a": env.d_a,
            "tag": UNSAFE_SMALL, "seed": seed, "episode_ends": []}
    return OfflineDataset(
        s=np.array(s_rows), a=np.array(a_rows), r=np.array(r_rows),
        s2=np.array(s2_rows), done=np.ones(n, dtype=bool),
        cost=np.ones(n, dtype=int), tag=UNSAFE_SMALL, meta=meta,
    )


# ---------------------------------------------------------------------------
# Evaluator.
# ---------------------------------------------------------------------------


def evaluate_policy(policy, env, episodes: int,
                    reward_norm: tuple[float, float], seed: int = 0) -> EvalReport:
    """Roll the deterministic policy; normalize rewards and scale costs.

    The episodes run in lockstep. Episode ep starts from its own
    ``("eval-episode", ep)`` substream; each time step makes one row-exact
    ``policy.act`` pass over all episodes' states, then clips, steps,
    rewards and costs each row through the environment's per-row calls.
    Every episode thus follows the trajectory it would follow alone.

    Normalized reward maps the dataset's return range onto [0, 1]; the
    per-episode violation count is divided by the cost scale, and a run
    is safe when that normalized cost stays at or below 1.
    """
    if episodes < 1:
        raise ValueError("need at least one evaluation episode")
    lo, hi = reward_norm
    if hi <= lo:
        raise ValueError(f"degenerate reward normalization range [{lo}, {hi}]")
    states = [env.initial_state(substream(seed, "eval-episode", ep))
              for ep in range(episodes)]
    returns, violations = [0.0] * episodes, [0] * episodes
    for _ in range(env.horizon):
        actions = policy.act(np.stack(states))
        for ep, s in enumerate(states):
            a = env.clip_action(actions[ep])
            s2 = env.transition(s, a)
            returns[ep] += env.reward(s, a, s2)
            violations[ep] += env.cost(s2)
            states[ep] = s2
    norm_reward = (float(np.mean(returns)) - lo) / (hi - lo)
    norm_cost = float(np.mean(violations)) / COST_SCALE
    return EvalReport(
        normalized_reward=norm_reward, normalized_cost=norm_cost,
        episodes=episodes, safe=norm_cost <= 1.0,
        mean_violations=float(np.mean(violations)),
        mean_return=float(np.mean(returns)),
    )
