"""Dataset collection: intervention-truncated safe corpora and tiny unsafe sets.

Safe collection mimics supervised data gathering with a watchdog: the
instant the behavior policy's next step would violate, the violating step
is discarded and the episode ends. The returned dataset therefore has no
cost-1 transition, but its intervention terminals are typically doomed
states.

Both collectors keep the rows of the per-row calls (see ``HardCMDP``) and
build each dataset column as an array once, at the end.
"""

from __future__ import annotations

import numpy as np

from .cmdp import (
    END_HORIZON,
    END_INTERVENTION,
    ConfigurationError,
    HardCMDP,
    OfflineDataset,
    SAFE_ONLY,
    UNSAFE_SMALL,
    UNSAFE_SMALL_LIMIT,
    empty_dataset,
)
from .seeding import substream

# Safe collection gives up after this many episodes in a row that keep no
# step. A behavior whose first step violates from every initial state would
# otherwise loop for ever; the default configs have no such episode at all.
MAX_EMPTY_EPISODES = 1000


class SafeCollectionStalled(RuntimeError):
    """The behavior ended many episodes in a row before any safe step."""


def collect_safe_dataset(
    env: HardCMDP,
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
    fns, weights = ((behavior,), (1.0,)) if callable(behavior) else zip(*behavior)
    w = np.asarray(weights, dtype=float)
    p = w / w.sum()  # once per collection; a lone callable draws no choice

    clip, step, violation, reward = env.clip_action, env.transition, env.violation, env.reward
    s_rows, a_rows, r_rows, s2_rows = [], [], [], []
    episode_ends: list[dict] = []
    episode_returns: list[float] = []
    n_intervened = 0
    empty_streak = 0

    while len(r_rows) < n_transitions:
        policy = behavior if callable(behavior) else fns[int(rng_policy.choice(len(fns), p=p))]
        s = env.initial_state(rng_init)
        ep_return = 0.0
        ep_len = 0
        intervened = False
        for _ in range(env.horizon):
            a = clip(policy(s, rng_policy))
            s2 = step(s, a)
            if violation(s2) == 1:
                intervened = True
                n_intervened += 1
                break
            r = reward(s, a, s2)
            s_rows.append(s); a_rows.append(a); r_rows.append(r); s2_rows.append(s2)
            ep_return += r
            ep_len += 1
            s = s2
            if len(r_rows) >= n_transitions:
                break
        if ep_len:
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

    done = np.isin(np.arange(n_transitions), [end["index"] for end in episode_ends])
    return OfflineDataset(
        s=np.array(s_rows), a=np.array(a_rows), r=np.array(r_rows), s2=np.array(s2_rows),
        done=done, cost=np.zeros(n_transitions, dtype=int), tag=SAFE_ONLY, meta=meta,
    )


class UnsafeSampleShortage(RuntimeError):
    """Random exploration could not find enough violating transitions."""

    def __init__(self, wanted: int, found: int):
        super().__init__(f"found only {found} of {wanted} requested unsafe transitions")
        self.wanted = wanted
        self.found = found


def collect_unsafe_samples(
    env: HardCMDP,
    n: int,
    seed: int = 0,
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
    budget = max(2000, 500 * n)

    if not env.is_tabular and env.state_grid is None:
        raise ConfigurationError(f"{env.name} declares no state box to explore")
    states = env.states.tolist() if env.is_tabular else None
    actions, bounds = env.action_set.tolist(), env.action_bounds.tolist()
    s_rows, a_rows, r_rows, s2_rows = [], [], [], []
    for _ in range(budget):
        if len(r_rows) >= n:
            break
        s = (states[int(rng.integers(len(states)))] if states is not None
             else [rng.uniform(lo, hi) for lo, hi, _ in env.state_grid])
        if env.violation(s) == 1:
            continue  # start from a safe state so the violation is the step's doing
        # A scalar draw per action dimension draws what one array draw would.
        a = env.clip_action(actions[int(rng.integers(len(actions)))]
                            if rng.random() < 0.5 else
                            [rng.uniform(lo, hi) for lo, hi in bounds])
        s2 = env.transition(s, a)
        if env.violation(s2) == 1:
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
