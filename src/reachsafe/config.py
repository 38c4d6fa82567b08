"""Experiment configuration: plain-text key/value files, defaults, hashing.

This module is the only place that defines a setting, its default and
its refusal. The library takes the sections below (or, for ``dynamics``,
their fields) as required arguments and keeps no defaults of its own, and
``ExperimentConfig.validate`` refuses at load every value a later stage
could not use. The one exception is the keyword defaults in ``envs``
(the environment factories and behaviour policies): they define the
built-in environments themselves, and ``build_env`` overrides each one
that has an ``env`` key.

Each numeric setting declares the interval its value must lie in beside
its default, as in ``critic_gamma: float = _key(0.95, "(0, 1)")``; the
interval sits in the field's metadata, so it never enters a hash.
``validate`` checks every declared interval in one loop, then the rules
that span keys or read list contents, and ends by building the
environment and its behaviour mixture, so the factories' refusals
(hazard cells off the grid, behaviour names the env lacks) apply at load.

The file format is one ``dotted.key = value`` pair per line, ``#`` for
comments; values parse as JSON when possible and as bare strings
otherwise. Hashes cover the canonical serialization, so any
semantic change to the configuration invalidates stage artifacts on
resume.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .cmdp import UNSAFE_SMALL_LIMIT, ConfigurationError, HardCMDP
from .envs import behavior_mixture, make_double_integrator, make_hazard_gridworld

ABLATIONS = ("no-model", "no-relabel", "det-rollout", "no-conservative", "ungated")
MAX_HORIZON = 10   # the longest branched rollout, in model steps


def _key(default, interval: str):
    """A numeric setting's default and the interval, such as ``"(0, 1]"``,
    that ``ExperimentConfig.validate`` holds its value to."""
    return field(default=default, metadata={"interval": interval})


def _within(value, interval: str) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return ((lo < value if interval[0] == "(" else lo <= value)
            and (value < hi if interval[-1] == ")" else value <= hi))


@dataclass
class EnvSection:
    name: str = "gridworld"
    width: int = _key(7, "[3, inf)")
    height: int = _key(7, "[3, inf)")
    hazards: list = field(default_factory=lambda: [[2, 2], [4, 4]])
    momentum: int = _key(1, "[0, 1]")
    gamma: float = _key(0.99, "(0, 1)")
    horizon: int = _key(40, "[1, inf)")
    x_lim: float = _key(1.0, "(0, inf)")
    a_max: float = _key(1.0, "(0, inf)")
    dt: float = _key(0.1, "(0, inf)")
    v_max: float = _key(1.0, "(0, inf)")


@dataclass
class DataSection:
    n_transitions: int = _key(8000, "[1, inf)")
    n_unsafe: int = _key(100, f"[0, {UNSAFE_SMALL_LIMIT}]")
    behavior: list = field(default_factory=lambda: [["goal_greedy", 0.4],
                                                    ["random", 0.4],
                                                    ["straight", 0.2]])


@dataclass
class DynamicsSection:
    n_total: int = _key(7, "[1, inf)")
    n_elite: int = _key(5, "[1, inf)")
    val_fraction: float = _key(0.2, "[0, 1)")
    epochs: int = _key(25, "[1, inf)")
    lr: float = _key(1e-3, "(0, inf)")
    batch_size: int = _key(256, "[1, inf)")
    hidden: list = field(default_factory=lambda: [128, 128])


@dataclass
class CostGenSection:
    proposer: str = "scripted"
    p_min: float = _key(0.10, "[0, 1]")
    p_max: float = _key(0.30, "[0, 1]")
    max_queries: int = _key(10, "[1, inf)")
    margin_step: float = _key(1.0, "(0, inf)")
    remote_base_url: str = ""
    remote_model: str = ""
    remote_token_env: str = "REACHSAFE_API_TOKEN"


@dataclass
class LearnSection:
    total_steps: int = _key(7500, "[1, inf)")
    critic_gamma: float = _key(0.95, "(0, 1)")
    critic_tau: float = _key(0.9, "(0, 1)")
    critic_lr: float = _key(1e-3, "(0, inf)")
    critic_target_rate: float = _key(0.01, "(0, 1]")
    policy_lr: float = _key(3e-4, "(0, inf)")
    include_rollout_in_v: bool = True
    rollout_batch_fraction: float = _key(0.5, "(0, inf)")
    reward_gamma: float = _key(0.99, "[0, 1)")
    reward_expectile: float = _key(0.7, "(0, 1)")
    reward_steps_fraction: float = _key(0.5, "(0, inf)")
    policy_temperature: float = _key(3.0, "[0, inf)")
    policy_weight_clip: float = _key(100.0, "(0, inf)")
    batch_size: int = _key(256, "[1, inf)")
    hidden: list = field(default_factory=lambda: [64, 64])
    rollout_frequency: int = _key(2500, "[1, inf)")
    rollout_batch: int = _key(1024, "[1, inf)")
    rollout_horizon: int = _key(1, f"[1, {MAX_HORIZON}]")
    rollout_epochs: int = _key(10, "[1, inf)")
    rollout_noise_std: float = _key(0.1, "[0, inf)")
    rollout_window: int = _key(2, "[1, inf)")


@dataclass
class EvalSection:
    episodes: int = _key(20, "[1, inf)")


@dataclass
class ExperimentConfig:
    seed: int = 0
    ablations: list = field(default_factory=list)
    env: EnvSection = field(default_factory=EnvSection)
    data: DataSection = field(default_factory=DataSection)
    dynamics: DynamicsSection = field(default_factory=DynamicsSection)
    costgen: CostGenSection = field(default_factory=CostGenSection)
    learn: LearnSection = field(default_factory=LearnSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def validate(self) -> None:
        for name, section in vars(self).items():
            for f in fields(section) if is_dataclass(section) else ():
                value, interval = getattr(section, f.name), f.metadata.get("interval")
                if interval and not _within(value, interval):
                    raise ConfigurationError(
                        f"{name}.{f.name} must lie in {interval}, got {value}")
        if self.env.name not in ("gridworld", "double_integrator"):
            raise ConfigurationError(f"unknown environment {self.env.name!r}")
        for a in self.ablations:
            if a not in ABLATIONS:
                raise ConfigurationError(
                    f"unknown ablation {a!r}; choose from {ABLATIONS}")
        if len(set(self.ablations)) != len(self.ablations):
            raise ConfigurationError(f"duplicate ablation in {self.ablations}")
        if "ungated" in self.ablations and len(self.ablations) > 1:
            raise ConfigurationError("ungated cannot be combined with other ablations")
        if self.costgen.p_min > self.costgen.p_max:
            raise ConfigurationError(
                f"costgen.p_min must be at most costgen.p_max = {self.costgen.p_max}, "
                f"got {self.costgen.p_min}")
        if self.costgen.proposer not in ("scripted", "remote"):
            raise ConfigurationError("proposer must be scripted or remote")
        if self.costgen.proposer == "remote" and not (self.costgen.remote_base_url
                                                      and self.costgen.remote_model):
            raise ConfigurationError(
                "the remote proposer needs costgen.remote_base_url and "
                "costgen.remote_model")
        n, d = self.data.n_transitions, self.dynamics
        n_train = n - int(round(d.val_fraction * n))
        if n_train < d.batch_size:
            raise ConfigurationError(
                f"the dynamics training split of data.n_transitions = {n} less its "
                f"dynamics.val_fraction = {d.val_fraction} is {n_train} rows, fewer "
                f"than dynamics.batch_size = {d.batch_size}")
        if d.n_elite > d.n_total:
            raise ConfigurationError(
                f"dynamics.n_elite must lie between 1 and dynamics.n_total "
                f"({d.n_total}), got {d.n_elite}")
        for key, widths in (("learn.hidden", self.learn.hidden),
                            ("dynamics.hidden", self.dynamics.hidden)):
            if not all(_is_int(w) and w > 0 for w in widths):
                raise ConfigurationError(f"{key} must list positive int widths, got {widths!r}")
        b = self.data.behavior
        if not (all(isinstance(e, (list, tuple)) and len(e) == 2 and isinstance(e[0], str)
                    and _is_number(e[1]) and e[1] >= 0 for e in b)
                and sum(w for _, w in b) > 0):
            raise ConfigurationError(
                "data.behavior must list [name, weight] pairs with finite weights >= 0 "
                f"and a positive total, got {b!r}")
        if not all(isinstance(c, (list, tuple)) and len(c) == 2 and all(map(_is_int, c))
                   for c in self.env.hazards):
            raise ConfigurationError(
                f"env.hazards must list [int, int] cells, got {self.env.hazards!r}")
        # The env factories and behaviour makers refuse hazards off the grid
        # (the intervals above leave them nothing else to refuse) and
        # behaviour names the env does not know; the refusal names the key.
        try:
            env = build_env(self)
        except ConfigurationError as err:
            raise ConfigurationError(f"env.hazards: {err}") from None
        try:
            build_behavior(self, env)
        except ConfigurationError as err:
            raise ConfigurationError(f"data.behavior: {err}") from None

    def variant(self) -> str:
        return "+".join(sorted(self.ablations)) if self.ablations else "full"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def default_config(env_name: str) -> ExperimentConfig:
    """Desk-scale defaults per environment."""
    if env_name == "gridworld":
        return ExperimentConfig()
    if env_name == "double_integrator":
        return ExperimentConfig(
            env=EnvSection(name="double_integrator", gamma=0.995, horizon=60),
            data=DataSection(
                n_transitions=8000,
                behavior=[["hover", 0.15], ["probe", 0.3], ["creep", 0.05],
                          ["random", 0.3], ["brake", 0.15], ["outward", 0.05]],
            ),
            costgen=CostGenSection(margin_step=0.04),
            learn=LearnSection(
                total_steps=15000,
                critic_gamma=0.98,
                critic_tau=0.98,
                include_rollout_in_v=False,
                rollout_batch_fraction=0.25,
                rollout_batch=2048,
                rollout_horizon=3,
            ),
        )
    raise ConfigurationError(f"unknown environment {env_name!r}")


def build_env(cfg: ExperimentConfig) -> HardCMDP:
    e = cfg.env
    if e.name == "gridworld":
        return make_hazard_gridworld(e.width, e.height,
                                     [tuple(h) for h in e.hazards],
                                     momentum=e.momentum, gamma=e.gamma,
                                     horizon=e.horizon)
    return make_double_integrator(x_lim=e.x_lim, a_max=e.a_max, dt=e.dt,
                                  horizon=e.horizon, v_max=e.v_max,
                                  gamma=e.gamma)


def build_behavior(cfg: ExperimentConfig, env: HardCMDP):
    return behavior_mixture(env, [(kind, float(w)) for kind, w in cfg.data.behavior])


# ---------------------------------------------------------------------------
# Key/value file format
# ---------------------------------------------------------------------------


def _flatten(prefix: str, obj) -> list[tuple[str, object]]:
    if isinstance(obj, dict):
        out = []
        for key in sorted(obj):
            path = f"{prefix}.{key}" if prefix else key
            out.extend(_flatten(path, obj[key]))
        return out
    return [(prefix, obj)]


def to_text(cfg: ExperimentConfig) -> str:
    pairs = _flatten("", asdict(cfg))
    lines = [f"{key} = {json.dumps(value)}" for key, value in pairs]
    return "\n".join(lines) + "\n"


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(to_text(cfg), encoding="utf-8")


def _assign(target, dotted: str, value) -> None:
    parts = dotted.split(".")
    obj = target
    for part in parts[:-1]:
        if not hasattr(obj, part):
            raise ConfigurationError(f"unknown configuration section {part!r}")
        obj = getattr(obj, part)
    leaf = parts[-1]
    if not hasattr(obj, leaf):
        raise ConfigurationError(f"unknown configuration key {dotted!r}")
    current = getattr(obj, leaf)
    if isinstance(current, bool):
        ok = isinstance(value, bool)
    elif isinstance(current, int):
        ok = _is_int(value) or (_is_number(value) and value.is_integer())
        value = int(value) if ok else value
    elif isinstance(current, float):
        ok = _is_number(value)
    else:
        ok = isinstance(value, type(current))
    if not ok:
        raise ConfigurationError(
            f"{dotted} expects a {type(current).__name__} value, got {value!r}")
    setattr(obj, leaf, value)


def load_config(path: str | Path, base: ExperimentConfig | None = None
                ) -> ExperimentConfig:
    """Parse a key/value file over the environment-specific defaults."""
    text = Path(path).read_text(encoding="utf-8")
    pairs: list[tuple[str, object]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value_text = line.partition("=")
        value_text = value_text.strip()
        try:
            value = json.loads(value_text)
        except json.JSONDecodeError:
            value = value_text
        pairs.append((key.strip(), value))

    if base is None:
        env_name = next((v for k, v in pairs if k == "env.name"), "gridworld")
        base = default_config(str(env_name))
    for key, value in pairs:
        _assign(base, key, value)
    base.validate()
    return base


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(to_text(cfg).encode("utf-8")).hexdigest()[:16]
