"""Experiment configuration: plain-text key/value files, defaults, hashing.

This module is the only place that defines a setting, its default and
its refusal. The library takes the sections below (or, for ``dynamics``,
their fields) as required arguments and keeps no defaults of its own, and
``ExperimentConfig.validate`` refuses at load every value a later stage
could not use. The one exception is the keyword defaults in ``envs``
(the environment factories and behaviour policies): they define the
built-in environments themselves, and ``build_env`` overrides each one
that has an ``env`` key.

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
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .cmdp import UNSAFE_SMALL_LIMIT, ConfigurationError, HardCMDP
from .envs import behavior_mixture, make_double_integrator, make_hazard_gridworld

ABLATIONS = ("no-model", "no-relabel", "det-rollout", "no-conservative", "ungated")
MAX_HORIZON = 10   # the longest branched rollout, in model steps


@dataclass
class EnvSection:
    name: str = "gridworld"
    width: int = 7
    height: int = 7
    hazards: list = field(default_factory=lambda: [[2, 2], [4, 4]])
    momentum: int = 1
    gamma: float = 0.99
    horizon: int = 40
    x_lim: float = 1.0
    a_max: float = 1.0
    dt: float = 0.1
    v_max: float = 1.0


@dataclass
class DataSection:
    n_transitions: int = 8000
    n_unsafe: int = 100
    behavior: list = field(default_factory=lambda: [["goal_greedy", 0.4],
                                                    ["random", 0.4],
                                                    ["straight", 0.2]])


@dataclass
class DynamicsSection:
    n_total: int = 7
    n_elite: int = 5
    val_fraction: float = 0.2
    epochs: int = 25
    lr: float = 1e-3
    batch_size: int = 256
    hidden: list = field(default_factory=lambda: [128, 128])


@dataclass
class CostGenSection:
    proposer: str = "scripted"
    p_min: float = 0.10
    p_max: float = 0.30
    max_queries: int = 10
    margin_step: float = 1.0
    remote_base_url: str = ""
    remote_model: str = ""
    remote_token_env: str = "REACHSAFE_API_TOKEN"


@dataclass
class LearnSection:
    total_steps: int = 7500
    critic_gamma: float = 0.95
    critic_tau: float = 0.9
    critic_lr: float = 1e-3
    critic_target_rate: float = 0.01
    policy_lr: float = 3e-4
    include_rollout_in_v: bool = True
    rollout_batch_fraction: float = 0.5
    reward_gamma: float = 0.99
    reward_expectile: float = 0.7
    reward_steps_fraction: float = 0.5
    policy_temperature: float = 3.0
    policy_weight_clip: float = 100.0
    batch_size: int = 256
    hidden: list = field(default_factory=lambda: [64, 64])
    rollout_frequency: int = 2500
    rollout_batch: int = 1024
    rollout_horizon: int = 1
    rollout_epochs: int = 10
    rollout_noise_std: float = 0.1
    rollout_window: int = 2


@dataclass
class EvalSection:
    episodes: int = 20


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
        if not 0 < self.learn.critic_gamma < 1:
            raise ConfigurationError("critic gamma must lie in (0,1)")
        if not 0 < self.learn.critic_tau < 1:
            raise ConfigurationError("critic tau must lie in (0,1)")
        if not 0 <= self.costgen.p_min <= self.costgen.p_max <= 1:
            raise ConfigurationError("need 0 <= p_min <= p_max <= 1")
        if self.costgen.proposer not in ("scripted", "remote"):
            raise ConfigurationError("proposer must be scripted or remote")
        if self.costgen.proposer == "remote" and not (self.costgen.remote_base_url
                                                      and self.costgen.remote_model):
            raise ConfigurationError(
                "the remote proposer needs costgen.remote_base_url and "
                "costgen.remote_model")
        if self.data.n_unsafe > UNSAFE_SMALL_LIMIT:
            raise ConfigurationError(
                f"the unsafe corpus is capped at {UNSAFE_SMALL_LIMIT}")
        if self.eval.episodes < 1:
            raise ConfigurationError("need at least one evaluation episode")
        counts = {f"learn.{key}": getattr(self.learn, key) for key in (
            "total_steps", "batch_size", "rollout_window", "rollout_frequency",
            "rollout_batch", "rollout_horizon", "rollout_epochs")}
        counts.update({f"dynamics.{key}": getattr(self.dynamics, key)
                       for key in ("epochs", "batch_size")})
        counts["costgen.max_queries"] = self.costgen.max_queries
        for key, value in counts.items():
            if value < 1:
                raise ConfigurationError(f"{key} must be at least 1, got {value}")
        for key, value in (("learn.critic_lr", self.learn.critic_lr),
                           ("learn.policy_lr", self.learn.policy_lr),
                           ("dynamics.lr", self.dynamics.lr)):
            if value <= 0:
                raise ConfigurationError(f"{key} must be positive, got {value}")
        if not 0 <= self.dynamics.val_fraction < 1:
            raise ConfigurationError(
                f"dynamics.val_fraction must lie in [0, 1), got {self.dynamics.val_fraction}")
        n, d = self.data.n_transitions, self.dynamics
        n_train = n - int(round(d.val_fraction * n))
        if n_train < d.batch_size:
            raise ConfigurationError(
                f"the dynamics training split of data.n_transitions = {n} less its "
                f"dynamics.val_fraction = {d.val_fraction} is {n_train} rows, fewer "
                f"than dynamics.batch_size = {d.batch_size}")
        lc = self.learn
        for key, value, ok, bounds in (
                ("critic_target_rate", lc.critic_target_rate,
                 0 < lc.critic_target_rate <= 1, "(0, 1]"),
                ("reward_expectile", lc.reward_expectile, 0 < lc.reward_expectile < 1,
                 "(0, 1)"),
                ("reward_gamma", lc.reward_gamma, 0 <= lc.reward_gamma < 1, "[0, 1)"),
                ("policy_temperature", lc.policy_temperature,
                 0 <= lc.policy_temperature < math.inf, "[0, inf)")):
            if not ok:
                raise ConfigurationError(f"learn.{key} must lie in {bounds}, got {value}")
        if self.learn.rollout_horizon > MAX_HORIZON:
            raise ConfigurationError(f"learn.rollout_horizon must be at most {MAX_HORIZON}, "
                                     f"got {self.learn.rollout_horizon}")
        if self.learn.rollout_noise_std < 0:
            raise ConfigurationError(
                f"learn.rollout_noise_std must be at least 0, got {self.learn.rollout_noise_std}")
        if not 1 <= self.dynamics.n_elite <= self.dynamics.n_total:
            raise ConfigurationError(
                f"dynamics.n_elite must lie between 1 and dynamics.n_total "
                f"({self.dynamics.n_total}), got {self.dynamics.n_elite}")
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
