"""Spans and counters recorded from outside ``src/`` around the public API.

``instrument`` patches each binding a caller actually uses (for example
``pipeline.update_feasibility_critics`` or ``critics.soft_update``) and
class methods such as ``Mlp.forward``, and restores every one on exit.
Nothing in the package is edited. Spans are kept in memory and written
once by the caller; self time is computed online, as a span's duration
minus the part its child spans cover.

Per-row calls (the environment's margin predicates) are timed and counted
in aggregate instead of being stored as individual spans: a rollout event
makes hundreds of thousands of them.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

STAGES = ("data", "oracle", "dynamics", "costgen", "learn", "evaluate")

# Leaf layers whose self time should account for a stage's wall time.
LEAF_LAYERS = (
    "critics.featurize.onehot", "critics.featurize.normalized", "critics.floor",
    "approx.forward", "approx.backward", "approx.optimizer", "approx.soft_update",
    "dynamics.cost_label", "envs.predicate",
    "cmdp.load_dataset", "cmdp.save_dataset", "approx.save_mlp", "approx.load_mlp",
    "rollout.save_buffer", "dynamics.save", "dynamics.load",
)


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []   # [name, start, end, parent_index]
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.wall_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [start, child_s, span_index, stage]

    def span(self, name: str, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        stage = name.rsplit(".", 1)[-1] if name.startswith("pipeline.stage.") \
            else (parent[3] if parent else "")
        index = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, start, start, parent[2] if parent else -1])
        frame = [start, 0.0, index, stage]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][2] = end
            duration = end - start
            self.self_s[(stage, name)] += duration - frame[1]
            self.wall_s[name] += duration
            self.counts[name + ".calls"] += 1
            if parent is not None:
                parent[1] += duration

    def leaf(self, name: str, fn, *args):
        """Time and count a per-row call without storing a span for it."""
        if not self.active:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            duration = time.perf_counter() - start
            stage = self._stack[-1][3] if self._stack else ""
            self.self_s[(stage, name)] += duration
            self.counts[name + ".calls"] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def add(self, name: str, amount: float) -> None:
        if self.active:
            self.counts[name] += amount

    def self_time(self, name: str, stage: str | None = None) -> float:
        return sum(v for (st, n), v in self.self_s.items()
                   if n == name and (stage is None or st == stage))


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) < 2 else int(shape[0])


class _Patcher:
    def __init__(self) -> None:
        self.undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                self.missing.append(label)
                return
            original = owner.__dict__[attr]
        else:
            if not hasattr(owner, attr):
                self.missing.append(label)
                return
            original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        self.undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


@dataclasses.dataclass
class StageCall:
    stage: str
    seconds: float
    ran: bool
    error: str | None


class StageProbe:
    """Wall time, outcome and run-or-resume verdict of every stage call.

    A stage ran when it rewrote the run's ``manifest.json``: the pipeline
    marks a stage done only after producing its artifacts, and a resumed
    stage returns before that.
    """

    def __init__(self) -> None:
        self.calls: list[StageCall] = []

    def call(self, stage: str, fn, args, kwargs):
        manifest = args[1].manifest if len(args) > 1 else kwargs["paths"].manifest
        before = _stamp(manifest)
        start = time.perf_counter()
        error = None
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            error = type(err).__name__
            raise
        finally:
            seconds = time.perf_counter() - start
            self.calls.append(StageCall(stage, seconds, _stamp(manifest) != before,
                                        error))


def _stamp(path) -> tuple:
    try:
        st = os.stat(path)
    except OSError:
        return ()
    return (st.st_mtime_ns, st.st_size, st.st_ino)


@contextmanager
def instrument(probe: StageProbe, tracer: Tracer | None = None):
    """Install the stage probe and, with a tracer, every layer span.

    Yields the list of bindings that could not be found (a renamed API);
    their metrics then read zero.
    """
    from reachsafe import pipeline

    p = _Patcher()
    t = tracer

    for stage in STAGES:
        def make_stage(fn, stage=stage):
            def wrapper(*args, **kwargs):
                if t is None:
                    return probe.call(stage, fn, args, kwargs)
                return probe.call(stage, lambda *a, **k: t.span(
                    f"pipeline.stage.{stage}", fn, a, k), args, kwargs)
            return wrapper
        p.patch(pipeline, f"stage_{stage}", make_stage)

    if t is not None:
        _install_layers(p, t)
    try:
        yield p.missing
    finally:
        p.restore()


def _install_layers(p: _Patcher, t: Tracer) -> None:
    from reachsafe import approx, costgen, critics, dynamics, pipeline, policy, rollout

    def spanned(name, after=None):
        """Wrapper factory: one span per call, then ``after`` adds counts."""
        def make(fn):
            def wrapper(*args, **kwargs):
                result = t.span(name, fn, args, kwargs)
                if after is not None and t.active:
                    after(args, kwargs, result)
                return result
            return wrapper
        return make

    def arg(args, kwargs, index, key):
        return args[index] if len(args) > index else kwargs[key]

    # cmdp: dataset artifacts.
    p.patch(pipeline, "load_dataset", spanned(
        "cmdp.load_dataset",
        lambda a, k, r: t.add("cmdp.load_dataset.bytes", _size(arg(a, k, 0, "path")))))
    p.patch(pipeline, "save_dataset", spanned(
        "cmdp.save_dataset",
        lambda a, k, r: t.add("cmdp.save_dataset.bytes", _size(arg(a, k, 1, "path")))))

    # collect
    def safe_counts(a, k, ds):
        t.add("collect.safe.rows", len(ds))
        t.add("collect.safe.interventions", ds.meta.get("n_intervened_episodes", 0))
    p.patch(pipeline, "collect_safe_dataset", spanned("collect.safe", safe_counts))
    p.patch(pipeline, "collect_unsafe_samples", spanned("collect.unsafe"))

    # oracle, reachability
    p.patch(pipeline, "compute_feasible_set_oracle", spanned(
        "oracle.compute", lambda a, k, r: t.add("oracle.sweeps", r.n_sweeps)))
    p.patch(pipeline, "tabular_value_iteration", spanned("reachability.value_iteration"))

    # dynamics
    p.patch(pipeline, "train_ensemble", spanned(
        "dynamics.train",
        lambda a, k, r: t.add("dynamics.train.samples",
                              len(arg(a, k, 0, "data")) * k.get("epochs", 40)
                              * k.get("n_total", 7))))
    p.patch(dynamics.EnsembleDynamics, "elite_predictions", spanned(
        "dynamics.elite_predictions",
        lambda a, k, r: t.add("dynamics.elite_predictions.rows", _rows(a[1]))))
    p.patch(rollout, "sample_next_batch", spanned("dynamics.sample_next"))
    p.patch(rollout, "conservative_cost_label_batch", spanned(
        "dynamics.cost_label",
        lambda a, k, r: t.add("dynamics.cost_label.rows", len(r))))
    p.patch(pipeline, "save_ensemble", spanned("dynamics.save"))
    p.patch(pipeline, "load_ensemble", spanned("dynamics.load"))

    # approx: network arithmetic and checkpoints.
    p.patch(approx.Mlp, "forward", spanned(
        "approx.forward", lambda a, k, r: t.add("approx.forward.rows", _rows(a[1]))))
    p.patch(approx.Mlp, "backward", spanned("approx.backward"))
    p.patch(approx.Trainer, "apply", spanned("approx.optimizer"))
    for module in (critics, policy):
        p.patch(module, "soft_update", spanned("approx.soft_update"))
    for module in (critics, policy, dynamics):
        p.patch(module, "save_mlp", spanned(
            "approx.save_mlp",
            lambda a, k, r: t.add("approx.save_mlp.bytes", _size(arg(a, k, 1, "path")))))
        p.patch(module, "load_mlp", spanned("approx.load_mlp"))

    # critics
    def make_featurize(fn):
        def wrapper(self, x):
            result = t.span(f"critics.featurize.{self.kind}", fn, (self, x), {})
            t.add(f"critics.featurize.{self.kind}.rows", len(result))
            return result
        return wrapper
    p.patch(critics.Featurizer, "__call__", make_featurize)
    p.patch(critics.FeasibilityCritic, "floor_values", spanned(
        "critics.floor", lambda a, k, r: t.add("critics.floor.rows", len(r))))
    p.patch(pipeline, "update_feasibility_critics", spanned(
        "critics.update",
        lambda a, k, r: t.add("critics.update.steps", arg(a, k, 4, "steps"))))

    # rollout
    def rollout_counts(a, k, kept):
        data, cfg = arg(a, k, 1, "dataset"), arg(a, k, 4, "cfg")
        pool = len(data) + len(data.episode_end_indices())
        t.add("rollout.branches_started", cfg.epochs * min(cfg.batch, pool))
        t.add("rollout.branches_kept", len(kept))
    p.patch(pipeline, "branched_rollout", spanned("rollout.branched", rollout_counts))
    p.patch(pipeline, "flatten_branches", spanned("rollout.flatten"))
    p.patch(pipeline, "relabel_offline", spanned("rollout.relabel"))
    p.patch(pipeline, "save_rollout_buffer", spanned(
        "rollout.save_buffer",
        lambda a, k, r: t.add("rollout.save_buffer.bytes", _size(arg(a, k, 1, "path")))))

    # costgen
    for module in (costgen, pipeline):
        p.patch(module, "validate", spanned("costgen.validate"))

    def costgen_counts(a, k, result):
        final, history = result
        t.add("costgen.rounds", len(history))
        t.add("costgen.band_passed", int(bool(final.report and final.report.passed)))
    p.patch(pipeline, "generation_loop", spanned("costgen.generation", costgen_counts))

    # envs: count predicate calls on every env the pipeline builds. The env
    # is frozen, so the margin-predicate factory is swapped on a copy; the
    # candidates ``load_final_candidate`` rebuilds come from the same env.
    def make_build_env(fn):
        def wrapper(*args, **kwargs):
            env = fn(*args, **kwargs)
            factory = env.margin_predicate
            if factory is None:
                return env

            def margin_predicate(margin):
                predicate = factory(margin)
                return lambda s: t.leaf("envs.predicate", predicate, s)
            return dataclasses.replace(env, margin_predicate=margin_predicate)
        return wrapper
    p.patch(pipeline, "build_env", make_build_env)

    # policy
    p.patch(pipeline, "update_reward_critic", spanned(
        "policy.reward_update",
        lambda a, k, r: t.add("policy.reward_update.steps", arg(a, k, 2, "steps"))))
    p.patch(pipeline, "feasibility_guided_policy_update", spanned(
        "policy.bc_update",
        lambda a, k, r: t.add("policy.bc_update.steps", arg(a, k, 4, "steps"))))
    p.patch(policy, "bc_weights", spanned("policy.bc_weights"))
    p.patch(pipeline, "evaluate_policy", spanned("policy.evaluate"))
