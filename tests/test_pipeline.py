import importlib.util
import json
import shutil
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reachsafe import cli, pipeline
from reachsafe.approx import load_mlp, save_mlp
from reachsafe.cmdp import load_dataset
from reachsafe.collect import collect_safe_dataset
from reachsafe.config import build_env, default_config, save_config
from reachsafe.costgen import CostCandidate, load_final_candidate
from reachsafe.critics import (
    FeasibilityCritic,
    QVCritic,
    load_critic,
    make_feasibility_critic,
    save_critic,
    update_feasibility_critics,
)
from reachsafe.envs import behavior_mixture, make_double_integrator
from reachsafe.pipeline import StageMismatch, run_pipeline
from reachsafe.policy import REWARD_TARGET_RATE, make_reward_critic, update_reward_critic
from reachsafe.rollout import relabel_offline

from helpers import chat_reply, loopback


def tiny_config(ablations=()):
    """A 5x5 gridworld run that goes through every stage in about a second."""
    cfg = default_config("gridworld")
    cfg.ablations = list(ablations)
    cfg.env.width, cfg.env.height, cfg.env.hazards = 5, 5, [[2, 2]]
    cfg.env.horizon = 20
    cfg.data.n_transitions, cfg.data.n_unsafe = 600, 20
    cfg.dynamics.n_total, cfg.dynamics.n_elite, cfg.dynamics.epochs = 2, 1, 1
    cfg.dynamics.batch_size, cfg.dynamics.hidden = 64, [16, 16]
    cfg.learn.total_steps, cfg.learn.rollout_frequency = 4, 2
    cfg.learn.rollout_batch, cfg.learn.rollout_epochs = 64, 1
    cfg.learn.batch_size, cfg.learn.hidden = 32, [16, 16]
    cfg.eval.episodes = 2
    return cfg


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("full")
    run_pipeline(tiny_config(), root)
    return root


@pytest.fixture
def run_dir(full_run, tmp_path):
    """A private copy of the finished ``full`` run."""
    return shutil.copytree(full_run, tmp_path / "run")


def test_resume_leaves_manifest_untouched(run_dir):
    manifest = run_dir / "manifest.json"
    before = (manifest.read_bytes(), manifest.stat().st_mtime_ns)
    run_pipeline(tiny_config(), run_dir)
    assert (manifest.read_bytes(), manifest.stat().st_mtime_ns) == before


def test_changed_learn_value_is_refused(run_dir):
    cfg = tiny_config()
    cfg.learn.policy_lr *= 2
    # The shared reward stage hashes the learn section too, and runs first.
    with pytest.raises(StageMismatch, match="stage 'reward'"):
        run_pipeline(cfg, run_dir)
    with pytest.raises(StageMismatch, match="learn:full"):
        run_pipeline(cfg, run_dir, stages=("learn",))


def test_ablation_reuses_upstream_artifacts(run_dir, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an upstream stage ran again")

    for name in ("collect_safe_dataset", "compute_feasible_set_oracle",
                 "generation_loop"):
        monkeypatch.setattr(pipeline, name, refuse)
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    run_pipeline(tiny_config(["no-model"]), run_dir)
    after = json.loads((run_dir / "manifest.json").read_text())["stages"]
    for key in ("data", "oracle", "costgen"):
        assert after[key] == stages[key]
    assert "learn:no-model" in after and "evaluate:no-model" in after
    assert (run_dir / "no-model" / "eval.csv").exists()


def test_resume_loads_no_artifact(run_dir, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a resumed stage loaded an artifact")

    for name in ("load_dataset", "load_ensemble", "load_final_candidate", "load_policy"):
        monkeypatch.setattr(pipeline, name, refuse)
    run_pipeline(tiny_config(), run_dir)


@pytest.mark.parametrize("stage, upstream", [
    ("dynamics", "data"), ("costgen", "data"), ("learn", "data"),
    ("learn", "dynamics"), ("learn", "costgen"), ("learn", "reward"), ("evaluate", "data"),
    ("evaluate", "learn"),
])
def test_missing_upstream_artifact_is_reported(run_dir, stage, upstream):
    cfg = tiny_config()
    paths = pipeline.RunPaths(run_dir)
    table = pipeline.STAGE_TABLE
    for path in table[stage].artifacts(paths, cfg) + table[upstream].artifacts(paths, cfg):
        path.unlink()
    gone = table[upstream].artifacts(paths, cfg)[0].relative_to(run_dir)
    with pytest.raises(pipeline.MissingArtifact, match=f"{gone}.*stage '{upstream}'"):
        run_pipeline(cfg, run_dir, stages=(stage,))


def _stamp(path):
    return path.read_bytes(), path.stat().st_mtime_ns


def test_stage_wrappers_on_the_module_see_every_call(tmp_path, monkeypatch):
    """Wrappers installed on ``pipeline.stage_<name>`` (as the benchmark's
    stage probe does) see every call, and only a running stage writes the
    manifest inside its call."""
    calls = []

    def recorder(name, stage_fn):
        def wrapper(cfg, paths):
            before = _stamp(paths.manifest) if paths.manifest.exists() else None
            stage_fn(cfg, paths)
            calls.append((name, _stamp(paths.manifest) != before))
        return wrapper

    for name in pipeline.STAGES:
        monkeypatch.setattr(pipeline, f"stage_{name}",
                            recorder(name, getattr(pipeline, f"stage_{name}")))
    run_pipeline(tiny_config(), tmp_path)
    assert calls == [(name, True) for name in pipeline.STAGES]
    calls.clear()
    run_pipeline(tiny_config(), tmp_path)
    assert calls == [(name, False) for name in pipeline.STAGES]


@pytest.fixture
def perfbench_module(monkeypatch):
    """Load a benchmark module from ``perfbench/`` by name.

    Importing ``workload`` pins the BLAS thread variables; the fixture
    restores them and ``sys.modules`` afterwards.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")

    def load(name):
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module
    return load


@pytest.fixture
def needed_stages(perfbench_module):
    """The benchmark's list of the manifest keys each variant must record."""
    return perfbench_module("workload").needed_stages


def test_benchmark_probes_find_every_binding_but_the_two_stale_ones(perfbench_module):
    # A renamed binding leaves its probe reading zero; only the two probes
    # of deleted code may be missing.
    spans = perfbench_module("spans")
    learn = pipeline.stage_learn
    with spans.instrument(spans.StageProbe(), spans.Tracer()) as missing:
        assert pipeline.stage_learn is not learn
    assert sorted(missing) == ["reachsafe.pipeline.flatten_branches",
                               "reachsafe.policy.soft_update"]
    assert pipeline.stage_learn is learn


def test_benchmark_probes_count_from_the_config_the_run_uses(tmp_path, perfbench_module):
    # The probes read the rollout schedule from ``branched_rollout``'s ``cfg``,
    # the dynamics budget from ``train_ensemble``'s keywords and the update
    # steps from the ``steps`` arguments; a call that stopped passing any of
    # them would leave the probe on its own fallbacks.
    spans = perfbench_module("spans")
    cfg = tiny_config()
    cfg.learn.rollout_epochs = 3
    tracer = spans.Tracer()
    tracer.active = True
    with spans.instrument(spans.StageProbe(), tracer):
        run_pipeline(cfg, tmp_path)
    data = load_dataset(pipeline.RunPaths(tmp_path).dataset)
    lc, dc = cfg.learn, cfg.dynamics
    events = -(-lc.total_steps // lc.rollout_frequency)
    pool = len(data.rollout_start_states())
    assert tracer.counts["rollout.branched.calls"] == events == 2
    assert (tracer.counts["rollout.branches_started"]
            == events * lc.rollout_epochs * min(lc.rollout_batch, pool))
    assert tracer.counts["dynamics.train.samples"] == len(data) * dc.epochs * dc.n_total
    assert tracer.counts["critics.update.steps"] == lc.total_steps
    assert tracer.counts["policy.bc_update.steps"] == sum(
        max(1, int(steps * lc.reward_steps_fraction)) for steps in pipeline._event_steps(lc))
    assert tracer.counts["rollout.relabel.calls"] == 1


def test_critic_updates_read_the_rollout_window_in_place(tmp_path, monkeypatch):
    # Each update gets the very buffers the last W rollouts returned, elite
    # means intact; the saved buffer is stacked once every elite mean is let
    # go. Only weak references are kept here, so none is held alive.
    cfg = tiny_config()
    cfg.learn.total_steps = 6  # three rollout events through a window of two
    width = cfg.learn.rollout_window
    rollouts, windows, held = [], [], []
    roll, update = pipeline.branched_rollout, pipeline.update_feasibility_critics
    stack = pipeline.stack_buffers

    def rolled(*args, **kwargs):
        buffer = roll(*args, **kwargs)
        rollouts.append((weakref.ref(buffer), weakref.ref(buffer.elite_next)))
        return buffer

    def updated(critic, offline, window, *args, **kwargs):
        last = rollouts[-width:]
        windows.append(len(window) == len(last) and all(
            b is buffer() and b.elite_next is means() and means() is not None
            for b, (buffer, means) in zip(window, last)))
        return update(critic, offline, window, *args, **kwargs)

    def stacked(buffers):
        held.append(sum(means() is not None for _, means in rollouts))
        return stack(buffers)

    monkeypatch.setattr(pipeline, "branched_rollout", rolled)
    monkeypatch.setattr(pipeline, "update_feasibility_critics", updated)
    monkeypatch.setattr(pipeline, "stack_buffers", stacked)
    run_pipeline(cfg, tmp_path)
    assert len(rollouts) == 3 and windows == [True] * 3
    assert held == [0]


def test_learn_builds_its_feasibility_critic_without_a_predicate(tmp_path, monkeypatch):
    # The update and the policy weights floor with stored labels, so nothing
    # in learn reads a predicate on the critic; the heatmap and the
    # benchmark attach one to the loaded critic.
    built = []
    make = pipeline.make_feasibility_critic

    def recording(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pipeline, "make_feasibility_critic", recording)
    run_pipeline(tiny_config(), tmp_path)
    assert len(built) == 1 and built[0].cost_fn is None


def test_remote_proposer_runs_through_the_costgen_stage(tmp_path, monkeypatch):
    low = "1 if abs(x - 2) + abs(y - 2) <= 1 else 0"     # flags 5.5% of the safe data
    band = "1 if max(abs(x - 2), abs(y - 2)) <= 1 else 0"  # flags 13.3%
    replies = [f"```python\n{low}\n```", f"Wider:\n```python\n{band}\n```"]
    cfg = tiny_config()
    with loopback(monkeypatch, [(200, chat_reply(r)) for r in replies]) as (server, remote):
        cfg.costgen = remote
        run_pipeline(cfg, tmp_path, stages=("data", "costgen"))
    paths = pipeline.RunPaths(tmp_path)
    env = build_env(cfg)
    final = load_final_candidate(paths.cost_history(cfg), env)
    assert (final.provenance, final.source, final.report.passed) == ("remote", band, True)
    x, y = env.states[:, 0], env.states[:, 1]
    want = (np.maximum(abs(x - 2), abs(y - 2)) <= 1).astype(int)
    assert np.array_equal(final.predicate(env.states), want)

    records = [json.loads(line) for line in paths.transcripts.read_text().splitlines()]
    assert [r["round"] for r in records] == [0, 1]
    assert len(server.seen) == 2
    feedback = json.loads(paths.cost_history(cfg).read_text().splitlines()[2])["feedback_sent"]
    assert "more conservative" in feedback
    (opening,) = records[0]["request"]["messages"]   # the transcript sorts keys
    instruction = [{"role": "user", "content": opening["content"]}]
    conversations = [instruction, [*instruction, {"role": "assistant", "content": replies[0]},
                                   {"role": "user", "content": feedback}]]
    for record, request, messages in zip(records, server.seen, conversations):
        assert request["path"] == "/v1/chat/completions"
        assert request["auth"] == "Bearer tok-123"
        # The exact bytes on the wire: key order, model and temperature.
        assert request["body"] == json.dumps(
            {"model": "loopback", "messages": messages, "temperature": 0.2}).encode()
        assert record["request"] == request["payload"]


@pytest.mark.parametrize("ablations, rolls_out", [
    ((), True), (("no-model",), False), (("ungated",), False),
    (("no-conservative",), True),
])
def test_variant_records_the_benchmark_manifest_keys(tmp_path, needed_stages,
                                                     ablations, rolls_out):
    cfg = tiny_config(ablations)
    run_pipeline(cfg, tmp_path)
    stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    needed = needed_stages(cfg)
    # The benchmark's list predates the shared reward stage.
    assert sorted(stages) == sorted([*(key for _, key in needed), "reward"])
    for stage, key in needed:
        assert stages[key]["hash"] == pipeline.stage_hash(cfg, stage)
    buffer = pipeline.RunPaths(tmp_path).rollout_buffer(cfg)
    assert buffer.exists() == rolls_out


def test_variants_share_one_reward_stage(tmp_path, monkeypatch):
    # The reward pair reads no ablation: the first variant trains it, a
    # later one reuses it and clones exactly as in a run of its own.
    calls = []
    update = pipeline.update_reward_critic

    def counted(*args, **kwargs):
        calls.append(args[2])
        return update(*args, **kwargs)

    monkeypatch.setattr(pipeline, "update_reward_critic", counted)
    shared, alone = tmp_path / "shared", tmp_path / "alone"
    run_pipeline(tiny_config(["no-model"]), shared)
    assert len(calls) == 2   # one update per rollout event
    run_pipeline(tiny_config(["ungated"]), shared)
    assert len(calls) == 2
    stages = json.loads((shared / "manifest.json").read_text())["stages"]
    assert [key for key in stages if key.startswith("reward")] == ["reward"]
    run_pipeline(tiny_config(["ungated"]), alone)
    for name in ("policy/policy.npz", "eval.csv"):
        assert ((shared / "ungated" / name).read_bytes()
                == (alone / "ungated" / name).read_bytes())


def test_cli_error_is_one_json_line_with_exit_code_2(tmp_path, capsys):
    assert cli.main(["run", "--stage", "learn", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "MissingArtifact"


def test_export_heatmap_reads_the_critic_checkpoint(run_dir, capsys):
    save_config(tiny_config(), run_dir / "cfg.txt")
    assert cli.main(["export-heatmap", "--config", str(run_dir / "cfg.txt"),
                     "--out", str(run_dir)]) == 0
    rows = (run_dir / "full" / "heatmap.csv").read_text().splitlines()
    assert len(rows) == 2 + 5   # two header lines, then one row per x cell


@pytest.mark.parametrize("resolution", ["1", "0", "-4"])
def test_export_heatmap_refuses_a_resolution_below_two(run_dir, resolution, capsys):
    save_config(tiny_config(), run_dir / "cfg.txt")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["export-heatmap", "--config", str(run_dir / "cfg.txt"),
                  "--out", str(run_dir), "--resolution", resolution])
    assert exit_.value.code == 2
    assert "at least 2" in capsys.readouterr().err
    assert not (run_dir / "full" / "heatmap.csv").exists()


@pytest.mark.parametrize("ablations, floored", [([], True), (["no-relabel"], False)])
def test_heatmap_applies_the_floor_the_critic_was_trained_with(run_dir, ablations,
                                                               floored):
    # no-relabel trains its critic without the cost floor, so its heatmap
    # is the bare network surface; full's carries the floor.
    cfg = tiny_config(ablations)
    run_pipeline(cfg, run_dir)
    save_config(cfg, run_dir / "cfg.txt")
    assert cli.main(["export-heatmap", "--config", str(run_dir / "cfg.txt"),
                     "--out", str(run_dir)]) == 0
    paths, env = pipeline.RunPaths(run_dir), build_env(cfg)
    lines = paths.heatmap(cfg).read_text().splitlines()
    x_lo, x_hi, nx, y_lo, y_hi, ny = (float(v) for v in lines[1].split(","))
    written = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    xs, ys = np.meshgrid(np.linspace(x_lo, x_hi, int(nx)), np.linspace(y_lo, y_hi, int(ny)),
                         indexing="ij")
    states = np.column_stack([xs.ravel(), ys.ravel(), np.zeros((xs.size, env.d_s - 2))])
    predicate = load_final_candidate(paths.cost_history(cfg), env).predicate
    surface = {floor: load_critic(paths.critic_dir(cfg), env,
                                  cost_fn=predicate if floor else None
                                  ).v_values(states).reshape(written.shape)
               for floor in (True, False)}
    assert not np.allclose(surface[True], surface[False], rtol=1e-8, atol=0.0)
    assert np.allclose(written, surface[floored], rtol=1e-8, atol=0.0)


def test_export_heatmap_without_cost_history_is_a_missing_artifact(run_dir, capsys):
    cfg = tiny_config()
    save_config(cfg, run_dir / "cfg.txt")
    pipeline.RunPaths(run_dir).cost_history(cfg).unlink()
    assert cli.main(["export-heatmap", "--config", str(run_dir / "cfg.txt"),
                     "--out", str(run_dir)]) == 2
    error = json.loads(capsys.readouterr().err.strip())
    assert error["kind"] == "MissingArtifact" and "cost_history" in error["error"]


def _rewrite_cfg(path, cfg_meta, **fields):
    """Rewrite a checkpoint's metadata with exactly the former keys."""
    nets, meta = load_mlp(path)
    former = ("kind", "low", "high", "steps_trained", "state_feat", "action_feat",
              "h_min", "h_max")
    save_mlp(nets, path, {**{k: meta[k] for k in former if k in meta}, "cfg": cfg_meta,
                          **fields})


def test_checkpoints_that_keep_the_whole_learn_config_still_load(run_dir, capsys):
    # Checkpoints written before the learn settings moved to config.py
    # carry every setting of their consumer under "cfg"; a resumed run
    # still evaluates and draws them.
    cfg = tiny_config()
    lc, paths = cfg.learn, pipeline.RunPaths(run_dir)
    save_config(cfg, run_dir / "cfg.txt")
    heatmap = ["export-heatmap", "--config", str(run_dir / "cfg.txt"), "--out", str(run_dir)]
    assert cli.main(heatmap) == 0
    before = paths.heatmap(cfg).read_bytes(), paths.eval_csv(cfg).read_bytes()
    common = {"lr": lc.policy_lr, "batch_size": lc.batch_size, "hidden": lc.hidden}
    _rewrite_cfg(paths.critic_dir(cfg) / "critic.npz", {
        "gamma": lc.critic_gamma, "tau": lc.critic_tau, "lr": lc.critic_lr,
        "batch_size": lc.batch_size, "target_rate": lc.critic_target_rate,
        "hidden": lc.hidden, "include_rollout_in_v": lc.include_rollout_in_v,
        "rollout_batch_fraction": lc.rollout_batch_fraction})
    _rewrite_cfg(paths.reward_dir / "critic.npz", {
        **common, "gamma": lc.reward_gamma, "expectile": lc.reward_expectile,
        "target_rate": REWARD_TARGET_RATE}, kind="RewardCritic")
    _rewrite_cfg(paths.policy_dir(cfg) / "policy.npz", {
        **common, "temperature": lc.policy_temperature, "weight_clip": lc.policy_weight_clip})

    manifest = json.loads(paths.manifest.read_text())
    del manifest["stages"]["evaluate:full"]
    paths.manifest.write_text(json.dumps(manifest))
    paths.eval_csv(cfg).unlink()
    run_pipeline(cfg, run_dir)
    assert cli.main(heatmap) == 0
    assert (paths.heatmap(cfg).read_bytes(), paths.eval_csv(cfg).read_bytes()) == before
    critic = load_critic(paths.critic_dir(cfg), build_env(cfg))
    reward = load_critic(paths.reward_dir, build_env(cfg))
    assert (critic.q_trainer.lr, critic.target_rate) == (lc.critic_lr, lc.critic_target_rate)
    assert (reward.v_trainer.lr, reward.target_rate) == (lc.policy_lr, REWARD_TARGET_RATE)


def test_oracle_warnings_stay_out_of_stdout_json(tmp_path, capsys):
    cfg = tiny_config()
    cfg.learn.critic_gamma = 0.5   # at or below the threshold for any horizon
    save_config(cfg, tmp_path / "cfg.txt")
    assert cli.main(["oracle", "--config", str(tmp_path / "cfg.txt"),
                     "--out", str(tmp_path / "run")]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert any("learn.critic_gamma" in w for w in report["warnings"])
    assert "warning: learn.critic_gamma" in captured.err


def test_a_cost_generation_fallback_warns_on_stderr(tmp_path, capsys, monkeypatch):
    # A proposer stuck at margin 0, whose predicate flags no safe successor,
    # never reaches the band: the stage adopts a fallback and says so.
    def stuck(env, step):
        return lambda idx, feedback: CostCandidate(
            predicate=env.margin_predicate(0.0), provenance="scripted",
            source="margin=0", margin=0.0)

    monkeypatch.setattr(pipeline, "ScriptedMarginProposer", stuck)
    cfg = tiny_config()
    cfg.costgen.max_queries = 3
    run_pipeline(cfg, tmp_path, stages=("data", "costgen"))
    final = load_final_candidate(tmp_path / "cost_history.jsonl", build_env(cfg))
    assert final.margin == 0.0 and final.report is not None and not final.report.passed
    err = capsys.readouterr().err
    assert ("warning: no cost candidate passed validation in 3 rounds; adopted margin 0 "
            f"with recall {final.report.recall_unsafe:.3f} and conservativeness 0.000 "
            "(band [0.1, 0.3])") in err


def test_a_passing_cost_generation_prints_no_warning(tmp_path, capsys):
    run_pipeline(tiny_config(), tmp_path, stages=("data", "costgen"))
    assert "warning" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Critic checkpoints: float64 payloads reload exactly. The policy and
# ensemble round trips are in test_policy.py and test_dynamics.py.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def integrator():
    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    mix = behavior_mixture(env, [("probe", 0.4), ("random", 0.4), ("brake", 0.2)])
    data = collect_safe_dataset(env, mix, n_transitions=600, seed=4)
    return env, data


def assert_same_nets(a, b):
    for name in ("q_net", "v_net", "q_target", "v_target"):
        for p, q in zip(getattr(a, name).parameters(), getattr(b, name).parameters()):
            assert np.array_equal(p, q)


def test_feasibility_critic_roundtrip_keeps_config_and_floor(integrator, tmp_path):
    env, data = integrator
    learn = default_config("double_integrator").learn
    assert learn.rollout_batch_fraction == 0.25
    cfg = replace(learn, hidden=[16, 16], batch_size=64)
    floor = env.margin_predicate(0.05)
    critic = make_feasibility_critic(env, data, cfg, seed=1)
    critic.cost_fn = floor
    update_feasibility_critics(critic, relabel_offline(data, None, env.h_min, env.h_max), [],
                               steps=3, cfg=cfg)
    save_critic(critic, tmp_path / "critic")
    back = load_critic(tmp_path / "critic", env, cost_fn=floor)
    assert isinstance(back, FeasibilityCritic)
    assert (back.q_trainer.lr, back.v_trainer.lr, back.target_rate) == (
        critic.q_trainer.lr, critic.v_trainer.lr, critic.target_rate)
    assert back.cost_fn is floor and back.steps_trained == 3
    assert_same_nets(back, critic)
    probe = np.array([[0.97, 0.5], [0.0, 0.0], [-0.5, -0.9]])
    assert np.array_equal(back.v_values(probe), critic.v_values(probe))
    assert np.array_equal(back.q_values(data.s[:8], data.a[:8]),
                          critic.q_values(data.s[:8], data.a[:8]))


def test_reward_critic_roundtrip(integrator, tmp_path):
    env, data = integrator
    learn = replace(default_config("double_integrator").learn, hidden=[16, 16], batch_size=64)
    reward = make_reward_critic(data, learn, seed=2)
    update_reward_critic(reward, data, steps=3, cfg=learn)
    save_critic(reward, tmp_path / "reward")
    back = load_critic(tmp_path / "reward", env)
    assert type(back) is QVCritic
    assert (back.q_trainer.lr, back.v_trainer.lr, back.target_rate, back.steps_trained) == (
        reward.q_trainer.lr, reward.v_trainer.lr, reward.target_rate, 3)
    assert_same_nets(back, reward)
    assert np.array_equal(back.q_values(data.s[:8], data.a[:8]),
                          reward.q_values(data.s[:8], data.a[:8]))

