import json
import math
import re
from dataclasses import fields, is_dataclass

import pytest

from reachsafe import cli
from reachsafe.cmdp import ConfigurationError
from reachsafe.config import config_hash, default_config, load_config, save_config


def write(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return path


def test_saved_config_loads_back_equal(tmp_path):
    cfg = default_config("double_integrator")
    cfg.seed, cfg.ablations = 5, ["no-model", "det-rollout"]
    save_config(cfg, tmp_path / "cfg.txt")
    assert load_config(tmp_path / "cfg.txt") == cfg


def test_integral_float_is_accepted_for_an_integer_key(tmp_path):
    cfg = load_config(write(tmp_path, "learn.total_steps = 100.0\n"))
    assert cfg.learn.total_steps == 100 and isinstance(cfg.learn.total_steps, int)


@pytest.mark.parametrize("line", [
    "learn.total_steps = abc",
    "learn.total_steps = 2.5",
    "learn.total_steps = true",
    "learn.total_steps = [1]",
    "learn.critic_lr = fast",
    "learn.critic_lr = NaN",
    "learn.critic_lr = Infinity",
    "learn.include_rollout_in_v = 1",
    "learn.hidden = 64",
    "costgen.proposer = 3",
    "ablations = no-model",
    "env = 3",
])
def test_value_of_the_wrong_type_is_refused_naming_the_key(tmp_path, line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigurationError, match=f"^{key} expects"):
        load_config(write(tmp_path, line + "\n"))


@pytest.mark.parametrize("line", [
    'learn.hidden = ["a", 3]',
    "dynamics.hidden = [0]",
    'data.behavior = [["random", -1.0]]',
    'data.behavior = [["random", 1.0], ["brake", -0.5]]',
    "env.hazards = [[9, 9, 9]]",
])
def test_bad_list_contents_are_refused_naming_the_key(tmp_path, line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigurationError, match=f"^{key} must list"):
        load_config(write(tmp_path, line + "\n"))


@pytest.mark.parametrize("line", [
    "learn.total_steps = 0",
    "learn.total_steps = -5",
    "learn.rollout_window = 0",
    "learn.rollout_window = -1",
])
def test_empty_step_budget_or_rollout_window_is_refused_naming_the_key(tmp_path, line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigurationError, match=rf"^{key} must lie in \[1, inf\)"):
        load_config(write(tmp_path, line + "\n"))


def test_unknown_key_is_refused(tmp_path):
    # A file naming a removed key (intervention margin, dynamics loss) is
    # refused, not silently ignored.
    for line in ("learn.total_stepz = 10", "data.intervention_margin = 0.0",
                 'dynamics.loss = "nll"'):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigurationError, match=f"unknown configuration key '{key}'"):
            load_config(write(tmp_path, line + "\n"))


# Values that loaded before every numeric key declared its interval: each
# ran on silently, was clamped, or failed inside a later stage.
NOW_REFUSED = [
    ("learn.policy_weight_clip = -1.0", r"^learn.policy_weight_clip must lie in \(0, inf\)"),
    ("costgen.margin_step = -1.0", r"^costgen.margin_step must lie in \(0, inf\)"),
    ("data.n_unsafe = -1", r"^data.n_unsafe must lie in \[0, 100\]"),
    ('data.behavior = [["fly", 1.0]]', "^data.behavior: unknown gridworld behavior 'fly'"),
    ("env.width = 2", r"^env.width must lie in \[3, inf\)"),
    ("env.gamma = 1.5", r"^env.gamma must lie in \(0, 1\)"),
    ("env.hazards = [[9, 9]]", r"^env.hazards: hazard cell \(9,9\) outside the grid"),
    ("learn.rollout_batch_fraction = 0.0",
     r"^learn.rollout_batch_fraction must lie in \(0, inf\)"),
    ("learn.reward_steps_fraction = -0.5",
     r"^learn.reward_steps_fraction must lie in \(0, inf\)"),
    ("costgen.p_min = 0.5\ncostgen.p_max = 0.3",
     "^costgen.p_min must be at most costgen.p_max = 0.3, got 0.5"),
]


@pytest.mark.parametrize("line, message", [
    ("learn.rollout_frequency = 0", r"^learn.rollout_frequency must lie in \[1, inf\)"),
    ("learn.rollout_batch = 0", r"^learn.rollout_batch must lie in \[1, inf\)"),
    ("learn.rollout_horizon = 0", r"^learn.rollout_horizon must lie in \[1, 10\]"),
    ("learn.rollout_horizon = 11", r"^learn.rollout_horizon must lie in \[1, 10\]"),
    ("learn.rollout_epochs = 0", r"^learn.rollout_epochs must lie in \[1, inf\)"),
    ("learn.rollout_noise_std = -1.0", r"^learn.rollout_noise_std must lie in \[0, inf\)"),
    ("costgen.max_queries = 0", r"^costgen.max_queries must lie in \[1, inf\)"),
    ("learn.batch_size = 0", r"^learn.batch_size must lie in \[1, inf\)"),
    ("dynamics.batch_size = 0", r"^dynamics.batch_size must lie in \[1, inf\)"),
    ("dynamics.epochs = 0", r"^dynamics.epochs must lie in \[1, inf\)"),
    ("learn.critic_lr = -1", r"^learn.critic_lr must lie in \(0, inf\)"),
    ("learn.policy_lr = -1", r"^learn.policy_lr must lie in \(0, inf\)"),
    ("dynamics.lr = -1", r"^dynamics.lr must lie in \(0, inf\)"),
    ("dynamics.val_fraction = 1.0", r"^dynamics.val_fraction must lie in \[0, 1\)"),
    ("dynamics.n_elite = 9", "^dynamics.n_elite must lie between 1 and dynamics.n_total"),
    ("dynamics.n_elite = 0", r"^dynamics.n_elite must lie in \[1, inf\)"),
    ("dynamics.n_total = 4", r"dynamics.n_total \(4\), got 5"),
    ("learn.critic_target_rate = 0.0", r"^learn.critic_target_rate must lie in \(0, 1\]"),
    ("learn.reward_expectile = 1.5", r"^learn.reward_expectile must lie in \(0, 1\)"),
    ("learn.reward_gamma = 1.0", r"^learn.reward_gamma must lie in \[0, 1\)"),
    ("learn.policy_temperature = -3.0", r"^learn.policy_temperature must lie in \[0, inf\)"),
    ("costgen.proposer = remote",
     "^the remote proposer needs costgen.remote_base_url and costgen.remote_model"),
] + NOW_REFUSED)
def test_value_a_later_stage_refuses_is_refused_at_load(tmp_path, line, message):
    with pytest.raises(ConfigurationError, match=message):
        load_config(write(tmp_path, line + "\n"))


def _numeric_keys():
    """(dotted key, field, default) for every int or float key of every section."""
    for name, section in vars(default_config("gridworld")).items():
        for f in fields(section) if is_dataclass(section) else ():
            value = getattr(section, f.name)
            if type(value) in (int, float):
                yield f"{name}.{f.name}", f, value


INTERVAL = re.compile(r"^([\[(])(-?\d+(?:\.\d+)?), (-?\d+(?:\.\d+)?|inf)([\])])$")


def test_every_numeric_key_declares_an_interval():
    for key, f, _ in _numeric_keys():
        interval = f.metadata.get("interval", "")
        match = INTERVAL.match(interval)
        assert match, f"{key} declares no parseable interval: {interval!r}"
        assert float(match[2]) < float(match[3]), f"{key}: empty interval {interval}"


def _just_outside():
    """A value just past each finite end of each declared interval: the end
    itself when open, the next int or float beyond it when closed."""
    for key, f, value in _numeric_keys():
        match = INTERVAL.match(f.metadata.get("interval", ""))
        if not match:
            continue  # reported by the declaration test above
        interval, (opening, lo, hi, closing) = match.string, match.groups()
        for end, is_open, down in ((lo, opening == "(", True), (hi, closing == ")", False)):
            end = float(end)
            if math.isinf(end):
                continue
            if isinstance(value, int):
                outside = int(end) if is_open else int(end) + (-1 if down else 1)
            else:
                outside = end if is_open else math.nextafter(end, -math.inf if down else math.inf)
            yield pytest.param(key, interval, outside, id=f"{key} = {outside!r}")


@pytest.mark.parametrize("key, interval, value", list(_just_outside()))
def test_value_just_outside_a_declared_interval_is_refused(tmp_path, key, interval, value):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(key)} must lie in "
                                                 f"{re.escape(interval)}, got "):
        load_config(write(tmp_path, f"{key} = {json.dumps(value)}\n"))


def test_bounds_themselves_are_accepted(tmp_path):
    cfg = load_config(write(tmp_path, "learn.rollout_horizon = 10\n"
                                      "learn.rollout_noise_std = 0.0\n"
                                      "dynamics.n_elite = 7\n"
                                      "dynamics.val_fraction = 0.0\n"
                                      "costgen.max_queries = 1\n"))
    assert (cfg.learn.rollout_horizon, cfg.dynamics.n_elite) == (10, cfg.dynamics.n_total)


def test_cli_refuses_a_bad_value_before_any_stage_writes(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write(tmp_path, "learn.rollout_horizon = 11\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.rglob("*"))
    assert "learn.rollout_horizon" in capsys.readouterr().err


@pytest.mark.parametrize("line", [line for line, _ in NOW_REFUSED])
def test_cli_refuses_a_value_that_used_to_load_without_a_run_directory(tmp_path, capsys,
                                                                      line):
    out = tmp_path / "run"
    cfg = write(tmp_path, line + "\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["kind"] == "ConfigurationError"


def test_cli_refuses_an_unknown_stage_without_a_run_directory(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["run", "--stage", "bogus", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "unknown stage 'bogus'",
                                    "kind": "ConfigurationError"}
    assert not out.exists()


def test_cli_refuses_a_remote_proposer_without_endpoint_before_any_stage(tmp_path,
                                                                        capsys):
    out = tmp_path / "run"
    assert cli.main(["run", "--proposer", "remote", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    for key in ("costgen.remote_base_url", "costgen.remote_model"):
        assert key in err


def test_dynamics_split_below_its_batch_is_refused_before_any_stage(tmp_path, capsys):
    # 300 rows less a 0.2 validation share leave 240, under the batch of 256.
    out = tmp_path / "run"
    cfg = write(tmp_path, "data.n_transitions = 300\n")
    with pytest.raises(ConfigurationError, match="is 240 rows, fewer than"):
        load_config(cfg)
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    for key in ("data.n_transitions", "dynamics.val_fraction", "dynamics.batch_size"):
        assert key in err


@pytest.mark.parametrize("ablations, message", [
    ('["ungated", "no-model"]', "ungated cannot be combined"),
    ('["no-model", "no-model"]', "duplicate ablation"),
    ('["no-gate"]', "unknown ablation"),
])
def test_bad_ablation_lists_are_refused(tmp_path, ablations, message):
    with pytest.raises(ConfigurationError, match=message):
        load_config(write(tmp_path, f"ablations = {ablations}\n"))


def test_cli_refuses_ungated_with_another_toggle(tmp_path, capsys):
    assert cli.main(["run", "--stage", "learn", "--ungated", "--no-model",
                     "--out", str(tmp_path)]) == 2
    assert "ungated cannot be combined" in capsys.readouterr().err


@pytest.mark.parametrize("env, digest", [
    ("gridworld", "a82f08147bd9597d"),
    ("double_integrator", "736423c2cbbdb058"),
])
def test_default_config_hash_is_pinned(env, digest):
    # Stage artifacts resume only under the hash they were made with, so a
    # change to any default key or value would orphan every run directory.
    assert config_hash(default_config(env)) == digest
