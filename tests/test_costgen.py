import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reachsafe.collect import collect_safe_dataset, collect_unsafe_samples
from reachsafe.config import CostGenSection
from reachsafe.costgen import (
    CostCandidate,
    GenerationError,
    ProposerError,
    RemoteChatProposer,
    Round,
    ScriptedMarginProposer,
    ValidationReport,
    _default_transport,
    candidate_from_record,
    candidate_to_record,
    feedback_message,
    generation_loop,
    load_final_candidate,
    save_history,
    select_fallback,
    validate,
)
import reachsafe
from reachsafe.cmdp import empty_dataset
from reachsafe.envs import behavior_mixture, make_hazard_gridworld

from helpers import chat_reply, loopback


@pytest.fixture(scope="module")
def grid_setup():
    env = make_hazard_gridworld(7, 7, [(2, 2), (4, 4)], momentum=1)
    mix = behavior_mixture(env, [("goal_greedy", 0.4), ("random", 0.4),
                                 ("straight", 0.2)])
    d_safe = collect_safe_dataset(env, mix, n_transitions=3000, seed=0)
    d_unsafe = collect_unsafe_samples(env, n=100, seed=1)
    return env, d_safe, d_unsafe


def _const_candidate(value, report=None):
    return CostCandidate(predicate=lambda s: np.full(len(s), value), provenance="manual",
                         report=report)


def test_validate_constant_predicates(grid_setup):
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection()
    always = validate(_const_candidate(1), d_unsafe, d_safe, cfg)
    assert always.recall_unsafe == 1.0
    assert always.conservativeness == 1.0
    assert not always.passed
    never = validate(_const_candidate(0), d_unsafe, d_safe, cfg)
    assert never.recall_unsafe == 0.0
    assert not never.passed


def test_validate_ground_truth_with_zero_floor(grid_setup):
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection(p_min=0.0, p_max=0.3)
    truth = CostCandidate(predicate=lambda s: np.array([env.violation(row) for row in s]),
                          provenance="manual")
    report = validate(truth, d_unsafe, d_safe, cfg)
    assert report.recall_unsafe == 1.0
    assert report.conservativeness == 0.0
    assert report.passed


def test_validate_empty_unsafe_is_degenerate(grid_setup):
    env, d_safe, _ = grid_setup
    cfg = CostGenSection()
    report = validate(_const_candidate(0), empty_dataset(env, "unsafe_small", 0),
                      d_safe, cfg)
    assert report.recall_unsafe == 1.0
    assert report.degenerate_unsafe


def test_validate_reports_conservativeness_even_with_bad_recall(grid_setup):
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection()
    # Flags the upper rows only: catches one hazard, misses the other.
    cand = CostCandidate(predicate=lambda s: (s[:, 1] >= 4).astype(int),
                         provenance="manual")
    report = validate(cand, d_unsafe, d_safe, cfg)
    assert 0.0 < report.recall_unsafe < 1.0
    assert report.conservativeness > 0.0


def test_feedback_message_forms():
    cfg = CostGenSection(p_min=0.10, p_max=0.30)
    low = feedback_message(ValidationReport(1.0, 0.02, False), cfg, n_unsafe=100)
    assert "2%" in low
    assert "10%-30%" in low
    assert "more conservative" in low
    high = feedback_message(ValidationReport(1.0, 0.40, False), cfg, n_unsafe=100)
    assert "too conservative" in high
    recall = feedback_message(ValidationReport(0.98, 0.2, False), cfg, n_unsafe=100)
    assert "98% accuracy" in recall
    assert "more conservative" in recall


def test_scripted_margin_zero_equals_ground_truth(grid_setup):
    env, _, _ = grid_setup
    cand = ScriptedMarginProposer(env, step=1.0)(0, None)
    assert cand.margin == 0.0
    probe = env.states[::7]
    assert np.array_equal(cand.predicate(probe), [env.violation(s) for s in probe])


def test_scripted_margin_shrinks_on_too_conservative(grid_setup):
    env, _, _ = grid_setup
    proposer = ScriptedMarginProposer(env, step=1.0)
    proposer(0, None)
    c1 = proposer(1, "... It should be a little more conservative.")
    c2 = proposer(2, "... It is too conservative.")
    assert c2.margin < c1.margin


def test_conservativeness_nondecreasing_in_margin(grid_setup):
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection()
    values = []
    for margin in (0.0, 1.0, 2.0, 3.0, 4.0):
        cand = CostCandidate(predicate=env.margin_predicate(margin),
                             provenance="scripted", margin=margin)
        values.append(validate(cand, d_unsafe, d_safe, cfg).conservativeness)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_generation_loop_passes_with_scripted_proposer(grid_setup):
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection()
    final, history = generation_loop(ScriptedMarginProposer(env, step=1.0), d_unsafe,
                                     d_safe, cfg)
    assert final.report.passed
    assert len(history) <= cfg.max_queries
    assert final.report.recall_unsafe == 1.0
    assert cfg.p_min <= final.report.conservativeness <= cfg.p_max


def test_loop_falls_back_on_hopeless_proposer(grid_setup):
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection(max_queries=4)

    def hopeless(idx, feedback):
        return _const_candidate(0)

    final, history = generation_loop(hopeless, d_unsafe, d_safe, cfg)
    assert len(history) == 4
    assert final.report.recall_unsafe == 0.0


def test_loop_counts_failed_calls_against_budget(grid_setup):
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection(max_queries=5)
    calls = []

    def flaky(idx, feedback):
        calls.append(idx)
        if len(calls) <= 2:
            raise ProposerError("transient")
        return CostCandidate(predicate=env.margin_predicate(2.0),
                             provenance="scripted", margin=2.0)

    final, history = generation_loop(flaky, d_unsafe, d_safe, cfg)
    assert len(calls) <= cfg.max_queries
    assert history[0].error == "transient"
    assert history[1].error == "transient"
    assert final.report is not None


def test_loop_raises_when_everything_fails(grid_setup):
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection(max_queries=3)

    def broken(idx, feedback):
        raise ProposerError("down")

    with pytest.raises(GenerationError) as err:
        generation_loop(broken, d_unsafe, d_safe, cfg)
    assert len(err.value.history) == 3


def test_fallback_prefers_distance_then_age():
    cfg = CostGenSection(p_min=0.10, p_max=0.30)
    near = _const_candidate(0, ValidationReport(1.0, 0.05, False))
    far = _const_candidate(0, ValidationReport(1.0, 0.40, False))
    history = [Round(index=0, candidate=near), Round(index=1, candidate=far)]
    assert select_fallback(history, cfg) is near  # 0.05 vs 0.10 beats 0.40 vs 0.30
    twin = _const_candidate(0, ValidationReport(1.0, 0.05, False))
    history.append(Round(index=2, candidate=twin))
    assert select_fallback(history, cfg) is near  # earliest wins the tie


def test_fallback_prefers_recall_first():
    cfg = CostGenSection()
    weak = _const_candidate(0, ValidationReport(0.9, 0.2, False))
    strong = _const_candidate(0, ValidationReport(1.0, 0.9, False))
    history = [Round(index=0, candidate=weak), Round(index=1, candidate=strong)]
    assert select_fallback(history, cfg) is strong


def test_fallback_is_pure_function_of_history():
    cfg = CostGenSection()
    history = [
        Round(index=i, candidate=_const_candidate(0, ValidationReport(1.0, 0.05 * i, False)))
        for i in range(5)
    ]
    assert select_fallback(history, cfg) is select_fallback(history, cfg)


# A remote section whose endpoint the canned transports below stand in for.
REPLAY = CostGenSection(proposer="remote", remote_base_url="http://replay.invalid",
                        remote_model="canned")


def _canned_transport(replies):
    state = {"i": 0}

    def transport(cfg, payload):
        i = min(state["i"], len(replies) - 1)
        state["i"] += 1
        return {"choices": [{"message": {"content": replies[i],
                                         "role": "assistant"}}]}

    return transport


def test_remote_proposer_accepts_threshold_reply(grid_setup, tmp_path):
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection()
    reply = "Sure.\n```python\ndef get_cost(observation):\n    return 1 if (abs(x - 2) + abs(y - 2) <= 2) or (abs(x - 4) + abs(y - 4) <= 2) else 0\n```"
    proposer = RemoteChatProposer(REPLAY, env,
                                  transport=_canned_transport([reply]),
                                  transcript_path=tmp_path / "log.jsonl")
    cand = proposer(0, None)
    assert cand.provenance == "remote"
    report = validate(cand, d_unsafe, d_safe, cfg)
    assert report.recall_unsafe == 1.0
    assert (tmp_path / "log.jsonl").exists()


def test_remote_proposer_rejects_unsafe_source(grid_setup):
    env, _, _ = grid_setup
    reply = "```python\ndef get_cost(observation):\n    return open('/etc/passwd')\n```"
    proposer = RemoteChatProposer(REPLAY, env, transport=_canned_transport([reply]))
    with pytest.raises(ProposerError):
        proposer(0, None)


def test_remote_proposer_requires_code_block(grid_setup):
    env, _, _ = grid_setup
    proposer = RemoteChatProposer(REPLAY, env,
                                  transport=_canned_transport(["no code here, sorry"]))
    with pytest.raises(ProposerError):
        proposer(0, None)


def test_remote_loop_with_canned_replies_is_reproducible(grid_setup):
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection()
    replies = [
        "```python\n1 if (abs(x - 2) + abs(y - 2) <= 0) or (abs(x - 4) + abs(y - 4) <= 0) else 0\n```",
        "```python\n1 if (abs(x - 2) + abs(y - 2) <= 2) or (abs(x - 4) + abs(y - 4) <= 2) else 0\n```",
    ]

    def run():
        proposer = RemoteChatProposer(REPLAY, env, transport=_canned_transport(replies))
        return generation_loop(proposer, d_unsafe, d_safe, cfg)

    final_a, hist_a = run()
    final_b, hist_b = run()
    assert final_a.source == final_b.source
    assert [r.error for r in hist_a] == [r.error for r in hist_b]
    assert final_a.report.passed == final_b.report.passed


def test_a_predicate_that_crashes_on_a_corpus_state_fails_only_its_round(grid_setup):
    # x = 2 is a hazard column, so the unsafe corpus holds states where the
    # first reply divides by zero; the preflight's one initial state does not.
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection(max_queries=3)
    crashing = "1 if 1 / (x - 2) > 0 else 0"
    band = "1 if (abs(x - 2) + abs(y - 2) <= 2) or (abs(x - 4) + abs(y - 4) <= 2) else 0"
    replies = [f"```python\n{crashing}\n```", f"```python\n{band}\n```"]
    proposer = RemoteChatProposer(REPLAY, env, transport=_canned_transport(replies))
    final, history = generation_loop(proposer, d_unsafe, d_safe, cfg)
    assert final.source == band and final.report.recall_unsafe == 1.0
    assert len(history) == 2
    assert history[0].candidate is None
    assert history[0].error.startswith("predicate crashed on a corpus state: ZeroDivisionError")
    assert history[1].error is None
    assert history[0].feedback_sent is None and history[1].feedback_sent is None


def test_candidate_record_roundtrip(grid_setup, tmp_path):
    env, d_safe, d_unsafe = grid_setup
    cfg = CostGenSection()
    final, history = generation_loop(ScriptedMarginProposer(env, step=1.0), d_unsafe,
                                     d_safe, cfg)
    path = tmp_path / "history.jsonl"
    save_history(history, final, path)
    back = load_final_candidate(path, env)
    assert back.margin == final.margin
    probe = env.states[::11]
    assert np.array_equal(back.predicate(probe), final.predicate(probe))
    rec = candidate_to_record(final)
    again = candidate_from_record(rec, env)
    assert again.report.passed == final.report.passed


# ---------------------------------------------------------------------------
# Default transport against a loopback HTTP server
# ---------------------------------------------------------------------------


def test_default_transport_posts_json_with_bearer_token(grid_setup, monkeypatch):
    env, _, _ = grid_setup
    content = "```python\n1 if abs(x - 2) + abs(y - 2) <= 1 else 0\n```"
    with loopback(monkeypatch, [(200, chat_reply(content))]) as (server, remote):
        proposer = RemoteChatProposer(remote, env)
        cand = proposer(0, None)
    assert cand.source == "1 if abs(x - 2) + abs(y - 2) <= 1 else 0"
    (request,) = server.seen
    assert request["path"] == "/v1/chat/completions"
    assert request["auth"] == "Bearer tok-123"
    assert request["payload"]["model"] == "loopback"


def test_default_transport_maps_failures_to_proposer_error(monkeypatch):
    payload = {"model": "loopback", "messages": []}
    with loopback(monkeypatch, [(500, "{}"), (200, "not json")]) as (_, remote):
        with pytest.raises(ProposerError, match="500"):
            _default_transport(remote, payload)
        with pytest.raises(ProposerError):
            _default_transport(remote, payload)
    # The server is gone now: the refused connection is a URLError.
    with pytest.raises(ProposerError):
        _default_transport(remote, payload)


def test_importing_the_cli_and_pipeline_leaves_the_http_stack_unloaded():
    code = ("import sys, reachsafe.cli, reachsafe.pipeline; "
            "print([m for m in ('http.client', 'urllib.request') if m in sys.modules])")
    src = str(Path(reachsafe.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
