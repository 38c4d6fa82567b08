"""Conservative cost-function generation with validation and feedback.

A proposer (scripted, or a remote chat-completion endpoint) emits
candidate predicates; each candidate must flag every transition in the
tiny unsafe corpus (recall 1.0) and flag a controlled band of the safe
corpus, the conservativeness, inside [p_min, p_max]. Failing candidates
earn a feedback message describing the miss, and the loop re-queries up
to a budget; if nothing passes, the best candidate by recall, then by
band distance, then by age, is adopted. The band and the query budget
come from the configuration's ``costgen`` section.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .cmdp import HardCMDP, OfflineDataset, Predicate, cost_labels
from .config import CostGenSection
from .safexpr import ExpressionRejected, compile_predicate
from .seeding import substream


# The opening request of every remote conversation.
INSTRUCTION_TEXT = (
    "Write a predicate that returns 1 when an observation is unsafe and 0 "
    "otherwise. Be a little more conservative than the stated constraint: "
    "flag observations that are close to violating it as unsafe too."
)


@dataclass
class ValidationReport:
    recall_unsafe: float
    conservativeness: float
    passed: bool
    degenerate_unsafe: bool = False

    def band_distance(self, cfg: CostGenSection) -> float:
        if self.conservativeness < cfg.p_min:
            return cfg.p_min - self.conservativeness
        if self.conservativeness > cfg.p_max:
            return self.conservativeness - cfg.p_max
        return 0.0


@dataclass
class CostCandidate:
    predicate: Predicate
    provenance: str                      # scripted | remote | manual
    source: str = ""                     # expression text for remote candidates
    margin: float | None = None          # margin for scripted candidates
    report: ValidationReport | None = None


@dataclass
class Round:
    index: int
    candidate: CostCandidate | None = None
    report: ValidationReport | None = None
    feedback_sent: str | None = None
    error: str | None = None


class ProposerError(RuntimeError):
    """A proposer call failed (transport, parse, or interpreter rejection)."""


class GenerationError(RuntimeError):
    """Every proposer call failed; carries the round history."""

    def __init__(self, history: list[Round]):
        super().__init__(f"all {len(history)} proposer calls failed")
        self.history = history


def _predicate_fraction(predicate: Predicate, states: np.ndarray) -> float:
    if len(states) == 0:
        return 0.0
    return int(cost_labels(predicate, states).sum()) / len(states)


def validate(candidate: CostCandidate, d_unsafe: OfflineDataset,
             d_safe: OfflineDataset, cfg: CostGenSection) -> ValidationReport:
    """Score a candidate on both corpora.

    Both metrics evaluate successor states: recall is the flagged fraction
    of the unsafe corpus, conservativeness the flagged fraction of the safe
    one. The pass flag requires perfect recall first; conservativeness is
    reported either way.
    """
    degenerate = len(d_unsafe) == 0
    recall = 1.0 if degenerate else _predicate_fraction(candidate.predicate, d_unsafe.s2)
    conservativeness = _predicate_fraction(candidate.predicate, d_safe.s2)

    passed = recall == 1.0 and cfg.p_min <= conservativeness <= cfg.p_max
    return ValidationReport(recall_unsafe=recall, conservativeness=conservativeness,
                            passed=passed, degenerate_unsafe=degenerate)


def _pct(x: float) -> str:
    return f"{100.0 * x:g}"


def feedback_message(report: ValidationReport, cfg: CostGenSection,
                     n_unsafe: int) -> str:
    """Compose the correction request for a failing report."""
    if report.recall_unsafe < 1.0:
        return (
            f"For {n_unsafe} unsafe testing samples, this function achieves "
            f"{_pct(report.recall_unsafe)}% accuracy, it should be a little "
            "more conservative."
        )
    band = f"{_pct(cfg.p_min)}%-{_pct(cfg.p_max)}%"
    base = (
        f"For safe samples, this function classifies "
        f"{_pct(report.conservativeness)}% of them as unsafe. We want to "
        f"classify {band} safe samples as unsafe."
    )
    if report.conservativeness > cfg.p_max:
        return base + " It is too conservative."
    if report.conservativeness < cfg.p_min:
        return base + " It should be a little more conservative."
    return "The cost function meets all requirements."


def select_fallback(history: Sequence[Round], cfg: CostGenSection) -> CostCandidate:
    """Deterministic fallback: best recall, then nearest the band, then oldest."""
    scored = [
        (-(r.report.recall_unsafe), r.report.band_distance(cfg), r.index, r.candidate)
        for r in history if r.candidate is not None and r.report is not None
    ]
    if not scored:
        raise GenerationError(list(history))
    scored.sort(key=lambda t: (t[0], t[1], t[2]))
    return scored[0][3]


def generation_loop(
    proposer: Callable[[int, str | None], CostCandidate],
    d_unsafe: OfflineDataset,
    d_safe: OfflineDataset,
    cfg: CostGenSection,
) -> tuple[CostCandidate, list[Round]]:
    """Propose, validate, feed back, repeat; at most ``max_queries`` calls.

    A failed proposer call is recorded in the history and counts against
    the budget; the next call reuses the same feedback.
    """
    history: list[Round] = []
    feedback: str | None = None

    for idx in range(cfg.max_queries):
        try:
            candidate = proposer(idx, feedback)
        except ProposerError as err:
            history.append(Round(index=idx, feedback_sent=feedback, error=str(err)))
            continue
        report = validate(candidate, d_unsafe, d_safe, cfg)
        candidate.report = report
        history.append(Round(index=idx, candidate=candidate, report=report,
                             feedback_sent=feedback))
        if report.passed:
            return candidate, history
        feedback = feedback_message(report, cfg, n_unsafe=max(len(d_unsafe), 1))

    return select_fallback(history, cfg), history


# ---------------------------------------------------------------------------
# Proposers
# ---------------------------------------------------------------------------


class ScriptedMarginProposer:
    """Deterministic stand-in for a language-model proposer.

    Proposes the environment's margin predicate, starting at margin zero
    (where the predicate equals the true cost indicator), and walks the
    margin per feedback: grow by ``step`` when asked to be more
    conservative, shrink by half a step when told it went too far, never
    below zero.
    """

    def __init__(self, env: HardCMDP, step: float):
        if env.margin_predicate is None:
            raise ValueError(f"{env.name} exposes no margin predicate")
        self.env = env
        self.margin = 0.0
        self.step = float(step)

    def __call__(self, round_index: int, feedback: str | None) -> CostCandidate:
        if feedback is not None:
            if "too conservative" in feedback:
                self.margin = max(0.0, self.margin - 0.5 * self.step)
            elif "more conservative" in feedback:
                self.margin += self.step
        margin = self.margin
        return CostCandidate(
            predicate=self.env.margin_predicate(margin),
            provenance="scripted",
            source=f"margin={margin:g}",
            margin=margin,
        )


_CODE_BLOCK = re.compile(r"```(?:[a-zA-Z0-9_+-]*)\n(.*?)```", re.DOTALL)
REMOTE_TIMEOUT_S = 60.0     # per request
REMOTE_TEMPERATURE = 0.2    # sent with every request


def _default_transport(cfg: CostGenSection, payload: dict) -> dict:
    """POST ``payload`` to ``remote_base_url``'s chat-completion route.

    The bearer token comes from the environment variable named by
    ``remote_token_env``; it is read per request and never stored.
    """
    # Imported here: only the remote proposer pays for the HTTP stack.
    import http.client
    import urllib.request

    token = os.environ.get(cfg.remote_token_env, "")
    if not token:
        raise ProposerError(
            f"no credential: set {cfg.remote_token_env} to call {cfg.remote_base_url}")
    url = cfg.remote_base_url.rstrip("/") + "/chat/completions"
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"Authorization": f"Bearer {token}",
                 "Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=REMOTE_TIMEOUT_S) as resp:
            return json.loads(resp.read())
    # URLError, its HTTPError (any non-2xx reply) and TimeoutError are all
    # OSErrors; a body that is not JSON raises a ValueError.
    except (OSError, http.client.HTTPException, ValueError) as err:
        raise ProposerError(f"endpoint error: {err}") from err


class RemoteChatProposer:
    """Proposer backed by a chat-completion endpoint.

    Keeps the running transcript (instruction, replies, feedback), extracts
    the first fenced code block of each reply, and compiles it with the
    whitelist interpreter. The endpoint is the ``remote_*`` keys of ``cfg``;
    ``transport`` replaces the HTTP call. Request/response pairs are
    appended to ``transcript_path`` as line-delimited records when a path
    is given.
    """

    def __init__(self, cfg: CostGenSection, env: HardCMDP,
                 transport: Callable[[CostGenSection, dict], dict] | None = None,
                 transcript_path: str | Path | None = None):
        self.cfg = cfg
        self.env = env
        self.transport = transport or _default_transport
        self.transcript_path = Path(transcript_path) if transcript_path else None
        fields = ", ".join(env.obs_fields) or "the raw observation vector"
        self.messages: list[dict] = [{
            "role": "user",
            "content": (
                f"{INSTRUCTION_TEXT}\n\n"
                f"Task: {env.task_text}\n"
                f"Safety constraint: {env.cost_text}\n"
                f"Observation fields, in order: {fields}.\n"
                "Reply with a single fenced code block containing either one "
                "arithmetic/boolean expression over those fields or one "
                "function of the observation whose body is a single return "
                "statement. Only arithmetic, comparisons, boolean operators, "
                "abs/min/max and constant indexing are allowed."
            ),
        }]

    def _log(self, record: dict) -> None:
        if self.transcript_path is not None:
            with self.transcript_path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def __call__(self, round_index: int, feedback: str | None) -> CostCandidate:
        if feedback is not None:
            last = self.messages[-1] if self.messages else None
            if not (last and last["role"] == "user" and last["content"] == feedback):
                self.messages.append({"role": "user", "content": feedback})
        payload = {
            "model": self.cfg.remote_model,
            "messages": list(self.messages),
            "temperature": REMOTE_TEMPERATURE,
        }
        response = self.transport(self.cfg, payload)
        self._log({"round": round_index, "request": payload, "response": response})
        try:
            content = response["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise ProposerError(f"malformed endpoint response: {err}") from err

        match = _CODE_BLOCK.search(content)
        if match is None:
            raise ProposerError("reply contains no fenced code block")
        source = match.group(1).strip()
        try:
            predicate = compile_predicate(source, self.env.obs_fields)
        except ExpressionRejected as err:
            raise ProposerError(f"rejected source: {err}") from err
        try:
            cost_labels(predicate, self.env.initial_state(substream(0, "preflight"))[None])
        except Exception as err:  # noqa: BLE001 - any runtime fault fails the round
            raise ProposerError(f"predicate crashed on a probe state: {err}") from err

        self.messages.append({"role": "assistant", "content": content})
        return CostCandidate(predicate=predicate, provenance="remote", source=source)


# ---------------------------------------------------------------------------
# Candidate persistence (history files and pipeline artifacts)
# ---------------------------------------------------------------------------


def candidate_to_record(candidate: CostCandidate) -> dict:
    rec = {"provenance": candidate.provenance, "source": candidate.source,
           "margin": candidate.margin}
    if candidate.report is not None:
        rec["report"] = {
            "recall_unsafe": candidate.report.recall_unsafe,
            "conservativeness": candidate.report.conservativeness,
            "passed": candidate.report.passed,
            "degenerate_unsafe": candidate.report.degenerate_unsafe,
        }
    return rec


def candidate_from_record(rec: dict, env: HardCMDP) -> CostCandidate:
    if rec["provenance"] == "scripted":
        predicate = env.margin_predicate(float(rec["margin"]))
    elif rec["provenance"] == "remote":
        predicate = compile_predicate(rec["source"], env.obs_fields)
    else:
        raise ValueError(f"cannot rebuild a {rec['provenance']!r} candidate")
    cand = CostCandidate(predicate=predicate, provenance=rec["provenance"],
                         source=rec.get("source", ""), margin=rec.get("margin"))
    if "report" in rec:
        cand.report = ValidationReport(**rec["report"])
    return cand


def save_history(history: Sequence[Round], final: CostCandidate,
                 path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "cost-history",
                             "final": candidate_to_record(final)}) + "\n")
        for r in history:
            fh.write(json.dumps({
                "index": r.index,
                "candidate": candidate_to_record(r.candidate) if r.candidate else None,
                "feedback_sent": r.feedback_sent,
                "error": r.error,
            }, sort_keys=True) + "\n")


def load_final_candidate(path: str | Path, env: HardCMDP) -> CostCandidate:
    with Path(path).open("r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    if header.get("kind") != "cost-history":
        raise ValueError(f"{path} is not a cost history file")
    return candidate_from_record(header["final"], env)
