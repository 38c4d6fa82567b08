"""Helpers shared by the test modules."""

import http.server
import json
import threading
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np

from reachsafe.config import CostGenSection, DynamicsSection, LearnSection
from reachsafe.rollout import RolloutConfig


def dynamics(**fields) -> dict:
    """``train_ensemble`` keywords: the default dynamics section, ``fields`` changed."""
    return asdict(replace(DynamicsSection(), **fields))


def rollout(**fields) -> RolloutConfig:
    """The rollout schedule of the default learn section, ``fields`` changed."""
    lc = LearnSection()
    return replace(RolloutConfig(batch=lc.rollout_batch, horizon=lc.rollout_horizon,
                                 epochs=lc.rollout_epochs,
                                 noise_std=lc.rollout_noise_std), **fields)


def assert_same_bits(got, want):
    """Equal dtype, shape and bits, signed zeros and NaN positions included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class _ReplayHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the next (status, body) of ``server.replies``."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append({"path": self.path,
                                 "auth": self.headers["Authorization"],
                                 "body": body,
                                 "payload": json.loads(body)})
        status, reply = self.server.replies.pop(0)
        data = reply.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextmanager
def loopback(monkeypatch, replies):
    """A chat-completion server on 127.0.0.1 that serves ``replies`` in order.

    Yields the server (``server.seen`` records each request) and a remote
    ``costgen`` section pointing at it, with the token ``tok-123`` set in
    the variable the section names.
    """
    monkeypatch.setenv("REACHSAFE_API_TOKEN", "tok-123")
    monkeypatch.setenv("no_proxy", "*")
    server = http.server.HTTPServer(("127.0.0.1", 0), _ReplayHandler)
    server.replies, server.seen = list(replies), []
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server, CostGenSection(
            proposer="remote", remote_base_url=f"http://127.0.0.1:{server.server_port}/v1",
            remote_model="loopback")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def chat_reply(content: str) -> str:
    """The JSON body of a chat-completion reply whose message is ``content``."""
    return json.dumps({"choices": [{"message": {"content": content,
                                                "role": "assistant"}}]})
