"""Deterministic RNG substream derivation and ordered parallel maps.

Every random draw in the library flows from one root seed through named
substreams. A stage re-run in isolation therefore sees exactly the random
state it would have seen inside a full pipeline run, and independent
substreams (ensemble members, rollout epochs, evaluation episodes) can be
consumed in any order without perturbing each other.

``ordered_map`` uses that freedom to run such units in threads, one per
core, with results bit-identical to a serial loop.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
from typing import Callable, Iterable

import numpy as np

from . import BLAS_THREAD_VARS


def child_seed(root: int, *labels: object) -> int:
    """Derive a 64-bit seed from a root seed and a path of labels."""
    tag = "/".join(str(part) for part in (root, *labels))
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(root: int, *labels: object) -> np.random.Generator:
    """Generator for the named substream under ``root``."""
    return np.random.default_rng(child_seed(root, *labels))


def _cores() -> int:
    """Cores ``ordered_map`` may use: the affinity count with BLAS pinned, else 1."""
    if any(os.environ.get(var) != "1" for var in BLAS_THREAD_VARS):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn: Callable, items: Iterable) -> list:
    """``[fn(item) for item in items]``, spread over the available cores.

    Each item must be an independent unit: ``fn`` may read shared inputs
    but write only what it returns, and draw randomness only from the
    item's own substream; the results then equal the serial loop's.

    Runs on ``min(len(items), cores)`` threads: the caller takes items too,
    beside one helper thread per extra core. ``cores`` is the CPU affinity
    count when ``BLAS_THREAD_VARS`` all read "1", else 1 and no thread
    starts: a multi-threaded BLAS already splits each product, and threads
    on top of it oversubscribe the cores. Items are claimed in index order
    and none starts after a failure; the exception of the lowest-index
    failing item is raised once the running ones finish.
    """
    items = list(items)
    n_threads = min(len(items), _cores())
    if n_threads <= 1:
        return [fn(item) for item in items]

    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    claims = itertools.count()
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                index = next(claims)
                if errors or index >= len(items):
                    return
            try:
                results[index] = fn(items[index])
            except BaseException as err:  # re-raised by the caller below
                with lock:
                    errors[index] = err

    started = []
    try:
        for _ in range(n_threads - 1):
            helper = threading.Thread(target=work)
            helper.start()
            started.append(helper)
        work()
    finally:
        for helper in started:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results
