import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import reachsafe
from reachsafe import BLAS_THREAD_VARS
from reachsafe.seeding import ordered_map

SRC = Path(reachsafe.__file__).resolve().parents[1]


def set_blas(monkeypatch, value):
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, value)


def test_ordered_map_returns_results_in_item_order(monkeypatch):
    set_blas(monkeypatch, "1")
    threads = set()

    def slow_first(i):
        threads.add(threading.get_ident())
        time.sleep(0.02 * (8 - i))  # early items finish last
        return i * i

    assert ordered_map(slow_first, range(8)) == [i * i for i in range(8)]
    assert threading.get_ident() in threads
    if len(os.sched_getaffinity(0)) > 1:
        assert len(threads) > 1
    assert ordered_map(slow_first, []) == []


@pytest.mark.parametrize("pinned", ["1", "2"])
def test_ordered_map_raises_the_lowest_index_failure(monkeypatch, pinned):
    set_blas(monkeypatch, pinned)
    started = []

    def fail_some(i):
        started.append(i)
        if i == 1:
            time.sleep(0.1)  # fails after the later item 2 has failed
            raise ValueError("item 1")
        if i == 2:
            raise KeyError("item 2")
        return i

    with pytest.raises(ValueError, match="item 1"):
        ordered_map(fail_some, range(40))
    assert 1 in started and len(started) < 40  # no new item after a failure


@pytest.mark.parametrize("setting", ["2", "unset", "one pinned"])
def test_unpinned_ordered_map_runs_on_the_callers_thread(monkeypatch, setting):
    set_blas(monkeypatch, "1")
    if setting == "2":
        set_blas(monkeypatch, "2")
    elif setting == "unset":
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var)
    else:
        monkeypatch.setenv(BLAS_THREAD_VARS[0], "4")
    before = threading.active_count()
    seen = ordered_map(lambda i: (threading.get_ident(), threading.active_count()),
                       range(6))
    assert seen == [(threading.get_ident(), before)] * 6


def _cli_blas_env(prelude: str, **preset: str) -> list:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(SRC))
    code = (f"{prelude}import os, json, reachsafe.cli; "
            f"print(json.dumps([os.environ.get(v) for v in {BLAS_THREAD_VARS!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_cli_pins_blas_unless_the_user_or_an_earlier_numpy_decided():
    assert _cli_blas_env("") == ["1", "1", "1"]
    assert _cli_blas_env("", OMP_NUM_THREADS="2") == ["1", "2", "1"]
    assert _cli_blas_env("import numpy; ") == [None, None, None]
