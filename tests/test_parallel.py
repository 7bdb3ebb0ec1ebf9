"""The lane rule and the fork-join of one sweep's two lanes.

The process pool's own tests (map_jobs, _worker_count) are in
test_training.py, beside the runs it trains.
"""
import os
import threading
import time

import pytest

from mupt import parallel
from mupt.config import HPPoint, PTConfig
from mupt.corpus import encode_corpus, synth_text
from mupt.parallel import LANE_MIN_MACS, fork_join, lanes, map_jobs
from mupt.training import TrainSettings, train_run


def _cpus(monkeypatch, n):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: n)


def test_two_lanes_need_two_cpus_a_big_enough_pass_and_no_pool(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    _cpus(monkeypatch, 2)
    assert lanes(LANE_MIN_MACS) == 2
    assert lanes(LANE_MIN_MACS - 1) == 1         # below the size floor
    assert map_jobs(lanes, [("lanes", (LANE_MIN_MACS,))] * 2) == [1, 1]    # in a worker
    _cpus(monkeypatch, 1)                          # as under taskset -c 0
    assert lanes(LANE_MIN_MACS) == 1
    _cpus(monkeypatch, 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert lanes(LANE_MIN_MACS) == 1               # 3 CPUs hold one 2-thread BLAS pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var)
    assert lanes(LANE_MIN_MACS) == 1               # unpinned BLAS takes every CPU


def test_fork_join_runs_the_side_lane_on_a_thread_of_its_own():
    me = threading.get_ident()
    side, main = fork_join(threading.get_ident, threading.get_ident, 2)
    assert main == me and side != me
    assert fork_join(threading.get_ident, threading.get_ident, 1) == (me, me)


def _fail():
    raise ZeroDivisionError("side lane")


@pytest.mark.parametrize("n_lanes", [1, 2])
def test_an_error_in_a_lane_propagates_and_no_thread_outlives_the_call(n_lanes):
    before = threading.active_count()
    ran = []
    with pytest.raises(ZeroDivisionError, match="side lane"):
        fork_join(_fail, lambda: ran.append("main"), n_lanes)
    assert ran == (["main"] if n_lanes == 2 else [])
    assert threading.active_count() == before
    with pytest.raises(KeyError):                  # the caller's lane, after the join
        fork_join(lambda: None, lambda: {}["main"], n_lanes)
    assert threading.active_count() == before


def _pid_after_a_while():
    time.sleep(0.2)                    # long enough for both workers to take a job
    return os.getpid()


def test_the_pool_still_forks_after_a_two_lane_run(monkeypatch):
    calls = []
    joined = parallel.fork_join

    def counting(side, main, n_lanes):
        calls.append(n_lanes)
        return joined(side, main, n_lanes)

    monkeypatch.setattr(parallel, "LANE_MIN_MACS", 0)
    monkeypatch.setattr(parallel, "fork_join", counting)
    _cpus(monkeypatch, 2 * parallel._blas_threads())
    config = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=259, pos_bias=False)
    train_run(config, HPPoint(lr=3e-3), encode_corpus(synth_text(4096, 13), seq_len=12), 0,
              TrainSettings(steps=2, batch_size=2, eval_interval=2, max_eval_chunks=4,
                            mfvi_iters=2))
    assert calls and set(calls) == {2}
    assert threading.active_count() == 1
    pids = map_jobs(_pid_after_a_while, [("a", ()), ("b", ())])
    assert len(set(pids)) == 2 and os.getpid() not in pids
