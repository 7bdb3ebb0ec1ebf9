"""Where the process's CPUs go: independent runs over processes, one sweep over two lanes.

Both decisions read the same budget, the CPUs in the process's affinity
divided by the pinned BLAS threads, and neither has a setting: `taskset -c 0`
(or leaving BLAS unpinned) turns both off, and no number moves either way.

- map_jobs trains independent runs (the cells of training.transfer_sweep, the
  runs of search.verify_local_optimality, the widths of
  diagnostics.coord_check) side by side in forked processes, each run whole
  in one process.
- Within one run, a mean-field sweep's topic path and its head and ternary
  path read only the incoming Q_z, and so do their reverses; model.sweep and
  its vjp run them as two lanes, the topic lane on a thread that fork_join
  starts and joins inside the pass, when `lanes` allows it.
"""
from __future__ import annotations

import os
import signal
import threading

from .errors import WorkerDied

__all__ = ["map_jobs", "lanes", "fork_join", "LANE_MIN_MACS"]

# The least B*n*N*M, the multiply-adds of one pass's topic GEMM, worth a second
# lane: width 128 at batch 4 and seq 64 (8.4M) ran slower in two lanes, width
# 256 (33.5M) faster (one BLAS thread per lane, 2-core Xeon).
LANE_MIN_MACS = 1 << 24

_WORKER_JOBS: tuple | None = None    # (fn, jobs) while map_jobs runs a pool, else None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity, where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _blas_threads() -> int:
    """BLAS threads per process as pinned (the CLI's --threads); unpinned,
    BLAS starts one per usable CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _usable_cpus()


def _worker_count(n_jobs: int) -> int:
    """Processes for n_jobs jobs: one per BLAS-sized share of the usable CPUs,
    at most one per job. 1 while a pool runs, so inside a worker (pools never
    nest), where fork is missing, and where another thread runs: a forked
    child gets no copy of it, and any lock it holds stays locked there."""
    import multiprocessing

    if (_WORKER_JOBS is not None or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return max(1, min(n_jobs, _usable_cpus() // _blas_threads()))


def _run_job(i: int):
    fn, jobs = _WORKER_JOBS
    return fn(*jobs[i][1])


def map_jobs(fn, jobs: list[tuple[str, tuple]]) -> list:
    """[fn(*args) for label, args in jobs], the jobs spread over forked processes.

    Each job runs whole in one process, so its result is the one a serial
    call returns, bit for bit, and results come back in job order whatever
    order the jobs finish in. The pool has one process per usable CPU
    (divided by the pinned BLAS threads, at most one per job); it is serial
    in a process pinned to one CPU (`taskset -c 0`), with BLAS unpinned,
    inside a worker, beside another thread and where fork is missing. The
    workers inherit fn and the jobs by fork, so neither is pickled; results
    and exceptions are. An exception in a job, or a KeyboardInterrupt in the
    caller, ends every worker before it propagates, and a worker that dies
    mid-job (as under the OOM killer) raises WorkerDied, naming by their
    labels the jobs that did not finish and how the worker ended: no process
    outlives the call.
    """
    global _WORKER_JOBS
    workers = _worker_count(len(jobs))
    if workers == 1:
        return [fn(*args) for _, args in jobs]
    import multiprocessing
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    # forks its workers at the first submit; they ignore Ctrl-C, the caller's to handle
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               signal.signal, (signal.SIGINT, signal.SIG_IGN))
    _WORKER_JOBS = (fn, jobs)    # before the fork: every worker starts with it
    processes, results = [], None
    try:
        futures = [pool.submit(_run_job, i) for i in range(len(jobs))]
        processes = list(pool._processes.values())    # a fork pool starts them all at once
        wait(futures, return_when=FIRST_EXCEPTION)
        failed = [f for f in futures if f.done() and f.exception() is not None]
        if not failed:
            results = [f.result() for f in futures]
        elif not any(isinstance(f.exception(), BrokenProcessPool) for f in failed):
            failed[0].result()                         # the job's own error, as raised
    finally:
        _WORKER_JOBS = None
        if results is None:                            # an error, a dead worker or Ctrl-C
            for process in processes:
                process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)
    if results is not None:
        return results
    lost = [label for (label, _), f in zip(jobs, futures)
            if f.cancelled() or f.exception() is not None]
    raise WorkerDied(f"a pool worker died ({_endings(processes)}); {len(lost)} of {len(jobs)} "
                     f"jobs did not finish: {', '.join(lost)}")


def _endings(processes) -> str:
    """How the workers that ended on their own ended, e.g. 'SIGKILL' or
    'exit code 0'. Every worker has been joined, and map_jobs sent SIGTERM
    to the ones still running."""
    codes = {p.exitcode for p in processes}
    own = codes - {-signal.SIGTERM} or codes
    names = {-s.value: s.name for s in signal.Signals}    # a real-time signal has none
    return ", ".join(names.get(c, f"exit code {c}" if c >= 0 else f"signal {-c}")
                     for c in sorted(own))


def lanes(topic_macs: int) -> int:
    """Lanes for the sweeps of one forward whose topic GEMM takes topic_macs
    multiply-adds: 2 where the affinity holds two BLAS-sized shares of CPUs,
    outside a map_jobs worker (its siblings have the other CPUs) and from
    LANE_MIN_MACS on; 1 otherwise."""
    if (_WORKER_JOBS is not None or topic_macs < LANE_MIN_MACS
            or _usable_cpus() < 2 * _blas_threads()):
        return 1
    return 2


def fork_join(side, main, n_lanes: int):
    """(side(), main()): with 2 lanes, side runs on a new thread while main
    runs on this one, and the thread is joined before either result is used;
    with 1, side runs first, then main. An exception in either is raised
    here once both have ended, main's first, so no thread outlives the call.
    """
    if n_lanes < 2:
        return side(), main()
    box: list = []

    def run() -> None:
        try:
            box.append(side())
        except BaseException as exc:    # handed to the caller below
            box.append(exc)

    thread = threading.Thread(target=run, name="mupt-lane")
    thread.start()
    try:
        main_result = main()
    finally:
        thread.join()
    if isinstance(box[0], BaseException):
        raise box[0]
    return box[0], main_result
