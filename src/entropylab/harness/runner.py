"""Experiment execution: dispatch a validated config to the runner of its kind.

``run_experiment`` imports the runner that ``KINDS`` names for the kind,
and through it its engine, on first use: a findim-suite run loads
``entropylab.findim`` alone (``findim_runs``), a fermion run
``entropylab.lattice`` alone (``fermion_runs``).  Each runner turns the
config into case records, verdicts and wall-clock timings; the report
types themselves live in :mod:`entropylab.harness.report`.
``_evaluate_split`` runs a list of independent jobs on two processes.
"""

from __future__ import annotations

import importlib
import os
import pickle
import threading
import time
import warnings

from .. import __version__ as ENGINE_VERSION
from .config import KINDS, ExperimentConfig
from .report import CaseRecord, RunReport, Verdict

__all__ = ["run_experiment"]


def run_experiment(config: ExperimentConfig) -> RunReport:
    module, name = KINDS[config.kind].runner.split(".")
    runner = getattr(importlib.import_module(f".{module}", __package__), name)
    start = time.perf_counter()
    cases, verdicts, timings = runner(config)
    timings["total_seconds"] = time.perf_counter() - start
    return RunReport(
        kind=config.kind,
        seed=config.seed,
        config_echo=config.echo(),
        engine_version=ENGINE_VERSION,
        cases=cases,
        verdicts=verdicts,
        timings=timings,
    )


def __getattr__(name: str):
    """The names the fermion runners import, such as ``entropy_deficit``.

    Code written against the single-module runner reads them here (the
    benchmark's tracer test, for one).  They resolve through
    ``fermion_runs`` on first access, so importing this module loads no
    engine; private and dunder probes (``__path__``) never do.
    """
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import fermion_runs

    return getattr(fermion_runs, name)


def _timed(job):
    t0 = time.perf_counter()
    value = job()
    return value, time.perf_counter() - t0


def _evaluate_split(jobs: list) -> tuple[list, str]:
    """Each job's (result, busy seconds) in job order, and how the helper fared.

    With two CPUs a forked child evaluates ``jobs[1::2]`` and sends its
    pickled results through a pipe while this process evaluates
    ``jobs[0::2]``.  If the child cannot start (helper ``none`` when no fork
    is tried, ``failed`` when the fork raises) or does not deliver (an exit
    status, a signal or a short pickle: ``failed``), this process evaluates
    the child's share itself.  Every exception a job raises therefore comes
    from this process, and the results are those of a serial loop.
    """
    helper, pid = "none", 0
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    # A fork copies the calling thread alone, so no other may be running.
    if len(jobs) > 1 and len(cpus) > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12 on warns of any other thread, and the only ones
                # left are BLAS workers: OpenBLAS stops them before a fork
                # (pthread_atfork) and restarts them on demand.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            helper = "failed"
        else:
            if pid == 0:  # the child delivers or exits nonzero; it never returns
                code = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump([_timed(job) for job in jobs[1::2]], pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            helper = "forked"
    try:
        mine = [_timed(job) for job in jobs[0::2]]
    except BaseException:
        if pid:
            import signal

            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if pid:  # read to EOF, then reap
            with open(read_fd, "rb") as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
    theirs = None
    if pid:
        try:
            theirs = pickle.loads(data) if status == 0 else None
        except (EOFError, pickle.UnpicklingError):  # a short pickle
            pass
        if theirs is None:
            helper = "failed"
    if theirs is None:
        theirs = [_timed(job) for job in jobs[1::2]]
    results = [None] * len(jobs)
    results[0::2], results[1::2] = mine, theirs
    return results, helper


def _residual_case(case_id, inputs, values, residual, tol) -> CaseRecord:
    return CaseRecord(
        case_id=case_id,
        inputs=inputs,
        values=values,
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )


def _group_verdict(name: str, cases: list[CaseRecord], detail: str = "") -> Verdict:
    passed = all(c.passed for c in cases if c.passed is not None)
    worst = max((c.residual for c in cases if c.residual is not None), default=0.0)
    text = detail or f"worst residual {worst:.3e}"
    return Verdict(
        name=name,
        passed=passed,
        detail=text,
        case_ids=tuple(c.case_id for c in cases),
    )
