"""Experiment execution: dispatch a validated config to the runner of its kind.

``run_experiment`` imports the runner that ``KINDS`` names for the kind,
and through it its engine, on first use: a findim-suite run loads
``entropylab.findim`` alone (``findim_runs``), a fermion run
``entropylab.lattice`` alone (``fermion_runs``).  Each runner turns the
config into case records, verdicts and wall-clock timings, in this
process; the report types themselves live in
:mod:`entropylab.harness.report`.  The runners build every record with
``_residual_case``, the rule that a checked case passes when its residual
is within its tolerance, and every verdict with ``_verdict``, which names
its cases by id; ``_group_verdict`` passes when a group's checked cases do.
"""

from __future__ import annotations

import importlib
import time

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
        seed=config.seed,
        config_echo=config.echo(),
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


def _residual_case(case_id, inputs, values, residual, tol=None) -> CaseRecord:
    """A case that passes when ``residual <= tol``; with ``tol`` None it is
    unchecked, and its tolerance and ``passed`` are None."""
    passed = None if tol is None else residual <= tol
    return CaseRecord(case_id, inputs, values, residual, tol, passed)


def _verdict(name: str, passed: bool, detail: str, cases: list[CaseRecord]) -> Verdict:
    return Verdict(name, passed, detail, tuple(c.case_id for c in cases))


def _group_verdict(name: str, cases: list[CaseRecord], detail: str = "") -> Verdict:
    passed = all(c.passed for c in cases if c.passed is not None)
    worst = max((c.residual for c in cases if c.residual is not None), default=0.0)
    return _verdict(name, passed, detail or f"worst residual {worst:.3e}", cases)
