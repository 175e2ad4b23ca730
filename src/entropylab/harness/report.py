"""Run reports and their cache key, without the numerical engines.

A run produces a RunReport: one CaseRecord per computed case, plus named
verdicts over groups of cases.  Everything that enters the report is a
deterministic function of the config and the computed values; wall-clock
timings and the build provenance (``config_hash``, which changes with any
edit to the engine sources) are kept on the side and never mix into report
bytes.

This module imports only the standard library and the config, so that a
cache hit or ``entropylab report`` never loads numpy or an engine.  The
report types are named tuples, not dataclasses, for the same reason:
``dataclasses`` and the ``inspect`` it imports would add to the start-up
of every CLI call.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import namedtuple
from pathlib import Path

from .config import ExperimentConfig

__all__ = ["CaseRecord", "Verdict", "RunReport", "config_hash"]


class CaseRecord(
    namedtuple(
        "CaseRecord",
        "case_id inputs values residual tolerance passed",
        defaults=(None, None, None),
    )
):
    """One computed case: its inputs and values dicts, and, for a checked
    case, its residual against its tolerance."""

    __slots__ = ()


class Verdict(namedtuple("Verdict", "name passed detail case_ids")):
    """A named check over the cases ``case_ids``, a tuple of case ids."""

    __slots__ = ()


class RunReport(
    namedtuple(
        "RunReport",
        "kind seed config_echo engine_version cases verdicts pass_vacuous timings",
        defaults=(False, None),
    )
):
    """Cases and verdicts of one run, plus its wall-clock ``timings`` dict.

    ``run_experiment``, ``cache_lookup`` and ``from_dict`` each pass a
    ``timings`` dict of its own; change it with ``_replace``.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failing_case_ids(self) -> list[str]:
        explicit = [c.case_id for c in self.cases if c.passed is False]
        for verdict in self.verdicts:
            if not verdict.passed:
                explicit.extend(
                    cid for cid in verdict.case_ids if cid not in explicit
                )
        return explicit

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "config": self.config_echo,
            "engine_version": self.engine_version,
            "cases": [c._asdict() for c in self.cases],
            "verdicts": [v._asdict() for v in self.verdicts],
            "pass_vacuous": self.pass_vacuous,
            "passed": self.passed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        """Read back ``to_dict``; keys it no longer writes, such as the
        ``config_hash`` of older summaries and cache entries, are ignored."""
        cases = [CaseRecord(**c) for c in payload["cases"]]
        verdicts = [
            Verdict(
                name=v["name"],
                passed=v["passed"],
                detail=v["detail"],
                case_ids=tuple(v["case_ids"]),
            )
            for v in payload["verdicts"]
        ]
        return cls(
            kind=payload["kind"],
            seed=payload["seed"],
            config_echo=payload["config"],
            engine_version=payload["engine_version"],
            cases=cases,
            verdicts=verdicts,
            pass_vacuous=payload["pass_vacuous"],
            timings={},
        )


@functools.cache
def _engine_fingerprint() -> str:
    """sha256 over the path and contents of every source file of the package.

    Computed on first use, not at import, so that starting the CLI stays
    cheap.  Any edit to the engine changes it, with or without a version bump.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        content = hashlib.sha256(path.read_bytes()).hexdigest()
        digest.update(f"{path.relative_to(root).as_posix()}\n{content}\n".encode("utf-8"))
    return digest.hexdigest()


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the effective config plus the engine source fingerprint."""
    canon = json.dumps(config.echo(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256()
    digest.update(canon.encode("utf-8"))
    digest.update(b"\n")
    digest.update(_engine_fingerprint().encode("utf-8"))
    return digest.hexdigest()
