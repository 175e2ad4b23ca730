"""Run reports and their cache key, without the numerical engines.

A run produces a RunReport: its seed and config echo, one CaseRecord per
computed case, plus named verdicts over groups of cases.  Everything that
enters the report is a deterministic function of the config and the
computed values; wall-clock timings and the build provenance (the engine
version, and ``config_hash``, which changes with any edit to the engine
sources and with the numpy build) are kept on the side and never mix into
report bytes.

This module imports only the standard library and the config, so that a
cache hit or ``entropylab report`` never loads numpy or an engine.  The
report types are named tuples, not dataclasses, for the same reason:
``dataclasses`` and the ``inspect`` it imports would add to the start-up
of every CLI call.  sha256 comes from the interpreter's built-in module,
as ``random`` takes its sha512: ``hashlib`` would load OpenSSL's
``_hashlib`` on every call.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
from collections import namedtuple
from pathlib import Path

from .config import ExperimentConfig

try:
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 on
    except ImportError:
        from hashlib import sha256

__all__ = ["CaseRecord", "Verdict", "RunReport", "config_hash", "numpy_build"]


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
    namedtuple("RunReport", "seed config_echo cases verdicts timings", defaults=(None,))
):
    """Seed, config echo, cases and verdicts of one run, plus its wall-clock
    ``timings`` dict; ``kind`` reads the echo.

    ``run_experiment``, ``cache_lookup`` and ``from_dict`` each pass a
    ``timings`` dict of its own; change it with ``_replace``.
    """

    __slots__ = ()

    @property
    def kind(self) -> str:
        return self.config_echo["kind"]

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
            "seed": self.seed,
            "config": self.config_echo,
            "cases": [c._asdict() for c in self.cases],
            "verdicts": [v._asdict() for v in self.verdicts],
            "passed": self.passed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        """Read back ``to_dict``.  The derived ``passed`` and the keys it no
        longer writes, such as the ``kind``, ``engine_version``,
        ``pass_vacuous``, ``residual_max`` and ``config_hash`` of older
        summaries and cache entries, are ignored.  A ``config`` that is not a
        dict with a str ``kind``, which ``format_report`` could not read,
        raises TypeError or KeyError."""
        config = payload["config"]
        if not isinstance(config, dict) or not isinstance(config["kind"], str):
            raise TypeError("config is not a dict with a str kind")
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
            seed=payload["seed"],
            config_echo=config,
            cases=cases,
            verdicts=verdicts,
            timings={},
        )


def numpy_build() -> str:
    """Name, size and ``st_mtime_ns`` of numpy's compiled core, ``""`` without one.

    The core (``numpy/_core/_multiarray_umath*``, under ``numpy/core`` before
    numpy 2) is found through the import system, so numpy itself is not
    imported: a cache hit stays free of it.  Upgrading or rebuilding numpy
    replaces that file and so changes this.
    """
    spec = importlib.util.find_spec("numpy")
    found = []
    for root in (spec and spec.submodule_search_locations) or ():
        for sub in ("_core", "core"):
            try:
                with os.scandir(os.path.join(root, sub)) as entries:
                    for entry in entries:
                        if entry.name.startswith("_multiarray_umath"):
                            stat = entry.stat()
                            found.append(f"{sub}/{entry.name} {stat.st_size} {stat.st_mtime_ns}")
            except OSError:
                pass
    return "; ".join(sorted(found))


@functools.cache
def _engine_fingerprint() -> str:
    """sha256 over the path and contents of every source file of the package,
    and over ``numpy_build()``.

    Computed on first use, not at import, so that starting the CLI stays
    cheap.  Any edit to the engine changes it, with or without a version
    bump, and so does another numpy build.  The built-in sha256 gives the
    digests ``hashlib.sha256`` would.
    """
    root = Path(__file__).resolve().parent.parent
    digest = sha256()
    for path in sorted(root.rglob("*.py")):
        content = sha256(path.read_bytes()).hexdigest()
        digest.update(f"{path.relative_to(root).as_posix()}\n{content}\n".encode("utf-8"))
    digest.update(f"numpy\n{numpy_build()}\n".encode("utf-8"))
    return digest.hexdigest()


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the effective config plus the engine fingerprint: the
    package's sources and the numpy build."""
    canon = json.dumps(config.echo(), sort_keys=True, separators=(",", ":"))
    digest = sha256()
    digest.update(canon.encode("utf-8"))
    digest.update(b"\n")
    digest.update(_engine_fingerprint().encode("utf-8"))
    return digest.hexdigest()
