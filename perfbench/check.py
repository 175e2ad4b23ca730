"""Correctness check of one CLI invocation's artifacts.

An invocation passes when it exited 0, wrote exactly the artifacts the
reference lists, and its ``summary.json`` reports every verdict passed.
When the reference holds values for the run's seed, every case must also
match them field by field: numbers within ``min(effective_tolerance,
TOLERANCE_CAP)``, everything else exactly.  Byte identity with the
reference ``summary.json`` is reported, but it is information only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

# Never compare looser than this, even where the experiment's own
# tolerance is wider (duality allows 5e-3 on values of order 1e-3).
TOLERANCE_CAP = 1e-6


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    referenced: bool = False
    byte_identical: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _mismatches(got, want, tol: float, where: str) -> list[str]:
    numeric = (int, float)
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, numeric) and isinstance(got, numeric):
        return [] if abs(got - want) <= tol else [f"{where}: {got!r} vs {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for key in want:
            out += _mismatches(got[key], want[key], tol, f"{where}.{key}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        out = []
        for k, (g, w) in enumerate(zip(got, want)):
            out += _mismatches(g, w, tol, f"{where}[{k}]")
        return out
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def check_summary(summary: dict, reference: dict) -> list[str]:
    """Problems with a parsed summary.json against its config's reference."""
    problems = [
        f"verdict {v['name']} failed: {v['detail']}"
        for v in summary["verdicts"]
        if not v["passed"]
    ]
    if not summary["passed"] or not summary["verdicts"]:
        problems.append("report does not pass")
    entry = reference["seeds"].get(str(summary["seed"]))
    if entry is None:
        return problems
    tol = min(reference["tolerance"], TOLERANCE_CAP)
    got = {c["case_id"]: c for c in summary["cases"]}
    want = {c["case_id"]: c for c in entry["cases"]}
    if list(got) != list(want):
        problems.append(f"case ids differ from the reference ({len(got)} vs {len(want)})")
        return problems
    for case_id, case in want.items():
        problems += _mismatches(got[case_id], case, tol, case_id)
    return problems


def check_invocation(exit_code: int, out_dir: Path, reference: dict) -> Verdict:
    """Check one invocation against its config's reference block."""
    verdict = Verdict()
    if exit_code != 0:
        verdict.problems.append(f"exit code {exit_code}")
    summary_path = out_dir / "summary.json"
    try:
        raw = summary_path.read_bytes()
        summary = json.loads(raw)
    except (OSError, ValueError) as exc:
        verdict.problems.append(f"unreadable summary.json: {exc}")
        return verdict
    written = sorted(p.name for p in out_dir.iterdir())
    if written != reference["artifacts"]:
        verdict.problems.append(f"artifacts {written} != {reference['artifacts']}")
    verdict.problems += check_summary(summary, reference)
    entry = reference["seeds"].get(str(summary["seed"]))
    if entry is not None:
        verdict.referenced = True
        verdict.byte_identical = hashlib.sha256(raw).hexdigest() == entry["summary_sha256"]
    return verdict
