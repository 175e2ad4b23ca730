"""Rewrite the report bytes that ``tests/test_golden.py`` holds every run to.

    PYTHONPATH=src python tests/rewrite_golden.py

Runs each benchmark config in this process, without the cache, and writes
its ``summary.json``, ``cases.csv``, plot data and ``format_report`` text
(``report.txt``) to ``tests/golden/<workload>/<run>/``, the one store of
expected output that Tier-1 compares against; the benchmark checker keeps
its own store under ``perfbench/``, and no test reads it.  ``timings.json``
varies from run to run and is not kept.  The runs are the benchmark's:
every harness-replay config and the lattice-large one at their own seeds,
and findim-suite at seeds 0-3, as ``--seed`` sets them.  A change that
moves a report byte on purpose runs this script and commits the new files,
so that the diff shows every move.  For each run it prints the files whose
bytes moved and, for a moved ``summary.json``, the value moves that
``tests/test_golden.py`` would report.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

from entropylab.harness import format_report, parse_config, run_experiment, write_report

_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = _ROOT / "tests" / "golden"
CONFIGS = _ROOT / "perfbench" / "configs"

# ``name`` is the run's directory under GOLDEN; ``seed`` None keeps the config's.
Run = namedtuple("Run", "name config seed")

RUNS = [
    *(
        Run(f"harness-replay/{path.stem}", path, None)
        for path in sorted((CONFIGS / "harness-replay").glob("*.ini"))
    ),
    Run("lattice-large/duality", CONFIGS / "lattice-large" / "duality.ini", None),
    *(
        Run(f"findim-suite/suite-seed{seed}", CONFIGS / "findim-suite" / "suite.ini", seed)
        for seed in range(4)
    ),
]


def run_artifacts(run: Run, out_dir: Path) -> dict[str, bytes]:
    """File name -> bytes of everything ``run`` writes but ``timings.json``,
    plus its ``format_report`` text as ``report.txt``."""
    report = run_experiment(parse_config(run.config, seed=run.seed))
    files = {p.name: p.read_bytes() for p in write_report(report, out_dir)}
    files.pop("timings.json", None)
    files["report.txt"] = (format_report(report) + "\n").encode("utf-8")
    return files


def _leaves(value, where=""):
    """(path, leaf) pairs of a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _leaves(item, f"{where}[{k}]")
    else:
        yield where, value


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def value_moves(want: str, got: str) -> list[str]:
    """How the ``summary.json`` text ``got`` differs from ``want``: the largest
    move of each numeric case key with the case it occurs in, then every
    other changed leaf, case or verdict."""
    old, new = json.loads(want), json.loads(got)
    largest: dict = {}
    other: list[str] = []
    old_cases = {c["case_id"]: c for c in old.pop("cases")}
    new_cases = {c["case_id"]: c for c in new.pop("cases")}
    for case_id in [*old_cases, *(c for c in new_cases if c not in old_cases)]:
        if case_id not in new_cases or case_id not in old_cases:
            other.append(f"case {case_id} {'removed' if case_id in old_cases else 'added'}")
            continue
        a, b = dict(_leaves(old_cases[case_id])), dict(_leaves(new_cases[case_id]))
        for key in [*a, *(k for k in b if k not in a)]:
            x, y = a.get(key), b.get(key)
            if _number(x) and _number(y):
                if abs(y - x) > largest.get(key, (0.0,))[0]:
                    largest[key] = (abs(y - x), case_id, x, y)
            elif x != y or (key in a) != (key in b):
                other.append(f"{case_id} {key}: {x!r} -> {y!r}")
    a, b = dict(_leaves(old)), dict(_leaves(new))
    for key in sorted({*a, *b}):
        if a.get(key) != b.get(key):
            other.append(f"{key}: {a.get(key)!r} -> {b.get(key)!r}")
    moves = [
        f"{key}: largest move {move:.3e} at {case_id} ({x!r} -> {y!r})"
        for key, (move, case_id, x, y) in largest.items()
    ]
    return moves + other


def main() -> int:
    for run in RUNS:
        with tempfile.TemporaryDirectory() as scratch:
            files = run_artifacts(run, Path(scratch))
        target = GOLDEN / run.name
        old = {p.name: p.read_bytes() for p in target.iterdir()} if target.is_dir() else {}
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for name, data in files.items():
            (target / name).write_bytes(data)
        moved = [name for name in sorted({*old, *files}) if old.get(name) != files.get(name)]
        print(f"{run.name}: {', '.join(moved) + ' changed' if moved else 'unchanged'}")
        if "summary.json" in moved and "summary.json" in old:
            for line in value_moves(old["summary.json"].decode(), files["summary.json"].decode()):
                print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
