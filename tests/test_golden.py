"""Report bytes as a gate: every benchmark run writes exactly its golden files.

The golden files under ``tests/golden/`` are the ``summary.json``,
``cases.csv``, plot data and ``format_report`` text of each benchmark run
(``rewrite_golden.RUNS``).  A change that moves a byte fails here with the
largest value move of each case key; if the move is deliberate,
``PYTHONPATH=src python tests/rewrite_golden.py`` rewrites the files.
"""

import pytest

from rewrite_golden import GOLDEN, RUNS, run_artifacts, value_moves


@pytest.mark.parametrize("run", RUNS, ids=[run.name for run in RUNS])
def test_report_bytes_match_the_golden_files(tmp_path, run):
    got = run_artifacts(run, tmp_path)
    want = {p.name: p.read_bytes() for p in (GOLDEN / run.name).iterdir()}
    assert sorted(got) == sorted(want), "the run writes other artifacts"
    changed = [name for name in sorted(want) if got[name] != want[name]]
    if not changed:
        return
    lines = [f"{run.name}: {', '.join(changed)} differ from the golden files"]
    if "summary.json" in changed:
        lines += value_moves(want["summary.json"].decode(), got["summary.json"].decode())
    for name in changed:
        old, new = want[name].decode().splitlines(), got[name].decode().splitlines()
        k = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        lines.append(f"{name} line {k + 1}: {old[k:k + 1]} -> {new[k:k + 1]}")
    lines.append("if the move is deliberate: PYTHONPATH=src python tests/rewrite_golden.py")
    pytest.fail("\n".join(lines), pytrace=False)
