"""Report bytes as a gate: every benchmark run writes exactly its golden files.

The golden files under ``tests/golden/`` are the ``summary.json``,
``cases.csv``, plot data and ``format_report`` text of each benchmark run
(``rewrite_golden.RUNS``).  They are the one store of expected output that
Tier-1 compares against; the benchmark checker keeps its own store under
``perfbench/``, and no test reads it.  So every benchmark config has a golden
run, and every run also writes a ``timings.json``, whose bytes vary and are
not kept.  A change that moves a byte fails here with the largest value move
of each case key; if the move is deliberate,
``PYTHONPATH=src python tests/rewrite_golden.py`` rewrites the files.
"""

import pytest

from rewrite_golden import CONFIGS, GOLDEN, RUNS, run_artifacts, value_moves


def test_every_benchmark_config_has_a_golden_run():
    configs = sorted(CONFIGS.glob("*/*.ini"))
    assert configs, f"no benchmark configs under {CONFIGS}"
    covered = {run.config for run in RUNS}
    missing = [str(path.relative_to(CONFIGS)) for path in configs if path not in covered]
    assert not missing, f"benchmark configs without a golden run: {missing}"


@pytest.mark.parametrize("run", RUNS, ids=[run.name for run in RUNS])
def test_report_bytes_match_the_golden_files(tmp_path, run):
    got = run_artifacts(run, tmp_path)
    assert (tmp_path / "timings.json").is_file(), f"{run.name} writes no timings.json"
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
