"""The correctness check fails a run whose case values drift."""

import json

from check import TOLERANCE_CAP, check_invocation
from entropylab.harness import cli

from conftest import BENCH

REPLAY = BENCH / "configs" / "harness-replay"


def _run(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTROPYLAB_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "out"
    argv = ["fermion", "c-fit", "--config", str(REPLAY / "c-fit.ini"), "--out", str(out)]
    assert cli.main(argv) == 0
    reference = json.loads((BENCH / "reference" / "harness-replay.json").read_text())
    return out, reference["c-fit"]


def test_unchanged_run_passes(tmp_path, monkeypatch):
    out, reference = _run(tmp_path, monkeypatch)
    verdict = check_invocation(0, out, reference)
    assert verdict.ok, verdict.problems
    assert verdict.referenced and verdict.byte_identical


def test_one_perturbed_case_value_fails(tmp_path, monkeypatch):
    out, reference = _run(tmp_path, monkeypatch)
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["cases"][0]["values"]["c_hat"] += 10 * TOLERANCE_CAP
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")

    verdict = check_invocation(0, out, reference)
    assert not verdict.ok
    assert any("c_hat" in p for p in verdict.problems)
    assert verdict.byte_identical is False


def test_exit_code_and_missing_artifact_fail(tmp_path, monkeypatch):
    out, reference = _run(tmp_path, monkeypatch)
    assert not check_invocation(1, out, reference).ok
    (out / "cases.csv").unlink()
    assert not check_invocation(0, out, reference).ok
