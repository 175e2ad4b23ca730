"""End-to-end harness behavior: runs, artifacts, cache, CLI exit codes."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entropylab
from entropylab import __version__
from entropylab.harness import (
    CaseRecord,
    RunReport,
    cache_dir,
    cache_lookup,
    cache_store,
    config_hash,
    default_config,
    load_report,
    parse_config,
    run_experiment,
    summary_json,
    write_report,
)
from entropylab.harness import config as config_module
from entropylab.harness import fermion_runs, reporting
from entropylab.harness.cli import main
from entropylab.harness.config import KINDS, ExperimentConfig
from oracles import csv_text, hashlib_config_hash

# Passes at duality's tolerance, like the harness-replay config it matches.
DUALITY = """\
[experiment]
kind = duality
sizes = 256 512 1024
arcs = 0.30 1.45, 2.65 4.10
"""

SWEEP = """\
[experiment]
kind = cross-ratio-sweep
sizes = 16
arcs = 0.30 1.45, 2.65 4.10
sweep_lengths = 0.8 1.2
"""

FINDIM_SMALL = """\
[experiment]
kind = findim-suite
instances = 2
"""

FINDIM_ONE = FINDIM_SMALL.replace("instances = 2", "instances = 1")

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTROPYLAB_CACHE_DIR", str(tmp_path / "cache"))


def _config(tmp_path, text, name="exp.ini", **kwargs):
    path = tmp_path / name
    path.write_text(text)
    return parse_config(path, **kwargs)


def test_run_is_deterministic(tmp_path):
    config = _config(tmp_path, DUALITY)
    first = summary_json(run_experiment(config))
    second = summary_json(run_experiment(config))
    assert first == second


def test_timings_stay_out_of_summary(tmp_path):
    config = _config(tmp_path, DUALITY)
    report = run_experiment(config)
    assert report.timings  # measured on the side
    assert "timings" not in json.loads(summary_json(report))


def test_duality_csv_schema_on_three_arcs(tmp_path):
    """The declared table on a region whose cross ratio is undefined (the
    three arcs of test_experiments.THREE_ARCS): each size's row has an
    empty eta cell, and the extrapolation has no row."""
    text = "[experiment]\nkind = duality\nsizes = 64 128 256\narcs = 0.2 1.1, 2.0 2.9, 4.1 5.3\n"
    report = run_experiment(_config(tmp_path, text))
    write_report(report, tmp_path / "out")
    lines = (tmp_path / "out" / "cases.csv").read_text().splitlines()
    *sized, extrapolation = report.cases
    assert [case.case_id for case in sized] == ["duality-N64", "duality-N128", "duality-N256"]
    assert extrapolation.case_id == "duality-extrapolation"
    assert all(case.values["eta"] is None for case in sized)
    assert lines == ["N,S_I,S_Icomp,eta,D"] + [
        f"{c.inputs['N']},{c.values['S_I']!r},{c.values['S_Icomp']!r},,{c.values['D']!r}"
        for c in sized
    ]
    dat = (tmp_path / "out" / "deficit_vs_N.dat").read_text().splitlines()
    assert dat[2:] == [f"{c.inputs['N']} {c.values['D']!r}" for c in sized]


def test_declared_table_and_curve_take_the_cases_that_hold_their_columns(tmp_path, monkeypatch):
    """A table declared in KINDS, here on c-fit, writes cases.csv with no
    other change: its rows, like the curve's points, are the cases whose
    inputs and values hold every column, in either dict."""
    monkeypatch.setitem(KINDS, "c-fit", KINDS["c-fit"]._replace(table=("N", "c_hat")))
    cases = [
        CaseRecord("a", {"N": 8}, {"c_hat": 1.5}),
        CaseRecord("b", {"N": 16}, {}),
        CaseRecord("c", {}, {"N": 32, "c_hat": 0.5}),
        CaseRecord("fit", {}, {"c_hat": 2.0}),
    ]
    write_report(RunReport(0, {"kind": "c-fit"}, cases, []), tmp_path)
    assert (tmp_path / "cases.csv").read_text().splitlines() == ["N,c_hat", "8,1.5", "32,0.5"]
    assert (tmp_path / "chat_vs_N.dat").read_text().splitlines()[2:] == ["8 1.5", "32 0.5"]


def test_dat_files_carry_provenance_header(tmp_path):
    config = _config(tmp_path, SWEEP)
    report = run_experiment(config)
    write_report(report, tmp_path / "out")
    dat = (tmp_path / "out" / "sweep_N16.dat").read_text().splitlines()
    assert dat[0] == "# kind=cross-ratio-sweep seed=0"
    assert dat[1] == "# columns: eta S_product"
    assert len(dat) == 2 + 2  # two sweep lengths, one size


def test_empty_report_is_vacuous_with_header_only_csv(tmp_path):
    report = RunReport(seed=0, config_echo={"kind": "cross-ratio-sweep"}, cases=[], verdicts=[])
    assert report.passed
    write_report(report, tmp_path / "out")
    lines = (tmp_path / "out" / "cases.csv").read_text().splitlines()
    assert lines == ["case_id,passed,residual,tolerance"]


def test_build_provenance_goes_to_timings_not_summary(tmp_path):
    """The engine version sits with the config hash and numpy build in
    timings.json; summary.json holds the run's seed, config and results."""
    config_path = tmp_path / "exp.ini"
    config_path.write_text(SWEEP)
    out_dir = tmp_path / "artifacts"
    argv = ["fermion", "cross-ratio-sweep", "--config", str(config_path), "--out", str(out_dir)]
    assert main(argv) == 0
    timings = json.loads((out_dir / "timings.json").read_text())
    assert timings["engine_version"] == __version__
    assert timings["config_hash"] == config_hash(parse_config(config_path))
    assert "numpy_build" in timings
    summary = json.loads((out_dir / "summary.json").read_text())
    assert sorted(summary) == ["cases", "config", "passed", "seed", "verdicts"]
    assert summary["config"]["kind"] == "cross-ratio-sweep"


# Cells over the characters that decide quoting, and arbitrary text.
_CELL = st.one_of(st.text(alphabet=',"\r\n \ta1.-', max_size=6), st.text(max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_CELL, max_size=5), max_size=5))
@example([[""]])
@example([["", ""], [""], [], ['a "quoted", cell']])
def test_csv_rows_are_what_csv_writer_writes(rows):
    assert "".join(reporting._csv_row(row) for row in rows) == csv_text(rows)


def test_summary_roundtrip(tmp_path):
    config = _config(tmp_path, DUALITY)
    report = run_experiment(config)
    paths = write_report(report, tmp_path / "out")
    summary = next(p for p in paths if p.name == "summary.json")
    loaded = load_report(summary)
    assert loaded.to_dict() == report.to_dict()


def test_config_hash_tracks_seed_and_version(tmp_path):
    config = _config(tmp_path, FINDIM_ONE)
    assert config_hash(config) != config_hash(config._replace(seed=1))


def test_config_hash_is_hashlibs_sha256():
    configs = [parse_config(path) for path in sorted((_PERFBENCH / "configs").glob("*/*.ini"))]
    for config in [*configs, default_config("findim-suite")]:
        assert config_hash(config) == hashlib_config_hash(config)


def test_config_hash_tracks_engine_sources(tmp_path):
    # A copy of the package keys like the original until one file is edited;
    # the version string stays the same throughout.  The key is build
    # provenance: it goes to timings.json and leaves summary.json alone.
    package = tmp_path / "src" / "entropylab"
    shutil.copytree(
        Path(entropylab.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
    )
    ini = tmp_path / "exp.ini"
    ini.write_text(DUALITY)
    probe = (
        "import sys, entropylab; from entropylab.harness import config_hash, parse_config; "
        "print(entropylab.__file__); print(config_hash(parse_config(sys.argv[1])))"
    )
    env = dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")

    def copied_key():
        out = subprocess.run(
            [sys.executable, "-c", probe, str(ini)],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        assert Path(out[0]).parent == package
        return out[1]

    def copied_run(out):
        subprocess.run(
            [sys.executable, "-m", "entropylab.harness.cli", "fermion", "duality",
             "--config", str(ini), "--no-cache", "--out", str(out)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        timings = json.loads((out / "timings.json").read_text())
        return (out / "summary.json").read_bytes(), timings["config_hash"]

    original = config_hash(parse_config(ini))
    assert copied_key() == original
    summary, sidecar_key = copied_run(tmp_path / "before")
    assert sidecar_key == original
    # a docstring-only edit
    edited = package / "lattice" / "gaussian.py"
    edited.write_text(edited.read_text().replace('"""', '"""Edited. ', 1))
    edited_key = copied_key()
    assert edited_key != original
    assert copied_run(tmp_path / "after") == (summary, edited_key)


def test_config_hash_tracks_the_numpy_build(tmp_path, monkeypatch, capsys):
    """A numpy whose compiled core has another size or mtime misses the
    cache, and timings.json names the build.  The core is a file under a
    fake numpy spec, not a second numpy."""
    from importlib.machinery import ModuleSpec

    from entropylab.harness import report

    core = tmp_path / "numpy" / "_core" / "_multiarray_umath.cpython-311-x86_64-linux-gnu.so"
    core.parent.mkdir(parents=True)
    core.write_bytes(bytes(64))
    spec = ModuleSpec("numpy", None, is_package=True)
    spec.submodule_search_locations = [str(core.parent.parent)]
    find_spec = report.importlib.util.find_spec
    config_path = tmp_path / "exp.ini"
    config_path.write_text(DUALITY)
    config = parse_config(config_path)

    def key():
        report._engine_fingerprint.cache_clear()
        return config_hash(config)

    def run(out):
        assert main(["fermion", "duality", "--config", str(config_path), "--out", str(out)]) == 0
        return json.loads((out / "timings.json").read_text())

    try:
        with monkeypatch.context() as patch:
            patch.setattr(
                report.importlib.util,
                "find_spec",
                lambda name, *rest: spec if name == "numpy" else find_spec(name, *rest),
            )
            mtime = core.stat().st_mtime_ns
            build = f"_core/{core.name} 64 {mtime}"
            assert report.numpy_build() == build
            original = key()
            timings = run(tmp_path / "before")
            assert (timings["cache"], timings["numpy_build"]) == ("miss", build)
            assert timings["config_hash"] == original

            core.write_bytes(bytes(65))  # another size at the same mtime
            os.utime(core, ns=(mtime, mtime))
            assert key() != original
            core.write_bytes(bytes(64))
            os.utime(core, ns=(mtime, mtime))
            assert key() == original
            os.utime(core, ns=(mtime, mtime + 1))  # another mtime
            assert key() != original
            timings = run(tmp_path / "after")
            assert timings["cache"] == "miss"
            assert timings["numpy_build"] == f"_core/{core.name} 64 {mtime + 1}"

            spec.submodule_search_locations = [str(tmp_path / "elsewhere")]
            assert report.numpy_build() == ""
        capsys.readouterr()
    finally:
        report._engine_fingerprint.cache_clear()


@pytest.mark.parametrize("override", [None, ""])
def test_cache_dir_defaults_to_the_home_cache(tmp_path, monkeypatch, override):
    """Unset or empty, ENTROPYLAB_CACHE_DIR leaves the cache in
    ~/.cache/entropylab."""
    monkeypatch.setenv("HOME", str(tmp_path))
    if override is None:
        monkeypatch.delenv("ENTROPYLAB_CACHE_DIR")
    else:
        monkeypatch.setenv("ENTROPYLAB_CACHE_DIR", override)
    assert cache_dir() == tmp_path / ".cache" / "entropylab"


def test_cache_roundtrip(tmp_path):
    config = _config(tmp_path, DUALITY)
    assert cache_lookup(config_hash(config)) is None
    report = run_experiment(config)
    cache_store(report, config_hash(config))
    cached = cache_lookup(config_hash(config))
    assert cached is not None
    assert cached.to_dict() == report.to_dict()
    assert cached.timings == report.timings
    assert summary_json(cached) == summary_json(report)


def test_cache_evicts_corrupt_entries(tmp_path):
    config = _config(tmp_path, DUALITY)
    report = run_experiment(config)
    path = cache_store(report, config_hash(config))
    path.write_text("{not json")
    assert cache_lookup(config_hash(config)) is None
    assert not path.exists()
    path.mkdir()  # unreadable and cannot be evicted: still a miss
    assert cache_lookup(config_hash(config)) is None


def test_cache_store_removes_its_part_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(source, target):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    report = RunReport(seed=0, config_echo={"kind": "duality"}, cases=[], verdicts=[])
    with pytest.raises(OSError, match="^rename refused$"):
        cache_store(report, "0" * 64)
    assert list((tmp_path / "cache").iterdir()) == []


def test_broken_cache_is_a_miss_and_the_run_goes_on(tmp_path, capsys, monkeypatch):
    """With the cache directory a regular file, the lookup is a miss and the
    store fails with a note on stderr; the run still exits 0 and writes the
    artifacts of a --no-cache run."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("ENTROPYLAB_CACHE_DIR", str(blocker))
    config_path = tmp_path / "exp.ini"
    config_path.write_text(DUALITY)
    argv = ["fermion", "duality", "--config", str(config_path)]
    assert main([*argv, "--no-cache", "--out", str(tmp_path / "off")]) == 0
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "broken")]) == 0
    assert capsys.readouterr().err.startswith("cache not written: ")
    off, broken = tmp_path / "off", tmp_path / "broken"
    assert sorted(p.name for p in broken.iterdir()) == sorted(p.name for p in off.iterdir())
    assert (broken / "summary.json").read_bytes() == (off / "summary.json").read_bytes()
    assert json.loads((broken / "timings.json").read_text())["cache"] == "miss"
    assert blocker.read_text() == ""


def test_cli_pass_exit_zero(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(DUALITY)
    out_dir = tmp_path / "artifacts"
    code = main(
        ["fermion", "duality", "--config", str(config_path), "--out", str(out_dir)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "overall: PASS" in captured.out
    assert (out_dir / "summary.json").exists()


def test_cli_failure_lists_cases_on_stderr(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(KINDS, "duality", KINDS["duality"]._replace(tolerance=1e-12))
    config_path = tmp_path / "exp.ini"
    config_path.write_text(DUALITY)
    code = main(["fermion", "duality", "--config", str(config_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "overall: FAIL" in captured.out
    assert captured.err.startswith("failing cases: ")


def test_cli_config_error_exit_two(tmp_path, capsys):
    code = main(["fermion", "duality", "--config", str(tmp_path / "missing.ini")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    code = main(["fermion", "shrink"])  # no --config for a kind that needs one
    assert code == 2


def test_cli_io_error_exit_three(tmp_path, capsys):
    code = main(["report", str(tmp_path / "nowhere" / "summary.json")])
    assert code == 3
    assert "i/o error:" in capsys.readouterr().err


def _python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this package, with ``env`` added to its
    environment; the cache directory is this test's."""
    env = dict(os.environ, PYTHONPATH=str(Path(entropylab.__file__).parent.parent), **env)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _cli_process(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """``python -m entropylab.harness.cli``, which exits through ``run``."""
    return _python("-m", "entropylab.harness.cli", *argv, **env)


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The harness-replay duality (TWO_ARCS at N = 256, 512, 1024) and
    findim-suite configs write the same summary.json, cases.csv and .dat
    files at one BLAS thread and at two."""
    replay = _PERFBENCH / "configs" / "harness-replay"
    artifacts = ["cases.csv", "summary.json"]
    for command, names in (
        (["fermion", "duality"], sorted([*artifacts, "deficit_vs_N.dat"])),
        (["findim-suite"], artifacts),
    ):
        config = replay / f"{command[-1]}.ini"
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command[-1]}-{threads}"
            done = _cli_process(
                *command, "--config", str(config), "--no-cache", "--out", str(out),
                OPENBLAS_NUM_THREADS=threads,
            )
            assert done.returncode == 0, done.stderr
            outs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"})
        assert sorted(outs[0]) == names
        assert outs[0] == outs[1]


# ``cli.run`` with duality's tolerance at 1e-12, which its verdicts fail.
_FAILING_RUN = """\
import sys
from entropylab.harness import cli
from entropylab.harness.config import KINDS

KINDS["duality"] = KINDS["duality"]._replace(tolerance=1e-12)
sys.argv = ["entropylab", *sys.argv[1:]]
cli.run()
"""


def test_cli_process_exit_codes(tmp_path, capsys):
    """Exiting through ``run`` keeps every exit code, the stderr lines and the
    artifacts: a failing verdict exits 1, lists its cases and still writes
    its report; a bad config exits 2; a cache hit exits 0 and prints what
    ``main`` prints in-process."""
    failing = tmp_path / "failing.ini"
    failing.write_text(DUALITY)
    out = tmp_path / "failing"
    done = _python(
        "-c", _FAILING_RUN, "fermion", "duality", "--config", str(failing), "--out", str(out)
    )
    assert done.returncode == 1
    assert done.stderr.startswith("failing cases: ")
    assert "overall: FAIL" in done.stdout
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["summary.json", "cases.csv", "timings.json", "deficit_vs_N.dat"]
    )
    assert json.loads((out / "summary.json").read_text())["passed"] is False

    done = _cli_process("fermion", "duality", "--config", str(tmp_path / "missing.ini"))
    assert done.returncode == 2
    assert done.stderr.startswith("config error:")

    passing = tmp_path / "passing.ini"
    passing.write_text(DUALITY)
    argv = ["fermion", "duality", "--config", str(passing)]
    assert main([*argv, "--out", str(tmp_path / "miss")]) == 0
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "hit")]) == 0
    in_process = capsys.readouterr().out
    done = _cli_process(*argv, "--out", str(tmp_path / "process"))
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == in_process
    assert json.loads((tmp_path / "process" / "timings.json").read_text())["cache"] == "hit"


def test_cli_help_names_every_command_and_kind(capsys):
    for flag in ("--help", "-h"):
        assert main(["fermion", flag]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: entropylab ") and captured.err == ""
        words = captured.out.replace(",", " ").split()
        for kind, spec in KINDS.items():
            assert kind in words and spec.command[0] in words
        assert "report" in words


# One command line outside the grammar per kind of mistake.
_USAGE_ERRORS = {
    "no command": [],
    "options without command": ["--out", "out", "--no-cache"],
    "unknown command": ["lattice", "duality"],
    "unknown kind": ["fermion", "dualty"],
    "missing kind": ["fermion", "--no-cache"],
    "unknown flag": ["findim-suite", "--cache"],
    "flag without value": ["findim-suite", "--out"],
    "flag with empty value": ["findim-suite", "--out="],
    "flag with empty word": ["findim-suite", "--out", ""],
    "flag followed by flag": ["findim-suite", "--config", "--no-cache"],
    "switch with value": ["findim-suite", "--no-cache=1"],
    "non-integer seed": ["findim-suite", "--seed", "three"],
    "extra argument": ["findim-suite", "extra"],
    "report without summary": ["report"],
    "report with option": ["report", "summary.json", "--no-cache"],
}


@pytest.mark.parametrize("argv", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS.keys())
def test_cli_usage_error_returns_two(tmp_path, capsys, monkeypatch, argv):
    """A usage error returns 2 from ``main`` (no SystemExit), prints the usage
    and the reason to stderr, and runs and writes nothing."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: entropylab ")
    assert "entropylab: error: " in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [[], ["--out", "out"]], ids=["nothing", "options only"])
def test_cli_without_command_says_missing_command(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    usage, error = capsys.readouterr().err.splitlines()[-2:]
    assert usage.startswith("       entropylab report")
    assert error == "entropylab: error: missing command (one of findim-suite, fermion, report)"
    assert not any(tmp_path.iterdir())


def test_cli_process_usage_errors_exit_two():
    for argv in (["fermion", "dualty"], ["findim-suite", "--seed", "x"], ["report"]):
        done = _cli_process(*argv)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("usage: entropylab ")
    done = _cli_process("--help")
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("usage: entropylab ")


def test_cli_flag_equals_value_is_the_flag_and_value(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(FINDIM_ONE)
    apart = tmp_path / "apart"
    joined = tmp_path / "joined"
    argv = ["findim-suite", "--config", str(config_path), "--out", str(apart), "--seed", "2"]
    assert main(argv) == 0
    # options in another order, each as --flag=value
    assert main(["findim-suite", "--seed=2", f"--out={joined}", f"--config={config_path}"]) == 0
    capsys.readouterr()
    assert (apart / "summary.json").read_bytes() == (joined / "summary.json").read_bytes()
    assert json.loads((joined / "summary.json").read_text())["config"]["seed"] == 2
    assert json.loads((joined / "timings.json").read_text())["cache"] == "hit"


def test_run_options_come_from_the_command_line(tmp_path, capsys):
    """--out and --no-cache are the only run options (a config's [output]
    is an unknown section).  Neither enters the config hash, --no-cache
    records "off", and an empty --out is a usage error that writes nothing."""
    config_path = tmp_path / "exp.ini"
    config_path.write_text(DUALITY)
    argv = ["fermion", "duality", "--config", str(config_path)]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    assert main([*argv, "--no-cache", f"--out={tmp_path / 'b'}"]) == 0
    timings = [json.loads((tmp_path / out / "timings.json").read_text()) for out in "ab"]
    assert [t["cache"] for t in timings] == ["miss", "off"]
    key = config_hash(parse_config(config_path))
    assert [t["config_hash"] for t in timings] == [key, key]
    capsys.readouterr()
    assert main([*argv, "--out="]) == 2
    assert capsys.readouterr().err.endswith("\nentropylab: error: --out needs a value DIR\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "cache", "exp.ini"]


def test_out_cache_hit_checks_sites_once(tmp_path, capsys, monkeypatch):
    """Neither --out nor --no-cache changes what a run computes, so a cache
    hit with --out builds and checks its regions once, when the config is
    parsed."""
    config_path = tmp_path / "exp.ini"
    config_path.write_text(DUALITY)
    argv = ["fermion", "duality", "--config", str(config_path)]
    assert main([*argv, "--out", str(tmp_path / "miss")]) == 0
    calls = []
    check_sites = config_module.check_sites
    monkeypatch.setattr(
        config_module, "check_sites", lambda *args: calls.append(args) or check_sites(*args)
    )
    assert main([*argv, "--out", str(tmp_path / "hit")]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "hit" / "timings.json").read_text())["cache"] == "hit"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["fermion", "collapse", "--config", "harness-replay/collapse.ini", "--seed", "7"], 2),
        (["findim-suite", "--config", "findim-suite/suite.ini", "--seed", "1"], 1),
        (["fermion", "duality", "--config", "lattice-large/duality.ini"], 1),
    ],
    ids=["collapse-seeded", "findim-suite-seeded", "lattice-large-duality"],
)
def test_cli_checks_regions_once(monkeypatch, capsys, argv, calls):
    # The config's regions once, and collapse's drawn family once more: a
    # --seed override is checked with the file, not again after it.
    counted = []
    check_sites = config_module.check_sites
    for module in (config_module, fermion_runs):
        monkeypatch.setattr(
            module, "check_sites", lambda *args: counted.append(args) or check_sites(*args)
        )
    argv = [str(_PERFBENCH / "configs" / a) if a.endswith(".ini") else a for a in argv]
    assert main([*argv, "--no-cache"]) == 0
    capsys.readouterr()
    assert len(counted) == calls


_EXIT_PROBE = """\
import atexit, gc, sys
from entropylab.harness import cli

argv = sys.argv[1:]
after_main = (cli.main(argv), gc.get_freeze_count())
atexit.register(lambda: print(*after_main, gc.get_freeze_count() > 0))
sys.argv = ["entropylab", *argv]
cli.run()
"""


def test_run_freezes_the_collector_only_at_exit(tmp_path):
    """``main`` leaves the collector alone; ``run`` freezes it before exiting,
    and atexit handlers still run after that."""
    done = _python(
        "-c", _EXIT_PROBE, "fermion", "duality", "--config", str(tmp_path / "missing.ini")
    )
    assert done.returncode == 2
    assert done.stdout.split() == ["2", "0", "True"]


def test_console_script_exits_through_run():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"entropylab": "entropylab.harness.cli:run"}


_NO_KIND = {"seed": 0, "config": {}, "cases": [], "verdicts": [], "passed": True}
_GOLDEN_SUMMARY = (
    Path(__file__).resolve().parent / "golden" / "findim-suite" / "suite-seed0" / "summary.json"
).read_text()


def _tampered(where, key, value):
    """The golden seed-0 findim-suite summary with ``key`` set to ``value``
    in the summary (``where`` None) or in each of its ``where`` records."""
    payload = json.loads(_GOLDEN_SUMMARY)
    for record in [payload] if where is None else payload[where]:
        record[key] = value
    return json.dumps(payload)


# Each names a field of a type that to_dict does not write there, but the
# last, a summary without a verdict, which would read as passed.
_TAMPERED = {
    "seed-a-str": (None, "seed", "0"),
    "cases-a-dict": (None, "cases", {}),
    "verdicts-a-dict": (None, "verdicts", {}),
    "case-id-an-int": ("cases", "case_id", 0),
    "inputs-null": ("cases", "inputs", None),
    "values-a-list": ("cases", "values", []),
    "residual-a-str": ("cases", "residual", "x"),
    "tolerance-a-bool": ("cases", "tolerance", True),
    "case-passed-a-str": ("cases", "passed", "no"),
    "verdict-name-null": ("verdicts", "name", None),
    "verdict-passed-a-str": ("verdicts", "passed", "false"),
    "verdict-detail-an-int": ("verdicts", "detail", 1),
    "case-ids-a-str": ("verdicts", "case_ids", "araki-000"),
    "case-ids-not-strs": ("verdicts", "case_ids", [0]),
    "no-verdicts": (None, "verdicts", []),
}


@pytest.mark.parametrize(
    "content",
    [
        '{"kind": "duality", "seed": 0, "cas',
        '{"kind": "duality", "seed": 0}',
        json.dumps(_NO_KIND),
        json.dumps({**_NO_KIND, "config": []}),
        *(_tampered(*change) for change in _TAMPERED.values()),
    ],
    ids=["truncated", "no-cases", "config-without-kind", "config-not-a-dict", *_TAMPERED],
)
def test_cli_report_unreadable_summary_exit_three(tmp_path, capsys, content):
    summary = tmp_path / "summary.json"
    summary.write_text(content)
    assert main(["report", str(summary)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert f"{summary} is not a run summary: " in err


@pytest.mark.parametrize(
    "change",
    [{"config": {}}, {"config": []}, {"config": {"kind": 1}}, {"cases": {}}, {"verdicts": []}],
    ids=["no-kind", "a-list", "int-kind", "cases-a-dict", "no-verdicts"],
)
def test_cache_entry_without_a_kind_is_evicted_and_recomputed(tmp_path, capsys, change):
    """A cache entry whose report has no config dict with a str kind, or
    another field of a type that to_dict does not write, is a miss: the
    lookup evicts it, and the run recomputes and stores anew.  So is one
    without a verdict, which would read as passed."""
    config_path = tmp_path / "exp.ini"
    config_path.write_text(DUALITY)
    argv = ["fermion", "duality", "--config", str(config_path)]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    key = config_hash(parse_config(config_path))
    path = tmp_path / "cache" / f"{key}.json"
    payload = json.loads(path.read_text())
    payload["report"].update(change)
    path.write_text(json.dumps(payload))
    assert cache_lookup(key) is None
    assert not path.exists()
    path.write_text(json.dumps(payload))  # the same entry again, for the CLI to meet
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "b" / "timings.json").read_text())["cache"] == "miss"
    summary = (tmp_path / "a" / "summary.json").read_bytes()
    assert (tmp_path / "b" / "summary.json").read_bytes() == summary
    assert summary_json(cache_lookup(key)).encode() == summary


def test_cli_report_rerenders_stored_summary(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(DUALITY)
    out_dir = tmp_path / "artifacts"
    assert main(["fermion", "duality", "--config", str(config_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    code = main(["report", str(out_dir / "summary.json")])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out
    # Older summaries also carry the config_hash and engine_version that now
    # live in timings.json, a top-level kind, pass_vacuous and residual_max.
    old = json.loads((out_dir / "summary.json").read_text())
    old.update(
        config_hash="0" * 64,
        kind="duality",
        engine_version=__version__,
        pass_vacuous=False,
        residual_max=max(c["residual"] or 0.0 for c in old["cases"]),
    )
    (tmp_path / "old.json").write_text(json.dumps(old, sort_keys=True, indent=2) + "\n")
    assert main(["report", str(tmp_path / "old.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("duality  seed=0\n") and "overall: PASS" in out
    assert load_report(tmp_path / "old.json") == load_report(out_dir / "summary.json")


def test_cli_seed_override_lands_in_echo(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(FINDIM_ONE)
    out_dir = tmp_path / "artifacts"
    code = main(
        [
            "findim-suite",
            "--config",
            str(config_path),
            "--seed",
            "5",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads((out_dir / "summary.json").read_text())
    assert payload["seed"] == 5
    assert payload["config"]["seed"] == 5


@pytest.mark.parametrize(
    "argv, text",
    [
        (["findim-suite"], "[experiment]\nkind = findim-suite\ninstances = 1\n"),
        (["fermion", "c-fit"], "[experiment]\nkind = c-fit\nsizes = 16 32\n"),
    ],
    ids=["findim-suite", "c-fit"],
)
def test_cli_seed_override_is_validated(tmp_path, capsys, argv, text):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(text)
    code = main([*argv, "--config", str(config_path), "--seed", "-1"])
    assert code == 2
    assert "config error: seed must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()  # nothing was cached


@pytest.mark.parametrize("instances", ["0", "-1"])
def test_cli_findim_instances_must_be_at_least_one(tmp_path, capsys, instances):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(FINDIM_ONE.replace("instances = 1", f"instances = {instances}"))
    assert main(["findim-suite", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == "config error: instances must be at least 1\n"
    assert not (tmp_path / "cache").exists()  # nothing was cached


# A small runnable config of each kind, with only the keys it needs.
_SMALL = {
    "findim-suite": FINDIM_ONE,
    "duality": DUALITY,
    "cross-ratio-sweep": SWEEP,
    "c-fit": "[experiment]\nkind = c-fit\nsizes = 16 32\n",
    "shrink": "[experiment]\nkind = shrink\nsizes = 64\narcs = 0.2 1.1, 2.0 2.9\nschedule = 0.5\n",
    "collapse": "[experiment]\nkind = collapse\nsizes = 32 64\narcs = 0.30 1.45, 2.65 4.10\n",
    "two-d": "[experiment]\nkind = two-d\nsizes = 16 32\narcs = 0.30 1.45, 2.65 4.10\n"
    "right_arcs = 0.50 1.70, 3.00 4.40\n",
}
_PHYSICS_KEYS = [f for f in ExperimentConfig._fields if f != "kind"]
# A value of each key that passes every range check.
_IN_RANGE = {
    "sizes": "64 128",
    "arcs": "0.30 1.45, 2.65 4.10",
    "right_arcs": "0.50 1.70, 3.00 4.40",
    "c": "1.0",
    "seed": "3",
    "instances": "2",
    "schedule": "0.5",
    "arc_index": "0",
    "family_size": "2",
    "sweep_lengths": "0.5",
}


def _argv(kind):
    command = KINDS[kind].command[0]
    return [command] if command == kind else [command, kind]


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind in KINDS for key in _PHYSICS_KEYS if key not in KINDS[kind].keys],
)
def test_cli_rejects_a_key_the_kind_does_not_read(tmp_path, capsys, kind, key):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(_SMALL[kind] + f"{key} = {_IN_RANGE[key]}\n")
    code = main([*_argv(kind), "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and f"'{key}'" in err and f"'{kind}'" in err
    assert not (tmp_path / "cache").exists()  # nothing was cached


# Keys no kind reads any more, with a value each: lengths are always
# chords, every verdict binds at its kind's tolerance, and c-fit fits its
# fixed lengths.  An r_convention case's id is its kind alone.
_REMOVED_KEYS = {"r_convention": "chord", "tolerance": "0.5", "lengths": "2 4 6 8 10 12"}


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for key in _REMOVED_KEYS for kind in KINDS],
    ids=[
        kind if key == "r_convention" else f"{kind}-{key}"
        for key in _REMOVED_KEYS
        for kind in KINDS
    ],
)
def test_cli_rejects_r_convention_as_an_unknown_key(tmp_path, capsys, kind, key):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(_SMALL[kind] + f"{key} = {_REMOVED_KEYS[key]}\n")
    code = main([*_argv(kind), "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: unknown key '{key}' in [experiment]\n"
    assert "Traceback" not in err
    assert not (tmp_path / "cache").exists()  # nothing was cached


@pytest.mark.parametrize("kind", [kind for kind in KINDS if "seed" not in KINDS[kind].keys])
def test_cli_seed_override_on_a_kind_without_seed_exits_two(tmp_path, capsys, kind):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(_SMALL[kind])
    code = main([*_argv(kind), "--config", str(config_path), "--seed", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"'{kind}' does not read 'seed'" in err
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("kind", list(KINDS))
def test_runner_reads_exactly_the_declared_keys(tmp_path, kind):
    read = set()

    class Recording(ExperimentConfig):
        __slots__ = ()

        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    config = Recording(*_config(tmp_path, _SMALL[kind]))
    read.clear()  # building a config checks, and so reads, every key
    module, name = KINDS[kind].runner.split(".")
    getattr(importlib.import_module(f"entropylab.harness.{module}"), name)(config)
    assert read & set(_PHYSICS_KEYS) == set(KINDS[kind].keys)


_CFIT = "[experiment]\nkind = c-fit\nsizes = 16 32\n"
_SHRINK = "[experiment]\nkind = shrink\nsizes = 64\narcs = 0.2 1.1, 2.0 2.9\n"
_SHRINK3 = "[experiment]\nkind = shrink\nsizes = {}\narcs = 0.2 1.1, 2.0 2.9, 4.1 5.3\n"
_TWOD = "[experiment]\nkind = two-d\nsizes = 16 32\narcs = {}\nright_arcs = 0.50 1.70, 3.00 4.40\n"
# At N = 8 the gap (1.6, 2.3) holds no site.
_SITELESS_GAP = "sizes = 8\narcs = 0.7 1.6, 2.3 5.6\n"


@pytest.mark.parametrize(
    "kind, text",
    [
        ("cross-ratio-sweep", SWEEP.replace("0.8 1.2", "4.0")),
        ("cross-ratio-sweep", SWEEP.replace("0.8 1.2", "9.0")),
        ("shrink", _SHRINK + "schedule = 0.5 7.0\n"),
        ("c-fit", "[experiment]\nkind = c-fit\nsizes = 8 16\n"),
        ("shrink", _SHRINK3.format(512) + "schedule = 2.5 0.5\n"),
        ("shrink", _SHRINK3.format(64) + "schedule = 0.5 0.001 0.3\n"),
        ("shrink", _SHRINK.replace("2.0 2.9", "2.0 2.05") + "schedule = 0.5\n"),
        ("shrink", _SHRINK.replace(", 2.0 2.9", "") + "schedule = 0.5\n"),
        ("shrink", _SHRINK3.format(64) + "schedule = 0.01\n"),
        ("duality", DUALITY.replace("256 512 1024", "16 32 64").replace("1.45", "0.35")),
        ("duality", "[experiment]\nkind = duality\n" + _SITELESS_GAP),
        ("duality", DUALITY.replace(", 2.65 4.10", "")),
        ("collapse", "[experiment]\nkind = collapse\nsizes = 16 32\narcs = 0.30 0.40, 2.65 4.10\n"),
        ("collapse", "[experiment]\nkind = collapse\nsizes = 16\narcs = 0.3 1, 2 3, 4 5\n"),
        ("two-d", _TWOD.format("0.30 0.35, 2.65 4.10")),
        ("two-d", _TWOD.format("0.30 1.45, 2.65 4.10, 5.0 5.5")),
        ("cross-ratio-sweep", SWEEP.replace("1.45", "0.35")),
        (
            "cross-ratio-sweep",
            "[experiment]\nkind = cross-ratio-sweep\nsizes = 8\narcs = 3.1 6.2, 6.23 1.0\n"
            "sweep_lengths = 3.05\n",
        ),
        (
            "shrink",
            "[experiment]\nkind = shrink\n" + _SITELESS_GAP + "arc_index = 1\nschedule = 3.0 4.2\n",
        ),
    ],
    ids=[
        "sweep-overlaps-first-arc",
        "sweep-longer-than-circle",
        "shrink-schedule-beyond-circle",
        "cfit-default-lengths-too-small",
        "shrink-schedule-runs-into-next-arc",
        "shrink-schedule-empties-arc-early",
        "shrink-fixed-arc-without-sites",
        "shrink-single-arc",
        "shrink-lone-step-without-sites",
        "duality-arc-without-sites",
        "duality-complement-arc-without-sites",
        "duality-single-arc",
        "collapse-image-arc-without-sites",
        "collapse-three-arcs",
        "twod-left-arc-without-sites",
        "twod-mismatched-arc-counts",
        "sweep-first-arc-without-sites",
        "sweep-region-covers-every-site",
        "shrink-final-step-covers-every-site",
    ],
)
def test_cli_rejects_geometry_it_cannot_build(tmp_path, capsys, kind, text):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(text)
    code = main(["fermion", kind, "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "cache").exists()  # nothing was cached


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    """A Latin-1 byte 0xE9 in a comment is a config error (exit 2, one
    ``config error:`` line), in-process and from a fresh process."""
    config_path = tmp_path / "latin1.ini"
    config_path.write_bytes(b"# r\xe9sum\xe9 of the c-fit run\n" + _CFIT.encode())
    argv = ["fermion", "c-fit", "--config", str(config_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "UTF-8" in err and "Traceback" not in err
    done = _cli_process(*argv)
    assert done.returncode == 2
    assert done.stderr == err


def test_shrink_final_step_may_empty_the_arc(tmp_path, capsys):
    """From the command line, a final step that leaves the scheduled arc
    without sites passes the config check, runs, and writes a last case
    with 0 sites and gap 0.0; the runner's rule over both schedules is
    checked in ``test_experiments``."""
    config_path = tmp_path / "shrink.ini"
    config_path.write_text(_SHRINK + "schedule = 0.5 0.001\n")
    out = tmp_path / "out"
    argv = ["fermion", "shrink", "--config", str(config_path), "--out", str(out), "--no-cache"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("overall: PASS\n")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    last = summary["cases"][-1]
    assert last["inputs"]["sites"] == 0
    assert last["values"]["gap"] == 0.0
    assert (out / "cases.csv").read_text().splitlines()[-1].split(",")[-2:] == ["0.0", "0.0"]


@pytest.mark.parametrize(
    "command, text, plots",
    [
        (["fermion", "duality"], DUALITY, ["deficit_vs_N.dat"]),
        (["findim-suite"], FINDIM_SMALL, []),
    ],
    ids=["duality", "findim-suite"],
)
def test_cli_cache_hit_reproduces_bytes(tmp_path, capsys, command, text, plots):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(text)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main([*command, "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main([*command, "--config", str(config_path), "--out", str(out_b)]) == 0
    capsys.readouterr()
    for out in (out_a, out_b):
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["summary.json", "cases.csv", "timings.json", *plots]
        )
    for name in ("summary.json", "cases.csv", *plots):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    # the second run was served from cache: the stored compute timings come
    # back unchanged, and the sidecar says which call computed them
    timings_a = json.loads((out_a / "timings.json").read_text())
    timings_b = json.loads((out_b / "timings.json").read_text())
    assert (timings_a.pop("cache"), timings_b.pop("cache")) == ("miss", "hit")
    run_a, run_b = timings_a.pop("run_seconds"), timings_b.pop("run_seconds")
    assert run_a >= timings_a["total_seconds"] and run_b > 0
    assert timings_a == timings_b


def test_cli_no_cache_recomputes_same_summary(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(DUALITY)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["fermion", "duality", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(
        [
            "fermion",
            "duality",
            "--config",
            str(config_path),
            "--no-cache",
            "--out",
            str(out_b),
        ]
    ) == 0
    capsys.readouterr()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert json.loads((out_b / "timings.json").read_text())["cache"] == "off"
    # the cache entry holds compute timings only, not a call's own
    (entry,) = (tmp_path / "cache").iterdir()
    stored = json.loads(entry.read_text())["timings"]
    assert "total_seconds" in stored
    assert "cache" not in stored and "run_seconds" not in stored


@pytest.mark.parametrize(
    "text",
    [
        SWEEP,
        _SHRINK3.format("64 128") + "schedule = 0.9 0.5 0.3\n",
        _SHRINK3.format("64") + "arc_index = 1\nschedule = 0.5 0.2\n",
        "[experiment]\nkind = collapse\nsizes = 64 128\narcs = 0.30 1.45, 2.65 4.10\n"
        "family_size = 2\n",
    ],
    ids=["sweep", "shrink", "shrink-arc-1", "collapse"],
)
def test_runs_evaluate_the_regions_the_config_checked(tmp_path, monkeypatch, text):
    """The regions a sweep, shrink or collapse run evaluates are the ones
    its config check built (every step here holds sites, so none is left
    out), and for collapse the Moebius images the run checks itself."""
    checked, evaluated = set(), set()

    def check_sites(sizes, regions, last=None):
        checked.update(spec.arcs for spec in ([*regions, last] if last else regions))

    def value(corr, spec, memo=None):
        evaluated.add(spec.arcs)
        return 0.0

    monkeypatch.setattr(config_module, "check_sites", check_sites)
    config = _config(tmp_path, text)
    monkeypatch.setattr(fermion_runs, "check_sites", check_sites)
    monkeypatch.setattr(fermion_runs, "product_state_relative_entropy", value)
    run_experiment(config)
    assert evaluated and evaluated == checked


# Runs in a fresh interpreter without ``site``, so that no .pth file has
# preloaded anything.  It records which of numpy and the engines each step
# loads, and which start-up cost each step adds: of a dataclass or a
# typing.NamedTuple (dataclasses, inspect, typing), of argparse (argparse,
# gettext, locale), of the standard config reader and CSV writer
# (configparser, csv), of hashlib and the OpenSSL it maps (hashlib,
# _hashlib), or of a process pool (multiprocessing, concurrent.futures).
# No step may add dataclasses: every record type, the engines' too, is a
# named tuple.  A duality run computes without hashlib; a findim
# run is exempt, because numpy.random loads _hashlib through secrets and
# hmac.
_IMPORT_PROBE = """\
import json, sys

ENGINES = ("numpy", "entropylab.findim", "entropylab.lattice")
STARTUP = (
    "dataclasses", "inspect", "typing", "argparse", "gettext", "locale",
    "configparser", "csv", "hashlib", "_hashlib", "_sha3",
    "multiprocessing", "concurrent.futures",
)
ini, out, result_path, *command = sys.argv[1:]
preloaded = set(sys.modules)
seen = {"added": {}}

def loaded():
    return [m for m in ENGINES if m in sys.modules]

def added(step):
    seen["added"][step] = [m for m in STARTUP if m in sys.modules and m not in preloaded]

import entropylab.harness
entropylab.harness.parse_config(ini)
seen["import"] = loaded()
added("import")

from entropylab.harness import cli

argv = [*command, "--config", ini]
seen["report"] = [cli.main(["report", out + "/summary.json"]), *loaded()]
added("report")
seen["hit"] = [cli.main([*argv, "--out", out + "-hit"]), *loaded()]
added("hit")
with open(out + "-hit/timings.json") as fh:
    seen["hit_cache"] = json.load(fh)["cache"]
seen["no-cache"] = [cli.main([*argv, "--no-cache"]), *loaded()]
added("no-cache")
seen["numpy.random"] = "numpy.random" in sys.modules
seen["numpy.ma"] = "numpy.ma" in sys.modules
with open(result_path, "w") as fh:
    json.dump(seen, fh)
"""


def _fresh_process(script, *args) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter without ``site``."""
    # numpy's own directory stands in for the site directories that -S skips
    path = [Path(entropylab.__file__).parent.parent, Path(np.__file__).parent.parent]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(str(p) for p in path),
        PYTHONDONTWRITEBYTECODE="1",
    )
    return subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )


def _import_probe(tmp_path, command, text) -> dict:
    """Modules loaded by a fresh process at each step of a report, a cache hit
    and an uncached run of ``command`` on the config ``text``."""
    config_path = tmp_path / "exp.ini"
    config_path.write_text(text)
    out = tmp_path / "out"
    assert main([*command, "--config", str(config_path), "--out", str(out)]) == 0
    result = tmp_path / "probe.json"
    _fresh_process(_IMPORT_PROBE, str(config_path), str(out), str(result), *command)
    seen = json.loads(result.read_text())
    assert seen["import"] == []
    assert seen["report"] == [0]
    assert seen["hit_cache"] == "hit"
    assert seen["hit"] == [0]
    # start-up: parsing, a report and a cache hit stay free of all of them
    assert seen["added"]["import"] == []
    assert seen["added"]["report"] == []
    assert seen["added"]["hit"] == []
    # an uncached run loads numpy, which imports inspect, so the probe sees
    # start-up modules; the engines' records still load no dataclasses
    assert "inspect" in seen["added"]["no-cache"]
    assert "dataclasses" not in seen["added"]["no-cache"]
    return seen


def test_cache_hit_and_report_load_no_engine(tmp_path):
    seen = _import_probe(tmp_path, ["fermion", "duality"], DUALITY)
    # control: computing loads numpy and the lattice engine alone, so the
    # probe can fail; a duality run draws nothing at random and uses none
    # of numpy's set routines, which import numpy.ma
    assert seen["no-cache"] == [0, "numpy", "entropylab.lattice"]
    assert seen["numpy.random"] is False
    assert seen["numpy.ma"] is False
    # the lattice kernel draws no test matrix: its range comes from the
    # region's endpoints, so a run hashes nothing but the cache key
    assert not {"hashlib", "_hashlib", "_sha3"} & set(seen["added"]["no-cache"])


def test_findim_cache_hit_and_report_load_no_engine(tmp_path):
    seen = _import_probe(tmp_path, ["findim-suite"], FINDIM_SMALL)
    assert seen["no-cache"] == [0, "numpy", "entropylab.findim"]
    # its cases run in this process, without a process pool's imports
    assert not {"multiprocessing", "concurrent.futures"} & set(seen["added"]["no-cache"])


def test_siteless_config_exits_two_without_numpy(tmp_path):
    # an arc without sites is found when the config is parsed, not by the run
    config_path = tmp_path / "exp.ini"
    config_path.write_text("[experiment]\nkind = duality\n" + _SITELESS_GAP)
    script = (
        "import sys\nfrom entropylab.harness import cli\n"
        "print(cli.main(sys.argv[1:]), 'numpy' in sys.modules)\n"
    )
    done = _fresh_process(script, "fermion", "duality", "--config", str(config_path))
    assert done.stdout.split() == ["2", "False"]
    assert "holds no sites at N = 8" in done.stderr


# One small passing config per fermion runner; collapse, the only one that
# draws at random, runs last.
_FERMION_RUNS = {
    "duality": DUALITY,
    "cross-ratio-sweep": SWEEP,
    "c-fit": "[experiment]\nkind = c-fit\nsizes = 64 128\n",
    "shrink": _SHRINK3.format(512)
    + "schedule = 0.9 0.558 0.346 0.2145 0.133 0.0825 0.0511 0.0317 0.0197 0.0122\n",
    "two-d": _TWOD.format("0.30 1.45, 2.65 4.10").replace("16 32", "256 512 1024")
    + "c = 2.0\n",
    "collapse": "[experiment]\nkind = collapse\nsizes = 64 128\narcs = 0.30 1.45, 2.65 4.10\n"
    "family_size = 3\nseed = 7\n",
}

_FERMION_PROBE = """\
import json, sys
from entropylab.harness import cli

out, result_path, *runs = sys.argv[1:]
seen = []
for kind, ini in zip(runs[::2], runs[1::2]):
    code = cli.main(["fermion", kind, "--config", ini, "--out", out + "/" + kind, "--no-cache"])
    seen.append([kind, code, "numpy.ma" in sys.modules, "numpy.random" in sys.modules])
with open(result_path, "w") as fh:
    json.dump(seen, fh)
"""


def test_fermion_runs_never_load_numpy_ma(tmp_path):
    """All six fermion runners in one fresh process: numpy.ma, which numpy's
    set routines import on first use, never loads, and numpy.random loads
    only for collapse.  Each report names each of its cases once."""
    runs = []
    for kind, text in _FERMION_RUNS.items():
        path = tmp_path / f"{kind}.ini"
        path.write_text(text)
        runs += [kind, str(path)]
    result = tmp_path / "probe.json"
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(entropylab.__file__).parent.parent),
        PYTHONDONTWRITEBYTECODE="1",
    )
    subprocess.run(
        [sys.executable, "-c", _FERMION_PROBE, str(tmp_path / "out"), str(result), *runs],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    seen = json.loads(result.read_text())
    assert seen == [[kind, 0, False, kind == "collapse"] for kind in _FERMION_RUNS]
    for kind in _FERMION_RUNS:
        summary = json.loads((tmp_path / "out" / kind / "summary.json").read_text())
        ids = [case["case_id"] for case in summary["cases"]]
        assert ids and len(set(ids)) == len(ids), kind


def test_cli_findim_runs_without_config(tmp_path, capsys):
    config = default_config("findim-suite")
    fast = config._replace(instances=2)
    report = run_experiment(fast)
    assert report.passed
    assert {v.name for v in report.verdicts} == {
        "spatial-equals-trace-form",
        "expectation-difference-identity",
        "expectation-additivity-chain",
        "relative-entropy-identities",
        "group-fixed-point-index",
    }


def _findim_run(seed, instances=6):
    """A findim-suite report at ``instances``."""
    return run_experiment(
        default_config("findim-suite")._replace(instances=instances, seed=seed)
    )


def _overdrawn(make, rng_arg):
    """``make``, which then draws from each generator of its stack once more,
    for no record."""

    def made(*args, **kwargs):
        instance = make(*args, **kwargs)
        for rng in args[rng_arg]:
            rng.normal(size=3)
        return instance

    return made


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_findim_cases_draw_from_their_own_generators(seed, monkeypatch):
    """A case's record depends on the seed, its battery and its index alone:
    the araki and difference records of a 6-instance run are the first 6 of
    a 12-instance run whose cases each leave draws unused, which would move
    every later case of a shared generator."""
    from entropylab.harness import findim_runs

    short = _findim_run(seed)
    ids = [case.case_id for case in short.cases]
    assert len(set(ids)) == len(ids)
    # each battery's seconds and the run's; nothing else
    assert set(short.timings) == {
        "araki", "difference", "chain", "identities", "index", "total_seconds",
    }
    # the last draw of an araki case and the only one of a difference case
    for name, rng_arg in (("random_faithful_state", 1), ("random_difference_instance", 0)):
        monkeypatch.setattr(findim_runs, name, _overdrawn(getattr(findim_runs, name), rng_arg))
    long = _findim_run(seed, instances=12)
    for battery in ("araki-", "difference-"):
        first = [case for case in long.cases if case.case_id.startswith(battery)][:6]
        assert first == [case for case in short.cases if case.case_id.startswith(battery)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_findim_records_do_not_depend_on_the_stacks(seed):
    """The cases a 7-instance run shares with a 40-instance run have equal
    records, though each battery cuts them into other stacks."""
    short = {case.case_id: case for case in _findim_run(seed, instances=7).cases}
    long = {case.case_id: case for case in _findim_run(seed, instances=40).cases}
    shared = [case_id for case_id in long if case_id in short]
    assert len(shared) == 7 + 7 + 5 + 5 + 3
    assert [long[case_id] for case_id in shared] == [short[case_id] for case_id in shared]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_findim_records_do_not_depend_on_where_a_stack_is_cut(seed, monkeypatch):
    """With stacks of at most 2 a 7-instance run cuts the cases of one
    shape into several stacks (difference's side 2, the chain's), and every
    record is the one of the uncut run."""
    from entropylab.harness import findim_runs

    want = _findim_run(seed, instances=7).cases
    sizes = []
    make = findim_runs.random_difference_instance

    def difference_instance(rngs, **kwargs):
        sizes.append(len(rngs))
        return make(rngs, **kwargs)

    monkeypatch.setattr(findim_runs, "random_difference_instance", difference_instance)
    monkeypatch.setattr(findim_runs, "MAX_STACK", 2)
    assert _findim_run(seed, instances=7).cases == want
    # side 2's cases 0, 3 and 6 in two stacks; sides 3 and 4 two cases each
    assert sizes == [2, 1, 2, 2]


class _CountingGenerator:
    """A generator that records the shape of each standard-normal draw."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        return self.rng.standard_normal(shape)


def test_findim_difference_cases_draw_their_vector_once(monkeypatch):
    """Each difference case of a 7-instance run, alone or in a stack, makes
    six standard-normal draws from its own generator: its vector, then two
    Haar unitaries on a leg, each a real and an imaginary part."""
    from entropylab.harness import findim_runs

    counted = {}

    def generator(key):
        if key[1] != 2:
            return np.random.default_rng(key)
        counted[key[2]] = _CountingGenerator(np.random.default_rng(key))
        return counted[key[2]]

    monkeypatch.setattr(findim_runs, "default_rng", generator)
    assert _findim_run(0, instances=7).passed
    sides = {k: findim_runs.DIFFERENCE_SIDES[k % 3] for k in range(7)}
    assert {k: g.shapes for k, g in counted.items()} == {
        k: [(side * side,)] * 2 + [(side, side)] * 4 for k, side in sides.items()
    }


def test_findim_batteries_run_as_stacks(monkeypatch):
    """At 40 instances the batteries call eigh and qr a few times per block
    shape, not per case (507 and 142 calls one case at a time), and no
    stack holds more than MAX_STACK cases, at 400 instances either."""
    from entropylab.harness import findim_runs

    calls = {"eigh": 0, "qr": 0, "svd": 0}
    largest = []
    for name in calls:

        def counted(a, *args, _call=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            largest.append(int(np.prod(np.shape(a)[:-2])))
            return _call(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert _findim_run(0, instances=40).passed
    assert calls["eigh"] <= 100 and calls["qr"] <= 25
    assert max(largest) <= findim_runs.MAX_STACK
    largest.clear()
    assert _findim_run(0, instances=400).passed
    assert max(largest) == findim_runs.MAX_STACK


def test_findim_difference_and_chain_cases_bind_at_the_echoed_tolerance(monkeypatch):
    monkeypatch.setitem(KINDS, "findim-suite", KINDS["findim-suite"]._replace(tolerance=1e-7))
    report = _findim_run(0, instances=2)
    assert report.config_echo["tolerance"] == 1e-7
    bound = [c for c in report.cases if c.case_id.startswith(("difference-", "chain-"))]
    assert len(bound) == 2 + 5
    assert all(c.tolerance == 1e-7 and c.passed == (c.residual <= 1e-7) for c in bound)


def test_findim_case_that_raises_raises_from_run_experiment(monkeypatch):
    from entropylab.harness import findim_runs

    original = findim_runs.check_entropy_identity

    def check(which, rng):
        if which == 2:
            raise ValueError("identity 2 refused")
        return original(which, rng)

    monkeypatch.setattr(findim_runs, "check_entropy_identity", check)
    with pytest.raises(ValueError, match="^identity 2 refused$"):
        _findim_run(0)


@pytest.mark.parametrize(
    "path",
    sorted((_PERFBENCH / "configs").glob("*/*.ini")),
    ids=lambda p: f"{p.parent.name}/{p.stem}",
)
def test_benchmark_configs_echo_only_the_keys_their_kind_reads(path):
    config = parse_config(path)
    assert set(config.echo()) == {"kind", *KINDS[config.kind].keys, "tolerance"}
