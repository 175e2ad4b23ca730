#!/usr/bin/env python3
"""Benchmark of the entropylab command line tool, run cold from source.

Each workload is a fixed sequence of ``entropylab`` CLI calls, each made in
a fresh Python process with a fresh ``ENTROPYLAB_CACHE_DIR`` and ``--out``
directory inside ``.perfbench-work/``.  After one untimed warm-up pass,
passes over the sequence start until ``--seconds`` have gone by.  Every
call's artifacts are checked against ``perfbench/reference/`` (check.py);
a call that fails the check counts toward ``failed_ratio``.

End-to-end metrics (``--trace 0``), each a median over the run:
  wall_s       one pass, from spawning the first CLI process to the last exit
  peak_rss_mb  the largest ru_maxrss of a pass's CLI processes (os.wait4)
  setup_s      a fresh process that imports entropylab.harness and parses
               the workload's configs, then exits
``--trace 1`` adds one traced pass (tracer.py) and reports the per-layer
metrics instead.

    python3 perfbench/run.py                         # every workload
    python3 perfbench/run.py --workload lattice-large --seed 3 --seconds 20 --trace 1
    python3 -m pytest perfbench/tests                # the benchmark's own tests

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import check_invocation
from tracer import layer_metrics, layer_self_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Pinned so that runs on different machines compare like with like; the
# machine's own core count is recorded next to it.
BLAS_THREADS = "2"
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}
SETUP_SAMPLES = 3  # at the start of the window and after every pass
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_SNIPPET = (
    "import sys\n"
    "from entropylab.harness import parse_config\n"
    "for path in sys.argv[1:]:\n"
    "    parse_config(path)\n"
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``entropylab <args> --out <fresh dir>``."""

    config: str  # stem of the INI file, also the reference key
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool  # the benchmark seed becomes the CLI --seed
    prefilled: bool  # each call starts from a cache that already holds its result
    repeats: int = 1

    def configs(self) -> list[Path]:
        return sorted((BENCH / "configs" / self.name).glob("*.ini"))

    def base_calls(self, seed: int) -> list[Call]:
        calls = []
        for path in self.configs():
            kind = _config_kind(path)
            command = ("findim-suite",) if kind == "findim-suite" else ("fermion", kind)
            args = command + ("--config", str(path.relative_to(ROOT)))
            if self.seeded:
                args += ("--seed", str(seed))
            calls.append(Call(path.stem, args))
        return calls

    def calls(self, seed: int) -> list[Call]:
        """The pass sequence: every config ``repeats`` times, in a seeded order."""
        calls = self.base_calls(seed) * self.repeats
        if len(calls) > 1:
            random.Random(seed).shuffle(calls)
        return calls


def _config_kind(path: Path) -> str:
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == "kind":
            return value.strip()
    raise ValueError(f"{path} has no kind")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lattice-large",
            "dense N x N correlation builds and eigensolves up to N = 4096 "
            "dominate; the cache starts empty",
            seeded=False,
            prefilled=False,
        ),
        Workload(
            "findim-suite",
            "findim instance construction (group averages, structure "
            "rediscovery) dominates; the seed is the run's --seed",
            seeded=True,
            prefilled=False,
        ),
        Workload(
            "harness-replay",
            "21 cache hits over one config per experiment kind: only the "
            "harness read path and artifact writing",
            seeded=False,
            prefilled=True,
            repeats=3,
        ),
    )
}


# ---------------------------------------------------------------------------
# running CLI processes


def child_env(cache_dir: Path, pycache_dir: Path) -> dict:
    """Environment of a CLI process: pinned BLAS threads, sources from src/.

    Bytecode is cached under ``pycache_dir``, as an installed package's
    would be, whatever the caller's PYTHONDONTWRITEBYTECODE says; src/
    itself is never written.
    """
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache_dir)
    env["ENTROPYLAB_CACHE_DIR"] = str(cache_dir)
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Run a process to completion: (exit code, wall seconds, ru_maxrss in MB)."""
    with log.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_argv(call: Call, out_dir: Path) -> list[str]:
    return [sys.executable, "-m", "entropylab.harness.cli", *call.args, "--out", str(out_dir)]


@dataclass
class Invocation:
    call: Call
    cache_dir: Path
    out_dir: Path
    log: Path
    code: int = -1
    wall_s: float = 0.0
    rss_mb: float = 0.0


@dataclass
class PassResult:
    wall_s: float
    peak_rss_mb: float
    invocations: list[Invocation]
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    referenced: int = 0
    byte_identical: int = 0


class Bench:
    """Work directory, references and counters for one workload run."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = json.loads(
            (BENCH / "reference" / f"{workload.name}.json").read_text(encoding="utf-8")
        )
        self.prefill_dir = work / "prefill-cache"
        self.pycache_dir = work / "pycache"
        self._counter = 0

    def env(self, cache_dir: Path) -> dict:
        return child_env(cache_dir, self.pycache_dir)

    def _fresh(self, label: str) -> Path:
        self._counter += 1
        path = self.work / f"{self._counter:05d}-{label}"
        path.mkdir()
        return path

    def prepare(self, call: Call) -> Invocation:
        base = self._fresh(call.config)
        cache_dir = base / "cache"
        if self.workload.prefilled:
            shutil.copytree(self.prefill_dir, cache_dir)
        else:
            cache_dir.mkdir()
        return Invocation(call, cache_dir, base / "out", base / "stderr.log")

    def prefill(self) -> None:
        """Fill the shared cache that prefilled workloads start from."""
        self.prefill_dir.mkdir()
        for call in self.workload.base_calls(self.seed):
            out = self._fresh("prefill")
            code, _, _ = spawn(
                cli_argv(call, out / "out"), self.env(self.prefill_dir), out / "stderr.log"
            )
            if code != 0:
                raise RuntimeError(f"prefill of {call.config} exited {code}")

    def check(self, inv: Invocation, result: PassResult) -> None:
        verdict = check_invocation(inv.code, inv.out_dir, self.reference[inv.call.config])
        if not verdict.ok:
            result.failed += 1
            stderr = inv.log.read_text(encoding="utf-8", errors="replace").strip()
            detail = "; ".join(verdict.problems[:3])
            result.problems.append(f"{inv.call.config}: {detail} {stderr[-300:]}".strip())
        result.referenced += verdict.referenced
        result.byte_identical += bool(verdict.byte_identical)

    def run_pass(self) -> PassResult:
        invocations = [self.prepare(c) for c in self.workload.calls(self.seed)]
        start = time.perf_counter()
        for inv in invocations:
            inv.code, inv.wall_s, inv.rss_mb = spawn(
                cli_argv(inv.call, inv.out_dir), self.env(inv.cache_dir), inv.log
            )
        wall = time.perf_counter() - start
        result = PassResult(wall, max(i.rss_mb for i in invocations), invocations)
        self.finish(result)
        return result

    def run_traced_pass(self) -> tuple[PassResult, list[list[dict]], float]:
        """One pass with every call traced in its own process."""
        invocations = [self.prepare(c) for c in self.workload.calls(self.seed)]
        span_lists, warmup = [], 0.0
        wall = 0.0
        for k, inv in enumerate(invocations):
            spans_path = inv.out_dir.parent / "spans.json"
            argv = [
                sys.executable, str(BENCH / "tracer.py"),
                "--spans", str(spans_path),
                "--run-id", f"{self.workload.name}-{self.seed}-{k}",
                "--", *cli_argv(inv.call, inv.out_dir)[3:],
            ]
            inv.code, inv.wall_s, inv.rss_mb = spawn(argv, self.env(inv.cache_dir), inv.log)
            if spans_path.is_file():
                payload = json.loads(spans_path.read_text(encoding="utf-8"))
                span_lists.append(payload["spans"])
                warmup += payload["warmup_s"]
                spans_path.unlink()
            wall += inv.wall_s
        result = PassResult(wall - warmup, max(i.rss_mb for i in invocations), invocations)
        self.finish(result)
        return result, span_lists, warmup

    def finish(self, result: PassResult) -> None:
        for inv in result.invocations:
            self.check(inv, result)
            shutil.rmtree(inv.out_dir.parent)

    def setup_samples(self, count: int, discard_first: bool = False) -> list[float]:
        """Wall times of fresh processes that import the harness and parse every config.

        With ``discard_first`` one extra, untimed process runs first, in
        case the bytecode cache is still cold.
        """
        configs = [str(p.relative_to(ROOT)) for p in self.workload.configs()]
        argv = [sys.executable, "-c", SETUP_SNIPPET, *configs]
        env = self.env(self.work / "unused-cache")
        log = self.work / "setup.log"
        samples = []
        for _ in range(count + discard_first):
            code, wall, _ = spawn(argv, env, log)
            if code != 0:
                raise RuntimeError(f"set-up process exited {code}: {log.read_text()[-300:]}")
            samples.append(wall)
        return samples[discard_first:]


# ---------------------------------------------------------------------------
# reporting


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest usual percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            rank = max(1, -(-p * n // 100))
            return p, ordered[int(rank) - 1]
    return None


def describe(name: str, unit: str, samples: list[float]) -> str:
    line = f"{name:<12} {statistics.median(samples):.6g} {unit}  (median of {len(samples)}"
    tail = tail_percentile(samples)
    if tail is None:
        line += "; no percentile has ten samples beyond it)"
    else:
        line += f"; p{tail[0]:g} {tail[1]:.6g} {unit})"
    return line


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"
    return out.stdout.strip()


def tree_state() -> list[str]:
    """``git status --porcelain`` of the checkout, or a file listing outside git."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.splitlines()
    skip = {WORK.name, ".bench_build", "__pycache__"}
    listing = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            path = Path(dirpath) / name
            listing.append(f"{path.relative_to(ROOT)} {path.stat().st_size}")
    return listing


def environment() -> dict:
    probe = subprocess.run(
        [
            sys.executable, "-B", "-c",
            "import json, numpy\n"
            "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "print(json.dumps([numpy.__version__, blas.get('name'), blas.get('version')]))",
        ],
        env={**os.environ, **BLAS_ENV}, capture_output=True, text=True, check=True,
    )
    numpy_version, blas_name, blas_version = json.loads(probe.stdout)
    return {
        **BLAS_ENV,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas_name} {blas_version}",
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        bench = Bench(workload, seed, work)
        if workload.prefilled:
            bench.prefill()
        # The first pass after a pause runs slower (on a 2-core VM, 12.4 s
        # against 9.7 s for lattice-large); it is checked but not timed.
        warmup = bench.run_pass()

        # Set-up samples are spread over the window, a few after each pass,
        # so that one slow stretch of the machine does not set the median.
        setup = bench.setup_samples(SETUP_SAMPLES, discard_first=True)
        passes: list[PassResult] = []
        window_start = time.perf_counter()
        while not passes or time.perf_counter() - window_start < seconds:
            passes.append(bench.run_pass())
            setup += bench.setup_samples(SETUP_SAMPLES)
        traced = bench.run_traced_pass() if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    all_passes = [warmup, *passes] + ([traced[0]] if traced else [])
    attempted = sum(len(p.invocations) for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    walls = [p.wall_s for p in passes]
    rss = [p.peak_rss_mb for p in passes]
    print(f"== {workload.name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print(f"   why: {workload.why}")
    print("   " + describe("wall_s", "s", walls))
    print("   " + describe("peak_rss_mb", "MB", rss))
    print("   " + describe("setup_s", "s", setup))
    print("   wall_s samples: " + " ".join(f"{w:.4f}" for w in walls))
    print("   " + describe("call_s", "s", [i.wall_s for p in passes for i in p.invocations]))
    print(f"   failed_ratio {failed / attempted:.6g} fraction  ({failed} of {attempted} calls)")
    referenced = sum(p.referenced for p in all_passes)
    identical = sum(p.byte_identical for p in all_passes)
    print(f"   reference: {referenced} calls compared, {identical} byte-identical summary.json")
    for p in all_passes:
        for problem in p.problems:
            print(f"   FAILED {problem}")

    if not trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    else:
        result, span_lists, blas_warmup = traced
        metrics = {
            name: (float(value), _unit(name))
            for name, value in layer_metrics(span_lists).items()
        }
        metrics["trace.overhead_s"] = (result.wall_s - statistics.median(walls), "s")
        metrics["trace.blas_warmup_s"] = (blas_warmup, "s")
        totals = layer_self_totals(span_lists)
        run_total = metrics["harness.runner.run_experiment.total_s"][0]
        print(
            "   traced self time: "
            + ", ".join(f"{layer} {value:.4f} s" for layer, value in totals.items())
            + f"; run_experiment {run_total:.4f} s"
        )
        for name, (value, unit) in metrics.items():
            print(f"   {name:<58} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _unit(name: str) -> str:
    if "bytes" in name:
        return "B"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_share")):
        return "fraction"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entropylab" / "harness" / "cli.py").is_file():
        print(f"perfbench: no entropylab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    before = tree_state()
    print("env " + json.dumps(environment(), sort_keys=True))
    results = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    after = tree_state()
    clean = before == after
    if not clean:
        print("FAILED the benchmark changed the checkout:", sorted(set(after) ^ set(before)))

    if len(results) == 1:
        final = dict(next(iter(results.values())))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    final["correct"] = final["correct"] and clean
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
