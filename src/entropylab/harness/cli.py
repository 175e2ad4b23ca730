"""Command line front end.

Exit codes: 0 all invariants passed, 1 an invariant failed (failing
case ids go to stderr), 2 configuration problem, 3 I/O problem (also a
``summary.json`` that cannot be read back as a report).

The engines are imported only when a run has to compute, so a cache hit
or ``report`` starts without numpy; the harness itself loads neither
``dataclasses`` nor ``inspect``.  Both are start-up cost, and a cache hit
is little more than start-up.

``run`` is the process entry point.  It freezes the garbage collector's
tracked objects before exiting, so the interpreter's teardown collections
do not walk the engines' and numpy's objects once more; atexit handlers and
the flushes of the standard streams still run.  ``main`` has no such side
effect and can be called in-process.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

from .cache import cache_lookup, cache_store
from .config import KINDS, ConfigError, default_config, parse_config, validate_config
from .report import RunReport, config_hash
from .reporting import format_report, load_report, write_report

__all__ = ["main", "run", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropylab",
        description="Run relative-entropy property suites and lattice experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def run_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", type=Path, help="experiment config file")
        sub.add_argument("--out", type=Path, help="directory for report artifacts")
        sub.add_argument(
            "--no-cache", action="store_true", help="recompute even if cached"
        )
        sub.add_argument("--seed", type=int, help="override the config seed")

    groups: dict = {}
    for kind, spec in KINDS.items():
        groups.setdefault(spec.command, []).append(kind)
    for (name, text), kinds in groups.items():
        sub = commands.add_parser(name, help=text)
        if kinds != [name]:
            sub.add_argument("kind", choices=kinds, help="experiment kind")
        run_flags(sub)

    report = commands.add_parser(
        "report", help="render a stored summary.json as text"
    )
    report.add_argument("summary", type=Path, help="path to a summary.json")
    return parser


def _resolve_config(args: argparse.Namespace, kind: str):
    if args.config is not None:
        config = parse_config(args.config, kind=kind)
    else:
        config = default_config(kind)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = str(args.out)
    if args.no_cache:
        overrides["cache_enabled"] = False
    if overrides:
        config = config._replace(**overrides)
        validate_config(config, overrides)
    return config


def _finish(report: RunReport) -> int:
    print(format_report(report))
    if report.passed:
        return 0
    failing = report.failing_case_ids()
    print("failing cases: " + " ".join(failing), file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            try:
                report = load_report(args.summary)
            except (ValueError, KeyError, TypeError) as exc:
                raise OSError(
                    f"{args.summary} is not a run summary: {type(exc).__name__}: {exc}"
                ) from None
            return _finish(report)

        kind = getattr(args, "kind", args.command)
        config = _resolve_config(args, kind)

        key = config_hash(config)
        report = cache_lookup(config) if config.cache_enabled else None
        if report is not None:
            cache = "hit"
        else:
            from .runner import run_experiment

            cache = "miss" if config.cache_enabled else "off"
            report = run_experiment(config)
            if config.cache_enabled:
                cache_store(report, key)

        if config.out_dir:
            # The cache keeps compute timings only; this call's own status,
            # wall time and build provenance go to the sidecar alone.
            timings = {
                **report.timings,
                "cache": cache,
                "config_hash": key,
                "run_seconds": time.perf_counter() - start,
            }
            write_report(report._replace(timings=timings), Path(config.out_dir))
        return _finish(report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Exit the process with ``main()``'s code, skipping the teardown collections."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
