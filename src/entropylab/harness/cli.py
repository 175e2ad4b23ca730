"""Command line front end.

Exit codes: 0 all invariants passed, 1 an invariant failed (failing
case ids go to stderr), 2 configuration problem, 3 I/O problem (also a
``summary.json`` that cannot be read back as a report).

The engines are imported only when a run has to compute, so a cache hit
or ``report`` starts without numpy; the harness itself loads neither
``dataclasses`` nor ``inspect``.  Both are start-up cost, and a cache hit
is little more than start-up.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .cache import cache_lookup, cache_store
from .config import (
    EXPERIMENT_KINDS,
    ConfigError,
    default_config,
    parse_config,
    validate_config,
)
from .report import RunReport, config_hash
from .reporting import format_report, load_report, write_report

__all__ = ["main", "build_parser"]

FERMION_KINDS = tuple(k for k in EXPERIMENT_KINDS if k != "findim-suite")


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

    findim = commands.add_parser(
        "findim-suite", help="finite-dimensional identity and index battery"
    )
    run_flags(findim)

    fermion = commands.add_parser(
        "fermion", help="free-fermion chain experiments"
    )
    fermion.add_argument("kind", choices=FERMION_KINDS, help="experiment kind")
    run_flags(fermion)

    report = commands.add_parser(
        "report", help="render a stored summary.json as text"
    )
    report.add_argument("summary", type=Path, help="path to a summary.json")
    return parser


def _resolve_config(args: argparse.Namespace, kind: str):
    if args.config is not None:
        config = parse_config(args.config, kind=kind)
    elif kind == "findim-suite":
        config = default_config(kind, seed=args.seed if args.seed is not None else 0)
    else:
        raise ConfigError(f"experiment '{kind}' requires --config")
    overrides = {}
    if args.seed is not None and args.seed != config.seed:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = str(args.out)
    if args.no_cache:
        overrides["cache_enabled"] = False
    if overrides:
        config = config._replace(**overrides)
        validate_config(config)
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

        kind = args.kind if args.command == "fermion" else "findim-suite"
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


if __name__ == "__main__":
    sys.exit(main())
