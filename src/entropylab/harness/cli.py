"""Command line front end.

    entropylab {findim-suite | fermion KIND} [--config PATH] [--out DIR] [--no-cache] [--seed N]
    entropylab report SUMMARY

The commands and kinds are read from ``KINDS``.  Options come in any
order, as ``--flag value`` or ``--flag=value``, and a value is never
empty; ``-h``/``--help`` prints the usage to stdout.  The run options are
the command line's alone: ``--out`` names the directory a run writes its
artifacts to (none without it) and ``--no-cache`` skips the cache; the
config file holds only the experiment.

Exit codes: 0 all invariants passed (or help printed), 1 an invariant
failed (failing case ids go to stderr), 2 a usage error (after the usage
line) or a configuration problem, 3 I/O problem (also a ``summary.json``
that cannot be read back as a report).  The cache changes no exit code: an
unreadable entry is a miss, and a result that cannot be stored is reported
on stderr as ``cache not written``.

A cache hit is little more than start-up, so a CLI call loads nothing it
does not use: the engines and numpy only when a run computes, no
``dataclasses`` or ``inspect``, and no argparse, whose import and first
parse (gettext lookups, a ``locale`` import, regex compiles) cost more
than anything else a cache hit does.  Nor does it load ``configparser``,
``csv`` or ``hashlib`` (and with it OpenSSL): the config reader and the
``cases.csv`` writer are the harness's own, and sha256 comes from the
interpreter's built-in module.

``run`` is the process entry point.  It freezes the garbage collector's
tracked objects before exiting, so the interpreter's teardown collections
do not walk the engines' and numpy's objects once more; atexit handlers and
the flushes of the standard streams still run.  ``main`` has no such side
effect and can be called in-process; it returns a usage error's 2 rather
than raising ``SystemExit``.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

from .. import __version__
from .cache import cache_lookup, cache_store
from .config import KINDS, ConfigError, default_config, parse_config, validate_config
from .report import RunReport, config_hash, numpy_build
from .reporting import format_report, load_report, write_report

__all__ = ["main", "run"]

# The options of a run command, each with the name of its value (None for a switch).
_OPTIONS = {"--config": "PATH", "--out": "DIR", "--no-cache": None, "--seed": "N"}


class _Usage(Exception):
    """A command line outside the grammar."""


def _commands() -> dict:
    """Each run command -> (help, the kinds it takes as its argument); a
    command named after its only kind takes none."""
    commands: dict = {}
    for kind, spec in KINDS.items():
        name, text = spec.command
        kinds = commands.setdefault(name, (text, []))[1]
        if kind != name:
            kinds.append(kind)
    return commands


def _usage(commands: dict) -> str:
    runs = " | ".join(f"{name} KIND" if kinds else name for name, (_, kinds) in commands.items())
    flags = " ".join(f"[{flag} {meta}]" if meta else f"[{flag}]" for flag, meta in _OPTIONS.items())
    return f"usage: entropylab {{{runs}}} {flags}\n       entropylab report SUMMARY"


def _help(commands: dict) -> str:
    lines = [_usage(commands), ""]
    for name, (text, kinds) in commands.items():
        lines.append(f"  {name:<14}{text}")
        if kinds:
            lines.append(f"  {'':<14}KIND: {', '.join(kinds)}")
    lines.append(f"  {'report':<14}render a stored summary.json as text")
    return "\n".join(lines)


def _parse(argv: list[str], commands: dict) -> tuple[str, str, dict] | None:
    """``(command, kind or SUMMARY, {flag: value})``, or None for ``--help``.

    Raises _Usage for anything outside the grammar.  A flag's value is the
    next word unless that is another flag; a negative number is a value,
    an empty word or ``--flag=`` none.
    """
    words, options = [], {}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if token[:1] != "-" or token == "-":
            words.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in _OPTIONS:
            raise _Usage(f"unknown option '{flag}'")
        meta = _OPTIONS[flag]
        if meta is None and eq:
            raise _Usage(f"{flag} takes no value")
        if meta is not None and not eq:
            value = next(tokens, "")
            if value[:1] == "-" and not value[1:2].isdigit():
                value = ""
        if meta is not None and not value:
            raise _Usage(f"{flag} needs a value {meta}")
        options[flag] = value

    names = ", ".join([*commands, "report"])
    if not words:
        raise _Usage(f"missing command (one of {names})")
    command, *rest = words
    if command == "report":
        if len(rest) != 1 or options:
            raise _Usage("report takes one SUMMARY and no options")
        return command, rest[0], options
    if command not in commands:
        raise _Usage(f"unknown command '{command}' (one of {names})")
    kinds = commands[command][1]
    kind = rest.pop(0) if kinds and rest else command
    if kinds and kind not in kinds:
        raise _Usage(f"'{command}' needs a KIND, one of {', '.join(kinds)}")
    if rest:
        raise _Usage(f"unexpected argument '{rest[0]}'")
    if "--seed" in options:
        try:
            options["--seed"] = int(options["--seed"])
        except ValueError:
            raise _Usage(f"--seed needs an integer, got '{options['--seed']}'") from None
    return command, kind, options


def _resolve_config(kind: str, options: dict):
    if "--config" in options:
        config = parse_config(options["--config"], kind=kind)
    else:
        config = default_config(kind)
    if "--seed" in options:
        # Only the seed changes what a run computes, so only it is checked again.
        config = config._replace(seed=options["--seed"])
        validate_config(config, ["seed"])
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
    commands = _commands()
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv, commands)
    except _Usage as exc:
        print(f"{_usage(commands)}\nentropylab: error: {exc}", file=sys.stderr)
        return 2
    if parsed is None:
        print(_help(commands))
        return 0
    command, target, options = parsed
    try:
        if command == "report":
            summary = Path(target)
            try:
                report = load_report(summary)
            except (ValueError, KeyError, TypeError) as exc:
                raise OSError(
                    f"{summary} is not a run summary: {type(exc).__name__}: {exc}"
                ) from None
            return _finish(report)

        config = _resolve_config(target, options)

        key = config_hash(config)
        use_cache = "--no-cache" not in options
        report = cache_lookup(key) if use_cache else None
        if report is not None:
            cache = "hit"
        else:
            from .runner import run_experiment

            cache = "miss" if use_cache else "off"
            report = run_experiment(config)
            if use_cache:
                try:
                    cache_store(report, key)
                except OSError as exc:
                    print(f"cache not written: {exc}", file=sys.stderr)

        if "--out" in options:
            # The cache keeps compute timings only; this call's own status,
            # wall time and build provenance go to the sidecar alone.
            timings = {
                **report.timings,
                "cache": cache,
                "config_hash": key,
                "engine_version": __version__,
                "numpy_build": numpy_build(),
                "run_seconds": time.perf_counter() - start,
            }
            write_report(report._replace(timings=timings), options["--out"])
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
