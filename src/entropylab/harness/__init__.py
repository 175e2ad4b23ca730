"""Config-driven experiment runner, report emitter, and result cache.

Importing the package, parsing a config, reading the cache or
re-rendering a report never loads numpy or the engines:
``run_experiment`` imports the runner of a config's kind, and through it
its engine, only when it runs one.  The config and report types are named
tuples, so those steps load neither ``dataclasses`` nor ``inspect``
either, and ``cli`` parses its command line from ``KINDS`` without
``argparse`` (nor its ``gettext`` and ``locale``).  The config file, the
CSV table and the cache key's sha256 need no ``configparser``, ``csv`` or
``hashlib``: every one of these modules is start-up cost of a CLI call.
"""

from .cache import cache_dir, cache_lookup, cache_store
from .config import (
    ConfigError,
    ExperimentConfig,
    default_config,
    parse_config,
)
from .report import CaseRecord, RunReport, Verdict, config_hash
from .reporting import format_report, load_report, summary_json, write_report
from .runner import run_experiment

__all__ = [
    "CaseRecord",
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "Verdict",
    "cache_dir",
    "cache_lookup",
    "cache_store",
    "config_hash",
    "default_config",
    "format_report",
    "load_report",
    "parse_config",
    "run_experiment",
    "summary_json",
    "write_report",
]

