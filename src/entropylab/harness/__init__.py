"""Config-driven experiment runner, report emitter, and result cache.

``run_experiment`` is imported on first access, so that importing the
package, parsing a config, reading the cache or re-rendering a report
never loads numpy or the engines.  The config and report types are named
tuples, so those steps load neither ``dataclasses`` nor ``inspect``
either: every one of them is start-up cost of a CLI call.
"""

from .cache import cache_dir, cache_lookup, cache_store
from .config import (
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentConfig,
    default_config,
    parse_config,
)
from .report import CaseRecord, RunReport, Verdict, config_hash
from .reporting import format_report, load_report, summary_json, write_report

__all__ = [
    "EXPERIMENT_KINDS",
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


def __getattr__(name: str):
    if name == "run_experiment":
        from .runner import run_experiment

        return run_experiment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
