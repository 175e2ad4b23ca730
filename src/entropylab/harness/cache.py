"""Result cache keyed by effective config and engine sources.

Entries live under ``$ENTROPYLAB_CACHE_DIR`` (default
``~/.cache/entropylab``) as one JSON file per config hash.  The hash
covers the fully resolved config (file values plus CLI overrides) and a
sha256 of every ``entropylab/**/*.py`` source file, so an edited engine
(with or without a version bump) or a changed tolerance can never serve
stale numbers.  Writes go through a temp file and an atomic rename;
anything unreadable is evicted and treated as a miss.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .report import RunReport

__all__ = ["cache_dir", "cache_lookup", "cache_store"]


def cache_dir() -> Path:
    override = os.environ.get("ENTROPYLAB_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "entropylab"


def _entry_path(key: str) -> Path:
    return cache_dir() / f"{key}.json"


def cache_lookup(key: str) -> RunReport | None:
    """The report stored under ``key``, a config hash, or None."""
    path = _entry_path(key)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        report = RunReport.from_dict(payload["report"])._replace(
            timings=dict(payload["timings"])
        )
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
        path.unlink(missing_ok=True)
        return None
    return report


def cache_store(report: RunReport, key: str) -> Path:
    """Store the report and its compute timings under ``key``, a config hash."""
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    payload = {"report": report.to_dict(), "timings": report.timings}
    handle, tmp_name = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True))
        target = _entry_path(key)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target
