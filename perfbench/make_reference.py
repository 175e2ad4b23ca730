#!/usr/bin/env python3
"""Regenerate ``perfbench/reference/<workload>.json`` from the current sources.

    python3 perfbench/make_reference.py

Each config runs once through the CLI with an empty cache.  Seeded
workloads are recorded at the default seed 0; the others at the config's
own seed.  Regenerate only when a change to the expected output is intended,
and explain the diff where the change is recorded.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, WORK, WORKLOADS, child_env, cli_argv, spawn


def record(call, work: Path) -> tuple[dict, bytes, list[str]]:
    cache, out = work / "cache", work / "out"
    if work.exists():
        shutil.rmtree(work)
    cache.mkdir(parents=True)
    env = child_env(cache, work.parent / "pycache")
    code, _, _ = spawn(cli_argv(call, out), env, work / "stderr.log")
    if code != 0:
        raise RuntimeError(f"{call.args} exited {code}")
    raw = (out / "summary.json").read_bytes()
    return json.loads(raw), raw, sorted(p.name for p in out.iterdir())


def main() -> int:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK))
    try:
        for workload in WORKLOADS.values():
            reference = {}
            for call in workload.base_calls(0):
                summary, raw, artifacts = record(call, work / "call")
                seed_entry = {
                    "summary_sha256": hashlib.sha256(raw).hexdigest(),
                    "cases": summary["cases"],
                }
                reference[call.config] = {
                    "artifacts": artifacts,
                    "tolerance": summary["config"]["tolerance"],
                    "seeds": {str(summary["seed"]): seed_entry},
                }
            path = BENCH / "reference" / f"{workload.name}.json"
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(BENCH.parent)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
