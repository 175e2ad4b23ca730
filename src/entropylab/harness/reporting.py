"""Artifact emission for runs.

Three kinds of output land in the chosen directory:

* ``summary.json``: the full report (config echo, every case record,
  verdicts, residual maxima).  Serialized with sorted keys so the bytes
  are stable for a fixed config and computed values, across engine edits
  that leave the values alone, and parseable back into a
  :class:`~entropylab.harness.report.RunReport` for regression diffing.
* ``cases.csv``: the sweep table, one row per case, RFC-4180 style.
* ``*.dat``: plain two-column plot data, one file per curve, with the
  seed recorded in a comment header.

Wall-clock timings vary run to run, so they are quarantined in a
``timings.json`` sidecar and never enter the byte-stable artifacts.  The
command line adds whether the call hit the cache, its own wall time, and
the ``config_hash`` of the config and engine sources that keyed the run.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .report import RunReport

__all__ = [
    "summary_json",
    "load_report",
    "write_report",
    "format_report",
]

_DUALITY_COLUMNS = ("N", "S_I", "S_Icomp", "eta", "D")


def summary_json(report: RunReport) -> str:
    payload = report.to_dict()
    payload["residual_max"] = max(
        (c.residual for c in report.cases if c.residual is not None), default=0.0
    )
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_report(path: str | Path) -> RunReport:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return RunReport.from_dict(payload)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _case_table(report: RunReport) -> tuple[list[str], list[list[str]]]:
    if report.kind == "duality":
        rows = []
        for case in report.cases:
            if "S_I" not in case.values:
                continue
            rows.append(
                [
                    _cell(case.inputs["N"]),
                    _cell(case.values["S_I"]),
                    _cell(case.values["S_Icomp"]),
                    _cell(case.values["eta"]),
                    _cell(case.values["D"]),
                ]
            )
        return list(_DUALITY_COLUMNS), rows

    value_keys = sorted({k for case in report.cases for k in case.values})
    header = ["case_id", "passed", "residual", "tolerance", *value_keys]
    rows = []
    for case in report.cases:
        rows.append(
            [
                case.case_id,
                _cell(case.passed),
                _cell(case.residual),
                _cell(case.tolerance),
                *[_cell(case.values.get(k)) for k in value_keys],
            ]
        )
    return header, rows


def _dat_header(report: RunReport, columns: str) -> list[str]:
    return [
        f"# kind={report.kind} seed={report.seed} engine={report.engine_version}",
        f"# columns: {columns}",
    ]


def _curves(report: RunReport) -> dict[str, tuple[str, list[tuple[float, float]]]]:
    """Map file stem -> (column label line, points)."""
    kind = report.kind
    curves: dict[str, tuple[str, list[tuple[float, float]]]] = {}
    if kind == "duality":
        pts = [
            (c.inputs["N"], c.values["D"])
            for c in report.cases
            if "S_I" in c.values
        ]
        curves["deficit_vs_N"] = ("N D", pts)
    elif kind == "cross-ratio-sweep":
        by_size: dict[int, list[tuple[float, float]]] = {}
        for c in report.cases:
            by_size.setdefault(c.inputs["N"], []).append(
                (c.values["eta"], c.values["S_product"])
            )
        for n, pts in by_size.items():
            curves[f"sweep_N{n}"] = ("eta S_product", pts)
    elif kind == "c-fit":
        pts = [(c.inputs["N"], c.values["c_hat"]) for c in report.cases]
        curves["chat_vs_N"] = ("N c_hat", pts)
    elif kind == "shrink":
        by_size = {}
        for c in report.cases:
            by_size.setdefault(c.inputs["N"], []).append(
                (c.inputs["length"], c.values["gap"])
            )
        for n, pts in by_size.items():
            curves[f"shrink_gap_N{n}"] = ("length gap", pts)
    elif kind == "collapse":
        pts = [(c.inputs["N"], c.values["spread"]) for c in report.cases]
        curves["collapse_spread_vs_N"] = ("N spread", pts)
    elif kind == "two-d":
        pts = [
            (c.inputs["N"], c.values["D_2d"])
            for c in report.cases
            if "D_2d" in c.values and "N" in c.inputs
        ]
        curves["deficit2d_vs_N"] = ("N D_2d", pts)
    return curves


def write_report(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Emit summary.json, cases.csv, plot data, and the timing sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    summary_path = out / "summary.json"
    summary_path.write_text(summary_json(report), encoding="utf-8")
    written.append(summary_path)

    header, rows = _case_table(report)
    csv_path = out / "cases.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    written.append(csv_path)

    for stem, (columns, points) in _curves(report).items():
        lines = _dat_header(report, columns)
        for x, y in points:
            lines.append(f"{_cell(x)} {_cell(y)}")
        dat_path = out / f"{stem}.dat"
        dat_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(dat_path)

    timing_path = out / "timings.json"
    timing_path.write_text(
        json.dumps(report.timings, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    written.append(timing_path)
    return written


def format_report(report: RunReport) -> str:
    lines = [
        f"{report.kind}  seed={report.seed}  engine={report.engine_version}",
        f"cases {len(report.cases)}"
        + ("  (vacuous)" if report.pass_vacuous else ""),
    ]
    for verdict in report.verdicts:
        flag = "PASS" if verdict.passed else "FAIL"
        lines.append(f"  [{flag}] {verdict.name}: {verdict.detail}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)
