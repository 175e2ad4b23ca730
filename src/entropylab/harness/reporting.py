"""Artifact emission for runs.

Three kinds of output land in the chosen directory:

* ``summary.json``: the full report (seed, config echo, every case
  record, verdicts, and whether they all passed).  Serialized with sorted
  keys so the bytes are stable for a fixed config and computed values,
  across engine edits and version bumps that leave the values alone, and
  parseable back into a :class:`~entropylab.harness.report.RunReport` for
  regression diffing.
* ``cases.csv``: the sweep table, one row per case, RFC-4180 style:
  ``csv.writer``'s excel dialect, written by ``_csv_row`` without
  importing ``csv``, which would add to the start-up of every CLI call.
* ``*.dat``: plain two-column plot data, one file per curve, with the
  kind and seed recorded in a comment header.

Wall-clock timings vary run to run, so they are quarantined in a
``timings.json`` sidecar and never enter the byte-stable artifacts.  The
command line adds whether the call hit the cache, its own wall time, and
the build provenance: the ``engine_version``, the ``numpy_build`` and the
``config_hash`` of the config and engine sources that keyed the run.
"""

from __future__ import annotations

import json
from pathlib import Path

from .config import KINDS
from .report import RunReport

__all__ = [
    "summary_json",
    "load_report",
    "write_report",
    "format_report",
]

_DUALITY_COLUMNS = ("N", "S_I", "S_Icomp", "eta", "D")


def summary_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


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


def _csv_row(cells: list[str]) -> str:
    """One CSV line as ``csv.writer`` writes it: a cell holding a comma, a
    quote or a line break is quoted, its quotes doubled; a row of one empty
    cell is ``""``, so that it reads back as a row."""
    if cells == [""]:
        return '""\r\n'
    quoted = [
        '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\r\n') else cell
        for cell in cells
    ]
    return ",".join(quoted) + "\r\n"


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
        f"# kind={report.kind} seed={report.seed}",
        f"# columns: {columns}",
    ]


def _curves(report: RunReport) -> dict[str, tuple[str, list[tuple[float, float]]]]:
    """Map file stem -> (column label line, points), as the kind's ``Curve`` declares."""
    curve = KINDS[report.kind].curve if report.kind in KINDS else None
    if curve is None:
        return {}
    label = f"{curve.x} {curve.y}"
    curves = {} if curve.per_size else {curve.stem: (label, [])}
    for case in report.cases:
        if curve.y not in case.values:
            continue
        fields = {**case.inputs, **case.values}
        stem = f"{curve.stem}_N{case.inputs['N']}" if curve.per_size else curve.stem
        curves.setdefault(stem, (label, []))[1].append((fields[curve.x], fields[curve.y]))
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
    table = "".join(_csv_row(row) for row in [header, *rows])
    csv_path.write_text(table, encoding="utf-8", newline="")
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
        f"{report.kind}  seed={report.seed}",
        f"cases {len(report.cases)}",
    ]
    for verdict in report.verdicts:
        flag = "PASS" if verdict.passed else "FAIL"
        lines.append(f"  [{flag}] {verdict.name}: {verdict.detail}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)
