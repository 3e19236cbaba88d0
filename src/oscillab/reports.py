"""Deterministic report serialization: canonical JSON, CSV tables, markdown.

Every sample, config and result reaches JSON or CSV through this module.
Two runs with the same inputs must produce byte-identical files, so every
writer here sorts keys, fixes float formatting, and never embeds timestamps.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Mapping, Sequence

from .quad import OscillatorySample

__all__ = [
    "format_float",
    "canonical_json",
    "sample_row",
    "sample_rows_to_csv",
    "samples_to_csv",
    "samples_from_csv",
    "rows_to_csv",
    "markdown_summary",
    "export_report",
]

SAMPLE_COLUMNS = ("tau", "re", "im", "abs", "err")
CSV_HEADER = ",".join(SAMPLE_COLUMNS)


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip an IEEE double exactly."""
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Sorted-key JSON with a trailing newline; floats round-trip exactly."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def sample_row(s: OscillatorySample) -> dict:
    """The report row of one sample: {tau, re, im, abs, err, converged}."""
    return {
        "tau": s.tau,
        "re": s.value.real,
        "im": s.value.imag,
        "abs": abs(s.value),
        "err": s.error_estimate,
        "converged": s.converged,
    }


def sample_rows_to_csv(rows: Iterable[Mapping]) -> str:
    """The tau,re,im,abs,err table of sample rows, 17 significant digits."""
    lines = [CSV_HEADER]
    lines.extend(",".join(format_float(r[k]) for k in SAMPLE_COLUMNS) for r in rows)
    return "\n".join(lines) + "\n"


def samples_to_csv(samples: Iterable[OscillatorySample]) -> str:
    return sample_rows_to_csv(map(sample_row, samples))


def samples_from_csv(text: str) -> list:
    reader = io.StringIO(text)
    header = reader.readline().strip()
    if header != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}, got {header!r}")
    out = []
    for line in reader:
        line = line.strip()
        if not line:
            continue
        tau, re, im, _, err = (float(p) for p in line.split(","))
        out.append(OscillatorySample(tau=tau, value=complex(re, im), error_estimate=err))
    return out


def rows_to_csv(rows: Sequence[Mapping]) -> str:
    """A row table as CSV: the first row's keys sorted, floats to 17 digits."""
    if not rows:
        return "\n"
    keys = sorted(rows[0])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        writer.writerow(
            format_float(v) if isinstance(v, float) else str(v)
            for v in (row.get(k, "") for k in keys)
        )
    return out.getvalue()


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return format(v, ".6g")
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_fmt_value(x) for x in v) + ")"
    return str(v)


def markdown_summary(report: Mapping) -> str:
    """One-page summary: config block, key numbers, sample table, one verdict line per claim."""
    lines = [f"# {report.get('kind', 'report')}", ""]
    if "config" in report:
        lines.append("## configuration")
        lines.append("")
        for key in sorted(report["config"]):
            lines.append(f"- {key}: {_fmt_value(report['config'][key])}")
        lines.append("")
    scalars = {
        k: v
        for k, v in report.items()
        if k not in ("kind", "config", "claims", "rows", "samples")
        and isinstance(v, (int, float, str, bool))
    }
    if scalars:
        lines.append("## results")
        lines.append("")
        for key in sorted(scalars):
            lines.append(f"- {key}: {_fmt_value(scalars[key])}")
        lines.append("")
    if "rows" in report:
        lines.append("## rows")
        lines.append("")
        for row in report["rows"]:
            status = row.get("status", "")
            label = row.get("label", row.get("phase", "?"))
            lines.append(f"- {label}: {status}")
        lines.append("")
    if "samples" in report:
        cols = SAMPLE_COLUMNS + ("converged",)
        lines.append("## samples")
        lines.append("")
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("|" + "---|" * len(cols))
        for row in report["samples"]:
            lines.append("| " + " | ".join(_fmt_value(row[k]) for k in cols) + " |")
        lines.append("")
    if "claims" in report:
        lines.append("## claims")
        lines.append("")
        for claim in report["claims"]:
            lines.append(
                f"- **{claim['name']}** [{claim['verdict']}]: {claim['statement']}"
            )
        lines.append("")
    return "\n".join(lines)


def export_report(report, fmt: str) -> str:
    """Render a report to json, csv, or md text."""
    if hasattr(report, "to_json_dict"):
        report = report.to_json_dict()
    if fmt == "json":
        text = canonical_json(report)
    elif fmt == "md":
        text = markdown_summary(report)
    elif fmt == "csv":
        if "series" in report and "generic" in report["series"]:
            text = sample_rows_to_csv(report["series"]["generic"])
        elif "samples" in report:
            text = sample_rows_to_csv(report["samples"])
        elif "rows" in report:
            text = rows_to_csv(report["rows"])
        else:
            raise ValueError("report has no tabular section to export as csv")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return text
