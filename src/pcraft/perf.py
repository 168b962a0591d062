"""Benchmark curve ingestion and throughput extraction.

Load-test results arrive as CSV curves of offered versus achieved rate
with a latency column (and optionally CPU utilisation).  From a curve we
extract the saturation throughput: the highest achieved rate whose
latency still meets the operator's threshold.  Node throughputs for
fault-tolerant node variants are compared against native builds to get
per-variant degradation ratios, averaged across applications.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple

from .ctmc import _check_number

__all__ = [
    "PerfCurve",
    "PerfProfile",
    "PerfRow",
    "degradation_ratios",
    "parse_benchmark_csv",
    "saturation_throughput",
]

REQUIRED_COLUMNS = ("offered_rate", "achieved_rate", "latency_ms")
OPTIONAL_COLUMNS = ("cpu_pct",)


class PerfRow(NamedTuple):
    offered_rate: float
    achieved_rate: float
    latency_ms: float
    cpu_pct: float | None = None


@dataclass(frozen=True)
class PerfCurve:
    """One load-test sweep, rows sorted by offered rate."""

    rows: tuple[PerfRow, ...]
    application: str | None = None
    variant: str | None = None


def parse_benchmark_csv(source, application: str | None = None,
                        variant: str | None = None) -> PerfCurve:
    """Parse a benchmark CSV with a mandatory header row.

    ``source`` may be a path or an open text stream.  Numeric columns
    must parse as finite floats; errors name the offending row and
    column.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as handle:
            return parse_benchmark_csv(handle, application, variant)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("benchmark CSV is empty; expected a header row") from None
    header = [name.strip() for name in header]
    for name in REQUIRED_COLUMNS:
        if name not in header:
            raise ValueError(f"benchmark CSV is missing required column {name!r}")
    columns = {name: header.index(name) for name in header}
    has_cpu = "cpu_pct" in columns

    rows: list[PerfRow] = []
    for line_no, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        values = {}
        wanted = REQUIRED_COLUMNS + (OPTIONAL_COLUMNS if has_cpu else ())
        for name in wanted:
            cell = record[columns[name]].strip() if columns[name] < len(record) else ""
            try:
                values[name] = float(cell)
            except ValueError:
                values[name] = math.nan
            if not math.isfinite(values[name]):   # unparsed, or nan / inf
                raise ValueError(
                    f"benchmark CSV row {line_no}, column {name!r}: "
                    f"cannot parse {cell!r} as a finite number")
        rows.append(PerfRow(values["offered_rate"], values["achieved_rate"],
                            values["latency_ms"],
                            values.get("cpu_pct")))
    if not rows:
        raise ValueError("benchmark CSV has no data rows")
    rows.sort(key=lambda r: r.offered_rate)
    return PerfCurve(rows=tuple(rows), application=application, variant=variant)


def saturation_throughput(curve: PerfCurve, latency_threshold_ms: float) -> float:
    """Highest achieved rate whose latency meets the threshold.

    The latency threshold is an operator input with no default: what
    counts as saturated depends on the service's latency budget.
    """
    _check_number("latency threshold", latency_threshold_ms)
    qualifying = [row.achieved_rate for row in curve.rows
                  if row.latency_ms <= latency_threshold_ms]
    if not qualifying:
        raise ValueError(
            f"no benchmark rows meet the {latency_threshold_ms} ms latency threshold")
    return max(qualifying)


@dataclass(frozen=True)
class PerfProfile:
    """Per-variant node throughput and its ratio to the native build."""

    nodt: dict[str, float]
    ratios: dict[str, float]


def degradation_ratios(nodt_by_app: Mapping[str, Mapping[str, float]]) -> PerfProfile:
    """Average per-variant throughput ratios versus native across apps.

    Takes ``{app: {variant: nodt}}``.  Every app must report a native
    throughput to normalize against.
    """
    if not nodt_by_app:
        raise ValueError("no applications given")

    ratio_samples: dict[str, list[float]] = {}
    nodt_samples: dict[str, list[float]] = {}
    for app, table in nodt_by_app.items():
        if "native" not in table:
            raise ValueError(f"application {app!r} has no native throughput to compare against")
        native = _check_number(f"application {app!r}: native throughput", table["native"])
        for variant, value in table.items():
            _check_number(f"application {app!r}, variant {variant!r}: throughput", value)
            ratio_samples.setdefault(variant, []).append(value / native)
            nodt_samples.setdefault(variant, []).append(value)
    nodt = {v: sum(xs) / len(xs) for v, xs in nodt_samples.items()}
    ratios = {v: sum(xs) / len(xs) for v, xs in ratio_samples.items()}
    return PerfProfile(nodt=nodt, ratios=ratios)
