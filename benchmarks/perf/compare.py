"""``compare A B``: one row per workload × end-to-end metric, with both
sides' medians and quartiles, the bound ``BENCHMARK.json`` fixes, and a
verdict.

Verdicts (every metric is lower-is-better; A is the parent, B the
change):

* ``unresolved`` — either side's IQR/median is wider than the bound, so
  the bound cannot be resolved at this run count — unless every run of
  B reads better than every run of A, which is ``better``;
* ``worse`` — B's median is above A's by more than the bound, or B
  failed operations on that workload;
* ``better`` — B's median is below A's by more than A's own IQR;
* ``within-bound`` — anything else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .harness import RECORD_SCHEMA
from .hostinfo import IDENTITY_KEYS
from .stats import quartiles

__all__ = ["HostMismatch", "Row", "compare", "load_side", "render", "verdict"]


class HostMismatch(ValueError):
    """The two sides were measured on hosts that differ in a way that
    moves the numbers."""


@dataclass
class Side:
    """The untraced records under one path, flattened."""

    hosts: list[dict]
    #: (workload, metric) -> one value per record
    values: dict[tuple[str, str], list[float]]
    #: workload -> operations failed, summed over records
    failed: dict[str, int]
    records: int


def load_side(path: Path) -> Side:
    """Read a record file, or every ``record-*.json`` under a directory.
    Traced records are skipped: they run fewer laps, so their best lap
    is a different estimator."""
    path = Path(path)
    files = sorted(path.rglob("record-*.json")) if path.is_dir() else [path]
    side = Side(hosts=[], values={}, failed={}, records=0)
    for file in files:
        record = json.loads(file.read_text())
        if record.get("schema") != RECORD_SCHEMA or record.get("traced"):
            continue
        side.records += 1
        side.hosts.append(record["host"])
        for workload, entry in record["workloads"].items():
            side.failed[workload] = side.failed.get(workload, 0) + entry["ops_failed"]
            for metric, value in entry["metrics"].items():
                side.values.setdefault((workload, metric), []).append(value)
    if not side.records:
        raise ValueError(f"no untraced {RECORD_SCHEMA} record under {path}")
    return side


def _identity(host: dict) -> tuple:
    return tuple(json.dumps(host.get(key), sort_keys=True) for key in IDENTITY_KEYS)


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    a: tuple[float, float, float]  # q1, median, q3
    b: tuple[float, float, float]
    bound: float
    verdict: str

    @property
    def change(self) -> float:
        return (self.b[1] - self.a[1]) / self.a[1]


def verdict(a: list[float], b: list[float], bound: float, b_failed: int) -> str:
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    if b_failed:
        return "worse"
    if max((a3 - a1) / am, (b3 - b1) / bm) > bound:
        return "better" if max(b) < min(a) else "unresolved"
    if bm - am > bound * am:
        return "worse"
    if am - bm > (a3 - a1) and bm < am:
        return "better"
    return "within-bound"


def compare(a: Side, b: Side, benchmark: dict, *, force: bool = False) -> list[Row]:
    """Rows in ``BENCHMARK.json`` order for every workload × end-to-end
    metric both sides measured."""
    identities = {_identity(host) for host in a.hosts + b.hosts}
    if len(identities) > 1 and not force:
        raise HostMismatch(
            "the records come from different hosts (cpus, python, numpy, "
            "BLAS or thread pins differ); numbers are not comparable — "
            "pass --force to compare anyway"
        )
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for spec in benchmark["end_to_end"]:
            key = (workload, spec["name"])
            if key not in a.values or key not in b.values:
                continue
            rows.append(Row(
                workload=workload, metric=spec["name"], unit=spec["unit"],
                a=quartiles(a.values[key]), b=quartiles(b.values[key]),
                bound=spec["bound"],
                verdict=verdict(
                    a.values[key], b.values[key], spec["bound"],
                    b.failed.get(workload, 0),
                ),
            ))
    return rows


def render(rows: list[Row], a: Side, b: Side) -> str:
    """A markdown table (it is committed under ``calibration/``)."""

    def cell(q: tuple[float, float, float]) -> str:
        q1, median, q3 = q
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}] {100 * (q3 - q1) / median:.1f}%"

    lines = [
        f"A: {a.records} record(s), B: {b.records} record(s). "
        f"Cells read `median [q1, q3] IQR/median`.",
        "",
        "| workload | metric | unit | A | B | change | bound | verdict |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        lines.append(
            f"| {row.workload} | {row.metric} | {row.unit} | {cell(row.a)} | "
            f"{cell(row.b)} | {100 * row.change:+.1f}% | "
            f"{100 * row.bound:.0f}% | {row.verdict} |"
        )
    return "\n".join(lines)
