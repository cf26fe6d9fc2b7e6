"""Telemetry exporters: JSONL (lossless), CSV (series), Prometheus text.

The JSONL artifact is the canonical per-run format — one self-describing
JSON record per line, ``schema`` versioned so the ``make obs-smoke`` CI
gate can fail on drift:

========== ==============================================================
``meta``   ``{"type":"meta","schema":1,"end_ns":...,"run":{...}}``
``series`` ``{"type":"series","name":...,"points":[[t_ns,value],...]}``
``hist``   ``{"type":"hist","name":...,"count":...,"sum":...,
           "buckets":[[upper_bound,count],...]}``
``snapshot`` ``{"type":"snapshot","values":{name: value}}``
``span``   ``{"type":"span", ...MessageSpan fields...}``
========== ==============================================================

:func:`load_jsonl` reads an artifact back into a :class:`RunArtifact`, the
same shape the report renderer consumes, so
``python -m repro.obs report run.jsonl`` reproduces the live report
offline.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from typing import IO, Any, Dict, Iterable, List, Tuple

from .sampler import TimeSeries
from .spans import MessageSpan

__all__ = [
    "SCHEMA_VERSION",
    "RunArtifact",
    "write_jsonl",
    "load_jsonl",
    "write_csv",
    "write_prometheus",
    "validate_records",
]

SCHEMA_VERSION = 1

#: required keys per record type (the schema the smoke gate enforces)
_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "meta": ("schema", "end_ns", "run"),
    "series": ("name", "points"),
    "hist": ("name", "count", "sum", "buckets"),
    "snapshot": ("values",),
    "span": ("conn", "host", "send_id", "nbytes", "seq_start", "seq_end"),
}


@dataclass
class RunArtifact:
    """An exported telemetry run, loaded back into memory."""

    meta: Dict[str, Any] = dc_field(default_factory=dict)
    end_ns: int = 0
    truncated: bool = False
    series: Dict[str, TimeSeries] = dc_field(default_factory=dict)
    hists: List[dict] = dc_field(default_factory=list)
    snapshot: Dict[str, float] = dc_field(default_factory=dict)
    spans: List[MessageSpan] = dc_field(default_factory=list)


def _normalize(source) -> RunArtifact:
    """Accept either a live Telemetry session or a loaded RunArtifact."""
    if isinstance(source, RunArtifact):
        return source
    # live session (duck-typed to avoid a circular import)
    hists = [
        {
            "name": h.name,
            "count": h.count,
            "sum": h.sum,
            "buckets": [[ub, c] for ub, c in h.nonzero_buckets()],
        }
        for h in source.registry.histograms()
    ]
    return RunArtifact(
        meta=dict(source.meta),
        end_ns=source.sim.now,
        truncated=source.sampler.truncated,
        series=source.sampler.series,
        hists=hists,
        snapshot=source.registry.snapshot(),
        spans=source.spans(),
    )


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------
def write_jsonl(fh: IO[str], source) -> int:
    """Write the full session/artifact as JSONL; returns the record count."""
    art = _normalize(source)
    n = 0

    def emit(record: dict) -> None:
        nonlocal n
        fh.write(json.dumps(record, separators=(",", ":"), sort_keys=True, default=str))
        fh.write("\n")
        n += 1

    emit({
        "type": "meta",
        "schema": SCHEMA_VERSION,
        "end_ns": art.end_ns,
        "truncated": art.truncated,
        "run": art.meta,
    })
    for name in sorted(art.series):
        ts = art.series[name]
        emit({"type": "series", "name": name,
              "points": list(map(list, zip(ts.times(), ts.values())))})
    for h in art.hists:
        emit({"type": "hist", **h})
    emit({"type": "snapshot", "values": art.snapshot})
    for span in art.spans:
        emit({"type": "span", **span.to_dict()})
    return n


def load_jsonl(fh: IO[str]) -> RunArtifact:
    """Parse a JSONL artifact back into a :class:`RunArtifact`.

    Raises ``ValueError`` on malformed lines or schema violations, so
    loading doubles as validation.
    """
    records = []
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not valid JSON ({exc})") from exc
    errors = validate_records(records)
    if errors:
        raise ValueError("telemetry schema violations:\n  " + "\n  ".join(errors))

    art = RunArtifact()
    for rec in records:
        kind = rec["type"]
        if kind == "meta":
            art.meta = rec["run"]
            art.end_ns = rec["end_ns"]
            art.truncated = bool(rec.get("truncated", False))
        elif kind == "series":
            art.series[rec["name"]] = TimeSeries(
                rec["name"], [int(t) for t, _v in rec["points"]],
                [v for _t, v in rec["points"]])
        elif kind == "hist":
            art.hists.append({k: rec[k] for k in ("name", "count", "sum", "buckets")})
        elif kind == "snapshot":
            art.snapshot = rec["values"]
        elif kind == "span":
            art.spans.append(MessageSpan.from_dict(rec))
    return art


def validate_records(records: Iterable[dict]) -> List[str]:
    """Schema check; returns a list of human-readable violations (empty = ok)."""
    errors: List[str] = []
    saw_meta = False
    for i, rec in enumerate(records):
        kind = rec.get("type")
        if kind not in _REQUIRED:
            errors.append(f"record {i}: unknown type {kind!r}")
            continue
        missing = [k for k in _REQUIRED[kind] if k not in rec]
        if missing:
            errors.append(f"record {i} ({kind}): missing keys {missing}")
        if kind == "meta":
            saw_meta = True
            if rec.get("schema") != SCHEMA_VERSION:
                errors.append(
                    f"record {i}: schema {rec.get('schema')!r} != {SCHEMA_VERSION}")
    if not saw_meta:
        errors.append("no meta record")
    return errors


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------
def write_csv(fh: IO[str], source) -> int:
    """Long-form time-series CSV (``name,t_ns,value``); returns row count."""
    import csv as _csv

    art = _normalize(source)
    writer = _csv.writer(fh)
    writer.writerow(["name", "t_ns", "value"])
    rows = 0
    for name in sorted(art.series):
        ts = art.series[name]
        for t, v in zip(ts.times(), ts.values()):
            writer.writerow([name, t, v])
            rows += 1
    return rows


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into exposition-grammar form.

    Metric names must match ``[a-zA-Z_:][a-zA-Z0-9_:]*``; the ``repro_``
    prefix guarantees a valid first character even for names starting
    with a digit.
    """
    return "repro_" + _PROM_BAD.sub("_", name)


def _prom_escape(value: str) -> str:
    """Escape a label value per the text exposition format (backslash,
    double quote, newline)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(name: str, pname: str, extra: str = "") -> str:
    """Label block carrying the original dotted name when sanitization
    changed it (``conn1.client.tx.ring_free`` → label), so distinct dotted
    names stay distinguishable after the lossy ``_`` mapping."""
    labels = []
    if pname != "repro_" + name:
        labels.append(f'name="{_prom_escape(name)}"')
    if extra:
        labels.append(extra)
    return "{" + ",".join(labels) + "}" if labels else ""


def write_prometheus(fh: IO[str], source) -> int:
    """Final-state snapshot in Prometheus text exposition format.

    Scalars become gauges; histograms become the conventional
    ``_bucket``/``_sum``/``_count`` triplet with cumulative ``le`` labels.
    Names are sanitized to the exposition grammar and label values are
    escaped, with the original dotted name preserved as a ``name`` label.
    Returns the number of samples written.
    """
    art = _normalize(source)
    n = 0
    for name in sorted(art.snapshot):
        pname = _prom_name(name)
        labels = _prom_labels(name, pname)
        fh.write(f"# TYPE {pname} gauge\n{pname}{labels} {art.snapshot[name]}\n")
        n += 1
    for h in sorted(art.hists, key=lambda h: h["name"]):
        name = h["name"]
        pname = _prom_name(name)
        fh.write(f"# TYPE {pname} histogram\n")
        cum = 0
        for ub, c in h["buckets"]:
            cum += c
            labels = _prom_labels(name, pname, f'le="{_prom_escape(ub)}"')
            fh.write(f"{pname}_bucket{labels} {cum}\n")
            n += 1
        labels = _prom_labels(name, pname, 'le="+Inf"')
        fh.write(f"{pname}_bucket{labels} {h['count']}\n")
        fh.write(f"{pname}_sum{_prom_labels(name, pname)} {h['sum']}\n")
        fh.write(f"{pname}_count{_prom_labels(name, pname)} {h['count']}\n")
        n += 3
    return n
