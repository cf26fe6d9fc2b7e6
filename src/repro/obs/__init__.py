"""repro.obs — unified telemetry: metrics, sampling, spans, exports, reports.

The observability layer every perf/robustness change measures itself
against (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.registry` — sampled sources / log2 histograms
* :mod:`repro.obs.sampler` — simulator-clock sampling into columns
* :mod:`repro.obs.spans` — per-message span stitching over the tracer
* :mod:`repro.obs.telemetry` — the session facade (``Telemetry.attach``)
* :mod:`repro.obs.export` — JSONL / CSV / Prometheus-text artifacts
* :mod:`repro.obs.report` — text/Markdown run reports
* ``python -m repro.obs`` — run a scenario (or load an artifact) and report

:class:`~repro.hosts.memory.CopyMeter` (re-exported here) is the payload
plane's copy accounting: per-connection counters for payload bytes copied,
views forwarded, and pins outstanding, sampled into the per-connection
``connN.<host>.copy.*`` metrics.
"""

from ..hosts.memory import CopyMeter
from .causal import CriticalPathReport, MessagePath, critical_paths, flight_chain
from .export import (
    SCHEMA_VERSION,
    RunArtifact,
    load_jsonl,
    validate_records,
    write_csv,
    write_jsonl,
    write_prometheus,
)
from .perfetto import build_chrome_trace, validate_chrome_trace, write_chrome_trace
from .registry import Histogram, MetricsRegistry
from .report import render_report
from .sampler import Sampler, TimeSeries
from .spans import MessageSpan, build_spans
from .telemetry import Telemetry

__all__ = [
    "CopyMeter",
    "CriticalPathReport",
    "Histogram",
    "MessagePath",
    "MessageSpan",
    "MetricsRegistry",
    "RunArtifact",
    "SCHEMA_VERSION",
    "Sampler",
    "Telemetry",
    "TimeSeries",
    "build_chrome_trace",
    "build_spans",
    "critical_paths",
    "flight_chain",
    "load_jsonl",
    "render_report",
    "validate_chrome_trace",
    "validate_records",
    "write_chrome_trace",
    "write_csv",
    "write_jsonl",
    "write_prometheus",
]
