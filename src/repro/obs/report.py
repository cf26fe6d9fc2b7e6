"""Run-report rendering: the human end of the telemetry pipeline.

Turns a live :class:`~repro.obs.telemetry.Telemetry` session or a loaded
:class:`~repro.obs.export.RunArtifact` into a text or Markdown report:

* run header (scenario metadata, simulated duration, sample count)
* per-connection summary table (transfers, bytes, direct ratio, switches)
* **direct-ratio over time** — the per-window direct fraction as a strip
  chart, the view of the protocol's adaptivity that Table III's end-of-run
  totals cannot show
* span timeline (D/I strips, like ``repro.trace.render_timeline`` but
  reconstructable offline from spans)
* top-k slowest message spans with per-stage latencies
* per-stage latency histograms (log2 buckets)
"""

from __future__ import annotations

import re as _re
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench.report import format_table
from .export import RunArtifact, _normalize
from .sampler import TimeSeries
from .spans import MessageSpan

__all__ = ["render_report"]

#: glyph ramp for 0.0..1.0 ratios (direct fraction per window)
_RAMP = " .:-=+*#@"


def _fmt_ns(ns: Optional[float]) -> str:
    if ns is None:
        return "-"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{int(ns)}ns"


def _fmt_bytes(n: float) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f}MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}KiB"
    return f"{int(n)}B"


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def _table(headers, rows, markdown: bool) -> str:
    return _md_table(headers, rows) if markdown else format_table(headers, rows)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------
_CONN_KEY = _re.compile(r"^(conn\d+)\.([^.]+)\.(.+)$")


def _conn_rows(snapshot: Dict[str, float]) -> List[Tuple[str, Dict[str, float]]]:
    """Group ``conn<N>.<host>.*`` snapshot keys per connection."""
    groups: Dict[str, Dict[str, float]] = {}
    for name, value in snapshot.items():
        m = _CONN_KEY.match(name)
        if m is None:
            continue
        prefix, host, metric = m.groups()
        groups.setdefault(f"{prefix}@{host}", {})[metric] = value
    return sorted(groups.items())


def _summary_section(art: RunArtifact, markdown: bool) -> List[str]:
    rows = []
    for label, m in _conn_rows(art.snapshot):
        direct = m.get("tx.direct_transfers", 0)
        indirect = m.get("tx.indirect_transfers", 0)
        total = direct + indirect
        rows.append([
            label,
            int(direct), int(indirect),
            _fmt_bytes(m.get("tx.direct_bytes", 0)),
            _fmt_bytes(m.get("tx.indirect_bytes", 0)),
            f"{direct / total:.3f}" if total else "-",
            int(m.get("tx.mode_switches", 0)),
            int(m.get("rx.copies", 0)),
        ])
    if not rows:
        return []
    table = _table(
        ["connection", "direct", "indirect", "direct_B", "indirect_B",
         "direct_ratio", "switches", "copies"],
        rows, markdown)
    return ["## Connection summary" if markdown else "connection summary:", table]


_PORT_KEY = _re.compile(r"^fabric\.port\.([^.]+)\.([^.]+)\.(.+)$")
_SRQ_KEY = _re.compile(r"^srq\.([^.]+)\.(.+)$")


def _fabric_section(art: RunArtifact, markdown: bool) -> List[str]:
    """Switch-port queue/drop table + SRQ pool table (multi-host runs)."""
    ports: Dict[Tuple[str, str], Dict[str, float]] = {}
    pools: Dict[str, Dict[str, float]] = {}
    for name, value in art.snapshot.items():
        m = _PORT_KEY.match(name)
        if m is not None:
            switch, port, metric = m.groups()
            ports.setdefault((switch, port), {})[metric] = value
            continue
        m = _SRQ_KEY.match(name)
        if m is not None:
            host, metric = m.groups()
            pools.setdefault(host, {})[metric] = value
    out: List[str] = []
    if ports:
        rows = []
        for (switch, port), m in sorted(ports.items()):
            rows.append([
                f"{switch}:{port}",
                _fmt_bytes(m.get("forwarded_bytes", 0)),
                _fmt_bytes(m.get("peak_queue_bytes", 0)),
                int(m.get("drops", 0)),
                _fmt_bytes(m.get("dropped_bytes", 0)),
                int(m.get("backpressured", 0)),
            ])
        out += ["## Switch ports" if markdown else "switch ports:",
                _table(["port", "forwarded", "peak_queue", "drops",
                        "dropped", "backpressured"], rows, markdown)]
    if pools:
        rows = []
        for host, m in sorted(pools.items()):
            rows.append([
                host,
                int(m.get("attached", 0)),
                int(m.get("occupancy", 0)),
                int(m.get("min_free", 0)),
                int(m.get("empty_hits", 0)),
            ])
        out += ["## SRQ pools" if markdown else "srq pools:",
                _table(["host", "conns", "posted", "min_posted", "empty_hits"],
                       rows, markdown)]
    return out


def _kernel_section(art: RunArtifact, markdown: bool) -> List[str]:
    """Which event kernel ran and whether its C fast path was in effect."""
    snap = art.snapshot
    if "kernel.events_executed" not in snap:
        return []
    rows = [[
        art.meta.get("kernel", "?"),
        art.meta.get("accelerator", "?"),
        int(snap["kernel.events_executed"]),
        int(snap.get("kernel.batches", 0)),
        int(snap.get("kernel.max_batch", 0)),
    ]]
    return ["## Event kernel" if markdown else "event kernel:",
            _table(["calendar", "accelerator", "events executed",
                    "batches", "max batch"],
                   rows, markdown)]


def _ratio_strip(direct: TimeSeries, indirect: TimeSeries, width: int) -> str:
    """Per-window direct fraction rendered as a glyph strip."""
    dd = direct.deltas()
    di = dict(indirect.deltas())
    windows: List[Optional[float]] = []
    for t, d in dd:
        i = di.get(t, 0.0)
        total = d + i
        windows.append(d / total if total else None)
    if not windows:
        return ""
    # resample to at most `width` buckets
    out = []
    n = len(windows)
    buckets = min(width, n)
    for b in range(buckets):
        chunk = [w for w in windows[b * n // buckets:(b + 1) * n // buckets]
                 if w is not None]
        if not chunk:
            out.append("·")
        else:
            ratio = sum(chunk) / len(chunk)
            out.append(_RAMP[min(len(_RAMP) - 1, int(ratio * (len(_RAMP) - 1) + 0.5))])
    return "".join(out)


def _ratio_section(art: RunArtifact, width: int, markdown: bool) -> List[str]:
    lines: List[str] = []
    for name in sorted(art.series):
        if not name.endswith(".tx.direct_transfers"):
            continue
        base = name[: -len(".direct_transfers")]
        indirect = art.series.get(base + ".indirect_transfers")
        direct = art.series[name]
        if indirect is None:
            continue
        if (direct.last() or 0) + (indirect.last() or 0) == 0:
            continue
        label = base[: -len(".tx")]
        strip = _ratio_strip(direct, indirect, width)
        if strip.strip("·"):
            lines.append(f"  {label:<16s} |{strip}|")
    if not lines:
        return []
    header = ("## Direct-ratio over time" if markdown
              else "direct-ratio over time (per sample window; "
                   f"' '=all indirect, '@'=all direct, '·'=idle):")
    body = "\n".join(lines)
    if markdown:
        body = "```\n" + body + "\n```"
    return [header, body]


def _span_timeline(spans: List[MessageSpan], width: int, markdown: bool) -> List[str]:
    active = [s for s in spans if s.first_post_ns is not None]
    if not active:
        return []
    t0 = min(s.first_post_ns for s in active)
    t1 = max(s.delivered_ns or s.acked_ns or s.first_post_ns for s in active)
    span_ns = max(1, t1 - t0)
    by_dir: Dict[str, List[MessageSpan]] = {}
    for s in active:
        by_dir.setdefault(f"conn{s.conn}@{s.host}", []).append(s)
    lines = []
    for label, group in sorted(by_dir.items()):
        buckets: List[set] = [set() for _ in range(width)]
        for s in group:
            idx = min(width - 1, (s.first_post_ns - t0) * width // span_ns)
            if s.direct_bytes:
                buckets[idx].add("D")
            if s.indirect_bytes:
                buckets[idx].add("I")
        strip = "".join(
            "*" if len(b) == 2 else (b.pop() if b else ".") for b in buckets)
        lines.append(f"  {label:<16s} |{strip}|")
    header = ("## Span timeline" if markdown
              else f"span timeline ({span_ns / 1e6:.3f} ms, {width} buckets; "
                   "D=direct I=indirect *=mixed):")
    body = "\n".join(lines)
    if markdown:
        body = "```\n" + body + "\n```"
    return [header, body]


def _slowest_section(spans: List[MessageSpan], top_k: int, markdown: bool) -> List[str]:
    measured = [s for s in spans if s.e2e_ns is not None]
    measured.sort(key=lambda s: s.e2e_ns, reverse=True)
    rows = []
    for s in measured[:top_k]:
        rows.append([
            f"conn{s.conn}@{s.host}#{s.send_id}",
            _fmt_bytes(s.nbytes), s.kind,
            _fmt_ns(s.queue_ns), _fmt_ns(s.transport_ns),
            _fmt_ns(s.delivery_ns), _fmt_ns(s.e2e_ns),
            s.copies,
        ])
    if not rows:
        return []
    table = _table(
        ["span", "bytes", "kind", "queue", "transport", "delivery", "e2e", "copies"],
        rows, markdown)
    head = (f"## Top {len(rows)} slowest spans" if markdown
            else f"top {len(rows)} slowest spans (by submit-to-delivery):")
    return [head, table]


def _hist_section(art: RunArtifact, markdown: bool) -> List[str]:
    span_hists = [h for h in art.hists if h["name"].startswith("span.")]
    if not any(h["count"] for h in span_hists):
        return []
    lines: List[str] = []
    for h in sorted(span_hists, key=lambda h: h["name"]):
        if not h["count"]:
            continue
        mean = h["sum"] / h["count"]
        lines.append(f"  {h['name']} (n={h['count']}, mean={_fmt_ns(mean)}):")
        peak = max(c for _ub, c in h["buckets"])
        for ub, c in h["buckets"]:
            bar = "#" * max(1, round(24 * c / peak))
            lines.append(f"    <= {_fmt_ns(ub):>8s} {c:>6d} {bar}")
    header = ("## Per-stage latency histograms" if markdown
              else "per-stage latency histograms (log2 buckets):")
    body = "\n".join(lines)
    if markdown:
        body = "```\n" + body + "\n```"
    return [header, body]


# ---------------------------------------------------------------------------
def render_report(
    source,
    *,
    fmt: str = "text",
    width: int = 64,
    top_k: int = 5,
) -> str:
    """Render the run report for a Telemetry session or loaded artifact.

    ``fmt`` is ``"text"`` (terminal) or ``"markdown"``.
    """
    if fmt not in ("text", "markdown"):
        raise ValueError(f"unknown report format {fmt!r}")
    markdown = fmt == "markdown"
    art = _normalize(source)

    meta = ", ".join(f"{k}={v}" for k, v in sorted(art.meta.items()))
    n_samples = max((len(ts) for ts in art.series.values()), default=0)
    complete = sum(1 for s in art.spans if s.complete)
    header_bits = [
        f"simulated {art.end_ns / 1e6:.3f} ms",
        f"{n_samples} samples",
        f"{len(art.spans)} spans ({complete} complete)",
    ]
    if meta:
        header_bits.append(meta)
    if art.truncated:
        header_bits.append("SAMPLING TRUNCATED at cap")

    sections: List[List[str]] = []
    if markdown:
        sections.append(["# Telemetry run report", " · ".join(header_bits)])
    else:
        sections.append(["=== telemetry run report ===", "  " + " | ".join(header_bits)])
    sections.append(_summary_section(art, markdown))
    sections.append(_fabric_section(art, markdown))
    sections.append(_kernel_section(art, markdown))
    sections.append(_ratio_section(art, width, markdown))
    sections.append(_span_timeline(art.spans, width, markdown))
    sections.append(_slowest_section(art.spans, top_k, markdown))
    sections.append(_hist_section(art, markdown))

    return "\n\n".join("\n".join(s) for s in sections if s)
