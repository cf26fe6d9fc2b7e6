"""The telemetry session: registry + sampler + tracer + spans, in one handle.

:meth:`Telemetry.attach` is the one call that turns a silent testbed into an
observed one::

    tb = Testbed.from_scenario(ScenarioConfig(seed=1))
    tel = Telemetry.attach(tb)
    ... run ...
    tel.finish()
    print(render_report(tel))          # repro.obs.report
    tel.export(open("run.jsonl", "w")) # repro.obs.export

Attachment wires the shared :class:`~repro.trace.ProtocolTracer` onto both
hosts (so EXS connections emit protocol + span events), registers one
source per observed object over the existing simulation state (CPU busy
time, memory, link counters), starts the
:class:`~repro.obs.sampler.Sampler`, and exposes a ``telemetry`` attribute
on each host so connections created later register their own source
(ring occupancy, credits, queue depth, direct/indirect counters).

Everything here observes and never perturbs: sources are read-only, and
the sampler's calendar entries cannot reorder other events (see the
determinism note in :mod:`repro.obs.sampler`).
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Any, Dict, List, Optional

from ..trace import ProtocolTracer
from .registry import MetricsRegistry
from .sampler import Sampler
from .spans import MessageSpan, build_spans

__all__ = ["Telemetry"]

#: histogram metric per span stage, observed at :meth:`Telemetry.finish`
SPAN_STAGE_HISTOGRAMS = ("queue_ns", "transport_ns", "delivery_ns", "e2e_ns")

# Each source's metrics: ``{name suffix: attribute path}`` off the observed
# object (docs/OBSERVABILITY.md has what each one means).
HOST_METRICS = {
    "cpu.busy_ns": "cpu.busy_ns_total", "app_cpu.busy_ns": "app_cpu.busy_ns_total",
    "mem.allocated_bytes": "memory.allocated_bytes", "mem.buffers": "memory.buffer_count"}
IMPAIRMENT_METRICS = {f: f"{f}_total" for f in (
    "dropped", "duplicated", "corrupted", "down_dropped", "acks_dropped")}
PORT_METRICS = {f: f for f in (
    "queued_bytes", "queued_frames", "pending_bytes", "peak_queue_bytes", "forwarded",
    "forwarded_bytes", "drops", "dropped_bytes", "backpressured")}
SRQ_METRICS = {f: f for f in ("occupancy", "free", "min_free", "empty_hits", "attached")}
RELIABILITY_METRICS = {f: f"stats.{f}" for f in (
    "retransmits", "timeouts", "naks_sent", "naks_received", "rnr_naks_sent",
    "rnr_naks_received", "duplicates_dropped", "gaps_detected", "stale_acks_ignored",
    "sacked_frames", "ooo_buffered", "ooo_released", "corrupt_discarded", "qp_fatal",
    "recoveries", "recovery_ns_total", "recovery_ns_max")}
#: a connection's own metrics; its source adds ``tx.pending_sends`` and the
#: ``gauge_names`` of its two transport halves
CONN_METRICS = {
    "tx.direct_transfers": "tx_stats.direct_transfers",
    "tx.indirect_transfers": "tx_stats.indirect_transfers",
    "tx.direct_bytes": "tx_stats.direct_bytes",
    "tx.indirect_bytes": "tx_stats.indirect_bytes",
    "tx.mode_switches": "tx_stats.mode_switches",
    "rx.copies": "rx_stats.copies",
    "credits.available": "credits.available",
    **{f"copy.{f}": f"copy_meter.{f}" for f in (
        "payload_copies", "payload_bytes_copied", "views_forwarded",
        "view_bytes_forwarded", "pins_outstanding", "pin_violations")},
}


class Telemetry:
    """One telemetry session over one simulator."""

    def __init__(self, sim, *, sample_interval_ns: int = 100_000) -> None:
        self.sim = sim
        self.registry = MetricsRegistry()
        self.tracer = ProtocolTracer()
        self.sampler = Sampler(sim, self.registry, interval_ns=sample_interval_ns)
        #: free-form run metadata carried into exports (scenario, seed, ...)
        self.meta: Dict[str, Any] = {}
        self._conns: List[Any] = []
        self._spans: Optional[List[MessageSpan]] = None
        self._finished = False
        conns = self._conns  # the reader holds the list, not the session
        self.registry.source(("conns.opened",), lambda: (len(conns),))
        self._observe_kernel()

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, fabric, *, sample_interval_ns: int = 100_000) -> "Telemetry":
        """Create a session and wire it through a :class:`~repro.fabric.Fabric`
        (or :class:`~repro.testbed.Testbed`).

        On the classic two-host wire (a ``Testbed``, or any direct
        topology) the metric names are the historical flat ones
        (``link.dir0.*``, ``faults.*``); on a multi-host fabric every edge
        gets its own prefix (``link.<edge>.*``, ``faults.<edge>.*``) and
        every switch port is observed as ``fabric.port.<switch>.<port>.*``.
        Hosts with an SRQ pool additionally get ``srq.<host>.*`` occupancy
        metrics.
        """
        tel = cls(fabric.sim, sample_interval_ns=sample_interval_ns)
        tel.meta.setdefault("seed", fabric.seed)
        tel.meta.setdefault("profile", fabric.profile.name)
        hosts = fabric.all_hosts
        for host in hosts:
            tel.observe_host(host)
        if not fabric.topology.direct:
            for name, link in fabric.links.items():
                tel.observe_link(link, prefix=f"link.{name}")
            for name, impairment in fabric.impairments.items():
                tel.observe_impairment(impairment, prefix=f"faults.{name}")
            for switch in fabric.switches.values():
                tel.observe_switch(switch)
        else:
            tel.observe_link(fabric.link)
            if fabric.impairment is not None:
                tel.observe_impairment(fabric.impairment)
        for host in hosts:
            engine = fabric.device(host.name).reliability
            if engine is not None:
                tel.observe_reliability(host.name, engine)
            pool = fabric.stack(host.name).srq_pool
            if pool is not None:
                tel.observe_srq(host.name, pool)
        tel.sampler.start()
        return tel

    def _observe(self, prefix: str, obj, metrics: Dict[str, str]) -> None:
        """One source over *obj*: ``<prefix>.<name>`` reads the attribute
        path *metrics* maps it to."""
        read = attrgetter(*metrics.values())
        self.registry.source([f"{prefix}.{name}" for name in metrics], lambda: read(obj))

    def observe_host(self, host) -> None:
        """Wire tracing + register the standard metrics for one host."""
        host.tracer = self.tracer
        host.telemetry = self
        self._observe(host.name, host, HOST_METRICS)

    def observe_link(self, link, *, prefix: str = "link") -> None:
        """Register per-direction link counters (one ``LinkStats`` per read)."""
        fields = ("messages", "wire_bytes", "busy_ns")
        read = attrgetter(*fields)
        for d in link.directions:
            self.registry.source([f"{prefix}.dir{d.index}.{f}" for f in fields],
                                 lambda d=d: read(d.stats))

    def observe_impairment(self, impairment, *, prefix: str = "faults") -> None:
        """Register the fault-injection counters."""
        self._observe(prefix, impairment, IMPAIRMENT_METRICS)

    def observe_switch(self, switch) -> None:
        """Register one switch's per-egress-port queue and drop counters.

        Metric names follow ``fabric.port.<switch>.<port>.*`` where the port
        label is the neighbor node the port faces.
        """
        for port_name, port in switch.ports.items():
            self._observe(f"fabric.port.{switch.name}.{port_name}", port, PORT_METRICS)

    def observe_srq(self, label: str, pool) -> None:
        """Register one host's shared-receive-pool occupancy metrics."""
        self._observe(f"srq.{label}", pool, SRQ_METRICS)

    def observe_reliability(self, label: str, engine) -> None:
        """Register one device's RC reliability counters."""
        self._observe(f"{label}.rel", engine, RELIABILITY_METRICS)

    def _observe_kernel(self) -> None:
        """Event-calendar kernel counters, from :meth:`Simulator.calendar_stats`.

        Pure reads — sampling never perturbs the calendar.  The non-numeric
        fields (``backend``, ``accelerator*``) travel in the run meta, and
        ``next_time`` is ``None`` (no point) on an empty calendar.  Two
        derived rates follow, each ``None`` until defined: mean events per
        same-instant batch and the timeout-freelist hit rate.
        """
        stats = self.sim.calendar_stats
        keys = [k for k in stats() if k not in ("backend", "accelerator", "accelerator_reason")]
        read = itemgetter(*keys)

        def kernel():
            s = stats()
            batches = s["batches"]
            recycled = s["timeout_allocs"] + s["timeout_reuses"]
            return read(s) + (s["batched_events"] / batches if batches else None,
                              s["timeout_reuses"] / recycled if recycled else None)

        self.registry.source(
            [f"kernel.{k}" for k in (*keys, "events_per_batch", "timeout_freelist_hit_rate")],
            kernel)

    def register_connection(self, conn) -> None:
        """Called by :class:`~repro.exs.connection.ExsConnection` at handshake:
        one source over the connection, its two transport halves included."""
        self._conns.append(conn)
        tx, rx = conn.tx, conn.rx
        read = attrgetter(*CONN_METRICS.values())
        self.registry.source(
            [f"conn{conn.conn_id}.{conn.host.name}.{name}" for name in
             (*CONN_METRICS, "tx.pending_sends", *tx.gauge_names, *rx.gauge_names)],
            lambda: (*read(conn), len(tx.pending), *tx.gauges(), *rx.gauges()))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def finish(self, **meta) -> List[MessageSpan]:
        """Take a final sample, stitch spans, and fill stage histograms.

        Idempotent; extra keyword arguments are merged into :attr:`meta`.
        """
        self.meta.update(meta)
        if self._finished:
            return self.spans()
        self._finished = True
        # the non-numeric half of the kernel's self-description (the
        # counters travel as kernel.* metrics)
        stats = self.sim.calendar_stats()
        self.meta.setdefault("kernel", stats["backend"])
        self.meta.setdefault("accelerator", stats["accelerator"])
        if stats.get("accelerator_reason"):
            # only an unavailable accelerator has one (a fact of the run)
            self.meta.setdefault("accelerator_reason", stats["accelerator_reason"])
        self.sampler.finish()
        spans = self.spans()
        for stage in SPAN_STAGE_HISTOGRAMS:
            hist = self.registry.histogram(f"span.{stage}")
            for span in spans:
                v = getattr(span, stage)
                if v is not None and v >= 0:
                    hist.observe(v)
        return spans

    def spans(self) -> List[MessageSpan]:
        """Per-message spans stitched from the trace (cached)."""
        if self._spans is None:
            self._spans = build_spans(self.tracer.events)
        return self._spans

    def export(self, fh, **meta) -> int:
        """Write the whole session as JSONL; returns the record count."""
        from .export import write_jsonl

        self.finish(**meta)
        return write_jsonl(fh, self)
