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
hosts (so EXS connections emit protocol + span events), registers pull
gauges over the existing simulation state (CPU busy time, memory, link
counters), starts the :class:`~repro.obs.sampler.Sampler`, and exposes a
``telemetry`` attribute on each host so connections created later register
themselves for per-connection sampling (ring occupancy, credits, queue
depth, direct/indirect counters).

Everything here observes and never perturbs: gauges and collectors are
read-only, and the sampler's calendar entries cannot reorder other events
(see the determinism note in :mod:`repro.obs.sampler`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..trace import ProtocolTracer
from .registry import MetricsRegistry
from .sampler import Sampler
from .spans import MessageSpan, build_spans

__all__ = ["Telemetry"]

#: histogram metric per span stage, observed at :meth:`Telemetry.finish`
SPAN_STAGE_HISTOGRAMS = ("queue_ns", "transport_ns", "delivery_ns", "e2e_ns")


class Telemetry:
    """One telemetry session over one simulator."""

    def __init__(
        self,
        sim,
        *,
        sample_interval_ns: int = 100_000,
        span_capacity: int = 1_000_000,
        max_samples: int = 100_000,
    ) -> None:
        self.sim = sim
        self.registry = MetricsRegistry()
        self.tracer = ProtocolTracer(capacity=span_capacity)
        self.sampler = Sampler(
            sim, self.registry,
            interval_ns=sample_interval_ns, max_samples=max_samples,
        )
        #: free-form run metadata carried into exports (scenario, seed, ...)
        self.meta: Dict[str, Any] = {}
        self._conns: List[Any] = []
        self._spans: Optional[List[MessageSpan]] = None
        self._finished = False
        self.registry.add_collector(self._collect_connections)
        self.registry.add_collector(self._collect_kernel)
        self.conns_opened = self.registry.counter(
            "conns.opened", "EXS connections registered with telemetry")

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        fabric,
        *,
        sample_interval_ns: int = 100_000,
        span_capacity: int = 1_000_000,
        max_samples: int = 100_000,
    ) -> "Telemetry":
        """Create a session and wire it through a :class:`~repro.fabric.Fabric`
        (or :class:`~repro.testbed.Testbed`).

        On the classic two-host wire (a ``Testbed``, or any direct
        topology) the gauge names are the historical flat ones
        (``link.dir0.*``, ``faults.*``); on a multi-host fabric every edge
        gets its own prefix (``link.<edge>.*``, ``faults.<edge>.*``) and
        every switch port is observed as ``fabric.port.<switch>.<port>.*``.
        Hosts with an SRQ pool additionally get ``srq.<host>.*`` occupancy
        gauges.
        """
        tel = cls(
            fabric.sim,
            sample_interval_ns=sample_interval_ns,
            span_capacity=span_capacity,
            max_samples=max_samples,
        )
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

    def observe_host(self, host) -> None:
        """Wire tracing + register the standard gauges for one host."""
        host.tracer = self.tracer
        host.telemetry = self
        name = host.name
        reg = self.registry
        reg.gauge(f"{name}.cpu.busy_ns", lambda h=host: h.cpu.busy_ns_total,
                  "library-core busy time (cumulative ns)")
        reg.gauge(f"{name}.app_cpu.busy_ns", lambda h=host: h.app_cpu.busy_ns_total,
                  "application-core busy time (cumulative ns)")
        reg.gauge(f"{name}.mem.allocated_bytes", lambda h=host: h.memory.allocated_bytes,
                  "bytes allocated in the host arena")
        reg.gauge(f"{name}.mem.buffers", lambda h=host: h.memory.buffer_count,
                  "buffers allocated in the host arena")

    def observe_link(self, link, *, prefix: str = "link") -> None:
        """Register per-direction link counters as pull gauges."""
        reg = self.registry
        for d in link.directions:
            p = f"{prefix}.dir{d.index}"
            reg.gauge(f"{p}.messages", lambda d=d: d.stats.messages,
                      "messages transmitted (cumulative)")
            reg.gauge(f"{p}.wire_bytes", lambda d=d: d.stats.wire_bytes,
                      "payload bytes transmitted (cumulative)")
            reg.gauge(f"{p}.busy_ns", lambda d=d: d.stats.busy_ns,
                      "transmitter busy time (cumulative ns)")

    def observe_impairment(self, impairment, *, prefix: str = "faults") -> None:
        """Register the fault-injection counters as pull gauges."""
        reg = self.registry
        reg.gauge(f"{prefix}.dropped", lambda m=impairment: m.dropped_total,
                  "data messages dropped by the impairment model")
        reg.gauge(f"{prefix}.duplicated", lambda m=impairment: m.duplicated_total,
                  "data messages duplicated by the impairment model")
        reg.gauge(f"{prefix}.corrupted", lambda m=impairment: m.corrupted_total,
                  "data messages corrupted by the impairment model")
        reg.gauge(f"{prefix}.down_dropped", lambda m=impairment: m.down_dropped_total,
                  "messages lost to scheduled link outages")
        reg.gauge(f"{prefix}.acks_dropped", lambda m=impairment: m.acks_dropped_total,
                  "out-of-band ACK/NAKs dropped")

    def observe_switch(self, switch) -> None:
        """Register one switch's per-egress-port queue and drop counters.

        Gauge names follow ``fabric.port.<switch>.<port>.*`` where the port
        label is the neighbor node the port faces.
        """
        reg = self.registry
        for port_name, port in switch.ports.items():
            prefix = f"fabric.port.{switch.name}.{port_name}"
            reg.gauge(f"{prefix}.queued_bytes", lambda p=port: p.queued_bytes,
                      "bytes admitted to the egress queue (incl. in flight)")
            reg.gauge(f"{prefix}.queued_frames", lambda p=port: p.queued_frames,
                      "frames admitted to the egress queue")
            reg.gauge(f"{prefix}.pending_bytes", lambda p=port: p.pending_bytes,
                      "bytes held at ingress under backpressure")
            reg.gauge(f"{prefix}.peak_queue_bytes", lambda p=port: p.peak_queue_bytes,
                      "high-water mark of the egress queue (bytes)")
            reg.gauge(f"{prefix}.forwarded", lambda p=port: p.forwarded,
                      "frames forwarded (cumulative)")
            reg.gauge(f"{prefix}.forwarded_bytes", lambda p=port: p.forwarded_bytes,
                      "bytes forwarded (cumulative)")
            reg.gauge(f"{prefix}.drops", lambda p=port: p.drops,
                      "frames tail-dropped at the full queue")
            reg.gauge(f"{prefix}.dropped_bytes", lambda p=port: p.dropped_bytes,
                      "bytes tail-dropped at the full queue")
            reg.gauge(f"{prefix}.backpressured", lambda p=port: p.backpressured,
                      "frames held at ingress because the queue was full")

    def observe_srq(self, label: str, pool) -> None:
        """Register one host's shared-receive-pool occupancy gauges."""
        reg = self.registry
        prefix = f"srq.{label}"
        reg.gauge(f"{prefix}.occupancy", lambda p=pool: p.occupancy,
                  "receive buffers currently posted in the shared pool")
        reg.gauge(f"{prefix}.free", lambda p=pool: p.free,
                  "unposted capacity of the shared pool")
        reg.gauge(f"{prefix}.min_free", lambda p=pool: p.min_free,
                  "low-water mark of posted buffers")
        reg.gauge(f"{prefix}.empty_hits", lambda p=pool: p.empty_hits,
                  "arrivals that found the pool empty (RNR)")
        reg.gauge(f"{prefix}.attached", lambda p=pool: p.attached,
                  "connections drawing from the pool")

    def observe_reliability(self, label: str, engine) -> None:
        """Register one device's RC reliability counters as pull gauges."""
        reg = self.registry
        stats = engine.stats
        prefix = f"{label}.rel"
        for field, help_text in (
            ("retransmits", "messages retransmitted"),
            ("timeouts", "retransmission timer expiries"),
            ("naks_sent", "sequence-gap NAKs sent"),
            ("naks_received", "sequence-gap NAKs received"),
            ("rnr_naks_sent", "RNR NAKs sent"),
            ("rnr_naks_received", "RNR NAKs received"),
            ("duplicates_dropped", "duplicate arrivals discarded"),
            ("gaps_detected", "out-of-order arrivals (responder)"),
            ("stale_acks_ignored", "stale cumulative ACK/NAKs ignored"),
            ("sacked_frames", "frames acknowledged via SACK bitmaps"),
            ("ooo_buffered", "out-of-order frames buffered (selective repeat)"),
            ("ooo_released", "buffered frames released in order"),
            ("corrupt_discarded", "corrupt frames discarded"),
            ("qp_fatal", "QPs moved to ERROR after retry exhaustion"),
            ("recoveries", "completed loss-recovery episodes"),
            ("recovery_ns_total", "total loss-recovery latency (ns)"),
            ("recovery_ns_max", "worst single loss-recovery latency (ns)"),
        ):
            reg.gauge(f"{prefix}.{field}",
                      lambda s=stats, f=field: getattr(s, f), help_text)

    def register_connection(self, conn) -> None:
        """Called by :class:`~repro.exs.connection.ExsConnection` at handshake."""
        self._conns.append(conn)
        self.conns_opened.inc()

    def _collect_connections(self) -> Dict[str, float]:
        """Per-connection sample-time metrics (connections appear mid-run)."""
        out: Dict[str, float] = {}
        for conn in self._conns:
            p = f"conn{conn.conn_id}.{conn.host.name}"
            tx, rx = conn.tx_stats, conn.rx_stats
            out[f"{p}.tx.direct_transfers"] = tx.direct_transfers
            out[f"{p}.tx.indirect_transfers"] = tx.indirect_transfers
            out[f"{p}.tx.direct_bytes"] = tx.direct_bytes
            out[f"{p}.tx.indirect_bytes"] = tx.indirect_bytes
            out[f"{p}.tx.mode_switches"] = tx.mode_switches
            out[f"{p}.tx.pending_sends"] = len(conn.tx.pending)
            out[f"{p}.rx.copies"] = rx.copies
            # transport-specific gauges (ring, bounce slots, handshakes)
            for half in (conn.tx, conn.rx):
                for name, value in half.gauges().items():
                    out[f"{p}.{name}"] = value
            if conn.credits is not None:
                out[f"{p}.credits.available"] = conn.credits.available
            for field in ("payload_copies", "payload_bytes_copied", "views_forwarded",
                          "view_bytes_forwarded", "pins_outstanding", "pin_violations"):
                out[f"{p}.copy.{field}"] = getattr(conn.copy_meter, field)
        return out

    def _collect_kernel(self) -> Dict[str, float]:
        """Event-calendar kernel counters, from :meth:`Simulator.calendar_stats`.

        Pure reads — sampling never perturbs the calendar.  Non-numeric
        fields (``backend``) and absent ones (``next_time`` on an empty
        calendar) are skipped; two derived rates are added: mean events per
        same-instant batch and the timeout-freelist hit rate.
        """
        stats = self.sim.calendar_stats()
        out: Dict[str, float] = {}
        for key, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"kernel.{key}"] = value
        batches = stats.get("batches", 0)
        if batches:
            out["kernel.events_per_batch"] = stats["batched_events"] / batches
        t_allocs = stats.get("timeout_allocs", 0)
        t_reuses = stats.get("timeout_reuses", 0)
        if t_allocs + t_reuses:
            out["kernel.timeout_freelist_hit_rate"] = t_reuses / (t_allocs + t_reuses)
        return out

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
        # counters travel as kernel.* gauges)
        stats = self.sim.calendar_stats()
        self.meta.setdefault("kernel", stats["backend"])
        self.meta.setdefault("accelerator", stats["accelerator"])
        if stats.get("accelerator_reason"):
            # only an unavailable accelerator has one (a fact of the run)
            self.meta.setdefault("accelerator_reason", stats["accelerator_reason"])
        self.sampler.finish()
        spans = self.spans()
        for stage in SPAN_STAGE_HISTOGRAMS:
            hist = self.registry.histogram(
                f"span.{stage}", f"per-message {stage} latency")
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
