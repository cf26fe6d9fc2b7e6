"""The simulated RDMA device (HCA) and its RC transport engine.

One :class:`RdmaDevice` is attached to a host and to one end of a
:class:`~repro.simnet.link.Link`.  It owns:

* a protection domain (memory registration),
* queue pairs and completion queues,
* the **send pipeline** that drains send queues onto the link one WR at a
  time, round-robin across QPs (the HCA's WQE-processing pipeline), as a
  chain of calendar callbacks rather than a process, and
* the **arrival handler** that executes incoming messages: placing payloads
  directly into registered memory (the zero-copy DMA path — note that no
  host CPU time is charged for it), consuming RECVs, raising completions,
  and returning cumulative transport ACKs.

Send completions follow RC semantics: a send WR completes only when the
responder's ACK arrives, which is what makes send-credit return latency a
round trip on long-delay paths (paper §IV-B2).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, Optional, Set

from ..hosts.host import Host
from ..hosts.memory import Chunk
from ..simnet import Simulator
from ..simnet.faults import Corrupted
from ..simnet.link import Link, LinkDirection
from .comp_channel import CompletionChannel, WakeupSampler
from .cq import CompletionQueue, WorkCompletion
from .enums import Access, Opcode, QPState, WCOpcode, WCStatus
from .errors import BadWorkRequest, ReceiverNotReady, RemoteAccessError, VerbsError
from .mr import ProtectionDomain
from .qp import QueuePair
from .reliability import ACCEPT, DUPLICATE, ReliabilityConfig, ReliabilityEngine
from .srq import SharedReceiveQueue
from .wire import HEADER_BYTES, AckMessage, CmMessage, DataMessage, TermMessage

__all__ = ["DeviceConfig", "RdmaDevice", "connect_devices"]

# module constants: the frame path tests members with `is` and access bits
# as integers, never through their enum class
_SEND, _WRITE, _WRITE_IMM = Opcode.SEND, Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM
_WC_SEND, _WC_WRITE = WCOpcode.SEND, WCOpcode.RDMA_WRITE
_WC_RECV, _WC_RECV_IMM = WCOpcode.RECV, WCOpcode.RECV_RDMA_WITH_IMM
_SUCCESS = WCStatus.SUCCESS
_READY, _ERROR = QPState.READY, QPState.ERROR
_LOCAL_READ, _LOCAL_WRITE, _REMOTE_WRITE = (
    Access.LOCAL_READ._value_, Access.LOCAL_WRITE._value_, Access.REMOTE_WRITE._value_)


@dataclass(frozen=True)
class DeviceConfig:
    """Timing characteristics of the simulated HCA."""

    #: per-WR processing time in the send pipeline (doorbell → wire)
    wr_overhead_ns: int = 150
    #: responder-side processing before placing a message / generating an ACK
    rx_overhead_ns: int = 100
    #: time for the responder to turn around a transport ACK
    ack_turnaround_ns: int = 100
    #: messages larger than this pay a per-byte penalty on the portion above
    #: the threshold (models the on-HCA/LLC caching effect the paper suggests
    #: explains the throughput dip past 2 MiB in its Fig. 12a); None disables.
    large_msg_threshold: Optional[int] = None
    #: extra nanoseconds per byte beyond the threshold
    large_msg_extra_ns_per_byte: float = 0.0
    #: maximum RC message size
    max_msg_bytes: int = 1 << 31
    #: enable the RC reliability layer (retransmission / NAK / RNR / QP
    #: error teardown).  ``None`` keeps the historical lossless-wire model,
    #: whose event sequence is bit-identical to pre-reliability builds.
    reliability: Optional[ReliabilityConfig] = None


class RdmaDevice:
    """A software HCA bound to a host and one link endpoint.

    Its builder numbers it: *device_id* is its place in its fabric's
    creation order and *keys* the memory-key counter the fabric shares.
    """

    def __init__(self, sim: Simulator, host: Host, config: Optional[DeviceConfig] = None, *,
                 device_id: int, keys: Iterator[int]) -> None:
        self.sim = sim
        self.host = host
        self.config = config or DeviceConfig()
        self.device_id = device_id
        host.device = self

        self.pd = ProtectionDomain(keys)
        self._qps: Dict[int, QueuePair] = {}
        # QPNs are unique within a fabric (its devices have distinct ids), so
        # it can route any message by destination QPN alone; the wide stride
        # keeps them unique even for thousand-QP devices.
        self._next_qpn = itertools.count(self.device_id * 1_000_000 + 1)

        self.link: Optional[Link] = None
        self.endpoint: Optional[int] = None
        self.tx: Optional[LinkDirection] = None
        self.peer: Optional["RdmaDevice"] = None
        #: the multi-host fabric this device is attached to, if any
        #: (see :meth:`attach_fabric`; ``None`` on the classic p2p wire)
        self.fabric = None

        # send pipeline (see _tx_wake): QPs with queued WRs in round-robin
        # order; parked = idle until kicked, kicked = kicked while busy
        self._service: Deque[QueuePair] = deque()
        self._in_service: Set[int] = set()
        self._tx_parked = self._tx_kicked = False
        self._advance = sim.advance
        sim.call_in(0, self._tx_wake)

        # connection management hook (set by repro.verbs.cm)
        self.cm_handler = None

        # per-peer-QP cumulative consumed message counters (for ACKs)
        self._consumed_msn: Dict[int, int] = {}

        # RC reliability machinery (None = historical lossless-wire model)
        self.reliability: Optional[ReliabilityEngine] = (
            ReliabilityEngine(self, self.config.reliability)
            if self.config.reliability is not None
            else None
        )

        # diagnostics
        self.data_messages_sent = 0
        self.acks_sent = 0
        self.acks_lost = 0
        self.terms_sent = 0

    # ------------------------------------------------------------------
    # resource creation
    # ------------------------------------------------------------------
    def create_channel(self, wakeup: Optional[WakeupSampler] = None, seed: int = 0) -> CompletionChannel:
        return CompletionChannel(self.sim, wakeup=wakeup, seed=seed)

    def create_cq(self, channel: Optional[CompletionChannel] = None) -> CompletionQueue:
        return CompletionQueue(channel)

    def create_qp(self, send_cq: CompletionQueue, recv_cq: CompletionQueue,
                  srq: Optional[SharedReceiveQueue] = None) -> QueuePair:
        qp = QueuePair(self, next(self._next_qpn), send_cq, recv_cq, srq=srq)
        self._qps[qp.qpn] = qp
        if self.fabric is not None:
            self.fabric.register_qpn(qp.qpn, self)
        return qp

    def create_srq(self, max_wr: int) -> SharedReceiveQueue:
        """Create a shared receive queue; pass it to :meth:`create_qp`."""
        return SharedReceiveQueue(max_wr)

    def register(self, buffer, access: Access = Access.remote()):
        """Register a buffer in this device's protection domain."""
        return self.pd.register(buffer, access)

    def close(self) -> None:
        """Tear down what a run registered, the way a verbs application
        does: destroy the QPs, deregister every memory region, and detach
        from the host, the wire and the fabric, so nothing below the device
        points back at it.  Counters stay readable."""
        self._qps.clear()
        self.pd.close()
        self.host.device = None
        self.tx = self.peer = self.fabric = None
        if self.reliability is not None:
            self.reliability.device = None

    # ------------------------------------------------------------------
    # link attachment
    # ------------------------------------------------------------------
    def attach_link(self, link: Link, endpoint: int) -> None:
        if self.link is not None:
            raise VerbsError("device already attached to a link")
        self.link = link
        self.endpoint = endpoint
        self.tx = link.attach(endpoint, self._on_wire)

    def attach_fabric(self, fabric, link: Link, endpoint: int, tx) -> None:
        """Bind this device to a multi-host fabric.

        *link* is the host's access link (kept for latency and ACK-loss
        queries), *tx* the addressed NIC port the fabric built (a
        :class:`~repro.simnet.fabric.NicPort`).  The fabric wires the
        delivery handler itself, stripping fabric frames before they reach
        :meth:`_on_wire`.
        """
        if self.link is not None:
            raise VerbsError("device already attached to a link")
        self.fabric = fabric
        self.link = link
        self.endpoint = endpoint
        self.tx = tx
        for qpn in self._qps:
            fabric.register_qpn(qpn, self)

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def kick_send(self, qp: QueuePair) -> None:
        """Tell the send pipeline that *qp* has work (called by post_send)."""
        if qp.qpn not in self._in_service:
            self._in_service.add(qp.qpn)
            self._service.append(qp)
        if self._tx_parked:
            self._tx_parked = False
            self.sim.call_in(0, self._tx_wake)
        else:
            self._tx_kicked = True

    # Wake-ups (at construction, on a kick while parked, once more on going
    # idle if kicked while busy) and per-WR overhead waits are a process
    # engine's start event, signal wake-ups and timeouts one for one, at the
    # same program points with the same delays, so the calendar sees
    # exactly the schedule such an engine would produce (an overhead wait
    # that nothing can interrupt elapses in place: Simulator.advance).  A
    # WR stays at the head of its send queue until it goes on the wire, so
    # a QP that dies in its overhead window flushes it in posting order.
    def _tx_wake(self, _arg=None) -> None:
        """Start the next WR on the wire, or park until kicked."""
        service = self._service
        in_service = self._in_service
        overhead = self.config.wr_overhead_ns
        while service:
            qp = service.popleft()
            in_service.discard(qp.qpn)
            sq = qp.sq
            if not sq or qp.state is not _READY:
                continue
            if overhead and not self._advance(overhead):
                self.sim.call_in(overhead, self._tx_wire, qp)
                return
            self._transmit_wr(qp, sq.pop(0))
            if sq and qp.qpn not in in_service:
                in_service.add(qp.qpn)
                service.append(qp)
        if self._tx_kicked:
            self._tx_kicked = False
            self.sim.call_in(0, self._tx_wake)
        else:
            self._tx_parked = True

    def _tx_wire(self, qp: QueuePair) -> None:
        """A WR's overhead elapsed: transmit the head of *qp*'s send queue
        (unless the QP left READY meanwhile: an ERROR QP sends nothing, and
        its flush completed the WR), then start the next one."""
        sq = qp.sq
        if qp.state is _READY:
            self._transmit_wr(qp, sq.pop(0))
            if sq and qp.qpn not in self._in_service:
                self._in_service.add(qp.qpn)
                self._service.append(qp)
        self._tx_wake()

    def _transmit_wr(self, qp: QueuePair, wr) -> None:
        tx = self.tx
        if tx is None:
            raise VerbsError("device not attached to a link")
        seq = qp._next_seq
        qp._next_seq = seq + 1
        payload = wr.payload
        if payload is None:
            # DMA-fetch the payload from local registered memory.  Like a
            # real HCA the engine reads the memory in place — the wire
            # carries a zero-copy view, valid under the RC contract that
            # the application must not touch the buffer until completion.
            sge = wr.sge
            addr, nbytes = sge.addr, sge.length
            # lookup_lkey is called only to raise its error
            mr = self.pd._by_lkey.get(sge.lkey) or self.pd.lookup_lkey(sge.lkey)
            base = mr.addr
            if not (mr.valid and base <= addr and addr + nbytes <= base + mr.length
                    and mr.access._value_ & _LOCAL_READ):
                mr.require(addr, nbytes, Access.LOCAL_READ)  # raises its error
            payload = Chunk(0, nbytes, mr.buffer.view(addr - base, nbytes))
        else:
            nbytes = payload.nbytes
        # positional, in field order: src_qpn, dst_qpn, opcode, seq,
        # payload, remote_addr, rkey, imm_data, wr_id
        msg = DataMessage(qp.qpn, qp.remote_qpn, wr.opcode, seq, payload,
                          wr.remote_addr, wr.rkey, wr.imm_data, wr.wr_id)
        qp.inflight[seq] = wr
        qp.messages_sent += 1
        self.data_messages_sent += 1
        wire = HEADER_BYTES + nbytes
        # The large-message penalty (HCA/LLC caching effect) slows the data
        # stream itself, so it occupies the wire rather than the WQE pipeline.
        config = self.config
        thr = config.large_msg_threshold
        extra_tx = (0 if thr is None or nbytes <= thr
                    else int((nbytes - thr) * config.large_msg_extra_ns_per_byte))
        tx.transmit(msg, wire, extra_tx)
        if self.reliability is not None:
            self.reliability.on_transmit(qp, wr, msg, wire, extra_tx)

    # ------------------------------------------------------------------
    # arrival path
    # ------------------------------------------------------------------
    def _on_wire(self, msg) -> None:
        if isinstance(msg, DataMessage):
            self._on_data(msg)
        elif isinstance(msg, AckMessage):
            self._on_ack(msg)
        elif isinstance(msg, Corrupted):
            self._on_corrupt(msg)
        elif isinstance(msg, TermMessage):
            self._on_term(msg)
        elif isinstance(msg, CmMessage):
            if self.cm_handler is None:
                raise VerbsError(f"CM message {msg.kind!r} arrived with no CM listener")
            self.cm_handler(msg)
        else:  # pragma: no cover - defensive
            raise VerbsError(f"unknown wire message {msg!r}")

    def _on_corrupt(self, wrapped: Corrupted) -> None:
        """A frame failed its CRC: discard silently, like a real port.

        Recovery (if any) is the sender's problem — its retransmission
        timer or a NAK for the resulting gap brings the data back.
        """
        if self.reliability is not None:
            self.reliability.stats.corrupt_discarded += 1

    def _on_data(self, msg: DataMessage, from_buffer: bool = False) -> None:
        """Execute an arriving message, then return the cumulative ACK.

        One frame, one call: the placement (:meth:`_place_send`, or the
        WRITE inline), the receive a WRITE_WITH_IMM consumes and the ACK
        are all done here, each field read once.
        """
        qp = self._qps.get(msg.dst_qpn)
        if qp is None:
            raise VerbsError(f"message for unknown QP {msg.dst_qpn}")
        opcode = msg.opcode
        rq = qp.recv_source
        rel = self.reliability
        if rel is not None:
            if qp.state is _ERROR:
                return  # arrivals on a dead QP are silently dropped
            verdict = rel.check_incoming(qp, msg)
            if verdict is not ACCEPT:
                if verdict is DUPLICATE:
                    rel.stats.duplicates_dropped += 1
                    # Re-ACK so a sender whose ACK was lost advances.
                    self._send_ack_message(qp)
                else:  # FUTURE: sequence gap
                    if rel.selective:
                        # Selective repeat: hold the frame for in-order
                        # release; the NAK advertises it in the SACK bitmap.
                        rel.buffer_future(qp, msg)
                    rel.send_nak(qp)
                return
            # ``not rq`` without ReceiveQueue.__len__'s Python call
            if opcode is not _WRITE and not (rq._run or rq._wrs):
                if qp.srq is not None:
                    qp.srq.empty_hits += 1
                rel.send_rnr(qp)
                return
        qp.messages_received += 1

        payload = msg.payload
        nbytes = 0 if payload is None else payload.nbytes
        if opcode is _SEND:
            self._place_send(qp, rq, payload, nbytes)
        elif opcode is _WRITE or opcode is _WRITE_IMM:
            mr = self.pd._by_rkey.get(msg.rkey)
            if mr is None:
                raise RemoteAccessError(f"RDMA WRITE with unknown rkey {msg.rkey}")
            addr, base = msg.remote_addr, mr.addr
            if not (mr.valid and base <= addr and addr + nbytes <= base + mr.length
                    and mr.access._value_ & _REMOTE_WRITE):
                mr.require(addr, nbytes, Access.REMOTE_WRITE)  # raises its error
            if payload is not None:
                mr.buffer.write_chunk(addr - base, payload)
            if opcode is _WRITE_IMM:
                if not (rq._run or rq._wrs):
                    raise self._receiver_not_ready(qp, "WRITE_WITH_IMM")
                wr = rq.take()
                qp.recv_cq.push(WorkCompletion(
                    wr.wr_id, _WC_RECV_IMM, _SUCCESS, nbytes, msg.imm_data, qp.qpn,
                    True, wr.context, {"chunk": payload, "remote_addr": addr}))
        else:  # pragma: no cover - defensive
            raise VerbsError(f"unexpected opcode {opcode}")

        # the cumulative ACK, out of band
        consumed = self._consumed_msn
        if msg.seq > consumed.get(qp.qpn, -1):
            consumed[qp.qpn] = msg.seq
        self._send_ack_message(qp)
        if rel is not None and rel.selective and not from_buffer:
            self._drain_ooo(qp, rel)

    def _drain_ooo(self, qp: QueuePair, rel: ReliabilityEngine) -> None:
        """Release buffered out-of-order frames now contiguous with the
        consumed msn, in order, through the normal placement path.

        A release can stall mid-run (e.g. a buffered SEND hitting an empty
        receive queue raises RNR); the blocked frame then stays buffered and
        the requester's RNR retransmit of the window head re-triggers
        delivery.  If frames remain buffered behind a *new* gap, a fresh NAK
        (the responder's rate limit is per expected seq, which just moved)
        tells the requester which holes to fill.
        """
        while True:
            consumed = self._consumed_msn.get(qp.qpn, -1)
            rel.purge_buffered_through(qp, consumed)
            buffered = rel.peek_buffered(qp, consumed + 1)
            if buffered is None:
                if rel.has_buffered(qp):
                    rel.send_nak(qp)
                return
            self._on_data(buffered, from_buffer=True)
            if self._consumed_msn.get(qp.qpn, -1) <= consumed:
                return  # blocked (RNR or dead QP); keep the frame buffered
            rel.pop_buffered(qp, buffered.seq)

    def _receiver_not_ready(self, qp: QueuePair, what: str) -> ReceiverNotReady:
        """The hard (no reliability layer to RNR-NAK) empty-receive-queue error."""
        srq = qp.srq
        if srq is None:
            return ReceiverNotReady(
                f"{what} on QP {qp.qpn} with empty receive queue "
                "(EXS credit accounting bug?)"
            )
        # A shared pool is sized for the expected concurrency, not for the
        # sum of every connection's credits, so running dry is a capacity
        # condition rather than an accounting bug.
        srq.empty_hits += 1
        attached = sum(1 for q in self._qps.values() if q.srq is srq)
        return ReceiverNotReady(
            f"{what} on QP {qp.qpn} with empty receive queue: the shared receive "
            f"pool (srq_depth={srq.max_wr}, {attached} attached QPs) is exhausted; "
            "raise srq_depth, or configure a ReliabilityConfig so RNR NAKs "
            "back the senders off until buffers are reposted"
        )

    def _place_send(self, qp: QueuePair, rq, payload: Optional[Chunk], nbytes: int) -> None:
        """Consume the RECV at the head of *rq* and place a SEND into it."""
        if not (rq._run or rq._wrs):
            raise self._receiver_not_ready(qp, f"SEND of {nbytes}B")
        wr = rq.take()
        sge = wr.sge
        if sge is None:
            if nbytes:
                raise BadWorkRequest(f"SEND of {nbytes}B overflows RECV of 0B")
        else:
            if nbytes > sge.length:
                raise BadWorkRequest(f"SEND of {nbytes}B overflows RECV of {sge.length}B")
            if payload is not None:
                addr = sge.addr
                mr = self.pd._by_lkey.get(sge.lkey) or self.pd.lookup_lkey(sge.lkey)
                base = mr.addr
                if not (mr.valid and base <= addr and addr + nbytes <= base + mr.length
                        and mr.access._value_ & _LOCAL_WRITE):
                    mr.require(addr, nbytes, Access.LOCAL_WRITE)  # raises its error
                mr.buffer.write_chunk(addr - base, payload)
        # positional, in field order: wr_id, opcode, status, byte_len,
        # imm_data, qp_num, wc_flags_with_imm, context, meta
        qp.recv_cq.push(WorkCompletion(
            wr.wr_id, _WC_RECV, _SUCCESS, nbytes, 0, qp.qpn,
            False, wr.context, {"chunk": payload, "remote_addr": 0}))

    # ------------------------------------------------------------------
    # acknowledgements
    # ------------------------------------------------------------------
    def _send_ack_message(self, qp: QueuePair, kind: str = "ack") -> None:
        """Send an ACK/NAK/RNR carrying the cumulative consumed msn.

        ACKs travel out of band (tiny coalesced link-layer packets), so
        impairment applies only drop/outage to them — checked *before* the
        jitter draw so a lost ACK consumes no jitter sample.  On a fabric
        the destination device is resolved through the QPN registry and the
        delay is the summed propagation of the routed path (ACKs bypass
        switch queues, like the coalesced link-level packets they model).
        """
        peer = self.peer
        link = self.link
        if peer is None and self.fabric is not None:
            peer = self.fabric.device_of_qpn(qp.remote_qpn)
        if peer is None or link is None:
            raise VerbsError("device has no peer for ACK delivery")
        msn = self._consumed_msn.get(qp.qpn, -1)
        impairment = link.impairment
        sim = self.sim
        if impairment is not None and impairment.ack_lost(self.endpoint, sim.now):
            self.acks_lost += 1
            return
        rel = self.reliability
        ack = AckMessage(qp.remote_qpn, msn, kind, 0 if rel is None else rel.sack_bitmap(qp))
        if self.peer is not None:
            # point-to-point: identical to the classic model (jitter draw
            # from this link's emulator included)
            prop = link.sample_propagation_ns(self.endpoint)
        else:
            prop = self.fabric.ack_path_ns(self, peer)
        turnaround = self.config.ack_turnaround_ns
        sim.call_in(turnaround + prop, peer._on_ack, ack)
        if sim._recorder is not None:
            sim._recorder.annotate_last(1, turnaround_ns=turnaround, prop_ns=prop)
        self.acks_sent += 1

    def _on_ack(self, ack: AckMessage) -> None:
        qp = self._qps.get(ack.dst_qpn)
        if qp is None:
            raise VerbsError(f"ACK for unknown QP {ack.dst_qpn}")
        rel = self.reliability
        if rel is None:
            # the in-flight WRs with seq <= msn: a prefix of ``inflight``,
            # whose keys arrive in seq order
            done = []
            inflight, msn = qp.inflight, ack.msn
            while inflight:
                seq = next(iter(inflight))
                if seq > msn:
                    break
                done.append(inflight.pop(seq))
        else:
            if qp.state is _ERROR:
                return
            if ack.kind == "nak":
                done = rel.on_nak(qp, ack.msn, ack.sack)
            elif ack.kind == "rnr":
                done = rel.on_rnr(qp, ack.msn, ack.sack)
            else:
                done = rel.on_ack(qp, ack.msn, ack.sack)
        push = qp.send_cq.push
        for wr in done:
            push(WorkCompletion(wr.wr_id, _WC_SEND if wr.opcode is _SEND else _WC_WRITE,
                                _SUCCESS, wr.sge.length, 0, qp.qpn, False, wr.context))

    # ------------------------------------------------------------------
    # fatal-error teardown (reliability layer)
    # ------------------------------------------------------------------
    def _qp_fatal(self, qp: QueuePair, status: WCStatus, pending: list) -> None:
        """Retries exhausted: error the QP, flush completions, tell the peer.

        *pending* is the unacked window in transmission order; its head
        carries *status* (the root cause), everything else flushes.  The
        terminate notification rides the fault-exempt CM-level path so the
        peer learns of the death even on a dead wire.
        """
        if qp.state is QPState.ERROR:
            return
        qp.to_error()
        tracer = self.host.tracer
        if tracer is not None:
            tracer.emit(self.sim.now, qp.qpn, self.host.name, "qp_error",
                        status=status.value, pending=len(pending))
        rec = self.sim._recorder
        if rec is not None:
            rec.failure(
                "qp_error",
                self.sim.now,
                qpn=qp.qpn,
                status=status.value,
                device=self.device_id,
                host=self.host.name,
                pending=len(pending),
            )
        qp.flush(status, pending)
        if self.tx is not None and qp.remote_qpn is not None:
            term = TermMessage(dst_qpn=qp.remote_qpn, reason=status.value)
            self.tx.transmit(term, term.wire_bytes())
            self.terms_sent += 1

    def _on_term(self, msg: TermMessage) -> None:
        """Peer QP died: mirror the error locally and flush our queues."""
        qp = self._qps.get(msg.dst_qpn)
        if qp is None or qp.state is QPState.ERROR:
            return
        qp.to_error()
        pending = (self.reliability.peer_terminated(qp)
                   if self.reliability is not None else list(qp.inflight.values()))
        qp.flush(WCStatus.WR_FLUSH_ERR, pending)

    # ------------------------------------------------------------------
    # CM transmission helper (used by repro.verbs.cm)
    # ------------------------------------------------------------------
    def send_cm(self, msg: CmMessage) -> None:
        if self.tx is None:
            raise VerbsError("device not attached to a link")
        self.tx.transmit(msg, msg.wire_bytes())


def connect_devices(sim: Simulator, host_a: Host, host_b: Host, link: Link,
                    config_a: Optional[DeviceConfig] = None,
                    config_b: Optional[DeviceConfig] = None) -> tuple[RdmaDevice, RdmaDevice]:
    """Create devices 1 and 2 on *link* endpoints 0/1 and cross-wire them."""
    keys = itertools.count(0x1000)
    dev_a = RdmaDevice(sim, host_a, config_a, device_id=1, keys=keys)
    dev_b = RdmaDevice(sim, host_b, config_b, device_id=2, keys=keys)
    dev_a.attach_link(link, 0)
    dev_b.attach_link(link, 1)
    dev_a.peer = dev_b
    dev_b.peer = dev_a
    return dev_a, dev_b
