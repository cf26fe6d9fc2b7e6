"""The EXS connection: resources, progress engine, and control plane.

One :class:`ExsConnection` backs one connected EXS socket.  It owns the
verbs resources (QP, CQ, completion channel, pre-posted receive pool), the
two protocol halves (:class:`~repro.exs.stream_sender.StreamSenderHalf`,
:class:`~repro.exs.stream_receiver.StreamReceiverHalf` — or their
SOCK_SEQPACKET counterparts), the credit manager, and the **progress
engine** standing in for the EXS library thread that services this socket.

The engine models the event-notification discipline the paper's
experiments use: drain the CQ and all derived work while awake; arm the CQ
and block on the completion channel (paying the OS wake-up latency) only
when nothing is runnable.  It is no simulation process: its loop is a
generator that yields the library-core nanoseconds each step charges, or
:data:`~repro.exs.engine.SLEEP`, and :class:`~repro.exs.engine.Engine`
drives it from calendar callbacks (on a sharded stack the shard's poller
drives this connection's handlers instead).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Optional

from ..core import ProtocolStats
from ..core.invariants import require
from ..hosts.host import Host
from ..hosts.memory import Chunk, CopyMeter
from ..simnet import Simulator
from ..verbs import (
    SGE,
    CompletionChannel,
    CompletionQueue,
    Opcode,
    QPStateError,
    QueuePair,
    RdmaDevice,
    RecvWR,
    SendWR,
    WCOpcode,
    WorkCompletion,
)
from .control import (
    CTRL_WIRE_BYTES,
    AdvertMsg,
    ControlMsg,
    CreditMsg,
    CtsMsg,
    DataNotifyMsg,
    EagerDataMsg,
    FinMsg,
    IMM_DIRECT,
    IMM_INDIRECT,
    IMM_RENDEZVOUS,
    RingAckMsg,
    RtsMsg,
    decode_imm,
)
from .credits import CreditError, CreditManager
from .engine import SLEEP, Engine
from .eventqueue import ExsEvent, ExsEventType
from .flags import ExsSocketOptions, SocketType, TRANSPORT_EAGER_RENDEZVOUS, TRANSPORT_WWI
from .rendezvous import RdvReceiverHalf, RdvSenderHalf
from .seqpacket import SeqPacketReceiverHalf, SeqPacketSenderHalf
from .stream_receiver import StreamReceiverHalf
from .stream_sender import StreamSenderHalf

__all__ = ["ExsConnection"]

#: size of each pre-posted receive buffer (large enough for any control msg)
RECV_BUF_BYTES = 256


class ExsConnection:
    """Engine and state for one connected EXS socket."""

    _ids = itertools.count(1)

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        device: RdmaDevice,
        socket: Any,
        options: ExsSocketOptions,
        *,
        channel_seed: int,
        socket_type: SocketType = SocketType.SOCK_STREAM,
        srq=None,
        shard=None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.device = device
        self.socket = socket
        self.options = options
        self.conn_id = next(ExsConnection._ids)
        self.costs = host.cpu.costs

        self.socket_type = socket_type
        # a socket that names a transport keeps it; the rest take the run's
        self.transport = (
            (options.transport or socket.stack.transport)
            if socket_type is SocketType.SOCK_STREAM else TRANSPORT_WWI
        )
        # Shared receive pool (ExsStack(srq_depth=...)): control-plane
        # transports draw receives from the stack-wide SRQ instead of
        # posting per-QP buffers.  Eager transport keeps per-QP receives —
        # its payloads land in per-connection bounce slots.
        if srq is not None and self.transport != TRANSPORT_EAGER_RENDEZVOUS:
            self.srq_pool = srq
            srq.attached += 1
        else:
            self.srq_pool = None
        #: the CQ shard servicing this connection (ExsStack(cq_shards=...));
        #: None = the connection runs its own engine process
        self._shard = shard
        if shard is not None:
            self.channel: CompletionChannel = shard.channel
            self.cq: CompletionQueue = shard.cq
        else:
            if options.busy_poll:
                # Busy polling: the progress thread spins on the CQ; a
                # constant tiny delay stands in for the poll-loop iteration
                # time, and the spin time itself is accounted as CPU burn in
                # the engine loop.
                from ..verbs.comp_channel import fixed_wakeup

                wakeup = fixed_wakeup(100)
            else:
                wakeup = getattr(host, "wakeup_sampler", None)
            self.channel = device.create_channel(wakeup=wakeup, seed=channel_seed)
            self.cq = device.create_cq(self.channel)
        self.qp: QueuePair = device.create_qp(
            self.cq, self.cq,
            srq=self.srq_pool.srq if self.srq_pool is not None else None,
        )

        self.credits: Optional[CreditManager] = None  # set once hello exchanged

        # statistics (tx = our sender half, rx = our receiver half)
        self.tx_stats = ProtocolStats()
        self.rx_stats = ProtocolStats()
        #: payload-plane copy accounting: every buffer this connection moves
        #: data through (ring, staging, user send/recv buffers) charges this
        #: meter, so "copied exactly once" is directly assertable.
        self.copy_meter = CopyMeter()

        if self.transport == TRANSPORT_EAGER_RENDEZVOUS:
            # Eager payloads are DMA-placed into per-RECV bounce slots, so
            # every slot must fit the largest eager message; the slot copy
            # is the eager path's first metered copy.
            self._slot_bytes = max(RECV_BUF_BYTES, options.eager_threshold)
            self.recv_pool_buf = host.alloc(
                options.credits * self._slot_bytes,
                real=options.real_data,
                label=f"exs{self.conn_id}:eager",
            )
            self.recv_pool_buf.meter = self.copy_meter
            self._free_slots = list(range(options.credits - 1, -1, -1))
        else:
            # Control messages carry their payload as a python object, so a
            # single shared synthetic buffer backs the whole pool.
            self._slot_bytes = None
            self.recv_pool_buf = host.alloc(
                RECV_BUF_BYTES, real=False, label=f"exs{self.conn_id}:ctrl"
            )
            self._free_slots = None
        self._recv_pool_buf = self.recv_pool_buf
        self._recv_pool_mr = mr = device.register(self.recv_pool_buf)
        # every control SEND and control-pool repost names the same range
        self._ctrl_sge = SGE(mr.addr, CTRL_WIRE_BYTES, mr.lkey)
        self._recv_sge = SGE(mr.addr, RECV_BUF_BYTES, mr.lkey)

        if socket_type is SocketType.SOCK_STREAM:
            if self.transport == TRANSPORT_EAGER_RENDEZVOUS:
                # no intermediate ring: staging happens in the bounce slots
                self.ring_buffer = None
                self.ring_mr = None
                self.tx = RdvSenderHalf(self)
                self.rx = RdvReceiverHalf(self)
            else:
                # intermediate ring for data we RECEIVE
                self.ring_buffer = host.alloc(
                    options.ring_capacity, real=options.real_data,
                    label=f"exs{self.conn_id}:ring"
                )
                self.ring_buffer.meter = self.copy_meter
                self.ring_mr = device.register(self.ring_buffer)
                self.tx = StreamSenderHalf(self)
                self.rx = StreamReceiverHalf(self, self.ring_buffer, self.ring_mr)
        else:
            self.ring_buffer = None
            self.ring_mr = None
            self.tx = SeqPacketSenderHalf(self)
            self.rx = SeqPacketReceiverHalf(self)

        self._ctrl_queue: Deque[ControlMsg] = deque()
        self._credit_update_threshold = options.effective_credit_update_threshold()
        #: optional ProtocolTracer (see repro.trace); set on the host
        self.tracer = getattr(host, "tracer", None)
        self._last_tx_phase = 0
        self._last_rx_phase = 0
        self._last_discarded = 0
        self._wr_ids = itertools.count(1)
        #: the peer endpoint's conn_id, learnt from its hello (0 = unknown)
        self.peer_conn_id = 0
        # on a sharded stack, kicks wake the shard poller instead of a
        # per-connection engine
        self._engine = shard.engine if shard is not None else Engine(sim, host.cpu, self.channel)
        self.established = False
        self.closing = False
        self.close_event_posted = False
        self._close_eq = None
        self._close_context = None
        #: True once the transport/protocol failed under this connection;
        #: every pending and future operation completes with an ERROR event.
        self.broken = False
        self.error: Optional[str] = None

    # ------------------------------------------------------------------
    # setup / handshake
    # ------------------------------------------------------------------
    def hello(self) -> dict:
        """Private data advertised to the peer during connection setup."""
        return {
            "ring_addr": self.ring_mr.addr if self.ring_mr else 0,
            "ring_rkey": self.ring_mr.rkey if self.ring_mr else 0,
            "ring_capacity": self.ring_buffer.nbytes if self.ring_buffer else 0,
            "credits": self.options.credits,
            "mode": self.options.mode.value,
            "socket_type": self.socket_type.value,
            "transport": self.transport,
            # lets telemetry pair the two endpoints of one socket pair,
            # which span stitching needs to follow a message across hosts
            "conn_id": self.conn_id,
        }

    def post_initial_recvs(self) -> None:
        """Pre-post the receive pool (paper §II-B: *n* RECVs at startup).

        On an SRQ-pooled stack the shared pool was pre-filled once at stack
        construction, so there is nothing to post per connection — the
        credits advertised to the peer still gate its sends, but pool
        exhaustion across connections is now possible and resolves through
        RNR NAK + retry.

        The control pool is one run of identical RECVs, posted as one lazy
        chain: it takes the next ``credits`` wr_ids from the connection's
        counter, as posting them one by one would.  Eager bounce slots
        each have their own SGE and context, so they are posted one by one.
        """
        if self.srq_pool is not None:
            return
        credits = self.options.credits
        if self._slot_bytes is not None:
            for _ in range(credits):
                self._post_recv_wr()
            return
        first = self.next_wr_id()
        self._wr_ids = itertools.count(first + credits)
        self.qp.prefill_recv(credits, self._recv_sge, wr_id_start=first)

    def _post_recv_wr(self) -> None:
        if self._slot_bytes is None:
            self.qp.post_recv(RecvWR(wr_id=self.next_wr_id(), sge=self._recv_sge))
            return
        slot = self._free_slots.pop()
        self.qp.post_recv(
            RecvWR(
                wr_id=self.next_wr_id(),
                sge=SGE(
                    self._recv_pool_mr.addr + self.eager_slot_offset(slot),
                    self._slot_bytes,
                    self._recv_pool_mr.lkey,
                ),
                context=slot,
            )
        )

    def eager_slot_offset(self, slot: int) -> int:
        """Byte offset of bounce slot *slot* within the receive pool."""
        return slot * self._slot_bytes

    def recycle_eager_slot(self, slot: int) -> None:
        """An eager payload was copied out: repost its slot, return the credit."""
        self._free_slots.append(slot)
        self._recycle_recv(None)

    def on_peer_hello(self, peer: dict) -> None:
        """Complete setup from the peer's hello and start the engine."""
        if peer.get("mode") != self.options.mode.value:
            raise ValueError(
                f"protocol mode mismatch: local {self.options.mode.value!r}, "
                f"peer {peer.get('mode')!r}"
            )
        if peer.get("socket_type") != self.socket_type.value:
            raise ValueError(
                f"socket type mismatch: local {self.socket_type.value!r}, "
                f"peer {peer.get('socket_type')!r}"
            )
        if peer.get("transport", "wwi") != self.transport:
            raise ValueError(
                f"transport mismatch: local {self.transport!r}, "
                f"peer {peer.get('transport')!r}"
            )
        self.credits = CreditManager(
            initial_remote=int(peer["credits"]),
            control_reserve=self.options.control_credit_reserve,
        )
        self.tx.configure_peer(
            ring_addr=int(peer["ring_addr"]),
            ring_rkey=int(peer["ring_rkey"]),
            ring_capacity=int(peer["ring_capacity"]),
        )
        self.peer_conn_id = int(peer.get("conn_id", 0))
        if self.tracer is not None:
            self.trace("conn_open", peer=self.peer_conn_id)
        telemetry = getattr(self.host, "telemetry", None)
        if telemetry is not None:
            telemetry.register_connection(self)
        self.established = True
        if self._shard is not None:
            # sharded stack: the shard's poller services this connection
            self._shard.register(self)
            return
        # An engine death is an implementation bug: it raises, naming the
        # connection, instead of letting the simulation quietly deadlock.
        self._engine.start(self._engine_loop(), f"EXS engine for connection {self.conn_id}")

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def next_wr_id(self) -> int:
        return next(self._wr_ids)

    def kick(self) -> None:
        """Wake the engine (user posted work / external state change)."""
        if self._shard is not None:
            self._shard.mark(self)
        self._engine.kick()

    def queue_control(self, msg: ControlMsg) -> None:
        self._ctrl_queue.append(msg)

    def trace(self, kind: str, **fields) -> None:
        """Emit a protocol trace event (no-op unless a tracer is attached).

        Under causality capture, every trace event also carries the id of
        the causal node whose dispatch produced it (``cause``) — the bridge
        between the protocol-level span stream and the kernel's causal DAG.
        """
        if self.tracer is not None:
            rec = self.sim._recorder
            if rec is not None:
                fields["cause"] = rec.current
            self.tracer.emit(self.sim.now, self.conn_id, self.host.name, kind, **fields)

    def _note_progress(self) -> None:
        """Record phase transitions and ADVERT drops for tracing/diagnostics."""
        tx_algo = getattr(self.tx, "algo", None)
        if tx_algo is not None:
            if tx_algo.phase != self._last_tx_phase:
                self._last_tx_phase = tx_algo.phase
                self.tx_stats.note_phase(self.sim.now, tx_algo.phase)
                self.trace("phase", side="tx", phase=tx_algo.phase)
            d = self.tx_stats.adverts_discarded
            if d != self._last_discarded:
                self.trace("advert_drop", count=d - self._last_discarded)
                self._last_discarded = d
        rx_algo = getattr(self.rx, "algo", None)
        if rx_algo is not None and rx_algo.phase != self._last_rx_phase:
            self._last_rx_phase = rx_algo.phase
            self.rx_stats.note_phase(self.sim.now, rx_algo.phase)
            self.trace("phase", side="rx", phase=rx_algo.phase)

    # ------------------------------------------------------------------
    # user operations (called by ExsSocket; asynchronous)
    # ------------------------------------------------------------------
    def user_send(self, buffer, mr, offset: int, nbytes: int, eq, context) -> None:
        if self.broken:
            self._post_error(eq, context)
            return
        if self.options.sender_copy and self.socket_type is SocketType.SOCK_STREAM:
            # SDP-BCopy / rsockets semantics: copy into a pre-registered
            # library staging buffer on the application core, complete the
            # user send immediately afterwards, and transmit from the copy.
            self.sim.process(
                self._staged_send(buffer, offset, nbytes, eq, context),
                name=f"exs{self.conn_id}-stage",
            )
            return
        buffer.meter = self.copy_meter
        self.tx.submit(buffer, mr, offset, nbytes, eq, context)
        self.kick()

    def _staged_send(self, buffer, offset: int, nbytes: int, eq, context):
        yield from self.host.app_cpu.work(
            self.costs.copy_ns(nbytes, self.host.copy_bandwidth_bps)
        )
        if self.broken:
            # The connection died while the staging copy ran.
            self._post_error(eq, context)
            return
        staging = self.host.alloc(nbytes, real=self.options.real_data and buffer.is_real,
                                  label=f"exs{self.conn_id}:stage")
        staging.meter = self.copy_meter
        if staging.is_real:
            # One metered copy straight from a view of the user buffer into
            # staging (the deliberate sender-copy of SDP-BCopy semantics).
            staging.write(0, buffer.view(offset, nbytes))
        staging_mr = self.device.register(staging)
        usend = self.tx.submit(staging, staging_mr, 0, nbytes, eq, context)
        usend.notify_completion = False
        # TCP-style semantics: the user's buffer is free as soon as the
        # copy is done; completion is delivered now.
        eq.post(ExsEvent(kind=ExsEventType.SEND, socket=self.socket,
                         nbytes=nbytes, context=context))
        self.kick()

    def user_recv(self, urecv) -> None:
        if self.broken:
            self._post_error(urecv.eq, urecv.context)
            return
        urecv.buffer.meter = self.copy_meter
        advert = self.rx.submit(urecv)
        if advert is not None:
            self.queue_control(advert)
        self.kick()

    def user_close(self, eq, context) -> None:
        """Graceful close: FIN after all pending sends drain."""
        if self.broken:
            self._post_error(eq, context)
            return
        self.closing = True
        self._close_eq = eq
        self._close_context = context
        self.kick()

    # ------------------------------------------------------------------
    # failure propagation
    # ------------------------------------------------------------------
    def _post_error(self, eq, context) -> None:
        eq.post(
            ExsEvent(
                kind=ExsEventType.ERROR,
                socket=self.socket,
                context=context,
                error=self.error or "connection broken",
            )
        )

    def fail_connection(self, reason: str) -> None:
        """Transport or protocol failure: break the socket, error all ops.

        Idempotent.  Every incomplete ``exs_send``/``exs_recv`` (and a
        pending close) gets an :attr:`ExsEventType.ERROR` completion so
        blocked applications wake instead of hanging forever.
        """
        if self.broken:
            return
        self.broken = True
        self.error = reason
        self.trace("conn_error", reason=reason)
        if self.sim.tracing:
            self.sim.trace("exs", f"conn{self.conn_id} failed: {reason}")
        rec = self.sim._recorder
        if rec is not None:
            rec.failure(
                "conn_error",
                self.sim.now,
                conn=self.conn_id,
                host=self.host.name,
                error=reason,
            )
        for eq, context in self.tx.fail_pending():
            self._post_error(eq, context)
        for eq, context in self.rx.fail_pending():
            self._post_error(eq, context)
        if self.closing and not self.close_event_posted and self._close_eq is not None:
            self.close_event_posted = True
            self._post_error(self._close_eq, self._close_context)
        self.kick()  # wake the engine so it can exit

    # ------------------------------------------------------------------
    # the progress engine
    # ------------------------------------------------------------------
    def _engine_loop(self):
        while not self.broken:
            progressed = True
            try:
                while progressed and not self.broken:
                    progressed = False
                    wcs = self.cq.poll()
                    for wc in wcs:
                        yield from self._handle_wc(wc)
                    if wcs:
                        progressed = True
                    if self.broken:
                        break
                    progressed = (yield from self._progress_round()) or progressed
            except (CreditError, QPStateError) as exc:
                # The QP died under us (timer-driven teardown between engine
                # steps) or credit accounting collapsed with it: survivable.
                self.fail_connection(f"{type(exc).__name__}: {exc}")
            if self.broken:
                return
            # idle: arm and sleep (or spin, under busy_poll)
            self.cq.req_notify()
            if len(self.cq):
                continue
            idle_start = self.sim.now
            yield SLEEP
            if self.options.busy_poll:
                # the poll loop burned the library core the whole time
                self.host.cpu.record_busy(idle_start, self.sim.now)

    def _progress_round(self):
        """Everything one engine pass does after draining the CQ: copies,
        advert flushing, the tx pump, close/control pumping, and EOF
        delivery.  Returns True if anything moved.

        Factored out of :meth:`_engine_loop` (which preserves its exact
        operation order) so a :class:`~repro.exs.shard.CqShard` poller can
        run progress rounds for many connections around one shared CQ.
        """
        progressed = False
        rx = self.rx
        # Each sub-pump sits behind a plain attribute test, so a quiescent
        # round — the common case: the engine re-checks after every wake-up
        # — makes no calls at all.  A skipped pump is one whose first
        # action would have been to return "nothing to do".
        if rx.copy_ready:
            # one copy at a time so completions interleave realistically
            plan = rx.next_copy()
            if plan is not None:
                yield from rx.execute_copy(plan)
                progressed = True
        if rx.adverts_due:
            # re-advertise queued receives once the gate opens
            for advert_msg in rx.flush_adverts():
                self.queue_control(advert_msg)
                progressed = True
        if self.tx.pending:
            sent = yield from self.tx.pump()
            progressed = bool(sent) or progressed
        if self.closing:
            progressed = self._pump_close() or progressed
        credits = self.credits
        if self._ctrl_queue or (
            credits is not None
            and credits.local_repost_cum - credits.granted_cum
            >= self._credit_update_threshold
        ):
            ctrl = yield from self._pump_control()
            progressed = ctrl or progressed
        if rx.eof_seq is not None:
            progressed = rx.pump_eof() or progressed
        if self.tracer is not None:
            self._note_progress()
        return progressed

    # -- completion dispatch ---------------------------------------------
    def _handle_wc(self, wc: WorkCompletion):
        if self.broken:
            return
        if not wc.ok:
            self.fail_connection(f"transport error: {wc.status.value}")
            return
        if wc.opcode is WCOpcode.RECV_RDMA_WITH_IMM:
            yield from self._handle_data_arrival(wc)
        elif wc.opcode is WCOpcode.RECV:
            yield from self._handle_control_arrival(wc)
        elif wc.opcode is WCOpcode.RDMA_WRITE:
            # one of our WWIs was acknowledged by the transport
            yield self.costs.completion_ns
            kind, usend, chunk = wc.context
            require(kind == "data", "wc dispatch", "unexpected send-completion context")
            if chunk.pin is not None:
                # The EXS-level ack frees the send window: from here the
                # user may reuse the buffer range, so the in-flight view is
                # dead (nothing re-delivers it — the transport ack implies
                # the responder consumed this seq, and any later duplicate
                # is discarded by the sequence check without touching data).
                chunk.pin.release()
            self.tx.on_data_acked(usend, chunk.nbytes)
        elif wc.opcode is WCOpcode.SEND:
            # control (or eager-data) message send completion
            yield self.costs.completion_ns
            if isinstance(wc.context, tuple) and wc.context:
                if wc.context[0] == "fin":
                    self.tx.fin_acked = True
                elif wc.context[0] == "eager":
                    # the peer's bounce slot holds the bytes now: the user
                    # may reuse the send buffer, so drop the in-flight view
                    _kind, usend, chunk = wc.context
                    if chunk.pin is not None:
                        chunk.pin.release()
                    self.tx.on_data_acked(usend, chunk.nbytes)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unexpected completion opcode {wc.opcode}")

    def _handle_data_arrival(self, wc: WorkCompletion):
        yield self.costs.completion_ns
        self._recycle_recv(wc)
        kind, advert_id = decode_imm(wc.imm_data)
        chunk: Chunk = wc.meta["chunk"]
        remote_addr: int = wc.meta["remote_addr"]
        if kind == IMM_DIRECT:
            self.rx.on_direct_arrival(advert_id, wc.byte_len, chunk.stream_offset, remote_addr)
        elif kind == IMM_INDIRECT:
            self.rx.on_indirect_arrival(wc.byte_len, chunk.stream_offset, remote_addr)
        elif kind == IMM_RENDEZVOUS:
            self.rx.on_rendezvous_arrival(wc.byte_len, chunk.stream_offset)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"bad immediate {wc.imm_data:#x}")

    def _handle_control_arrival(self, wc: WorkCompletion):
        chunk: Chunk = wc.meta["chunk"]
        msg = chunk.obj
        # Dispatching a data arrival does the same work as a WWI receive
        # completion; other control messages are lighter.
        data_arrival = isinstance(msg, (DataNotifyMsg, EagerDataMsg))
        cost = self.costs.completion_ns if data_arrival else self.costs.control_ns
        yield cost
        if isinstance(msg, EagerDataMsg):
            # The payload occupies the bounce slot until it is copied into
            # user memory; the slot (and its credit) recycles only then —
            # that deferral is the eager path's flow control.
            if self.credits is not None and hasattr(msg, "credit_cum"):
                self.credits.on_peer_grant(msg.credit_cum)
            self.rx.on_eager_arrival(msg, wc.context)
            return
        self._recycle_recv(wc)
        if self.credits is not None and hasattr(msg, "credit_cum"):
            self.credits.on_peer_grant(msg.credit_cum)
        if isinstance(msg, AdvertMsg):
            self.trace("advert_rx", seq=msg.advert.seq, phase=msg.advert.phase)
            self.tx.on_advert(msg.advert)
        elif isinstance(msg, DataNotifyMsg):
            # iWARP emulation: this SEND notifies of an RDMA WRITE that the
            # transport already placed (same QP, in order).
            kind, advert_id = decode_imm(msg.imm_data)
            if kind == IMM_DIRECT:
                self.rx.on_direct_arrival(advert_id, msg.nbytes, msg.stream_offset, msg.remote_addr)
            elif kind == IMM_INDIRECT:
                self.rx.on_indirect_arrival(msg.nbytes, msg.stream_offset, msg.remote_addr)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"bad notify immediate {msg.imm_data:#x}")
        elif isinstance(msg, RingAckMsg):
            self.tx.on_ring_ack(msg.copied_cum)
        elif isinstance(msg, CreditMsg):
            self.credits.on_peer_grant(msg.credit_cum)
        elif isinstance(msg, FinMsg):
            self.rx.on_fin(msg.final_seq)
        elif isinstance(msg, RtsMsg):
            self.rx.on_rts(msg)
        elif isinstance(msg, CtsMsg):
            self.tx.on_cts(msg)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown control message {msg!r}")

    def _recycle_recv(self, wc: Optional[WorkCompletion] = None) -> None:
        """Repost the consumed RECV and account the credit to grant back."""
        if wc is not None and self._slot_bytes is not None and wc.context is not None:
            self._free_slots.append(wc.context)
        if self.srq_pool is not None:
            self.srq_pool.repost()
        else:
            self._post_recv_wr()
        if self.credits is not None:
            self.credits.on_local_repost()

    # -- control-plane transmit -------------------------------------------
    def _pump_control(self):
        progressed = False
        while self._ctrl_queue and self.credits.can_send_control():
            msg = self._ctrl_queue.popleft()
            yield self.costs.send_control_ns
            self._post_control(msg)
            progressed = True
        # explicit credit return when there is no other outbound traffic
        if (
            not self._ctrl_queue
            and self.credits is not None
            and self.credits.ungranted() >= self._credit_update_threshold
            and self.credits.can_send_control()
        ):
            yield self.costs.send_control_ns
            self._post_control(CreditMsg(credit_cum=0))
            progressed = True
        return progressed

    def _post_control(self, msg: ControlMsg) -> None:
        if self.tracer is not None:
            if isinstance(msg, AdvertMsg):
                self.trace("advert_tx", seq=msg.advert.seq, phase=msg.advert.phase,
                           nbytes=msg.advert.length)
            elif isinstance(msg, RingAckMsg):
                self.trace("ring_ack", copied=msg.copied_cum)
            elif isinstance(msg, FinMsg):
                self.trace("fin", seq=msg.final_seq)
        # Stamp the credit grant: ``credit_cum`` is every control message's
        # last field, so one constructor call passes the others through.
        cls = type(msg)
        msg = cls(*map(msg.__getattribute__, cls.__match_args__[:-1]),
                  self.credits.grant_now())
        context = ("ctrl", msg)
        if isinstance(msg, FinMsg):
            context = ("fin", msg)
        self.credits.consume(1)
        self.qp.post_send(
            SendWR(
                opcode=Opcode.SEND,
                wr_id=self.next_wr_id(),
                sge=self._ctrl_sge,
                payload=Chunk(0, CTRL_WIRE_BYTES, None, obj=msg),
                context=context,
            )
        )

    # -- close handling -----------------------------------------------------
    def _pump_close(self) -> bool:
        """One step of a graceful close (the engine calls it while ``closing``)."""
        tx = self.tx
        if tx.fin_sent:
            if (
                tx.fin_acked
                and not self.close_event_posted
                and self._close_eq is not None
            ):
                self.close_event_posted = True
                self._close_eq.post(
                    ExsEvent(
                        kind=ExsEventType.CLOSE,
                        socket=self.socket,
                        context=self._close_context,
                    )
                )
            return False
        if not tx.drained:
            return False
        self.queue_control(FinMsg(final_seq=tx.final_seq))
        tx.fin_sent = True
        return True
