"""The EXS connection: resources, completion handlers, and control plane.

One :class:`ExsConnection` backs one connected EXS socket.  It owns its
QP, the credit manager, the control queue and graceful close.  Its data
plane is the half pair registered for the socket's type and transport,
driven only through the contract of :mod:`repro.exs.transport`; the pair
owns its receive pool, hello fields, gauges and dispatch tables.

Its :class:`~repro.exs.shard.CqShard` poller, the EXS library thread,
calls :meth:`ExsConnection._dispatch` per completion and
:meth:`ExsConnection._progress_round` while the connection has work.
"""

from __future__ import annotations

from typing import Any, List, NoReturn, Optional

from ..core import ProtocolStats
from ..hosts.host import Host
from ..hosts.memory import Chunk, CopyMeter
from ..simnet import Simulator
from ..verbs import (
    SGE,
    CompletionChannel,
    CompletionQueue,
    Opcode,
    QueuePair,
    RdmaDevice,
    SendWR,
    WCOpcode,
    WCStatus,
    WorkCompletion,
    fixed_wakeup,
)
from .control import CTRL_WIRE_BYTES, POST_TRACE, ControlMsg, CreditMsg, FinMsg, decode_imm
from .credits import CreditManager
from .eventqueue import ExsEvent, ExsEventType
from .flags import ExsSocketOptions, SocketType
from .shard import CqShard
from .transport import ReceiverHalf, SenderHalf, resolve_pair

__all__ = ["ExsConnection"]

# enum members read through their class cost a lookup each, per completion
_SUCCESS = WCStatus.SUCCESS
_WRITE_DONE, _SEND_DONE = WCOpcode.RDMA_WRITE, WCOpcode.SEND
_WRITE_ARRIVED, _SEND_ARRIVED = WCOpcode.RECV_RDMA_WITH_IMM, WCOpcode.RECV


class ExsConnection:
    """State and completion handlers of one connected EXS socket."""

    # Declared: a connection has more fields than CPython keeps in a
    # compact shared-key instance dict, so a plain instance would carry a
    # full dict of its own.
    __slots__ = (
        "sim", "host", "device", "socket", "options", "conn_id", "costs", "socket_type",
        "transport", "_tx_cls", "_on_control", "_on_payload", "_on_imm", "srq_pool",
        "_shard", "channel", "cq", "qp", "credits", "tx_stats", "rx_stats", "copy_meter",
        "_wr_id", "rx", "tx", "peer_hello", "_ctrl_sge", "_ctrl_queue",
        "_credit_update_threshold", "tracer", "_last_tx_phase", "_last_rx_phase",
        "_last_discarded", "peer_conn_id", "_engine", "established", "closing",
        "close_event_posted", "_close_eq", "_close_context", "_fin", "_fin_acked",
        "broken", "error",
    )

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
        self.conn_id = next(socket.stack.conn_ids)
        self.costs = host.cpu.costs

        self.socket_type = socket_type
        # a stream socket that names a transport keeps it; the rest take the run's
        (self.transport, self._tx_cls, rx_cls,
         (self._on_control, self._on_payload, self._on_imm)) = resolve_pair(
            socket_type, options.transport or socket.stack.transport)
        if not options.native_write_with_imm and not self._tx_cls.emulates_write_with_imm:
            raise ValueError(f"native_write_with_imm=False has no effect with transport="
                             f"{self.transport!r}: its data is always a WRITE WITH IMM")
        if options.credits < self._tx_cls.min_credits:
            raise ValueError(f"credits={options.credits} is below {self._tx_cls.min_credits}, the "
                             f"fewest a {self._tx_cls.__name__} makes progress with")
        if shard is not None and options.busy_poll:
            raise ValueError(f"busy_poll=True has no effect with cq_shards="
                             f"{len(socket.stack.shards)}: the shard poller sleeps on its channel")
        if options.sender_copy and socket_type is not SocketType.SOCK_STREAM:
            raise ValueError(f"sender_copy=True has no effect with socket_type="
                             f"{socket_type.name}: staging is a byte-stream option")
        # Shared receive pool (ExsStack(srq_depth=...)): a pair whose receives
        # are interchangeable draws them from the stack-wide SRQ.
        if srq is not None and rx_cls.shares_srq:
            self.srq_pool = srq
            srq.attached += 1
        else:
            self.srq_pool = None
        if shard is None:
            # No stack shard: a poller of this connection's own.  Busy
            # polling spins on the CQ; a constant tiny delay stands in for
            # the poll-loop iteration time, and the poller accounts the
            # spin itself as library-core burn.
            wakeup = fixed_wakeup(100) if options.busy_poll else host.wakeup_sampler
            shard = CqShard(socket.stack, self.conn_id,
                            device.create_channel(wakeup=wakeup, seed=channel_seed))
        #: the CQ shard whose poller services this connection
        self._shard = shard
        self.channel: CompletionChannel = shard.channel
        self.cq: CompletionQueue = shard.cq
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

        #: the wr_id last taken: each posted work request takes the next
        self._wr_id = 0
        self.rx: ReceiverHalf = rx_cls(self)
        #: built by :meth:`on_peer_hello`, from the peer's hello
        self.tx: SenderHalf
        self.peer_hello: Optional[dict] = None
        # every control SEND names the first bytes of the receive pool
        mr = self.rx.pool_mr
        self._ctrl_sge = SGE(mr.addr, CTRL_WIRE_BYTES, mr.lkey)

        self._ctrl_queue: List[ControlMsg] = []
        #: reposts owed to the peer that warrant a standalone credit update
        self._credit_update_threshold = max(1, options.credits // 2)
        #: optional ProtocolTracer (see repro.trace); set on the host
        self.tracer = host.tracer
        self._last_tx_phase = 0
        self._last_rx_phase = 0
        self._last_discarded = 0
        #: the peer endpoint's conn_id, learnt from its hello (0 = unknown)
        self.peer_conn_id = 0
        self._engine = shard.engine
        self.established = False
        self.closing = False
        self.close_event_posted = False
        self._close_eq = None
        self._close_context = None
        #: the FIN this side queued, once its sends drained; its SEND
        #: completion (the peer has it) lets close complete
        self._fin: Optional[FinMsg] = None
        self._fin_acked = False
        #: True once the transport/protocol failed under this connection;
        #: every pending and future operation completes with an ERROR event.
        self.broken = False
        self.error: Optional[str] = None
        socket.stack.connections[self.conn_id] = self

    # ------------------------------------------------------------------
    # setup / handshake
    # ------------------------------------------------------------------
    def hello(self) -> dict:
        """Private data advertised to the peer during connection setup."""
        return {
            **self.rx.hello(),
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

        A shared SRQ pool was pre-filled once, at stack construction; the
        credits advertised to the peer still gate its sends, and pool
        exhaustion across connections resolves through RNR NAK + retry.
        """
        if self.srq_pool is None:
            self.rx.post_initial_recvs()

    def on_peer_hello(self, peer: dict) -> None:
        """Complete setup from the peer's hello and join the shard's poller."""
        for what, key, local in (("protocol mode", "mode", self.options.mode.value),
                                 ("socket type", "socket_type", self.socket_type.value),
                                 ("transport", "transport", self.transport)):
            if peer.get(key) != local:
                raise ValueError(f"{what} mismatch: local {local!r}, peer {peer.get(key)!r}")
        self.credits = CreditManager(initial_remote=int(peer["credits"]))
        self.peer_hello = peer
        self.tx = self._tx_cls(self)
        self.peer_conn_id = int(peer.get("conn_id", 0))
        if self.tracer is not None:
            self.trace("conn_open", peer=self.peer_conn_id,
                       socket_type=self.socket_type.value)
        telemetry = self.host.telemetry
        if telemetry is not None:
            telemetry.register_connection(self)
        self.established = True
        self._shard.register(self)

    def release(self) -> None:
        """Cut this connection out of its finished run (see
        :meth:`~repro.exs.socket.ExsStack.close`): stop a private poller,
        drop the reference to the socket and the two halves' references to
        this connection.  The socket still reaches it, so its statistics
        stay readable."""
        if self._shard.private:
            self._shard.close()
        self.socket = None
        self.rx.conn = None
        tx = getattr(self, "tx", None)  # built at the handshake
        if tx is not None:
            tx.conn = None

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Mark this connection for a progress round and wake the poller."""
        shard = self._shard
        shard._dirty[self.qp.qpn] = None
        if self.broken:
            # fail_connection kicks: the next lap sweeps dead connections
            shard._has_broken = True
        self._engine.kick()

    def queue_control(self, msg: ControlMsg) -> None:
        """Queue *msg* for the next progress round (which sends it)."""
        self._ctrl_queue.append(msg)
        self._shard._dirty[self.qp.qpn] = None

    def unhandled(self, what: Any) -> NoReturn:
        """A message or immediate outside this connection's pair tables."""
        raise RuntimeError(f"{what!r} is not handled by the {self.socket_type.name} "
                           f"{self.transport!r} transport")

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
        tx_algo = self.tx.algo
        if tx_algo is not None:
            if tx_algo.phase != self._last_tx_phase:
                self._last_tx_phase = tx_algo.phase
                self.tx_stats.note_phase(self.sim.now, tx_algo.phase)
                self.trace("phase", side="tx", phase=tx_algo.phase)
            d = self.tx_stats.adverts_discarded
            if d != self._last_discarded:
                self.trace("advert_drop", count=d - self._last_discarded)
                self._last_discarded = d
        rx_algo = self.rx.algo
        if rx_algo is not None and rx_algo.phase != self._last_rx_phase:
            self._last_rx_phase = rx_algo.phase
            self.rx_stats.note_phase(self.sim.now, rx_algo.phase)
            self.trace("phase", side="rx", phase=rx_algo.phase)

    # ------------------------------------------------------------------
    # user operations (called by ExsSocket; asynchronous)
    # ------------------------------------------------------------------
    def user_send(self, buffer, mr, offset: int, nbytes: int, eq, context) -> None:
        if self.broken:
            self.post_error(eq, context)
            return
        if self.options.sender_copy:
            self.sim.process(self.tx.submit_staged(buffer, offset, nbytes, eq, context),
                             name=f"exs{self.conn_id}-stage")
            return
        buffer.meter = self.copy_meter
        self.tx.submit(buffer, mr, offset, nbytes, eq, context)
        # kick(), for a whole connection
        self._shard._dirty[self.qp.qpn] = None
        self._engine.kick()

    def user_recv(self, urecv) -> None:
        if self.broken:
            self.post_error(urecv.eq, urecv.context)
            return
        urecv.buffer.meter = self.copy_meter
        advert = self.rx.submit(urecv)
        if advert is not None:
            self._ctrl_queue.append(advert)
        # queue_control() and kick(), for a whole connection
        self._shard._dirty[self.qp.qpn] = None
        self._engine.kick()

    def user_close(self, eq, context) -> None:
        """Graceful close: FIN after all pending sends drain."""
        if self.broken:
            self.post_error(eq, context)
            return
        self.closing = True
        self._close_eq = eq
        self._close_context = context
        self.kick()

    # ------------------------------------------------------------------
    # failure propagation
    # ------------------------------------------------------------------
    def post_error(self, eq, context) -> None:
        eq.post(ExsEvent(kind=ExsEventType.ERROR, socket=self.socket, context=context,
                         error=self.error or "connection broken"))

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
        rec = self.sim._recorder
        if rec is not None:
            rec.failure("conn_error", self.sim.now, conn=self.conn_id,
                        host=self.host.name, error=reason)
        for eq, context in self.tx.fail_pending():
            self.post_error(eq, context)
        for eq, context in self.rx.fail_pending():
            self.post_error(eq, context)
        if self.closing and not self.close_event_posted and self._close_eq is not None:
            self.close_event_posted = True
            self.post_error(self._close_eq, self._close_context)
        self.kick()  # wake the poller so it can let go of this connection

    # ------------------------------------------------------------------
    # the progress round (run by the poller)
    # ------------------------------------------------------------------
    def _progress_round(self):
        """Everything one poller pass does for this connection after
        draining the CQ: copies, advert flushing, the tx pump, close/control
        pumping, and EOF delivery.  Returns True if anything moved.

        The :class:`~repro.exs.shard.CqShard` poller runs it only for a
        connection marked since its last round and only when its work
        predicate, the guards below or-ed, holds.  A skipped pump is one
        whose first action would have been to return "nothing to do".
        """
        progressed = False
        rx = self.rx
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
        if self._ctrl_queue or (credits.local_repost_cum - credits.granted_cum
                                >= self._credit_update_threshold):
            ctrl = yield from self._pump_control()
            progressed = ctrl or progressed
        if rx.eof_seq is not None:
            progressed = rx.pump_eof() or progressed
        if self.tracer is not None:
            self._note_progress()
        return progressed

    # -- completion dispatch ---------------------------------------------
    def _dispatch(self, wc: WorkCompletion):
        """``(charge, handler)`` for *wc*: the poller charges the library
        core *charge* ns (a payload SEND costs what a WWI receive completion
        does; a control message less), then calls ``handler(self, wc)``.
        A failed completion breaks the connection instead and returns None."""
        # the poller dispatches no completion to a broken connection
        if wc.status is not _SUCCESS:
            self.fail_connection(f"transport error: {wc.status.value}")
            return None
        opcode = wc.opcode
        if opcode is _WRITE_DONE or opcode is _SEND_DONE:
            return self.costs.completion_ns, ExsConnection._handle_send_done
        if opcode is _WRITE_ARRIVED:
            return self.costs.completion_ns, ExsConnection._handle_data_arrival
        if opcode is _SEND_ARRIVED:
            if type(wc.meta["chunk"].obj) in self._on_control:
                return self.costs.control_ns, ExsConnection._handle_control_arrival
            return self.costs.completion_ns, ExsConnection._handle_payload_arrival
        raise RuntimeError(f"unexpected completion opcode {wc.opcode}")

    def _handle_send_done(self, wc: WorkCompletion) -> None:
        """One of our WRITEs / SENDs was acknowledged by the transport."""
        context = wc.context
        if context[0] == "data":
            _kind, usend, chunk = context
            if chunk.pin is not None:
                # The EXS-level ack frees the send window: from here the
                # user may reuse the buffer range, so the in-flight view
                # is dead (nothing re-delivers it — the transport ack
                # implies the responder consumed this seq, and any later
                # duplicate is discarded by the sequence check without
                # touching data).
                chunk.pin.release()
            self.tx.on_data_acked(usend, chunk.nbytes)
        elif context[0] == "fin":
            self._fin_acked = True

    def _handle_data_arrival(self, wc: WorkCompletion) -> None:
        kind, imm_id = decode_imm(wc.imm_data)
        handler = self._on_imm.get(kind)
        if handler is None:
            self.unhandled(f"immediate {wc.imm_data:#x}")
        self.recycle_recv(wc.context)
        chunk: Chunk = wc.meta["chunk"]
        handler(self.rx, imm_id, wc.byte_len, chunk.stream_offset, wc.meta["remote_addr"])

    def _handle_control_arrival(self, wc: WorkCompletion) -> None:
        msg = wc.meta["chunk"].obj
        handler, on_tx = self._on_control[type(msg)]
        self.recycle_recv(wc.context)
        self.credits.on_peer_grant(msg.credit_cum)
        handler(self.tx if on_tx else self.rx, msg)

    def _handle_payload_arrival(self, wc: WorkCompletion) -> None:
        msg = wc.meta["chunk"].obj
        handler = self._on_payload.get(type(msg))
        if handler is None:
            self.unhandled(msg)
        self.credits.on_peer_grant(msg.credit_cum)
        handler(self.rx, msg, wc.context)

    def recycle_recv(self, slot: Any) -> None:
        """Repost a consumed RECV (*slot*: its context) and account the
        credit to grant back."""
        if self.srq_pool is not None:
            self.srq_pool.repost()
        else:
            self.rx.repost_recv(slot)
        self.credits.local_repost_cum += 1

    # -- control-plane transmit -------------------------------------------
    def _pump_control(self):
        progressed = False
        queue = self._ctrl_queue
        credits = self.credits
        while queue and credits.available >= 1:
            msg = queue.pop(0)
            yield self.costs.send_control_ns
            self._post_control(msg)
            progressed = True
        # explicit credit return when there is no other outbound traffic
        if (not queue and credits.available >= 1 and credits.local_repost_cum
                - credits.granted_cum >= self._credit_update_threshold):
            yield self.costs.send_control_ns
            self._post_control(CreditMsg(credit_cum=0))
            progressed = True
        return progressed

    def _post_control(self, msg: ControlMsg) -> None:
        if self.tracer is not None:
            traced = POST_TRACE.get(type(msg))
            if traced is not None:
                kind, fields = traced(msg)
                self.trace(kind, **fields)
        kind = "fin" if msg is self._fin else "ctrl"
        # Stamp the credit grant: ``credit_cum`` is every control message's
        # last field, so one constructor call passes the others through.
        cls = type(msg)
        msg = cls(*map(msg.__getattribute__, cls.__match_args__[:-1]),
                  self.credits.grant_now())
        self.credits.consume(1)
        self._wr_id += 1
        self.qp.post_send(SendWR(opcode=Opcode.SEND, wr_id=self._wr_id, sge=self._ctrl_sge,
                                 payload=Chunk(0, CTRL_WIRE_BYTES, None, obj=msg),
                                 context=(kind, msg)))

    # -- close handling -----------------------------------------------------
    def _pump_close(self) -> bool:
        """One step of a graceful close (the engine calls it while ``closing``)."""
        if self._fin is not None:
            if self._fin_acked and not self.close_event_posted and self._close_eq is not None:
                self.close_event_posted = True
                self._close_eq.post(ExsEvent(kind=ExsEventType.CLOSE, socket=self.socket,
                                             context=self._close_context))
            return False
        if not self.tx.drained:
            return False
        self._fin = FinMsg(final_seq=self.tx.final_seq)
        self.queue_control(self._fin)
        return True
