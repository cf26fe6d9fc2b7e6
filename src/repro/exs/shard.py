"""Shared per-host EXS resources: the SRQ receive pool and CQ shards.

Every EXS connection's completions are drained by a :class:`CqShard`
poller, by default a private one around the connection's own channel and
CQ: faithful to the paper's two-host experiments, but a host terminating
N connections then posts O(N·credits) receive buffers and runs N
pollers.  Two opt-in resources make that O(1) and O(K) per host: one
:class:`SrqPool` (``ExsStack(srq_depth=...)``) and K stack shards
(``ExsStack(cq_shards=K)``), each a :class:`CqShard` shared by many
connections.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Optional

from ..verbs import QPStateError, SGE
from .control import RECV_BUF_BYTES
from .credits import CreditError
from .engine import SLEEP, Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..verbs import CompletionChannel
    from .connection import ExsConnection
    from .socket import ExsStack

__all__ = ["SrqPool", "CqShard"]


class SrqPool:
    """A stack-wide shared receive pool for control-plane buffers.

    Owns the :class:`~repro.verbs.srq.SharedReceiveQueue`, the single
    synthetic backing buffer (control messages carry their payload as a
    python object, so one 256-byte buffer backs every slot), and its
    memory registration.  Connections attach their QP to :attr:`srq` and
    call :meth:`repost` instead of posting per-QP receives.  When bursts
    drain the pool, the arriving QP takes an RNR NAK exactly as an empty
    receive queue of its own would (IBTA evaluates RNR against the SRQ).

    Eager-transport connections are *not* pooled: their receives place
    payload bytes into per-connection bounce slots.
    """

    def __init__(self, stack: "ExsStack", depth: int) -> None:
        if depth <= 0:
            raise ValueError("SRQ pool depth must be positive")
        self.depth = depth
        self.srq = stack.device.create_srq(depth)
        self.buf = stack.host.alloc(
            RECV_BUF_BYTES, real=False, label=f"{stack.host.name}:srqpool"
        )
        self.mr = stack.device.register(self.buf)
        self._recv_bytes = RECV_BUF_BYTES
        # Every pool slot is an interchangeable view of the same synthetic
        # backing buffer, so one immutable SGE serves all of them; building
        # a fresh (frozen, validated) SGE per repost dominated stack
        # bring-up once depths reached the 10k-connection range.
        self._sge = SGE(self.mr.addr, self._recv_bytes, self.mr.lkey)
        #: connections drawing from this pool (for telemetry)
        self.attached = 0
        # wr_ids 1..depth are the lazy prefill run; each repost extends it
        # with the next wr_id, so the pool never builds a WR it holds
        self.srq.prefill(depth, self._sge, wr_id_start=1)

    def repost(self) -> None:
        """Post one receive buffer back into the shared pool."""
        self.srq.extend_run()

    # -- telemetry-facing views ----------------------------------------
    @property
    def free(self) -> int:
        return self.srq.free

    @property
    def occupancy(self) -> int:
        return len(self.srq)

    @property
    def empty_hits(self) -> int:
        return self.srq.empty_hits

    @property
    def min_free(self) -> int:
        return self.srq.min_free


class CqShard:
    """One completion vector: a channel + CQ and the poller that drains it.

    The poller is EXS's one completion loop, serving the connections a
    sharded stack assigns it round-robin or, built around a connection's
    own *channel*, that one connection: a library thread driven by an
    :class:`~repro.exs.engine.Engine`, not a simulation process.  Each
    wake-up drains the CQ, dispatching completions to their owning
    connection **in arrival order** (routed by ``wc.qp_num``), then runs
    a progress round per marked connection with work until nothing
    moves, then re-arms and sleeps: the paper's drain-while-awake
    discipline.

    A failing connection (credit collapse, QP teardown) breaks only
    itself: the exception is translated into that connection's
    ``fail_connection`` and a stack shard keeps servicing its siblings,
    while a private poller returns, so later flush completions cannot
    wake it.  Any other exception kills the poller and raises from the
    run, naming the connection or the host and shard, chained to it.
    """

    def __init__(self, stack: "ExsStack", index: int,
                 channel: Optional["CompletionChannel"] = None) -> None:
        self.sim = stack.sim
        self.host = stack.host
        self.index = index
        #: built around a connection's own channel: polls for that one
        #: connection only, from its registration until it breaks
        self.private = channel is not None
        if channel is None:
            channel = stack.device.create_channel(
                wakeup=stack.host.wakeup_sampler,
                seed=stack.next_seed(),
            )
        self.channel = channel
        self.cq = stack.device.create_cq(channel)
        #: the poller; connections on this shard kick it
        self.engine = Engine(stack.sim, stack.host.cpu, self.channel)
        self.conns: Dict[int, "ExsConnection"] = {}
        # connections with a reason to move (a routed completion, a kick,
        # queued control work, movement in their last round): a lap visits
        # these, not all of ``conns``
        self._dirty: Dict[int, None] = {}
        self._order: Dict[int, int] = {}
        self._reg_seq = itertools.count()
        # set when a registered connection breaks: gates the dead-connection
        # sweep, so a quiescent lap stays O(1) in the connection count
        self._has_broken = False
        #: completions routed through this shard (for telemetry)
        self.wcs_dispatched = 0
        self.rounds = 0
        # a poller death would hang every connection on the shard: it
        # raises, naming host and shard (a private poller, its connection)
        if not self.private:
            self.engine.start(
                self._engine_loop(), f"CQ shard {index} poller on host {stack.host.name}"
            )

    def register(self, conn: "ExsConnection") -> None:
        """Start servicing *conn* (called from ``on_peer_hello``); a
        private shard's poller starts here."""
        qpn = conn.qp.qpn
        self.conns[qpn] = conn
        self._order[qpn] = next(self._reg_seq)
        self._dirty[qpn] = None
        if self.private:
            self.engine.start(self._engine_loop(conn),
                              f"EXS engine for connection {conn.conn_id}")
        else:
            self.engine.kick()

    def close(self) -> None:
        """Stop the poller and forget its connections; ``rounds`` and
        ``wcs_dispatched`` stay readable."""
        self.conns.clear()
        self.engine.close()

    def _engine_loop(self, solo: Optional["ExsConnection"] = None):
        """The poller; *solo* is a private shard's one connection."""
        dirty = self._dirty
        order = self._order
        conns = self.conns
        cq = self.cq
        queued = cq.entries
        # busy polling spins on the CQ: the sleep is library-core time too
        spin = solo is not None and solo.options.busy_poll
        while True:
            while True:
                progressed = False
                if queued:
                    progressed = True
                    for wc in cq.poll():
                        qpn = wc.qp_num
                        conn = conns.get(qpn)
                        if conn is None or conn.broken:
                            continue
                        self.wcs_dispatched += 1
                        dirty[qpn] = None
                        try:
                            dispatch = conn._dispatch(wc)
                            if dispatch is not None:
                                charge, handler = dispatch
                                yield charge
                                handler(conn, wc)
                        except (CreditError, QPStateError) as exc:
                            conn.fail_connection(f"{type(exc).__name__}: {exc}")
                if dirty:
                    # marks made during these rounds go to a fresh set
                    batch = dirty
                    dirty = self._dirty = {}
                    if len(batch) > 1:
                        # registration order, exactly as the full scan iterated
                        batch = sorted(batch, key=order.__getitem__)
                    for qpn in batch:
                        conn = conns.get(qpn)
                        if conn is None or conn.broken:
                            continue
                        # the work predicate: _progress_round's guards, or-ed;
                        # a round none admits would return False, charging nothing
                        rx = conn.rx
                        credits = conn.credits
                        if not (rx.copy_ready or rx.adverts_due or conn.tx.pending
                                or conn.closing or conn._ctrl_queue
                                or credits.local_repost_cum - credits.granted_cum
                                >= conn._credit_update_threshold
                                or rx.eof_seq is not None or conn.tracer is not None):
                            continue
                        try:
                            moved = yield from conn._progress_round()
                        except (CreditError, QPStateError) as exc:
                            conn.fail_connection(f"{type(exc).__name__}: {exc}")
                            moved = True
                        if moved:
                            dirty[qpn] = None
                            progressed = True
                self.rounds += 1
                if not progressed or not dirty and not queued:
                    # Nothing moved, or nothing routed and nothing marked:
                    # the next pass would find an empty CQ and touch no
                    # connection, so skip the no-op lap and go to re-arm.
                    break
            if solo is not None and solo.broken:
                return
            # drop dead connections so the service list stays tight
            if self._has_broken:
                self._has_broken = False
                for qpn in [q for q, c in conns.items() if c.broken]:
                    del conns[qpn]
                    self._order.pop(qpn, None)
                    dirty.pop(qpn, None)
            cq.req_notify()
            if queued:
                continue
            idle_start = self.sim._now
            yield SLEEP
            if spin:
                self.host.cpu.record_busy(idle_start, self.sim.now)
