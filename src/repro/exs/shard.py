"""Shared per-host EXS resources: the SRQ receive pool and CQ shards.

Every EXS connection's completions are drained by a :class:`CqShard`
poller.  By default each connection builds a private one around its own
completion channel and CQ — faithful to the two-host experiments of the
paper, but per-connection in cost: a host terminating N connections posts
O(N·credits) receive buffers and runs N pollers each polling its own CQ.

Two opt-in resources change that to O(1) / O(shards) per host:

* :class:`SrqPool` — one shared receive queue
  (:class:`~repro.verbs.srq.SharedReceiveQueue`) backing the control-plane
  receive pools of every connection on the stack.  The pool is pre-filled
  to ``depth`` once; each consumed buffer is re-posted on recycle.  When
  bursts across connections drain the pool, the arriving QP takes an RNR
  NAK exactly as an individual empty receive queue would (IBTA semantics:
  RNR is evaluated against the SRQ for SRQ-attached QPs), and the sender's
  reliability layer retries after the RNR backoff.
* Stack shards (``ExsStack(cq_shards=K)``) — K :class:`CqShard` pollers,
  each one completion channel + CQ shared by many connections.
  Completions are routed to their connection by ``wc.qp_num`` in arrival
  order, then every marked connection gets a progress round.  A host
  polls O(shards) CQs regardless of connection count.
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
    call :meth:`repost` instead of posting per-QP receives.

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

    The poller is EXS's one completion loop, serving either the
    connections a sharded stack assigns it round-robin or, built around a
    connection's own *channel*, that one connection.  It is a library
    thread: a generator loop driven by an
    :class:`~repro.exs.engine.Engine` (charges through the host's library
    core, sleeps on the channel or a kick from any of its connections),
    not a simulation process.
    Each wake-up drains the CQ, dispatching completions to their owning
    connection **in arrival order** (routed by ``wc.qp_num``), then runs
    one progress round per marked connection until nothing moves, then
    re-arms and sleeps: the paper's drain-while-awake discipline.

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
        # Progress rounds only run for connections with a reason to move:
        # a routed completion, an application kick, queued control work,
        # or movement in their previous round.  A quiescent connection's
        # round is a no-op that yields nothing (every pump early-returns
        # without charging), so skipping it leaves the event stream
        # bit-identical while cutting the former every-round full scan of
        # ``conns`` — the O(N) cost that dominated sink shards at 10k
        # connections.
        self._dirty: Dict[int, None] = {}
        self._order: Dict[int, int] = {}
        self._reg_seq = itertools.count()
        # set when a registered connection is seen broken; gates the
        # dead-connection sweep so quiescent laps stay O(1) in the
        # registered-connection count
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

    def mark(self, conn: "ExsConnection") -> None:
        """Queue *conn* for a progress round on the next engine pass."""
        self._dirty[conn.qp.qpn] = None
        if conn.broken:
            # fail_connection kicks the connection, landing here; remember
            # that a sweep is due instead of scanning every engine lap
            self._has_broken = True

    def _engine_loop(self, solo: Optional["ExsConnection"] = None):
        """The poller; *solo* is a private shard's one connection."""
        dirty = self._dirty
        order = self._order
        conns = self.conns
        cq = self.cq
        # busy polling spins on the CQ: the sleep is library-core time too
        spin = solo is not None and solo.options.busy_poll
        while True:
            while True:
                progressed = False
                wcs = cq.poll()
                for wc in wcs:
                    qpn = wc.qp_num
                    conn = conns.get(qpn)
                    if conn is None or conn.broken:
                        continue
                    self.wcs_dispatched += 1
                    dirty[qpn] = None
                    try:
                        yield from conn._handle_wc(wc)
                    except (CreditError, QPStateError) as exc:
                        conn.fail_connection(f"{type(exc).__name__}: {exc}")
                if wcs:
                    progressed = True
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
                        try:
                            moved = yield from conn._progress_round()
                        except (CreditError, QPStateError) as exc:
                            conn.fail_connection(f"{type(exc).__name__}: {exc}")
                            moved = True
                        if moved:
                            dirty[qpn] = None
                            progressed = True
                self.rounds += 1
                if not progressed or not dirty and not len(cq):
                    # Nothing moved, or nothing routed and nothing marked:
                    # the next pass would poll an empty CQ and touch no
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
            if len(cq):
                continue
            idle_start = self.sim._now
            yield SLEEP
            if spin:
                self.host.cpu.record_busy(idle_start, self.sim.now)
