"""RC transport reliability: retransmission, NAK/RNR recovery, QP teardown.

The device's base transport assumes a lossless wire, which is what RC
hardware *presents* to verbs consumers — but only because the HCA runs
exactly this machinery underneath: every request carries a PSN, the
responder ACKs cumulatively and NAKs sequence gaps, and the requester
retries on a timeout with bounded attempts (``retry_cnt`` / ``rnr_retry``
in ``ibv_qp_attr``) before moving the QP to ERROR and flushing its work
queues with error completions.

:class:`ReliabilityEngine` implements that machinery for the simulated
device, per QP:

* **Requester side** — every transmitted message is held in an
  insertion-ordered unacked window, and one retransmit path serves both
  modes, which differ only in the frames it picks.  A retransmission
  timer (exponential backoff, capped) re-sends the overdue frames when the
  responder stays silent — the whole window under go-back-N, each
  un-SACKed frame past its own deadline under selective repeat;
  ``retry_cnt`` consecutive timeouts move the QP to ERROR with a
  ``RETRY_EXC_ERR`` completion.  NAKs re-send at once (the whole window,
  or only the known holes); RNR NAKs pause for ``rnr_timeout_ns`` then
  re-send the window head and every un-SACKed frame, with a separate
  ``rnr_retry`` budget.
* **Responder side** — arrivals are sequence-checked against the expected
  next message: duplicates are dropped (and re-ACKed so the sender can
  advance), future messages raise a (rate-limited) NAK, and SEND/WWI
  arrivals with an empty receive queue raise an RNR NAK instead of the
  hard :class:`~repro.verbs.errors.ReceiverNotReady` error.

Timer discipline: the engine keeps at most one live timer per QP, using a
generation counter to invalidate superseded calendar entries (the DES
kernel has no cancel).  The timer fires at the earliest possible deadline
and re-arms itself against ``last_progress_ns``, so ACK arrivals never
schedule anything — the hot path stays allocation-free.

Retransmission replays the *original* message object, payload included —
no bytes are copied into the window.  With the zero-copy payload plane
(:mod:`repro.hosts.memory`) that payload may be a live ``memoryview`` of
the sender's buffer; this is safe because a range stays pinned until the
cumulative ACK that empties it from this window, and the pin is exactly
what entitles the requester to replay identical bytes go-back-N style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .enums import WCStatus
from .wire import DataMessage

if TYPE_CHECKING:  # pragma: no cover
    from .device import RdmaDevice
    from .qp import QueuePair
    from .wr import SendWR

__all__ = ["ReliabilityConfig", "ReliabilityStats", "ReliabilityEngine",
           "ACCEPT", "DUPLICATE", "FUTURE",
           "MODE_GO_BACK_N", "MODE_SELECTIVE_REPEAT"]

#: verdicts from :meth:`ReliabilityEngine.check_incoming`
ACCEPT = "accept"
DUPLICATE = "duplicate"
FUTURE = "future"

#: reliability disciplines selectable via :attr:`ReliabilityConfig.mode`
MODE_GO_BACK_N = "gobackn"
MODE_SELECTIVE_REPEAT = "selective_repeat"


@dataclass(frozen=True)
class ReliabilityConfig:
    """Retry/timeout knobs, mirroring ``ibv_qp_attr`` semantics."""

    #: base requester timeout before the first retransmission
    retry_timeout_ns: int = 500_000
    #: consecutive timeouts tolerated before the QP goes to ERROR
    retry_cnt: int = 7
    #: RNR NAKs tolerated before the QP goes to ERROR
    rnr_retry: int = 7
    #: pause after an RNR NAK before re-sending
    rnr_timeout_ns: int = 200_000
    #: multiplicative backoff applied per consecutive timeout
    backoff: float = 2.0
    #: ceiling on the backed-off timeout, enforced *during* the backoff
    #: computation so a large attempt count can never overflow
    max_timeout_ns: int = 50_000_000
    #: reliability discipline: :data:`MODE_GO_BACK_N` (cumulative ACK, whole
    #: window resent on loss) or :data:`MODE_SELECTIVE_REPEAT` (SACK bitmap
    #: piggybacked on ACKs, out-of-order buffering, per-frame retransmit
    #: deadlines).
    mode: str = MODE_GO_BACK_N

    def __post_init__(self) -> None:
        if self.retry_timeout_ns <= 0 or self.rnr_timeout_ns <= 0:
            raise ValueError("timeouts must be positive")
        if self.retry_cnt < 0 or self.rnr_retry < 0:
            raise ValueError("retry budgets must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.mode not in (MODE_GO_BACK_N, MODE_SELECTIVE_REPEAT):
            raise ValueError(f"unknown reliability mode {self.mode!r}")
        if self.max_timeout_ns <= 0:
            raise ValueError("max_timeout_ns must be positive")

    @classmethod
    def for_path(cls, one_way_ns: int, **kw: object) -> "ReliabilityConfig":
        """Config scaled to a path's one-way latency.

        The timeout must comfortably exceed a round trip plus serialization
        of a large message, or a slow-but-healthy path retransmits
        spuriously; the floor keeps short paths from sub-RTT timers.
        """
        rto = max(2_000_000, 8 * int(one_way_ns))
        kw.setdefault("retry_timeout_ns", rto)  # type: ignore[arg-type]
        kw.setdefault("max_timeout_ns", max(rto * 100, 50_000_000))  # type: ignore[arg-type]
        return cls(**kw)  # type: ignore[arg-type]


@dataclass
class ReliabilityStats:
    """Cumulative per-device reliability counters (feed the obs registry)."""

    retransmits: int = 0
    timeouts: int = 0
    naks_sent: int = 0
    naks_received: int = 0
    rnr_naks_sent: int = 0
    rnr_naks_received: int = 0
    duplicates_dropped: int = 0
    gaps_detected: int = 0
    corrupt_discarded: int = 0
    qp_fatal: int = 0
    #: completed loss-recovery episodes and their latency
    recoveries: int = 0
    recovery_ns_total: int = 0
    recovery_ns_max: int = 0
    #: stale cumulative ACK/NAK/RNR frames ignored (dup fault replays)
    stale_acks_ignored: int = 0
    #: selective repeat: frames marked received via a SACK bitmap
    sacked_frames: int = 0
    #: selective repeat: out-of-order frames buffered at the responder
    ooo_buffered: int = 0
    #: selective repeat: buffered frames released in order after a gap fill
    ooo_released: int = 0


class _SentMessage:
    """One transmitted-but-unacked message, replayable verbatim."""

    __slots__ = ("seq", "wr", "msg", "wire_bytes", "extra_tx_ns", "sacked", "last_tx_ns")

    def __init__(self, seq: int, wr: "SendWR", msg: DataMessage,
                 wire_bytes: int, extra_tx_ns: int, now: int) -> None:
        self.seq = seq
        self.wr = wr
        self.msg = msg
        self.wire_bytes = wire_bytes
        self.extra_tx_ns = extra_tx_ns
        #: selective repeat: the responder reported this frame received
        #: out of order — it must not be retransmitted, but completes only
        #: when the cumulative ack covers it (completions stay in order).
        self.sacked = False
        #: selective repeat: last (re)transmission time, for the per-frame
        #: retransmit deadline
        self.last_tx_ns = now


class _QpRel:
    """Per-QP requester/responder reliability state."""

    __slots__ = ("unacked", "attempts", "rnr_attempts", "highest_acked",
                 "timer_gen", "timer_armed", "last_progress_ns",
                 "recovering_since", "last_nak_for", "fatal", "ooo")

    def __init__(self) -> None:
        #: seq -> _SentMessage, insertion-ordered (dict preserves order)
        self.unacked: Dict[int, _SentMessage] = {}
        self.attempts = 0
        self.rnr_attempts = 0
        self.highest_acked = -1
        self.timer_gen = 0
        self.timer_armed = False
        self.last_progress_ns = 0
        self.recovering_since: Optional[int] = None
        #: responder: expected seq we already NAKed (rate-limits NAK storms)
        self.last_nak_for: Optional[int] = None
        self.fatal = False
        #: responder, selective repeat: seq -> buffered out-of-order arrival
        self.ooo: Dict[int, DataMessage] = {}


class ReliabilityEngine:
    """Per-device RC reliability machinery (see module docstring)."""

    def __init__(self, device: "RdmaDevice", config: ReliabilityConfig) -> None:
        self.device = device
        self.config = config
        self.stats = ReliabilityStats()
        self._qp_state: Dict[int, _QpRel] = {}
        #: True when running the selective-repeat discipline
        self.selective = config.mode == MODE_SELECTIVE_REPEAT

    def _st(self, qp: "QueuePair") -> _QpRel:
        st = self._qp_state.get(qp.qpn)
        if st is None:
            st = self._qp_state[qp.qpn] = _QpRel()
        return st

    def _emit(self, kind: str, qp: "QueuePair", **fields: object) -> None:
        """Emit a reliability event to the host's protocol tracer, if any.

        These are the retransmit/NAK/RNR kinds that make chaos-run
        summaries meaningful (:func:`repro.trace.summarize`).
        """
        tracer = self.device.host.tracer
        if tracer is not None:
            tracer.emit(self.device.sim.now, qp.qpn, self.device.host.name,
                        kind, **fields)

    # ------------------------------------------------------------------
    # requester side
    # ------------------------------------------------------------------
    def on_transmit(self, qp: "QueuePair", wr: "SendWR", msg: DataMessage,
                    wire_bytes: int, extra_tx_ns: int) -> None:
        """Record a freshly transmitted message and ensure a timer covers it."""
        st = self._st(qp)
        now = self.device.sim.now
        st.unacked[msg.seq] = _SentMessage(msg.seq, wr, msg, wire_bytes,
                                           extra_tx_ns, now)
        if not st.timer_armed:
            st.last_progress_ns = now
            self._arm(qp, st, self._current_rto(st))

    def _current_rto(self, st: _QpRel) -> int:
        """Backed-off RTO, clamped to ``max_timeout_ns``.

        The backoff is applied stepwise and stops as soon as it crosses the
        cap: evaluating ``backoff ** attempts`` first would overflow to an
        effectively unbounded timer after a long link-down window.
        """
        cfg = self.config
        cap = cfg.max_timeout_ns
        rto = float(cfg.retry_timeout_ns)
        if cfg.backoff > 1.0:
            for _ in range(st.attempts):
                rto *= cfg.backoff
                if rto >= cap:
                    return cap
        return min(int(rto), cap)

    def _arm(self, qp: "QueuePair", st: _QpRel, delay: int) -> None:
        st.timer_gen += 1
        st.timer_armed = True
        self.device.sim.call_in(delay, self._on_timer, (qp, st.timer_gen))

    def _on_timer(self, arg: Tuple["QueuePair", int]) -> None:
        """Retransmit what is overdue, or look again when something will be.

        The two modes differ only in which frames are overdue.  Go-back-N
        keeps one deadline for the whole window, pushed out by every ACK
        that makes progress (ACK arrivals never touch the calendar).
        Selective repeat gives each frame its own deadline from its last
        transmission and skips SACKed frames; a window whose frames are
        *all* SACKed waits only for the cumulative ACK that releases them,
        and if that ACK was lost nothing more will arrive, so the oldest
        frame stands in as a probe (its duplicate arrival makes the
        responder repeat the cumulative ACK) and ``retry_cnt`` bounds the
        wait.
        """
        qp, gen = arg
        st = self._st(qp)
        if st.fatal or gen != st.timer_gen:
            return  # superseded or dead: stale calendar entry, no-op
        st.timer_armed = False
        if not st.unacked:
            return  # everything acked since arming; go quiet
        now = self.device.sim.now
        rto = self._current_rto(st)
        if self.selective:
            waiting = ([sm for sm in st.unacked.values() if not sm.sacked]
                       or [next(iter(st.unacked.values()))])
            overdue = [sm for sm in waiting if now - sm.last_tx_ns >= rto]
            deadline = min(sm.last_tx_ns for sm in waiting) + rto
        else:
            deadline = st.last_progress_ns + rto
            overdue = list(st.unacked.values()) if now >= deadline else []
        if not overdue:
            self._arm(qp, st, max(deadline - now, 1))
            return
        st.attempts += 1
        self.stats.timeouts += 1
        if st.attempts > self.config.retry_cnt:
            self.fatal(qp, WCStatus.RETRY_EXC_ERR)
            return
        if st.recovering_since is None:
            st.recovering_since = now
        self._resend(qp, overdue, cause="timeout", attempt=st.attempts)
        st.last_progress_ns = now
        self._arm(qp, st, self._current_rto(st))

    def _resend(self, qp: "QueuePair", frames: List[_SentMessage],
                **why: object) -> None:
        tx = self.device.tx
        now = self.device.sim.now
        for sm in frames:
            tx.transmit(sm.msg, sm.wire_bytes, extra_tx_ns=sm.extra_tx_ns)
            sm.last_tx_ns = now
        self.stats.retransmits += len(frames)
        if frames:
            self._emit("retransmit", qp, count=len(frames), **why)

    def _holes(self, st: _QpRel) -> List[_SentMessage]:
        """Selective repeat's NAK response: the known holes.

        A hole is an un-SACKed frame at or below the highest SACKed seq.
        With no SACK information yet, only the window head (the frame the
        NAK names as missing) is a hole — everything later may still be in
        flight.
        """
        max_sacked = max(
            (seq for seq, sm in st.unacked.items() if sm.sacked), default=None)
        holes: List[_SentMessage] = []
        for seq, sm in st.unacked.items():
            if sm.sacked:
                continue
            if max_sacked is None:
                holes.append(sm)
                break
            if seq > max_sacked:
                break
            holes.append(sm)
        return holes

    def _progress(self, st: _QpRel) -> None:
        sim = self.device.sim
        st.last_progress_ns = sim.now
        st.attempts = 0
        st.rnr_attempts = 0
        if st.recovering_since is not None:
            dt = sim.now - st.recovering_since
            self.stats.recoveries += 1
            self.stats.recovery_ns_total += dt
            if dt > self.stats.recovery_ns_max:
                self.stats.recovery_ns_max = dt
            st.recovering_since = None

    def _complete_through(self, qp: "QueuePair", st: _QpRel,
                          msn: int) -> List["SendWR"]:
        """Complete the window prefix covered by a cumulative *msn*;
        returns the completed WRs in order."""
        done: List["SendWR"] = []
        for seq in list(st.unacked):
            if seq > msn:
                break
            sm = st.unacked.pop(seq)
            qp.inflight.pop(seq, None)
            done.append(sm.wr)
        return done

    def _apply_sack(self, st: _QpRel, msn: int, sack: int) -> None:
        """Mark window frames the responder reports buffered out of order."""
        seq = msn + 1
        while sack:
            if sack & 1:
                sm = st.unacked.get(seq)
                if sm is not None and not sm.sacked:
                    sm.sacked = True
                    self.stats.sacked_frames += 1
            sack >>= 1
            seq += 1

    def on_ack(self, qp: "QueuePair", msn: int, sack: int = 0) -> List["SendWR"]:
        """Cumulative ACK: complete the covered window prefix.

        An *msn* at or below the already-acked point is a stale duplicate
        (the dup fault replays data frames, and every duplicate is re-ACKed)
        — it carries no new progress and must not reset the retransmission
        timer or the attempt counters.  A piggybacked SACK bitmap is applied
        either way: it can carry fresh receive information even when the
        cumulative point is old.
        """
        st = self._st(qp)
        if sack:
            self._apply_sack(st, msn, sack)
        if msn <= st.highest_acked:
            self.stats.stale_acks_ignored += 1
            return []
        done = self._complete_through(qp, st, msn)
        st.highest_acked = msn
        self._progress(st)
        return done

    def _on_negative(self, qp: "QueuePair", st: _QpRel, msn: int,
                     sack: int) -> Optional[List["SendWR"]]:
        """What a NAK and an RNR NAK share: apply the SACK bits, complete
        the cumulative prefix, and start a recovery episode.

        Returns the completed WRs, or ``None`` when there is nothing to
        recover: a frame whose *msn* regressed below the already-acked
        point is stale (replayed by the dup fault or overtaken by a newer
        ACK) and is ignored outright, and a dead QP recovers nothing.
        """
        if sack:
            self._apply_sack(st, msn, sack)
        if msn < st.highest_acked:
            self.stats.stale_acks_ignored += 1
            return None
        done: List["SendWR"] = []
        if msn > st.highest_acked:
            done = self._complete_through(qp, st, msn)
            st.highest_acked = msn
            self._progress(st)
        if st.fatal:
            return None
        if st.recovering_since is None:
            st.recovering_since = self.device.sim.now
        return done

    def on_nak(self, qp: "QueuePair", msn: int, sack: int = 0) -> List["SendWR"]:
        """Sequence-gap NAK: ack the prefix, then retransmit the gap at once.

        Go-back-N resends the whole window from ``msn+1``; selective repeat
        resends only the known holes (:meth:`_holes`).
        """
        st = self._st(qp)
        self.stats.naks_received += 1
        done = self._on_negative(qp, st, msn, sack)
        if done is None:
            return []
        if st.unacked:
            frames = self._holes(st) if self.selective else list(st.unacked.values())
            self._resend(qp, frames, cause="nak", msn=msn)
            st.last_progress_ns = self.device.sim.now
            if not st.timer_armed:
                self._arm(qp, st, self._current_rto(st))
        return done

    def on_rnr(self, qp: "QueuePair", msn: int, sack: int = 0) -> List["SendWR"]:
        """RNR NAK: ack the prefix, pause, then re-send (:meth:`_on_rnr_timer`).

        Stale RNR frames are ignored without consuming the ``rnr_retry``
        budget or superseding the live timer.
        """
        st = self._st(qp)
        self.stats.rnr_naks_received += 1
        done = self._on_negative(qp, st, msn, sack)
        if done is None:
            return []
        st.rnr_attempts += 1
        if st.rnr_attempts > self.config.rnr_retry:
            self.fatal(qp, WCStatus.RNR_RETRY_EXC_ERR)
            return done
        # Supersede the retransmission timer with the RNR pause.
        st.timer_gen += 1
        st.timer_armed = True
        self.device.sim.call_in(
            self.config.rnr_timeout_ns, self._on_rnr_timer, (qp, st.timer_gen))
        return done

    def _on_rnr_timer(self, arg: Tuple["QueuePair", int]) -> None:
        """The RNR pause is over: resend the window head and every
        un-SACKed frame.

        The head must go out even if SACKed: the responder buffered it
        before hitting RNR, and only its in-order re-arrival re-triggers
        delivery once receives are posted.  Go-back-N never SACKs, so it
        resends its whole window.
        """
        qp, gen = arg
        st = self._st(qp)
        if st.fatal or gen != st.timer_gen:
            return
        st.timer_armed = False
        if not st.unacked:
            return
        frames = [sm for i, sm in enumerate(st.unacked.values())
                  if i == 0 or not sm.sacked]
        self._resend(qp, frames, cause="rnr")
        st.last_progress_ns = self.device.sim.now
        self._arm(qp, st, self._current_rto(st))

    # ------------------------------------------------------------------
    # responder side
    # ------------------------------------------------------------------
    def check_incoming(self, qp: "QueuePair", msg: DataMessage) -> str:
        """Sequence-check an arrival: ``accept``/``duplicate``/``future``."""
        expected = self.device._consumed_msn.get(qp.qpn, -1) + 1
        if msg.seq == expected:
            self._st(qp).last_nak_for = None
            return ACCEPT
        if msg.seq < expected:
            return DUPLICATE
        if self.selective and msg.seq in self._st(qp).ooo:
            return DUPLICATE  # already buffered out of order
        self.stats.gaps_detected += 1
        return FUTURE

    def buffer_future(self, qp: "QueuePair", msg: DataMessage) -> None:
        """Selective repeat: hold a future frame for in-order release."""
        st = self._st(qp)
        st.ooo[msg.seq] = msg
        self.stats.ooo_buffered += 1

    def peek_buffered(self, qp: "QueuePair", seq: int) -> Optional[DataMessage]:
        st = self._qp_state.get(qp.qpn)
        return st.ooo.get(seq) if st is not None else None

    def pop_buffered(self, qp: "QueuePair", seq: int) -> None:
        st = self._qp_state.get(qp.qpn)
        if st is not None and st.ooo.pop(seq, None) is not None:
            self.stats.ooo_released += 1

    def purge_buffered_through(self, qp: "QueuePair", msn: int) -> None:
        """Drop buffered frames the cumulative point has overtaken (a
        blocked frame can be re-delivered in order by an RNR retransmit
        while its buffered copy is still held)."""
        st = self._qp_state.get(qp.qpn)
        if st is None:
            return
        for seq in [s for s in st.ooo if s <= msn]:
            del st.ooo[seq]

    def has_buffered(self, qp: "QueuePair") -> bool:
        st = self._qp_state.get(qp.qpn)
        return bool(st is not None and st.ooo)

    def sack_bitmap(self, qp: "QueuePair") -> int:
        """Bitmap of buffered seqs above the consumed msn (bit i ⇒ msn+1+i)."""
        st = self._qp_state.get(qp.qpn)
        if st is None or not st.ooo:
            return 0
        base = self.device._consumed_msn.get(qp.qpn, -1) + 1
        bits = 0
        for seq in st.ooo:
            if seq >= base:
                bits |= 1 << (seq - base)
        return bits

    def send_nak(self, qp: "QueuePair") -> None:
        """NAK the current gap (once per expected seq, to avoid storms)."""
        st = self._st(qp)
        expected = self.device._consumed_msn.get(qp.qpn, -1) + 1
        if st.last_nak_for == expected:
            return
        st.last_nak_for = expected
        self.stats.naks_sent += 1
        self._emit("nak", qp, expected=expected)
        self.device._send_ack_message(qp, kind="nak")

    def send_rnr(self, qp: "QueuePair") -> None:
        self.stats.rnr_naks_sent += 1
        self._emit("rnr", qp)
        self.device._send_ack_message(qp, kind="rnr")

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def fatal(self, qp: "QueuePair", status: WCStatus) -> None:
        """Exhausted retries: move the QP to ERROR and flush completions."""
        st = self._st(qp)
        if st.fatal:
            return
        st.fatal = True
        st.timer_gen += 1  # invalidate any live timer
        st.timer_armed = False
        self.stats.qp_fatal += 1
        pending = [sm.wr for sm in st.unacked.values()]
        st.unacked.clear()
        st.ooo.clear()
        self.device._qp_fatal(qp, status, pending)

    def peer_terminated(self, qp: "QueuePair") -> List["SendWR"]:
        """Peer announced a fatal error: silence timers, drain the window."""
        st = self._st(qp)
        st.fatal = True
        st.timer_gen += 1
        st.timer_armed = False
        pending = [sm.wr for sm in st.unacked.values()]
        st.unacked.clear()
        st.ooo.clear()
        return pending
