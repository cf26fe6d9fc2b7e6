"""Small-scope protocol world for the explicit-state model checker.

The :class:`World` drives the *pure* protocol logic —
:class:`~repro.core.sender_algo.SenderAlgorithm` and
:class:`~repro.core.receiver_algo.ReceiverAlgorithm` — with the transport
abstracted to two FIFO channels (RC delivery is ordered, so FIFO is the
faithful abstraction):

* ``s2r`` carries data-plane messages (direct and indirect transfers),
* ``r2s`` carries control-plane messages (ADVERTs and cumulative ring ACKs).

Every source of timing nondeterminism in the full stack collapses to *which
enabled action fires next*:

``post_recv``
    the application posts the next scripted ``exs_recv`` (may emit an ADVERT)
``pump_send``
    the sender half matches the head of its backlog against its ADVERT
    queue / ring space (paper Fig. 2) and puts the plan on the wire
``deliver_ctrl``
    the head of ``r2s`` reaches the sender (ADVERT arrival or ring ACK)
``deliver_data``
    the head of ``s2r`` reaches the receiver (Fig. 4 arrival handling)
``do_copy``
    the receiver's library thread copies out of the intermediate buffer
    (Fig. 5) and emits a cumulative ACK
``flush_adverts``
    the receiver's advertising gate re-opens and queued receives advertise
    (Fig. 3)

All scripted ``exs_send`` calls are backlog from the start: the sender
algorithm never branches on backlog *length*, so posting sends lazily adds
interleavings without adding behaviours — pre-seeding keeps counterexample
traces minimal.

Because each action is deterministic given the state, a schedule is just a
list of action names, which is exactly what a replayable counterexample
needs.

The safety properties asserted in every reachable state:

* **Theorem 1** — a direct transfer matches the head-of-queue ADVERT at the
  exact stream position (the ``require`` calls inside
  ``ReceiverAlgorithm.on_direct_arrival``).
* **Lemmas 1 and 4** — ADVERTs carry direct phases; mid-direct-phase
  ADVERTs carry the sender's phase (``Advert.__post_init__`` and the
  sender's match loop).
* **Phase monotonicity** on both sides (``_set_phase``).
* **Byte conservation** — ``sender.seq`` equals the receiver's consumed
  stream position plus ring occupancy plus bytes still on the wire, in
  *every* state (:meth:`World.check_invariants`); at quiescence the wire
  term is zero.
* **FIFO integrity** — receives complete in post order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.invariants import SafetyViolation, require
from ..core.modes import ProtocolMode
from ..core.phase import is_direct
from ..core.ring import ReceiverRing, RingError, RingSegment, SenderRingView
from ..core.sender_algo import DirectPlan

__all__ = ["ExploreScope", "World", "ACTIONS", "ModelViolation"]

#: every action the scheduler can choose from, in canonical order
ACTIONS = (
    "post_recv",
    "pump_send",
    "deliver_ctrl",
    "deliver_data",
    "do_copy",
    "flush_adverts",
)

_MODES = {m.value: m for m in ProtocolMode}


class ModelViolation(AssertionError):
    """A safety property failed inside the model (wraps the core's errors)."""

    def __init__(self, claim: str, detail: str) -> None:
        super().__init__(f"{claim}: {detail}")
        self.claim = claim
        self.detail = detail


@dataclass(frozen=True)
class ExploreScope:
    """The small-scope hypothesis: a bounded world to exhaust.

    ``sends`` are the byte lengths of the scripted ``exs_send`` calls;
    ``recvs`` are ``(length, waitall)`` pairs for the scripted ``exs_recv``
    calls.  The default — 2 sends x 2 recvs over a 2-byte ring — is small
    enough to exhaust in well under a second yet forces at least one
    direct/indirect phase flip (the first send races the first ADVERT).
    """

    sends: Tuple[int, ...] = (2, 2)
    recvs: Tuple[Tuple[int, bool], ...] = ((2, False), (2, False))
    ring_capacity: int = 2
    mode: str = "dynamic"
    #: named bug from :mod:`repro.check.mutations` injected into the world
    mutation: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "sends", tuple(int(s) for s in self.sends))
        object.__setattr__(
            self, "recvs", tuple((int(n), bool(w)) for n, w in self.recvs)
        )

    def to_dict(self) -> dict:
        return {
            "sends": list(self.sends),
            "recvs": [[n, w] for n, w in self.recvs],
            "ring_capacity": self.ring_capacity,
            "mode": self.mode,
            "mutation": self.mutation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExploreScope":
        return cls(
            sends=tuple(data.get("sends", ())),
            recvs=tuple((n, bool(w)) for n, w in data.get("recvs", ())),
            ring_capacity=int(data.get("ring_capacity", 2)),
            mode=data.get("mode", "dynamic"),
            mutation=data.get("mutation"),
        )


class World:
    """One reachable protocol state plus the action semantics."""

    def __init__(self, scope: ExploreScope) -> None:
        from .mutations import make_algorithms  # cycle-free: mutations -> model types only

        self.scope = scope
        mode = _MODES[scope.mode]
        self.sender, self.receiver = make_algorithms(
            scope.mutation,
            SenderRingView(scope.ring_capacity),
            ReceiverRing(scope.ring_capacity),
            mode,
        )
        #: remaining byte counts of pending exs_send calls, FIFO
        self.backlog: List[int] = [s for s in scope.sends if s > 0]
        self.recv_idx = 0
        #: data plane, in flight sender -> receiver
        self.s2r: List[tuple] = []
        #: control plane, in flight receiver -> sender
        self.r2s: List[tuple] = []
        #: recv_ids in completion order (FIFO integrity witness)
        self.completed: List[int] = []

    # ------------------------------------------------------------------
    # scheduling interface
    # ------------------------------------------------------------------
    def enabled_actions(self) -> List[str]:
        out = []
        if self.recv_idx < len(self.scope.recvs):
            out.append("post_recv")
        if self.backlog and (
            self.sender.adverts
            or (self.sender.mode.allows_indirect and self.sender.ring.free > 0)
        ):
            out.append("pump_send")
        if self.r2s:
            out.append("deliver_ctrl")
        if self.s2r:
            out.append("deliver_data")
        if self.receiver.ring.stored > 0 and self.receiver.queue:
            out.append("do_copy")
        if (
            self.receiver.mode is not ProtocolMode.INDIRECT_ONLY
            and self.receiver.ring.stored == 0
            and self.receiver.prior_phase_adverts == 0
            and any(e.advert is None and not e.completed for e in self.receiver.queue)
        ):
            out.append("flush_adverts")
        return out

    def apply(self, action: str) -> None:
        """Execute *action*; raises :class:`ModelViolation` on any safety
        failure (the core's ``require``/ring assertions are re-raised with
        the action context attached)."""
        try:
            getattr(self, "_do_" + action)()
        except ModelViolation:
            raise
        except (SafetyViolation, RingError, ValueError) as exc:
            # require() embeds the claim as "safety violation [<claim>]: ..."
            text = str(exc)
            claim = type(exc).__name__
            if isinstance(exc, SafetyViolation) and "[" in text and "]" in text:
                claim = text[text.index("[") + 1 : text.index("]")]
            raise ModelViolation(claim, f"{action}: {exc}") from exc
        self.check_invariants()

    def clone(self) -> "World":
        return copy.deepcopy(self)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def _do_post_recv(self) -> None:
        length, waitall = self.scope.recvs[self.recv_idx]
        self.recv_idx += 1
        _entry, advert = self.receiver.post_recv(length, waitall=waitall)
        if advert is not None:
            self.r2s.append(("advert", advert))

    def _do_pump_send(self) -> None:
        remaining = self.backlog[0]
        plan = self.sender.next_transfer(remaining)
        if plan is None:
            # all queued ADVERTs were stale and the ring is full: the drop
            # itself was the state change
            return
        if self.backlog[0] == plan.nbytes:
            self.backlog.pop(0)
        else:
            self.backlog[0] -= plan.nbytes
        if isinstance(plan, DirectPlan):
            self.s2r.append(
                ("direct", plan.advert.advert_id, plan.seq, plan.nbytes, plan.buffer_offset)
            )
        else:
            seq = plan.seq
            for seg in plan.segments:
                self.s2r.append(("indirect", seq, seg.offset, seg.nbytes))
                seq += seg.nbytes

    def _do_deliver_ctrl(self) -> None:
        kind, payload = self.r2s.pop(0)
        if kind == "advert":
            self.sender.on_advert(payload)
        else:  # "ack"
            self.sender.ring.on_copy_ack(payload)

    def _do_deliver_data(self) -> None:
        msg = self.s2r.pop(0)
        if msg[0] == "direct":
            _, advert_id, seq, nbytes, buffer_offset = msg
            done = self.receiver.on_direct_arrival(seq, nbytes, advert_id, buffer_offset)
        else:
            _, seq, offset, nbytes = msg
            self.receiver.on_indirect_arrival(seq, RingSegment(offset, nbytes))
            done = []
        self.completed.extend(e.recv_id for e in done)

    def _do_do_copy(self) -> None:
        plan = self.receiver.next_copy()
        if plan is None:  # head entry already full (defensive)
            return
        done = self.receiver.on_copied(plan)
        self.completed.extend(e.recv_id for e in done)
        self.r2s.append(("ack", self.receiver.ring.copied_total))

    def _do_flush_adverts(self) -> None:
        for _entry, advert in self.receiver.flush_adverts():
            self.r2s.append(("advert", advert))

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Properties that must hold in *every* reachable state."""
        wire = sum(m[3] for m in self.s2r)  # nbytes is index 3 for both kinds
        try:
            require(
                self.sender.seq
                == self.receiver.seq + self.receiver.ring.stored + wire,
                "byte conservation",
                f"sender seq {self.sender.seq} != receiver seq {self.receiver.seq}"
                f" + ring {self.receiver.ring.stored} + wire {wire}",
            )
            for advert in self.sender.adverts:
                require(
                    is_direct(advert.phase),
                    "Lemma 1",
                    f"queued ADVERT {advert.advert_id} carries indirect phase {advert.phase}",
                )
            require(
                self.completed == sorted(self.completed),
                "FIFO integrity",
                f"receives completed out of post order: {self.completed}",
            )
        except SafetyViolation as exc:
            raise ModelViolation("invariant", str(exc)) from exc

    def check_quiescence(self) -> None:
        """Extra properties of terminal states (no action enabled).

        A terminal state with backlog left is a legitimate flow-control
        block (the receive script ran out), never silent byte loss: the
        conservation equation still balances with zero bytes on the wire.
        """
        try:
            require(not self.s2r and not self.r2s, "quiescence", "messages left in flight")
            require(
                self.sender.seq == self.receiver.seq + self.receiver.ring.stored,
                "conservation at quiescence",
                f"sender sent {self.sender.seq} but receiver accounts "
                f"{self.receiver.seq} + ring {self.receiver.ring.stored}",
            )
        except SafetyViolation as exc:
            raise ModelViolation("invariant", str(exc)) from exc

    # ------------------------------------------------------------------
    # canonical form (for the visited-set)
    # ------------------------------------------------------------------
    def canonical(self) -> tuple:
        # advert_ids are allocated per path, so the full field tuple — not
        # just the id — is what identifies an ADVERT across paths
        def akey(a):
            return (a.advert_id, a.seq, a.length, a.phase, a.waitall, a.base_offset)

        s, r = self.sender, self.receiver
        return (
            s.phase,
            s.seq,
            s._head_filled,
            tuple(akey(a) for a in s.adverts),
            s.ring.reserved_total,
            s.ring.acked_copied_total,
            r.phase,
            r.seq,
            r.advert_seq_estimate,
            r.prior_phase_adverts,
            r.unadvertised_recvs,
            tuple(
                (
                    e.recv_id,
                    e.filled,
                    e.completed,
                    akey(e.advert) if e.advert is not None else None,
                )
                for e in r.queue
            ),
            r.ring.read_offset,
            r.ring.stored,
            r.ring.copied_total,
            tuple(self.backlog),
            self.recv_idx,
            tuple(
                ("advert",) + akey(p) if k == "advert" else (k, p)
                for k, p in self.r2s
            ),
            tuple(self.s2r),
            tuple(self.completed),
        )
