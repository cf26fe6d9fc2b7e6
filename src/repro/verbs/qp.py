"""Reliable-connected queue pairs."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from .cq import CompletionQueue, WorkCompletion
from .enums import Opcode, QPState, WCOpcode, WCStatus
from .errors import BadWorkRequest, QPStateError
from .rq import ReceiveQueue
from .wr import SGE, RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover
    from .device import RdmaDevice
    from .srq import SharedReceiveQueue

__all__ = ["QueuePair"]

_SEND = Opcode.SEND
_READY, _ERROR = QPState.READY, QPState.ERROR


class QueuePair:
    """An RC queue pair bound 1:1 to a peer QP on the remote device.

    Work requests are posted asynchronously (:meth:`post_send`,
    :meth:`post_recv`); the owning device's transport engine drains the send
    queue and the remote device consumes receive-queue entries on message
    arrival.  Completions land on the attached CQs.
    """

    def __init__(
        self,
        device: "RdmaDevice",
        qpn: int,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        srq: Optional["SharedReceiveQueue"] = None,
    ) -> None:
        self.device = device
        self.qpn = qpn
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        #: when set, receives come from the shared pool, not :attr:`rq`
        self.srq = srq
        self.state = QPState.RESET
        self.remote_qpn: Optional[int] = None

        #: the send queue: a list, as there is one per connection and it is short
        self.sq: List[SendWR] = []
        self.rq = ReceiveQueue()
        #: where an arriving message takes its receive: the shared pool when
        #: SRQ-attached (``rq`` then stays empty), else ``rq``
        self.recv_source: ReceiveQueue = srq if srq is not None else self.rq
        #: sends transmitted but not yet acked, keyed by message seq
        self.inflight: Dict[int, SendWR] = {}
        #: seq of the next transmitted message (the device's pipeline advances it)
        self._next_seq = 0

        # statistics
        self.sends_posted = 0
        self.recvs_posted = 0
        self.messages_sent = 0
        self.messages_received = 0

    # ------------------------------------------------------------------
    def connect(self, remote_qpn: int) -> None:
        """Bind to the peer QP and enter the READY state."""
        if self.state is not QPState.RESET:
            raise QPStateError(f"QP {self.qpn} cannot connect from state {self.state}")
        self.remote_qpn = remote_qpn
        self.state = QPState.READY

    def to_error(self) -> None:
        self.state = QPState.ERROR

    _FLUSH_OPCODE = {
        Opcode.SEND: WCOpcode.SEND,
        Opcode.RDMA_WRITE: WCOpcode.RDMA_WRITE,
        Opcode.RDMA_WRITE_WITH_IMM: WCOpcode.RDMA_WRITE,
    }

    def flush(self, first_status: WCStatus, pending: Optional[list] = None) -> int:
        """Error-complete every outstanding WR (QP must already be in ERROR).

        *pending* is the reliability layer's unacked-WR list in transmission
        order; the first entry carries *first_status* (the root cause, e.g.
        RETRY_EXC_ERR) and everything after it — remaining unacked sends,
        queued SQ entries, posted RECVs — flushes with WR_FLUSH_ERR, exactly
        like a real QP draining after the fatal completion.  Returns the
        number of completions generated.
        """
        if self.state is not QPState.ERROR:
            raise QPStateError(f"flush on QP {self.qpn} in state {self.state}")
        flushed = 0
        status = first_status
        for wr in pending or ():
            self.send_cq.push(
                WorkCompletion(
                    wr_id=wr.wr_id,
                    opcode=self._FLUSH_OPCODE[wr.opcode],
                    status=status,
                    byte_len=wr.sge.length,
                    qp_num=self.qpn,
                    context=wr.context,
                )
            )
            status = WCStatus.WR_FLUSH_ERR
            flushed += 1
        self.inflight.clear()
        while self.sq:
            wr = self.sq.pop(0)
            self.send_cq.push(
                WorkCompletion(
                    wr_id=wr.wr_id,
                    opcode=self._FLUSH_OPCODE[wr.opcode],
                    status=status,
                    byte_len=wr.sge.length,
                    qp_num=self.qpn,
                    context=wr.context,
                )
            )
            status = WCStatus.WR_FLUSH_ERR
            flushed += 1
        rq = self.rq
        while rq:  # a lazy run materialises in order, wr_ids and all
            rwr = rq.take()
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=rwr.wr_id,
                    opcode=WCOpcode.RECV,
                    status=WCStatus.WR_FLUSH_ERR,
                    byte_len=0,
                    qp_num=self.qpn,
                    context=rwr.context,
                )
            )
            flushed += 1
        return flushed

    # ------------------------------------------------------------------
    def post_send(self, wr: SendWR) -> None:
        """Queue a send work request (returns immediately)."""
        if self.state is not _READY:
            raise QPStateError(f"post_send on QP {self.qpn} in state {self.state}")
        sge, payload = wr.sge, wr.payload
        if (wr.opcode is not _SEND and wr.rkey == 0 or sge is None
                or payload is not None and payload.nbytes != sge.length):
            wr.validate()  # raises its error
        # at post time, so an oversize WR fails its poster, not the pipeline
        if sge.length > self.device.config.max_msg_bytes:
            raise BadWorkRequest(f"message of {sge.length}B exceeds max_msg_bytes")
        self.sq.append(wr)
        self.sends_posted += 1
        self.device.kick_send(self)

    def post_recv(self, wr: RecvWR) -> None:
        """Queue a receive work request (returns immediately)."""
        if self.state is _ERROR or self.srq is not None:
            self._check_recv_post()  # raises its error
        self.rq.append(wr)
        self.recvs_posted += 1

    def prefill_recv(self, count: int, sge: Optional[SGE], wr_id_start: int) -> None:
        """Post ``RecvWR(wr_id_start + i, sge)`` for each ``i < count`` as one
        chain, in O(1) (see :meth:`ReceiveQueue.prefill`): the receive pool
        a connection pre-posts at bring-up."""
        self._check_recv_post()
        self.rq.prefill(count, sge, wr_id_start)
        self.recvs_posted += count

    def _check_recv_post(self) -> None:
        if self.state is _ERROR:
            raise QPStateError(f"post_recv on QP {self.qpn} in ERROR state")
        if self.srq is not None:
            raise BadWorkRequest(
                f"QP {self.qpn} is SRQ-attached; post receives to the SRQ"
            )

    @property
    def recv_queue_depth(self) -> int:
        return len(self.rq)
