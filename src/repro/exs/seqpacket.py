"""SOCK_SEQPACKET (message-oriented) mode (paper §II-C).

"The RDMA protocol for message-oriented connections is simple.  When the
application calls exs_recv(), the EXS library at the receiver sends an
advertisement (ADVERT) to the EXS library at the sender with the virtual
memory address, length, and RDMA remote key of the receiver's memory area.
When the user at the other end calls exs_send() and an ADVERT has reached
the EXS library at that end, the sender posts a WWI request with the data."

Every transfer is direct (zero-copy); there is no intermediate buffer, no
phases, no sequence estimates.  One ``exs_send`` matches one ``exs_recv``;
if the message is larger than the advertised buffer, only the part that
fits is delivered and the completion is flagged *truncated* — the
message-oriented data-loss hazard the paper's introduction warns about
when porting stream applications.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from ..core.advert import Advert
from ..core.invariants import require
from .control import IMM_DIRECT, AdvertMsg, DataNotifyMsg, encode_direct_imm
from .stream_receiver import ReceiverBase
from .stream_sender import SenderBase

if TYPE_CHECKING:  # pragma: no cover
    from .connection import ExsConnection

__all__ = ["SeqPacketSenderHalf", "SeqPacketReceiverHalf"]


class SeqPacketSenderHalf(SenderBase):
    """Outbound direction: one WWI per message, gated on ADVERTs."""

    #: a message is one WWI, one data credit: 2 + 1 + 1
    min_credits = 4

    def __init__(self, conn: "ExsConnection") -> None:
        super().__init__(conn)
        self.adverts: List[Advert] = []
        self.messages_sent = 0

    def on_advert(self, msg: AdvertMsg) -> None:
        conn = self.conn
        if conn.tracer is not None:
            conn.trace("advert_rx", seq=msg.advert.seq, phase=msg.advert.phase)
        conn.tx_stats.adverts_received += 1
        self.adverts.append(msg.advert)

    def pump(self):
        conn = self.conn
        progressed = False
        while self.pending and self.adverts:
            if not conn.credits.can_send_data(1):
                break
            usend = self.pending.pop(0)
            advert = self.adverts.pop(0)
            if usend.nbytes > advert.length:
                # only what fits moves; the rest of the message is lost
                usend.nbytes = advert.length
                usend.truncated = True
            nbytes = usend.nbytes
            self.messages_sent += 1
            chunk = self._slice(usend, self.messages_sent, nbytes)
            self._note_posting()
            yield conn.costs.post_wr_ns
            self._post_data(
                usend,
                chunk,
                local_addr=usend.mr.addr + usend.offset,
                remote_addr=advert.remote_addr,
                rkey=advert.rkey,
                imm=encode_direct_imm(advert.advert_id),
            )
            usend.planned = nbytes
            conn.tx_stats.direct_transfers += 1
            conn.tx_stats.direct_bytes += nbytes
            progressed = True
        return progressed

    @property
    def final_seq(self) -> int:
        """For SOCK_SEQPACKET the FIN carries the message count."""
        return self.messages_sent

    control = {AdvertMsg: on_advert}


class SeqPacketReceiverHalf(ReceiverBase):
    """Inbound direction: advert every receive, complete on arrival.

    No intermediate buffer to copy out of, and every receive is advertised
    at submit, so the engine guards ``copy_ready`` / ``adverts_due`` stay
    False.
    """

    def __init__(self, conn: "ExsConnection") -> None:
        super().__init__(conn)
        #: (advert_id, UserRecv) per advertised receive, in order
        self.queue: List[Tuple[int, Any]] = []
        #: the id of the next ADVERT
        self._next_advert_id = 1

    def _enqueue(self, urecv) -> Optional[AdvertMsg]:
        advert_id = self._next_advert_id
        self._next_advert_id = advert_id + 1
        advert = Advert(
            advert_id=advert_id,
            seq=0,
            length=urecv.nbytes,
            phase=0,
            waitall=urecv.waitall,
            remote_addr=urecv.mr.addr + urecv.offset,
            rkey=urecv.mr.rkey,
        )
        self.queue.append((advert.advert_id, urecv))
        self.conn.rx_stats.adverts_sent += 1
        return AdvertMsg(advert=advert)

    def on_direct_arrival(self, advert_id: int, nbytes: int, stream_offset: int, remote_addr: int) -> None:
        require(len(self.queue) > 0, "seqpacket order", "message arrived with no pending recv")
        head_id, urecv = self.queue.pop(0)
        require(head_id == advert_id, "seqpacket order",
                f"message for advert {advert_id} but head is {head_id}")
        self._deliver(urecv, nbytes)

    def _drain_pending(self):
        while self.queue:
            yield self.queue.pop(0)[1], 0

    def _stream_finished(self) -> bool:
        # the FIN follows every message on the same QP
        return self.eof_seq is not None

    payload = {DataNotifyMsg: ReceiverBase.on_notify}
    imm = {IMM_DIRECT: on_direct_arrival}
