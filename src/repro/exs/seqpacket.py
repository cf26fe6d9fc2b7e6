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

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Optional

from ..core.advert import Advert
from ..core.invariants import require
from ..hosts.memory import Buffer, Chunk
from ..verbs import SGE, Opcode, SendWR
from .control import AdvertMsg, DataNotifyMsg, encode_direct_imm
from .eventqueue import ExsEvent, ExsEventType

if TYPE_CHECKING:  # pragma: no cover
    from .connection import ExsConnection

__all__ = ["SeqPacketSenderHalf", "SeqPacketReceiverHalf"]


@dataclass
class _PendingSend:
    buffer: Buffer
    mr: Any
    offset: int
    nbytes: int
    eq: Any
    context: Any
    sent_bytes: int = 0
    truncated: bool = False


@dataclass
class _PendingRecv:
    advert: Advert
    urecv: Any  # UserRecv


class SeqPacketSenderHalf:
    """Outbound direction: one WWI per message, gated on ADVERTs."""

    def __init__(self, conn: "ExsConnection") -> None:
        self.conn = conn
        self.pending: Deque[_PendingSend] = deque()
        #: posted to the transport but not yet acked (FIFO)
        self.unacked: Deque[_PendingSend] = deque()
        self.adverts: Deque[Advert] = deque()
        self.fin_sent = False
        self.fin_acked = True  # seqpacket close is immediate in this model
        self.first_post_ns: Optional[int] = None
        self.last_ack_ns: Optional[int] = None
        self.bytes_acked_total = 0
        self.messages_sent = 0

    def configure_peer(self, **_kw: Any) -> None:  # symmetric API with stream half
        pass

    def submit(self, buffer, mr, offset, nbytes, eq, context) -> _PendingSend:
        ps = _PendingSend(buffer, mr, offset, nbytes, eq, context)
        self.pending.append(ps)
        return ps

    def on_advert(self, advert: Advert) -> None:
        self.conn.tx_stats.adverts_received += 1
        self.adverts.append(advert)

    def on_ring_ack(self, copied_cum: int) -> None:  # pragma: no cover - defensive
        raise RuntimeError("ring ACK on a SOCK_SEQPACKET connection")

    def pump(self):
        progressed = False
        while self.pending and self.adverts:
            if not self.conn.credits.can_send_data(1):
                break
            ps = self.pending.popleft()
            advert = self.adverts.popleft()
            nbytes = min(ps.nbytes, advert.length)
            ps.truncated = ps.nbytes > advert.length
            ps.sent_bytes = nbytes
            self.messages_sent += 1
            # Zero-copy slice, pinned until the transport ack (released in
            # ExsConnection._handle_wc) — same aliasing rule as the stream
            # sender half.
            view = ps.buffer.view(ps.offset, nbytes)
            pin = ps.buffer.pin_range(ps.offset, nbytes) if view is not None else None
            if self.first_post_ns is None:
                self.first_post_ns = self.conn.sim.now
            chunk = Chunk(self.messages_sent, nbytes, view, pin=pin)
            imm = encode_direct_imm(advert.advert_id)
            yield self.conn.costs.post_wr_ns
            if self.conn.options.native_write_with_imm:
                self.conn.credits.consume(1)
                self.conn.qp.post_send(SendWR(
                    opcode=Opcode.RDMA_WRITE_WITH_IMM,
                    wr_id=self.conn.next_wr_id(),
                    sge=SGE(ps.mr.addr + ps.offset, nbytes, ps.mr.lkey),
                    remote_addr=advert.remote_addr,
                    rkey=advert.rkey,
                    imm_data=imm,
                    payload=chunk,
                    context=("data", ps, chunk),
                ))
            else:
                # older-iWARP emulation (paper §II-B): WRITE + notify SEND
                self.conn.qp.post_send(SendWR(
                    opcode=Opcode.RDMA_WRITE,
                    wr_id=self.conn.next_wr_id(),
                    sge=SGE(ps.mr.addr + ps.offset, nbytes, ps.mr.lkey),
                    remote_addr=advert.remote_addr,
                    rkey=advert.rkey,
                    payload=chunk,
                    context=("data", ps, chunk),
                ))
                self.conn.queue_control(DataNotifyMsg(
                    imm_data=imm,
                    nbytes=nbytes,
                    stream_offset=chunk.stream_offset,
                    remote_addr=advert.remote_addr,
                ))
            self.conn.tx_stats.direct_transfers += 1
            self.conn.tx_stats.direct_bytes += nbytes
            self.unacked.append(ps)
            progressed = True
        return progressed

    def on_data_acked(self, ps: _PendingSend, nbytes: int) -> None:
        try:
            self.unacked.remove(ps)
        except ValueError:
            pass
        self.bytes_acked_total += nbytes
        self.last_ack_ns = self.conn.sim.now
        ps.eq.post(
            ExsEvent(
                kind=ExsEventType.SEND,
                socket=self.conn.socket,
                nbytes=nbytes,
                truncated=ps.truncated,
                context=ps.context,
            )
        )

    def fail_pending(self):
        """Connection died: drain every incomplete send for ERROR delivery."""
        out = [(ps.eq, ps.context) for ps in self.unacked]
        out.extend((ps.eq, ps.context) for ps in self.pending)
        self.unacked.clear()
        self.pending.clear()
        return out

    @property
    def final_seq(self) -> int:
        """For SOCK_SEQPACKET the FIN carries the message count."""
        return self.messages_sent

    @property
    def drained(self) -> bool:
        return not self.pending


class SeqPacketReceiverHalf:
    """Inbound direction: advert every receive, complete on arrival."""

    #: engine guards: no intermediate buffer to copy out of, and every
    #: receive is advertised at submit
    copy_ready = False
    adverts_due = False

    def __init__(self, conn: "ExsConnection") -> None:
        self.conn = conn
        self.queue: Deque[_PendingRecv] = deque()
        self._advert_ids = itertools.count(1)
        self.eof_seq: Optional[int] = None
        self.first_arrival_ns: Optional[int] = None
        self.last_delivery_ns: Optional[int] = None
        self.bytes_delivered_total = 0

    def submit(self, urecv) -> Optional[AdvertMsg]:
        if self.eof_seq is not None:
            urecv.eq.post(
                ExsEvent(kind=ExsEventType.RECV, socket=self.conn.socket, nbytes=0,
                         eof=True, context=urecv.context)
            )
            return None
        advert = Advert(
            advert_id=next(self._advert_ids),
            seq=0,
            length=urecv.nbytes,
            phase=0,
            waitall=urecv.waitall,
            remote_addr=urecv.mr.addr + urecv.offset,
            rkey=urecv.mr.rkey,
        )
        self.queue.append(_PendingRecv(advert, urecv))
        self.conn.rx_stats.adverts_sent += 1
        return AdvertMsg(advert=advert)

    def on_direct_arrival(self, advert_id: int, nbytes: int, stream_offset: int, remote_addr: int) -> None:
        require(len(self.queue) > 0, "seqpacket order", "message arrived with no pending recv")
        pr = self.queue.popleft()
        require(
            pr.advert.advert_id == advert_id,
            "seqpacket order",
            f"message for advert {advert_id} but head is {pr.advert.advert_id}",
        )
        if self.first_arrival_ns is None:
            self.first_arrival_ns = self.conn.sim.now
        self.last_delivery_ns = self.conn.sim.now
        self.bytes_delivered_total += nbytes
        pr.urecv.eq.post(
            ExsEvent(
                kind=ExsEventType.RECV,
                socket=self.conn.socket,
                nbytes=nbytes,
                context=pr.urecv.context,
            )
        )

    def on_indirect_arrival(self, *_a: Any) -> None:  # pragma: no cover - defensive
        raise RuntimeError("indirect transfer on a SOCK_SEQPACKET connection")

    def fail_pending(self):
        """Connection died: drain every pending recv for ERROR delivery."""
        out = [(pr.urecv.eq, pr.urecv.context) for pr in self.queue]
        self.queue.clear()
        return out

    def on_fin(self, final_seq: int) -> None:
        self.eof_seq = final_seq

    def pump_eof(self) -> bool:
        if self.eof_seq is None:
            return False
        progressed = False
        while self.queue:
            pr = self.queue.popleft()
            pr.urecv.eq.post(
                ExsEvent(kind=ExsEventType.RECV, socket=self.conn.socket, nbytes=0,
                         eof=True, context=pr.urecv.context)
            )
            progressed = True
        return progressed
