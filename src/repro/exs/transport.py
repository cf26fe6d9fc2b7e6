"""The transport contract of an EXS connection, and the registered pairs.

An :class:`~repro.exs.connection.ExsConnection` owns its QP, the credit
loop, the control queue, close and the progress round its CQ-shard poller
runs; its data plane is one *half pair*, a :class:`SenderHalf` and a :class:`ReceiverHalf`.
The two Protocols declare everything the connection relies on, and nothing
else: a transport is a pair that satisfies them, registered in
:data:`PAIRS` under the ``(socket type, transport)`` it serves.

Each pair owns what only it uses: its receive pool (and whether a shared
SRQ may stand in for it), its hello fields, its telemetry gauges and its
dispatch tables — ``{message type: handler}`` for control messages and for
SENDs that carry or announce payload, ``{immediate type: handler}`` for
WRITE WITH IMM arrivals.  The tables are class attributes of plain
functions, called with the half first, so :data:`TABLES` holds one set per
pair that all of its connections share.  A message outside the tables is
one protocol error naming the message and the transport.  The shared
bookkeeping lives in :class:`~repro.exs.stream_sender.SenderBase` and
:class:`~repro.exs.stream_receiver.ReceiverBase`, whose docstrings give
each member's meaning.
"""

from __future__ import annotations

from typing import (Any, Callable, ClassVar, Dict, Generator, List, Optional, Protocol,
                    Tuple, runtime_checkable)

from .flags import TRANSPORT_EAGER_RENDEZVOUS, TRANSPORT_WWI, SocketType
from .rendezvous import RdvReceiverHalf, RdvSenderHalf
from .seqpacket import SeqPacketReceiverHalf, SeqPacketSenderHalf
from .stream_receiver import StreamReceiverHalf
from .stream_sender import StreamSenderHalf

__all__ = ["SenderHalf", "ReceiverHalf", "PAIRS", "TABLES", "resolve_pair"]

#: an engine-body generator: yields library-core ns, returns its result
Body = Generator[int, None, Any]
#: ``(eq, context)`` pairs of operations to complete with ERROR
Failed = List[Tuple[Any, Any]]


@runtime_checkable
class SenderHalf(Protocol):
    """Outbound direction; built once the peer's hello is known."""

    pending: List[Any]  # the engine pumps only while non-empty
    control: ClassVar[Dict[type, Callable[[Any, Any], None]]]
    algo: Any  # pure protocol core (phase tracing), or None
    emulates_write_with_imm: bool
    min_credits: int  # fewest ExsSocketOptions.credits it makes progress with
    first_post_ns: Optional[int]  # throughput start point

    def submit(self, buffer: Any, mr: Any, offset: int, nbytes: int, eq: Any, context: Any) -> Any: ...
    def pump(self) -> Body: ...
    def on_data_acked(self, usend: Any, nbytes: int) -> None: ...
    def fail_pending(self) -> Failed: ...
    @property
    def drained(self) -> bool: ...
    @property
    def final_seq(self) -> int: ...
    gauge_names: ClassVar[Tuple[str, ...]]
    def gauges(self) -> Tuple[float, ...]: ...


@runtime_checkable
class ReceiverHalf(Protocol):
    """Inbound direction; built with the connection."""

    shares_srq: bool
    pool_mr: Any
    control: ClassVar[Dict[type, Callable[[Any, Any], None]]]
    payload: ClassVar[Dict[type, Callable[[Any, Any, Any], None]]]
    imm: ClassVar[Dict[int, Callable[[Any, int, int, int, int], None]]]
    copy_ready: bool  # engine guard of next_copy
    adverts_due: bool  # engine guard of flush_adverts
    eof_seq: Optional[int]
    algo: Any
    last_delivery_ns: Optional[int]  # throughput end point

    def hello(self) -> Dict[str, int]: ...
    def post_initial_recvs(self) -> None: ...
    def repost_recv(self, slot: Any) -> None: ...
    def submit(self, urecv: Any) -> Optional[Any]: ...
    def next_copy(self) -> Optional[Any]: ...
    def execute_copy(self, plan: Any) -> Body: ...
    def flush_adverts(self) -> List[Any]: ...
    def on_fin(self, final_seq: int) -> None: ...
    def pump_eof(self) -> bool: ...
    def fail_pending(self) -> Failed: ...
    gauge_names: ClassVar[Tuple[str, ...]]
    def gauges(self) -> Tuple[float, ...]: ...


#: the half pair serving each (socket type, transport)
PAIRS = {
    (SocketType.SOCK_STREAM, TRANSPORT_WWI): (StreamSenderHalf, StreamReceiverHalf),
    (SocketType.SOCK_STREAM, TRANSPORT_EAGER_RENDEZVOUS): (RdvSenderHalf, RdvReceiverHalf),
    (SocketType.SOCK_SEQPACKET, TRANSPORT_WWI): (SeqPacketSenderHalf, SeqPacketReceiverHalf),
}


#: one pair's dispatch tables: control ``{message type: (handler, True if
#: the sender half takes it)}``, and the receiver half's payload and imm
Tables = Tuple[Dict[type, Tuple[Callable[..., None], bool]], Dict[type, Callable[..., None]],
               Dict[int, Callable[..., None]]]


def _tables(tx_cls: type, rx_cls: type) -> Tables:
    control = {msg: (handler, True) for msg, handler in tx_cls.control.items()}
    control.update((msg, (handler, False)) for msg, handler in rx_cls.control.items())
    return control, rx_cls.payload, rx_cls.imm


#: the dispatch tables of each pair, shared by all of its connections
TABLES: Dict[Tuple[SocketType, str], Tables] = {
    key: _tables(*pair) for key, pair in PAIRS.items()}


def resolve_pair(socket_type: SocketType, transport: str) -> Tuple[str, type, type, Tables]:
    """``(transport, sender class, receiver class, dispatch tables)`` of a
    new connection: *transport* for a stream socket; the message protocol
    of SOCK_SEQPACKET (paper §II-C) runs on WWI alone."""
    if socket_type is not SocketType.SOCK_STREAM:
        transport = TRANSPORT_WWI
    key = (socket_type, transport)
    return (transport, *PAIRS[key], TABLES[key])
