"""ES-API style free functions and a blocking convenience facade.

The Extended Sockets API is C-flavoured (``exs_socket``, ``exs_send``,
``exs_qdequeue``, ...).  These thin wrappers expose that spelling over the
object API in :mod:`repro.exs.socket`, for familiarity and for porting
pseudo-code from the paper.

:class:`BlockingSocket` pairs each asynchronous call with an event-queue
dequeue, giving the synchronous look of BSD sockets — handy in examples
and tests (each ``yield from`` returns when the operation completes).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..hosts.memory import Buffer
from ..simnet import Event
from ..verbs import MemoryRegion
from .eventqueue import ExsEvent, ExsEventQueue, ExsEventType
from .flags import ExsSocketOptions, MsgFlags, SocketType
from .socket import ExsSocket, ExsStack

__all__ = [
    "exs_socket",
    "exs_bind_listen",
    "exs_accept",
    "exs_connect",
    "exs_send",
    "exs_recv",
    "exs_close",
    "exs_qcreate",
    "exs_qdequeue",
    "exs_mregister",
    "exs_mderegister",
    "BlockingSocket",
]


def exs_socket(stack: ExsStack, socket_type: SocketType = SocketType.SOCK_STREAM,
               options: Optional[ExsSocketOptions] = None) -> ExsSocket:
    """Create a socket (``exs_socket()``)."""
    return stack.socket(socket_type, options)


def exs_bind_listen(sock: ExsSocket, port: int) -> None:
    """Bind and listen (``exs_bind()`` + ``exs_listen()``)."""
    sock.bind_listen(port)


def exs_accept(sock: ExsSocket, eq: ExsEventQueue, context: Any = None,
               options: Optional[ExsSocketOptions] = None) -> None:
    """Asynchronously accept (``exs_accept()``); ACCEPT event on *eq*."""
    sock.accept(eq, context, options)


def exs_connect(sock: ExsSocket, port: int, eq: ExsEventQueue, context: Any = None,
                *, to: Optional[str] = None) -> None:
    """Asynchronously connect (``exs_connect()``); CONNECT event on *eq*.

    *to* names the destination host on a multi-host fabric (ignored on the
    point-to-point wire).
    """
    sock.connect(port, eq, context, to=to)


def exs_send(sock: ExsSocket, buffer: Buffer, mr: MemoryRegion, nbytes: int,
             eq: ExsEventQueue, *, offset: int = 0, flags: MsgFlags = MsgFlags.NONE,
             context: Any = None) -> None:
    """Asynchronous send (``exs_send()``); SEND event on *eq*."""
    sock.send(buffer, mr, nbytes, eq, offset=offset, flags=flags, context=context)


def exs_recv(sock: ExsSocket, buffer: Buffer, mr: MemoryRegion, nbytes: int,
             eq: ExsEventQueue, *, offset: int = 0, flags: MsgFlags = MsgFlags.NONE,
             context: Any = None) -> None:
    """Asynchronous receive (``exs_recv()``); RECV event on *eq*."""
    sock.recv(buffer, mr, nbytes, eq, offset=offset, flags=flags, context=context)


def exs_close(sock: ExsSocket, eq: ExsEventQueue, context: Any = None) -> None:
    """Graceful close (``exs_close()``); CLOSE event on *eq*."""
    sock.close(eq, context)


def exs_qcreate(stack: ExsStack, depth: int = 4096) -> ExsEventQueue:
    """Create an event queue (``exs_qcreate()``)."""
    return stack.qcreate(depth)


def exs_qdequeue(eq: ExsEventQueue) -> Event:
    """Dequeue the next completion (``exs_qdequeue()``); yieldable event."""
    return eq.dequeue()


def exs_mregister(stack: ExsStack, buffer: Buffer) -> Generator[Event, Any, MemoryRegion]:
    """Register memory (``exs_mregister()``); ``yield from`` it."""
    return stack.mregister(buffer)


def exs_mderegister(stack: ExsStack, mr: MemoryRegion) -> None:
    """Deregister memory (``exs_mderegister()``)."""
    stack.mderegister(mr)


class BlockingSocket:
    """Synchronous-looking wrapper pairing each call with its completion.

    Every method is a generator to ``yield from`` inside a simulation
    process; as a context manager the socket closes itself on exit::

        conn = yield from BlockingSocket.connect(stack, port=4000)
        with conn:
            yield from conn.send_bytes(b"hello")
            data = yield from conn.recv_bytes(5)
        # exs_close() was issued; the CLOSE completion arrives on conn.eq

    ``with`` issues a fire-and-forget ``exs_close()`` (``__exit__`` cannot
    yield, so it does not wait for the CLOSE completion); call
    ``yield from conn.close()`` instead when the process must observe the
    close finishing before proceeding.
    """

    def __init__(self, sock: ExsSocket, eq: ExsEventQueue) -> None:
        self.sock = sock
        self.eq = eq
        self.stack = sock.stack
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "BlockingSocket":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close_nowait()
        return False

    def close_nowait(self) -> None:
        """Issue ``exs_close()`` without waiting; idempotent.

        The CLOSE completion is delivered to ``self.eq`` like any other.
        """
        if not self._closed:
            self._closed = True
            self.sock.close(self.eq)

    # -- establishment -----------------------------------------------------
    @classmethod
    def connect(cls, stack: ExsStack, port: int,
                socket_type: SocketType = SocketType.SOCK_STREAM,
                options: Optional[ExsSocketOptions] = None,
                to: Optional[str] = None):
        sock = stack.socket(socket_type, options)
        eq = stack.qcreate()
        sock.connect(port, eq, to=to)
        ev: ExsEvent = yield eq.dequeue()
        ev.expect(ExsEventType.CONNECT)
        return cls(sock, eq)

    @classmethod
    def accept_one(cls, stack: ExsStack, port: int,
                   socket_type: SocketType = SocketType.SOCK_STREAM,
                   options: Optional[ExsSocketOptions] = None):
        listener = stack.socket(socket_type, options)
        listener.bind_listen(port)
        eq = stack.qcreate()
        listener.accept(eq)
        ev: ExsEvent = yield eq.dequeue()
        ev.expect(ExsEventType.ACCEPT)
        listener.close()  # its one accept is done: the port is free again
        return cls(ev.socket, eq)

    # -- data ---------------------------------------------------------------
    def send_bytes(self, payload: bytes):
        """Register a fresh buffer, send *payload*, wait for completion."""
        buf = self.stack.alloc(len(payload), label="blk:send")
        buf.fill(payload)
        mr = yield from self.stack.mregister(buf)
        self.sock.send(buf, mr, len(payload), self.eq)
        ev: ExsEvent = yield self.eq.dequeue()
        ev.expect(ExsEventType.SEND)
        self.stack.mderegister(mr)
        return ev.nbytes

    def recv_bytes(self, max_nbytes: int, *, waitall: bool = False):
        """Receive up to *max_nbytes*; returns the received bytes (b'' at EOF)."""
        buf = self.stack.alloc(max_nbytes, label="blk:recv")
        mr = yield from self.stack.mregister(buf)
        flags = MsgFlags.MSG_WAITALL if waitall else MsgFlags.NONE
        self.sock.recv(buf, mr, max_nbytes, self.eq, flags=flags)
        ev: ExsEvent = yield self.eq.dequeue()
        ev.expect(ExsEventType.RECV)
        self.stack.mderegister(mr)
        data = buf.read(0, ev.nbytes)
        return b"" if ev.eof and ev.nbytes == 0 else (data or b"")

    def close(self):
        """Close and wait for the CLOSE completion; no-op when already closed."""
        if self._closed:
            return None
        self._closed = True
        self.sock.close(self.eq)
        ev: ExsEvent = yield self.eq.dequeue()
        ev.expect(ExsEventType.CLOSE)
        return None
