"""Connection manager (rdma_cm analogue) for the point-to-point fabric.

Implements the three-way REQ → REP → RTU rendezvous used by ``rdma_cm``:

* the passive side listens on a port and receives
  :class:`ConnectionRequest` objects;
* :meth:`ConnectionRequest.accept` binds a QP and returns a REP (carrying
  opaque ``private_data`` — UNH EXS uses this to exchange the intermediate
  buffer address/rkey and credit configuration);
* the active side's :meth:`ConnectionManager.connect` completes when the
  REP arrives, then confirms with RTU.

The handshake timing matters for the protocol under study: the passive
side's ``accept`` returns roughly half an RTT *before* the active side's
``connect`` does, so receives posted immediately after ``accept`` generate
ADVERTs that race the REP to the sender (see DESIGN.md §5).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..simnet import Event, Simulator, Store
from .device import RdmaDevice
from .errors import VerbsError
from .qp import QueuePair
from .wire import CmMessage

__all__ = ["ConnectionManager", "CmListener", "ConnectionRequest"]


class ConnectionRequest:
    """An incoming connection awaiting :meth:`accept` or :meth:`reject`."""

    def __init__(self, cm: "ConnectionManager", port: int, remote_qpn: int, private_data: Dict[str, Any]) -> None:
        self.cm = cm
        self.port = port
        self.remote_qpn = remote_qpn
        self.private_data = private_data
        #: fires when the RTU arrives (rdma_cm ESTABLISHED on the passive side)
        self.established: Event = Event(cm.sim)
        self._answered = False

    def accept(self, qp: QueuePair, private_data: Optional[Dict[str, Any]] = None) -> QueuePair:
        """Bind *qp* to the requester and send the REP.

        The QP is usable immediately on return — receives may be posted
        before the RTU arrives, exactly as with real rdma_cm.
        """
        if self._answered:
            raise VerbsError("connection request already answered")
        self._answered = True
        qp.connect(self.remote_qpn)
        self.cm._pending_rtu[qp.qpn] = self
        self.cm.device.send_cm(
            CmMessage(
                kind="rep",
                port=self.port,
                src_qpn=qp.qpn,
                dst_qpn=self.remote_qpn,
                private_data=dict(private_data or {}),
            )
        )
        return qp

    def reject(self, reason: str = "") -> None:
        if self._answered:
            raise VerbsError("connection request already answered")
        self._answered = True
        self.cm.device.send_cm(
            CmMessage(
                kind="rej",
                port=self.port,
                dst_qpn=self.remote_qpn,
                private_data={"reason": reason},
            )
        )


class CmListener:
    """A passive endpoint bound to a port; yields connection requests."""

    def __init__(self, cm: "ConnectionManager", port: int) -> None:
        self.cm = cm
        self.port = port
        self._incoming: Store = Store(cm.sim)

    def get_request(self) -> Event:
        """Event firing with the next :class:`ConnectionRequest`."""
        return self._incoming.get()

    @property
    def backlog(self) -> int:
        return len(self._incoming)

    def close(self) -> None:
        """Stop listening: free the port and refuse the requests still queued."""
        self.cm._listeners.pop(self.port, None)
        while self._incoming:
            self._incoming.try_get().reject("connection refused")


class ConnectionRejected(VerbsError):
    """The passive side rejected the connection."""


class ConnectionManager:
    """Per-device CM endpoint."""

    def __init__(self, device: RdmaDevice) -> None:
        self.device = device
        self.sim: Simulator = device.sim
        self._listeners: Dict[int, CmListener] = {}
        #: active-side connects awaiting REP, keyed by our qpn
        self._pending_rep: Dict[int, tuple] = {}  # qpn -> (done event, QueuePair)
        #: passive-side accepts awaiting RTU, keyed by our qpn
        self._pending_rtu: Dict[int, ConnectionRequest] = {}
        device.cm_handler = self._on_cm

    def close(self) -> None:
        """Forget every listener and unanswered handshake and unhook from
        the device (a finished run's teardown)."""
        self._listeners.clear()
        self._pending_rep.clear()
        self._pending_rtu.clear()
        self.device.cm_handler = None

    # -- passive side ---------------------------------------------------
    def listen(self, port: int) -> CmListener:
        if port in self._listeners:
            raise VerbsError(f"port {port} already listening")
        listener = CmListener(self, port)
        self._listeners[port] = listener
        return listener

    # -- active side ------------------------------------------------------
    def connect(self, port: int, qp: QueuePair, private_data: Optional[Dict[str, Any]] = None,
                *, to: Optional[str] = None) -> Event:
        """Start connecting *qp* to *port* on the peer.

        Returns an event that succeeds with ``(remote_qpn, private_data)``
        from the REP, after which the QP is connected and RTU has been sent.
        On a multi-host fabric *to* names the destination host (the REQ is
        the one CM datagram that cannot be routed by QPN); the classic
        point-to-point wire has an implicit peer and ignores it.
        """
        done = Event(self.sim)
        # remember qp alongside the event so the REP handler can bind it
        self._pending_rep[qp.qpn] = (done, qp)
        self.device.send_cm(
            CmMessage(
                kind="req",
                port=port,
                src_qpn=qp.qpn,
                dst_lid=to or "",
                private_data=dict(private_data or {}),
            )
        )
        return done

    # -- dispatch ---------------------------------------------------------
    def _on_cm(self, msg: CmMessage) -> None:
        if msg.kind == "req":
            listener = self._listeners.get(msg.port)
            if listener is None:
                self.device.send_cm(
                    CmMessage(kind="rej", port=msg.port, dst_qpn=msg.src_qpn,
                              private_data={"reason": "connection refused"})
                )
                return
            listener._incoming.put(
                ConnectionRequest(self, msg.port, msg.src_qpn, msg.private_data)
            )
        elif msg.kind == "rep":
            pending = self._pending_rep.pop(msg.dst_qpn, None)
            if pending is None:
                raise VerbsError("REP with no pending connect")
            done, qp = pending
            qp.connect(msg.src_qpn)
            self.device.send_cm(
                CmMessage(kind="rtu", port=msg.port, src_qpn=qp.qpn, dst_qpn=msg.src_qpn)
            )
            done.succeed((msg.src_qpn, msg.private_data))
        elif msg.kind == "rtu":
            req = self._pending_rtu.pop(msg.dst_qpn, None)
            if req is not None and not req.established.triggered:
                req.established.succeed()
        elif msg.kind == "rej":
            pending = self._pending_rep.pop(msg.dst_qpn, None)
            if pending is not None:
                pending[0].fail(ConnectionRejected(msg.private_data.get("reason", "rejected")))
        else:  # pragma: no cover - defensive
            raise VerbsError(f"unknown CM message kind {msg.kind!r}")
