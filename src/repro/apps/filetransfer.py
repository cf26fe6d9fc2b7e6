"""Parallel-stream file transfer (GridFTP-style bulk data movement).

The paper's over-distance motivation comes from GridFTP-on-RDMA work
(its reference [10]): moving large files across high-latency paths, where
tools routinely open *several parallel streams* to fill the pipe.  This
module implements that pattern on the EXS API:

* the file is split into contiguous per-stream extents,
* each stream pipelines fixed-size chunks with a configurable number of
  outstanding ``exs_send`` operations,
* the receiver reassembles the extents and (in real-data mode) the
  transfer is verified end to end with SHA-256.

``run_file_transfer`` returns aggregate and per-stream statistics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional

from ..config import ScenarioConfig
from ..core import ProtocolMode
from ..exs import ExsEventType, ExsSocketOptions, MsgFlags, SocketType
from ..testbed import Testbed
from .metrics import throughput_bps
from .workloads import MIB

__all__ = ["FileTransferConfig", "StreamResult", "FileTransferResult", "run_file_transfer"]


@dataclass(frozen=True)
class FileTransferConfig:
    """One parallel file transfer."""

    file_bytes: int = 64 * MIB
    #: number of parallel stream connections
    streams: int = 4
    #: application chunk size per exs_send
    chunk_bytes: int = 1 * MIB
    #: outstanding sends (and posted receives) per stream
    outstanding: int = 8
    mode: ProtocolMode = ProtocolMode.DYNAMIC
    options: Optional[ExsSocketOptions] = None
    #: move and verify real bytes (False: synthetic, lengths only)
    real_data: bool = False
    port_base: int = 7200

    def socket_options(self) -> ExsSocketOptions:
        from dataclasses import replace

        base = self.options or ExsSocketOptions()
        return replace(base, mode=self.mode, real_data=self.real_data)

    def extent(self, stream: int) -> tuple[int, int]:
        """(offset, length) of *stream*'s contiguous slice of the file."""
        base = self.file_bytes // self.streams
        offset = stream * base
        length = base if stream < self.streams - 1 else self.file_bytes - offset
        return offset, length


@dataclass
class StreamResult:
    """Per-stream measurements."""

    stream: int
    nbytes: int
    start_ns: int
    end_ns: int

    @property
    def throughput_bps(self) -> float:
        return throughput_bps(self.nbytes, self.start_ns, self.end_ns)


@dataclass
class FileTransferResult:
    """Aggregate outcome of one parallel transfer."""

    config: FileTransferConfig
    total_bytes: int
    start_ns: int
    end_ns: int
    streams: List[StreamResult]
    #: True when real-data digests matched (None in synthetic mode)
    verified: Optional[bool]

    @property
    def throughput_bps(self) -> float:
        return throughput_bps(self.total_bytes, self.start_ns, self.end_ns)

    @property
    def throughput_gbps(self) -> float:
        return self.throughput_bps / 1e9

    @property
    def elapsed_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _pattern(offset: int, length: int) -> bytes:
    """Deterministic file contents for any extent (cheap, seekable)."""
    if length <= 0:
        return b""
    # 251 is prime, so the byte at position p is simply p % 251 and any
    # extent can be generated independently of the rest of the file
    start = offset % 251
    block = bytes((start + i) % 251 for i in range(min(length, 251)))
    reps = length // len(block) + 2
    return (block * reps)[:length]


def _sender_stream(tb: Testbed, cfg: FileTransferConfig, stream: int, out: dict):
    stack = tb.client
    offset, length = cfg.extent(stream)
    sock = stack.socket(SocketType.SOCK_STREAM, cfg.socket_options())
    eq = stack.qcreate(depth=1 << 18)
    buf = stack.alloc(length, real=cfg.real_data, label=f"ft:tx{stream}")
    if cfg.real_data:
        buf.fill(_pattern(offset, length))
    mr = yield from stack.mregister(buf)
    sock.connect(cfg.port_base + stream, eq)
    (yield eq.dequeue()).expect(ExsEventType.CONNECT)

    chunks = [(o, min(cfg.chunk_bytes, length - o)) for o in range(0, length, cfg.chunk_bytes)]
    next_chunk = 0
    inflight = 0
    start = tb.now
    while next_chunk < len(chunks) or inflight:
        while next_chunk < len(chunks) and inflight < cfg.outstanding:
            off, n = chunks[next_chunk]
            sock.send(buf, mr, n, eq, offset=off)
            next_chunk += 1
            inflight += 1
        (yield eq.dequeue()).expect(ExsEventType.SEND)
        inflight -= 1
    sock.close(eq)
    ev = yield eq.dequeue()
    out[("sent", stream)] = (length, start, tb.now)


def _receiver_stream(tb: Testbed, cfg: FileTransferConfig, stream: int,
                     file_buf, out: dict):
    stack = tb.server
    offset, length = cfg.extent(stream)
    lsock = stack.socket(SocketType.SOCK_STREAM, cfg.socket_options())
    lsock.bind_listen(cfg.port_base + stream)
    eq = stack.qcreate(depth=1 << 18)
    mr = out["file_mr"]
    lsock.accept(eq)
    ev = (yield eq.dequeue()).expect(ExsEventType.ACCEPT)
    lsock.close()
    sock = ev.socket

    # MSG_WAITALL receives: each takes exactly its chunk, so the posted
    # offsets are deterministic even with many receives outstanding.
    posted = 0
    received = 0
    first = None

    def post_next():
        nonlocal posted
        n = min(cfg.chunk_bytes, length - posted)
        sock.recv(file_buf, mr, n, eq, offset=offset + posted,
                  flags=MsgFlags.MSG_WAITALL)
        posted += n

    while posted < length and posted - received < cfg.outstanding * cfg.chunk_bytes:
        post_next()
    while received < length:
        ev = (yield eq.dequeue()).expect(ExsEventType.RECV)
        if ev.eof and received + ev.nbytes < length and posted >= length:
            raise RuntimeError(f"stream {stream}: premature EOF at {received}/{length}")
        if first is None:
            first = tb.now
        received += ev.nbytes
        while posted < length and posted - received < cfg.outstanding * cfg.chunk_bytes:
            post_next()
    out[("recv", stream)] = (received, first, tb.now)


def run_file_transfer(
    config: FileTransferConfig,
    scenario: Optional[ScenarioConfig] = None,
    *,
    testbed: Optional[Testbed] = None,
    max_events: Optional[int] = 500_000_000,
) -> FileTransferResult:
    """Run one parallel file transfer under *scenario* (or on a *testbed*
    already built from it) and return its measurements.  A testbed the
    run builds itself is closed before it returns."""
    if config.streams < 1 or config.file_bytes < config.streams:
        raise ValueError("need at least one stream and one byte per stream")
    if testbed is not None:
        return _transfer(config, testbed, max_events)
    with Testbed.from_scenario(scenario or ScenarioConfig()) as tb:
        return _transfer(config, tb, max_events)


def _transfer(config: FileTransferConfig, tb: Testbed,
              max_events: Optional[int]) -> FileTransferResult:
    out: dict = {}

    # one destination "file" shared by all streams, registered once
    file_buf = tb.host("server").alloc(config.file_bytes, real=config.real_data, label="ft:file")
    out["file_mr"] = tb.server_device.register(file_buf)

    for stream in range(config.streams):
        tb.sim.process(
            _receiver_stream(tb, config, stream, file_buf, out), name=f"ft-rx{stream}"
        )
        tb.sim.process(_sender_stream(tb, config, stream, out), name=f"ft-tx{stream}")
    tb.run(max_events=max_events)

    streams = []
    for s in range(config.streams):
        nbytes, start, end = out[("recv", s)]
        sent_bytes, sent_start, _ = out[("sent", s)]
        if nbytes != sent_bytes:
            raise AssertionError(f"stream {s}: sent {sent_bytes} but delivered {nbytes}")
        streams.append(StreamResult(s, nbytes, min(start, sent_start), end))

    verified: Optional[bool] = None
    if config.real_data:
        expected = hashlib.sha256(_pattern(0, config.file_bytes)).hexdigest()
        actual = hashlib.sha256(bytes(file_buf.data)).hexdigest()
        verified = expected == actual
        if not verified:
            raise AssertionError("file digest mismatch after transfer")

    return FileTransferResult(
        config=config,
        total_bytes=sum(s.nbytes for s in streams),
        start_ns=min(s.start_ns for s in streams),
        end_ns=max(s.end_ns for s in streams),
        streams=streams,
        verified=verified,
    )
