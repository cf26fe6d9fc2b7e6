"""Simulated memory: buffers, chunks, arena, and the zero-copy plane."""

import pytest

from repro.hosts.memory import (
    Buffer,
    Chunk,
    CopyMeter,
    MemoryArena,
    MemoryError_,
)


@pytest.fixture
def arena():
    return MemoryArena()


def test_alloc_assigns_unique_aligned_addresses(arena):
    a = arena.alloc(100)
    b = arena.alloc(100)
    assert a.addr != b.addr
    assert a.addr % MemoryArena.ALIGN == 0
    assert b.addr >= a.addr + 100


def test_real_buffer_read_write(arena):
    buf = arena.alloc(16)
    buf.write(4, b"abcd")
    assert buf.read(4, 4) == b"abcd"
    assert buf.read(0, 4) == b"\x00" * 4


def test_synthetic_buffer_tracks_length_only(arena):
    buf = arena.alloc(1 << 30, real=False)  # no actual gigabyte allocated
    assert not buf.is_real
    buf.write(0, b"xy")  # no-op, no error
    assert buf.read(0, 2) is None
    assert buf.view(0, 2) is None


def test_bounds_checked(arena):
    buf = arena.alloc(10)
    with pytest.raises(MemoryError_):
        buf.write(8, b"abc")
    with pytest.raises(MemoryError_):
        buf.read(-1, 2)
    with pytest.raises(MemoryError_):
        buf.check_range(0, 11)


def test_view_is_zero_copy(arena):
    buf = arena.alloc(8)
    buf.fill(b"abcdefgh")
    view = buf.view(2, 3)
    assert bytes(view) == b"cde"
    buf.write(2, b"XYZ")
    assert bytes(view) == b"XYZ"  # same storage


def test_write_chunk(arena):
    buf = arena.alloc(10)
    buf.write_chunk(3, Chunk(0, 4, b"data"))
    assert buf.read(3, 4) == b"data"


def test_negative_alloc_rejected(arena):
    with pytest.raises(MemoryError_):
        arena.alloc(-1)


def test_chunk_validation():
    with pytest.raises(MemoryError_):
        Chunk(0, -1)
    with pytest.raises(MemoryError_):
        Chunk(0, 3, b"toolong!")


def test_chunk_split_real():
    c = Chunk(100, 6, b"abcdef")
    head, tail = c.split(2)
    assert (head.stream_offset, head.nbytes, head.data) == (100, 2, b"ab")
    assert (tail.stream_offset, tail.nbytes, tail.data) == (102, 4, b"cdef")


def test_chunk_split_synthetic():
    c = Chunk(50, 10)
    head, tail = c.split(10)
    assert head.nbytes == 10 and tail.nbytes == 0
    assert tail.stream_offset == 60


def test_chunk_split_zero_length_head_real():
    head, tail = Chunk(10, 4, b"abcd").split(0)
    assert (head.stream_offset, head.nbytes, head.data) == (10, 0, b"")
    assert (tail.stream_offset, tail.nbytes, tail.data) == (10, 4, b"abcd")


def test_chunk_split_full_length_real():
    head, tail = Chunk(10, 4, b"abcd").split(4)
    assert (head.stream_offset, head.nbytes, head.data) == (10, 4, b"abcd")
    assert (tail.stream_offset, tail.nbytes, tail.data) == (14, 0, b"")


def test_chunk_split_zero_length_head_synthetic():
    head, tail = Chunk(10, 4).split(0)
    assert (head.stream_offset, head.nbytes, head.data) == (10, 0, None)
    assert (tail.stream_offset, tail.nbytes, tail.data) == (10, 4, None)


def test_chunk_split_synthetic_matches_real_offsets():
    """Both modes must agree on the stream positions of head and tail."""
    for at in (0, 1, 3, 7):
        rh, rt = Chunk(100, 7, b"abcdefg").split(at)
        sh, st = Chunk(100, 7).split(at)
        assert (sh.stream_offset, sh.nbytes) == (rh.stream_offset, rh.nbytes)
        assert (st.stream_offset, st.nbytes) == (rt.stream_offset, rt.nbytes)
        assert rh.end_offset == rt.stream_offset
        assert sh.end_offset == st.stream_offset


def test_chunk_equality_and_hash():
    assert Chunk(0, 4, b"abcd") == Chunk(0, 4, b"abcd")
    assert Chunk(0, 4, b"abcd") != Chunk(0, 4, b"abce")
    assert Chunk(0, 4) != Chunk(1, 4)
    assert hash(Chunk(3, 2, b"xy")) == hash(Chunk(3, 2, b"xy"))
    assert Chunk(0, 1) != object() and not (Chunk(0, 1) == object())


def test_chunk_split_out_of_range():
    with pytest.raises(MemoryError_):
        Chunk(0, 4, b"abcd").split(5)
    with pytest.raises(MemoryError_):
        Chunk(0, 4, b"abcd").split(-1)
    with pytest.raises(MemoryError_):
        Chunk(0, 4).split(-1)


def test_chunk_end_offset():
    assert Chunk(7, 3).end_offset == 10


def test_arena_accounting(arena):
    arena.alloc(100)
    arena.alloc(200, real=False)
    assert arena.allocated_bytes == 300
    assert arena.buffer_count == 2


# ---------------------------------------------------------------------------
# zero-copy plane: view-carrying chunks
# ---------------------------------------------------------------------------

def test_chunk_carries_memoryview_payload(arena):
    buf = arena.alloc(8)
    buf.fill(b"abcdefgh")
    c = Chunk(0, 4, buf.view(2, 4))
    assert c.materialize() == b"cdef"
    assert type(c.materialize()) is bytes
    # bytes payloads pass through materialize unchanged (no copy)
    raw = Chunk(0, 2, b"hi")
    assert raw.materialize() is raw.data
    assert Chunk(0, 2).materialize() is None


def test_chunk_split_views_alias_parent_memory(arena):
    buf = arena.alloc(6)
    buf.fill(b"abcdef")
    head, tail = Chunk(100, 6, buf.view(0, 6)).split(2)
    assert head.data == b"ab" and tail.data == b"cdef"
    assert type(head.data) is memoryview and type(tail.data) is memoryview
    buf.write(0, b"XYZQRS")  # split halves are views, not copies
    assert head.materialize() == b"XY"
    assert tail.materialize() == b"ZQRS"


def test_chunk_split_of_bytes_payload_is_zero_copy():
    head, tail = Chunk(0, 4, b"abcd").split(2)
    # bytes payloads are wrapped in views rather than sliced-and-copied
    assert type(head.data) is memoryview and type(tail.data) is memoryview
    assert head.data == b"ab" and tail.data == b"cd"


def test_chunk_hash_works_for_memoryview_payloads(arena):
    buf = arena.alloc(4)
    buf.fill(b"abcd")
    a = Chunk(0, 4, buf.view(0, 4))
    b = Chunk(0, 4, b"abcd")
    assert a == b
    assert hash(a) == hash(b)
    assert a != Chunk(0, 4, b"abcz")
    assert a != Chunk(0, 4)  # real vs synthetic


def test_chunk_content_digest_is_lazy_and_cached():
    c = Chunk(0, 4, b"abcd")
    assert c._digest is None
    d = c.content_digest()
    assert c.content_digest() is d
    assert Chunk(0, 4).content_digest() is None
    assert Chunk(1, 4, b"abcd").content_digest() == d  # position-independent


# ---------------------------------------------------------------------------
# overlapping-source writes (aliasing semantics)
# ---------------------------------------------------------------------------

def test_write_overlapping_source_snapshots_first(arena):
    """A view of the destination buffer is read in full before any store."""
    buf = arena.alloc(8)
    buf.fill(b"abcdefgh")
    buf.write(0, buf.view(2, 6))  # forward-overlapping memmove
    assert buf.read(0, 8) == b"cdefghgh"
    buf.fill(b"abcdefgh")
    buf.write(2, buf.view(0, 6))  # backward-overlapping
    assert buf.read(0, 8) == b"ababcdef"


def test_write_chunk_overlapping_source_snapshots_first(arena):
    buf = arena.alloc(6)
    buf.fill(b"abcdef")
    buf.write_chunk(1, Chunk(0, 4, buf.view(0, 4)))
    assert buf.read(0, 6) == b"aabcdf"


def test_write_from_other_buffer_view_is_plain_copy(arena):
    src, dst = arena.alloc(4), arena.alloc(4)
    src.fill(b"wxyz")
    dst.write(0, src.view(0, 4))
    assert dst.read(0, 4) == b"wxyz"


# ---------------------------------------------------------------------------
# view pinning (the aliasing rule) and its assertions
# ---------------------------------------------------------------------------

def test_pin_release_is_idempotent_and_metered(arena):
    buf = arena.alloc(8)
    meter = CopyMeter()
    buf.meter = meter
    pin = buf.pin_range(0, 4)
    assert meter.pins_outstanding == 1 and meter.pins_total == 1
    pin.release()
    pin.release()
    assert meter.pins_outstanding == 0 and meter.pins_total == 1


def test_pin_on_synthetic_buffer_is_none(arena):
    assert arena.alloc(8, real=False).pin_range(0, 4) is None


def test_debug_mode_rejects_write_into_pinned_range(arena):
    buf = arena.alloc(8)
    pin = buf.pin_range(2, 4)
    with pytest.raises(MemoryError_, match="in-flight view"):
        buf.write(3, b"xx")
    buf.write(6, b"ok")  # disjoint range is fine
    pin.release()
    buf.write(3, b"xx")  # released: reuse allowed


def test_debug_mode_rejects_placing_released_view(arena):
    src, dst = arena.alloc(4), arena.alloc(4)
    src.fill(b"abcd")
    pin = src.pin_range(0, 4)
    chunk = Chunk(0, 4, src.view(0, 4), pin=pin)
    pin.release()
    with pytest.raises(MemoryError_, match="already released"):
        dst.write_chunk(0, chunk)


# ---------------------------------------------------------------------------
# CopyMeter accounting and gather/scatter
# ---------------------------------------------------------------------------

def test_meter_counts_copies_and_views(arena):
    buf = arena.alloc(16)
    meter = CopyMeter()
    buf.meter = meter
    buf.write(0, b"abcdefgh")
    assert (meter.payload_copies, meter.payload_bytes_copied) == (1, 8)
    buf.view(0, 4)
    assert (meter.views_forwarded, meter.view_bytes_forwarded) == (1, 4)
    buf.write_chunk(8, Chunk(0, 4, b"data"))
    assert (meter.payload_copies, meter.payload_bytes_copied) == (2, 12)
    # reads/materialisation and synthetic writes are not payload-plane copies
    snap = meter.snapshot()
    assert snap["payload_copies"] == 2 and snap["pins_outstanding"] == 0


def test_gather_scatter_roundtrip(arena):
    src, dst = arena.alloc(12), arena.alloc(12)
    src.fill(b"abcdefghijkl")
    views = src.gather([(8, 4), (0, 4)])
    assert [bytes(v) for v in views] == [b"ijkl", b"abcd"]
    dst.scatter_write(2, views)
    assert dst.read(2, 8) == b"ijklabcd"
    with pytest.raises(MemoryError_):
        src.gather([(0, 20)])
    assert arena.alloc(4, real=False).gather([(0, 2)]) is None


def test_lazy_backing_materialises_on_first_touch(arena):
    buf = arena.alloc(64)
    assert buf.is_real and buf._data is None  # no zero-fill yet
    assert buf.read(0, 4) == b"\x00" * 4  # first touch materialises
    assert buf._data is not None
