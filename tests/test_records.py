"""The hot-path record contract.

The per-message records are slotted dataclasses; the frozen ones are built
by :func:`repro.records.record`, which swaps the generated ``__init__``
for one that stores through the slot descriptors.  None of that may show:
signatures, immutability, eq / hash / repr, validation, ``copy.deepcopy``
(``check.model.World`` deep-copies states holding plans and adverts) and
pickling are exactly those of a plain ``@dataclass(frozen=True)``.

CI runs this file under several Python versions; it needs no pytest, so
``PYTHONPATH=src python tests/test_records.py`` checks any interpreter.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import sys
from dataclasses import FrozenInstanceError

from repro.core.advert import Advert
from repro.core.receiver_algo import CopyPlan
from repro.core.ring import RingError, RingSegment
from repro.core.sender_algo import DirectPlan, IndirectPlan
from repro.exs import control
from repro.exs.eventqueue import ExsEvent, ExsEventType
from repro.verbs.cq import WorkCompletion
from repro.verbs.enums import Opcode, WCOpcode, WCStatus
from repro.verbs.errors import BadWorkRequest
from repro.verbs.wire import AckMessage, DataMessage
from repro.verbs.wr import SGE, SendWR

ADVERT = Advert(advert_id=3, seq=4096, length=512, phase=2, waitall=True,
                remote_addr=0x1000, rkey=7, base_offset=8)

#: record -> (sample field values in declaration order, signature as a plain
#: dataclass of the same fields prints it)
FROZEN = {
    WorkCompletion: (
        (11, WCOpcode.RECV, WCStatus.SUCCESS, 64, 5, 1000001, True, "ctx", None),
        "(wr_id: 'int', opcode: 'WCOpcode', status: 'WCStatus', byte_len: 'int' = 0, "
        "imm_data: 'int' = 0, qp_num: 'int' = 0, wc_flags_with_imm: 'bool' = False, "
        "context: 'Any' = None, meta: 'Any' = None) -> None"),
    SGE: ((0x2000, 48, 4097), "(addr: 'int', length: 'int', lkey: 'int') -> None"),
    ExsEvent: (
        (ExsEventType.RECV, "sock", 64, False, True, "ctx", None),
        "(kind: 'ExsEventType', socket: 'Any', nbytes: 'int' = 0, eof: 'bool' = False, "
        "truncated: 'bool' = False, context: 'Any' = None, "
        "error: 'Optional[str]' = None) -> None"),
    Advert: (
        (3, 4096, 512, 2, True, 0x1000, 7, 8),
        "(advert_id: 'int', seq: 'int', length: 'int', phase: 'int', "
        "waitall: 'bool' = False, remote_addr: 'int' = 0, rkey: 'int' = 0, "
        "base_offset: 'int' = 0) -> None"),
    control.AdvertMsg: ((ADVERT, 9), "(advert: 'Advert', credit_cum: 'int' = 0) -> None"),
    control.RingAckMsg: ((4096, 9), "(copied_cum: 'int', credit_cum: 'int' = 0) -> None"),
    control.CreditMsg: ((9,), "(credit_cum: 'int') -> None"),
    control.DataNotifyMsg: (
        (0x10000003, 512, 4096, 0x1000, 9),
        "(imm_data: 'int', nbytes: 'int', stream_offset: 'int', remote_addr: 'int', "
        "credit_cum: 'int' = 0) -> None"),
    control.FinMsg: ((8192, 9), "(final_seq: 'int', credit_cum: 'int' = 0) -> None"),
    control.EagerDataMsg: (
        (512, 4096, 9),
        "(nbytes: 'int', stream_offset: 'int', credit_cum: 'int' = 0) -> None"),
    control.RtsMsg: (
        (65536, 4096, 9),
        "(nbytes: 'int', stream_offset: 'int', credit_cum: 'int' = 0) -> None"),
    control.CtsMsg: (
        (0x1000, 7, 65536, 9),
        "(addr: 'int', rkey: 'int', nbytes: 'int', credit_cum: 'int' = 0) -> None"),
    DirectPlan: (
        (ADVERT, 4096, 256, 2, 128, False),
        "(advert: 'Advert', seq: 'int', nbytes: 'int', phase: 'int', "
        "buffer_offset: 'int', advert_done: 'bool') -> None"),
    IndirectPlan: (
        (4096, 300, 1, (RingSegment(900, 124), RingSegment(0, 176))),
        "(seq: 'int', nbytes: 'int', phase: 'int', segments: 'tuple') -> None"),
    CopyPlan: (
        ("entry", 300, 16, (RingSegment(0, 300),)),
        "(entry: 'RecvEntry', nbytes: 'int', dest_offset: 'int', "
        "ring_segments: 'tuple') -> None"),
    RingSegment: ((900, 124), "(offset: 'int', nbytes: 'int') -> None"),
}

#: the mutable ones only gain slots
MUTABLE = {
    SendWR: (
        (Opcode.RDMA_WRITE, 5, SGE(0x2000, 48, 4097), 0x1000, 7, 0),
        "(opcode: 'Opcode', wr_id: 'int' = 0, sge: 'Optional[SGE]' = None, "
        "remote_addr: 'int' = 0, rkey: 'int' = 0, imm_data: 'int' = 0, "
        "payload: 'Optional[Chunk]' = None, context: 'Any' = None) -> None"),
    DataMessage: (
        (1000001, 2000001, Opcode.SEND, 17, None, 0x1000, 7, 3, 5),
        "(src_qpn: 'int', dst_qpn: 'int', opcode: 'Opcode', seq: 'int', "
        "payload: 'Optional[Chunk]' = None, remote_addr: 'int' = 0, rkey: 'int' = 0, "
        "imm_data: 'int' = 0, wr_id: 'int' = 0) -> None"),
    AckMessage: (
        (2000001, 17, "nak", 0b101),
        "(dst_qpn: 'int', msn: 'int', kind: 'str' = 'ack', sack: 'int' = 0) -> None"),
}

RECORDS = {**FROZEN, **MUTABLE}


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def _twin(cls):
    """A plain dataclass with *cls*'s fields, defaults, validation and
    frozenness: the class as it would be without slots or the fast init."""
    specs = [(f.name, f.type, dataclasses.field(default=f.default))
             for f in dataclasses.fields(cls)]
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace,
                                      frozen=cls in FROZEN)


def _raises(exc_type, fn, match=""):
    try:
        fn()
    except exc_type as exc:
        assert match in str(exc), f"{exc!r} does not mention {match!r}"
        return
    raise AssertionError(f"{fn} did not raise {exc_type}")


def test_signatures_are_those_of_a_plain_dataclass():
    for cls, (_values, signature) in RECORDS.items():
        assert str(inspect.signature(cls)) == signature, cls
        assert str(inspect.signature(_twin(cls))) == signature, cls


def test_positional_and_keyword_construction_agree():
    for cls, (values, _signature) in RECORDS.items():
        kwargs = dict(zip(_names(cls), values))
        a, b = cls(*values), cls(**kwargs)
        assert a == b, cls
        for name, value in kwargs.items():
            assert getattr(a, name) is value, (cls, name)
        required = [f.name for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING]
        defaulted = cls(**{n: kwargs[n] for n in required})
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                assert getattr(defaulted, f.name) == f.default, (cls, f.name)
        too_many = range(len(dataclasses.fields(cls)) + 1)
        _raises(TypeError, lambda: cls(*too_many), "positional argument")
        _raises(TypeError, lambda: cls(**kwargs, bogus=1), "bogus")


def test_frozen_records_reject_assignment_and_deletion():
    for cls, (values, _signature) in FROZEN.items():
        rec = cls(*values)
        name = _names(cls)[0]
        _raises(FrozenInstanceError, lambda: setattr(rec, name, values[0]))
        _raises(FrozenInstanceError, lambda: delattr(rec, name))
        assert getattr(rec, name) is values[0], cls


def test_no_instance_has_a_dict():
    for cls, (values, _signature) in RECORDS.items():
        rec = cls(*values)
        assert not hasattr(rec, "__dict__"), cls
        # (a frozen slotted dataclass reports a new name as a TypeError)
        _raises((AttributeError, TypeError), lambda: setattr(rec, "extra", 1))
    wr = SendWR(*MUTABLE[SendWR][0])
    wr.wr_id = 6  # the mutable records stay mutable in their fields
    assert wr.wr_id == 6


def test_eq_hash_and_repr_match_a_plain_dataclass():
    for cls, (values, _signature) in RECORDS.items():
        twin = _twin(cls)
        rec, plain = cls(*values), twin(*values)
        assert repr(rec) == repr(plain), cls
        assert rec == cls(*values) and plain == twin(*values), cls
        other = list(values)
        other[-1] = other[-1] + 1 if isinstance(other[-1], int) else "different"
        assert (rec == cls(*other)) is (plain == twin(*other)) is False, cls
        assert rec != plain  # like any dataclass: equal only to its own class
        if cls.__hash__ is None:
            assert twin.__hash__ is None, cls
            continue
        try:
            expected = hash(plain)
        except TypeError:  # an unhashable field value
            _raises(TypeError, lambda: hash(rec))
            continue
        assert hash(rec) == expected, cls


def test_validation_raises_what_it_always_raised():
    _raises(BadWorkRequest, lambda: SGE(0x2000, -1, 4097), "negative SGE length")
    base = dict(advert_id=1, seq=0, length=64, phase=0)
    _raises(ValueError, lambda: Advert(**{**base, "phase": 1}), "is not direct")
    _raises(ValueError, lambda: Advert(**{**base, "length": 0}), "must be positive")
    _raises(ValueError, lambda: Advert(**{**base, "seq": -1}), "must be >= 0")
    _raises(RingError, lambda: RingSegment(16, 0), "bad ring segment (16, 0)")
    _raises(RingError, lambda: RingSegment(-1, 4), "bad ring segment (-1, 4)")


def test_each_constructor_has_its_own_source_name():
    """Profilers key functions by ``(filename, line, name)``: every record's
    ``__init__`` carries a filename naming its class, so no two records
    share a row, and it is not a ``.py`` path, so a per-layer fold still
    charges the constructor to its caller."""
    names = set()
    for cls in FROZEN:
        filename = cls.__init__.__code__.co_filename
        assert filename == f"<record {cls.__module__}.{cls.__qualname__}>", filename
        assert not filename.endswith(".py"), filename
        names.add(filename)
    assert len(names) == len(FROZEN)
    assert WorkCompletion.__init__.__code__.co_filename == (
        "<record repro.verbs.cq.WorkCompletion>")


def test_deepcopy_and_pickle_round_trip():
    for cls, (values, _signature) in RECORDS.items():
        rec = cls(*values)
        for clone in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec)), copy.copy(rec)):
            assert type(clone) is cls and clone == rec, cls
        if cls in FROZEN:
            clone = pickle.loads(pickle.dumps(rec))
            _raises(FrozenInstanceError, lambda: setattr(clone, _names(cls)[0], 0))


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
    print(f"{len(tests)} record-contract checks passed on Python {sys.version.split()[0]}")
