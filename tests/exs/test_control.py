"""Control-plane encoding: immediates and message records."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.advert import Advert
from repro.exs.control import (
    CTRL_WIRE_BYTES,
    AdvertMsg,
    CreditMsg,
    FinMsg,
    IMM_DIRECT,
    IMM_INDIRECT,
    RingAckMsg,
    decode_imm,
    encode_direct_imm,
    encode_indirect_imm,
)


def test_direct_imm_roundtrip():
    imm = encode_direct_imm(1234)
    kind, aid = decode_imm(imm)
    assert kind == IMM_DIRECT and aid == 1234


def test_indirect_imm_roundtrip():
    kind, aid = decode_imm(encode_indirect_imm())
    assert kind == IMM_INDIRECT and aid == 0


@given(st.integers(min_value=0, max_value=(1 << 28) - 1))
def test_imm_roundtrip_is_lossless_within_field(aid):
    imm = encode_direct_imm(aid)
    assert imm < (1 << 32)  # fits real hardware's 32-bit immediate
    kind, decoded = decode_imm(imm)
    assert kind == IMM_DIRECT and decoded == aid


def test_direct_and_indirect_imms_never_collide():
    assert decode_imm(encode_direct_imm(0))[0] != decode_imm(encode_indirect_imm())[0]


def test_control_messages_carry_credit_grants():
    advert = Advert(advert_id=1, seq=0, length=10, phase=0)
    for msg in (AdvertMsg(advert, credit_cum=5), RingAckMsg(100, credit_cum=5),
                FinMsg(77, credit_cum=5)):
        assert msg.credit_cum == 5
    assert CreditMsg(credit_cum=9).credit_cum == 9


def test_ctrl_wire_bytes_is_small():
    # control messages must be far below the pre-posted recv buffer size
    from repro.exs.control import RECV_BUF_BYTES

    assert CTRL_WIRE_BYTES <= RECV_BUF_BYTES
