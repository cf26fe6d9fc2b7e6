"""Every safety check that formats its message from protocol state still
raises :class:`SafetyViolation` with the same claim and message text.

Each case drives one check into failure; the expected strings were
captured before the checks learnt to format their message only on failure.
"""

import re

import pytest

from repro.core import (
    Advert,
    ProtocolMode,
    ReceiverAlgorithm,
    ReceiverRing,
    SenderAlgorithm,
    SenderRingView,
)
from repro.core.invariants import SafetyViolation, require, violation


def receiver(mode=ProtocolMode.DYNAMIC):
    return ReceiverAlgorithm(ReceiverRing(100), mode=mode)


def raises_exactly(message):
    return pytest.raises(SafetyViolation, match=f"^{re.escape(message)}$")


def test_violation_builds_requires_message():
    assert str(violation("claim", "detail")) == "safety violation [claim]: detail"
    assert str(violation("claim")) == "safety violation [claim]"
    with raises_exactly("safety violation [claim]: detail"):
        require(False, "claim", "detail")
    require(True, "claim", "detail")


def test_head_match_names_the_head_advert():
    r = receiver()
    r.post_recv(50)
    with raises_exactly("safety violation [Theorem 1 (head match)]: "
                        "transfer matched advert 99 but head entry has 1"):
        r.on_direct_arrival(0, 10, 99, 0)


def test_head_match_with_an_unadvertised_head():
    r = receiver(ProtocolMode.INDIRECT_ONLY)
    r.post_recv(50)
    with raises_exactly("safety violation [Theorem 1 (head match)]: "
                        "transfer matched advert 1 but head entry has None"):
        r.on_direct_arrival(0, 10, 1, 0)


def test_no_loss_or_reorder():
    r = receiver()
    _entry, advert = r.post_recv(50)
    with raises_exactly("safety violation [Theorem 1 (no loss/reorder)]: "
                        "direct transfer seq 5 != receiver stream position 0"):
        r.on_direct_arrival(5, 10, advert.advert_id, 0)


def test_placement():
    r = receiver()
    _entry, advert = r.post_recv(50)
    with raises_exactly("safety violation [Theorem 1 (placement)]: "
                        "transfer placed at advert offset 3 (+base 0), entry filled 0"):
        r.on_direct_arrival(0, 10, advert.advert_id, 3)


def test_bounds():
    r = receiver()
    _entry, advert = r.post_recv(50, waitall=True)
    r.on_direct_arrival(0, 20, advert.advert_id, 0)
    with raises_exactly("safety violation [Theorem 1 (bounds)]: "
                        "transfer of 31B overflows entry with 30B remaining"):
        r.on_direct_arrival(20, 31, advert.advert_id, 20)


def test_k_b_after_a_full_flush():
    r = receiver()
    r.unadvertised_recvs = 1  # a stray k_b count no receive accounts for
    r.post_recv(10)           # suppressed behind it: k_b = 2
    with raises_exactly("safety violation [k_b accounting]: k_b=1 after full flush"):
        r.flush_adverts()


def test_receiver_phase_monotonicity():
    r = receiver()
    r.phase = 4
    with raises_exactly("safety violation [phase monotonicity]: 4 -> 2"):
        r._set_phase(2)


def test_lemma_4():
    s = SenderAlgorithm(SenderRingView(100), mode=ProtocolMode.DYNAMIC)
    s.on_advert(Advert(advert_id=1, seq=0, length=50, phase=2))
    with raises_exactly("safety violation [Lemma 4]: "
                        "sender phase 0 direct but ADVERT phase 2"):
        s.next_transfer(10)


def test_sender_phase_monotonicity():
    s = SenderAlgorithm(SenderRingView(100), mode=ProtocolMode.DYNAMIC)
    s.phase = 3
    with raises_exactly("safety violation [phase monotonicity]: 3 -> 1"):
        s._set_phase(1)
