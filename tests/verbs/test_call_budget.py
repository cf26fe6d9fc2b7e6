"""A deterministic budget for Python calls into the verbs layer per message.

The verbs frame path (post → wire → placement → ACK → completion) costs
one Python call per hop; :func:`helpers.calls_per_message` counts them on
a fixed 200-message blast.  Print the count with
``PYTHONPATH=src:tests python tests/verbs/test_call_budget.py``.
"""

from helpers import calls_per_message

#: measured 53.5-53.6 on CPython 3.10, 3.11 and 3.12, on either calendar; a
#: call added once per frame costs about 2 per message (a DATA frame and its
#: ACK each way)
BUDGET = 54.0


def test_verbs_calls_per_message_stay_within_budget():
    assert calls_per_message("verbs") <= BUDGET


if __name__ == "__main__":
    print(f"{calls_per_message('verbs'):.2f} verbs calls per message (budget {BUDGET})")
