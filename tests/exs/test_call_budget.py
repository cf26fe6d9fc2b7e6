"""A deterministic budget for Python calls into the EXS layer per message.

Per message, EXS costs what its library thread does: the poller's
generator resumes, one dispatch per completion and the handlers, with
wr-id takes, shard marks, credit checks and clock reads done inline and
charges that nothing can interrupt ending in place (``Simulator.advance``).
:func:`helpers.calls_per_message` counts the calls on the same fixed
200-message blast as the verbs budget.  Print the count with
``PYTHONPATH=src:tests python tests/exs/test_call_budget.py``.
"""

from helpers import calls_per_message

#: measured 75.9 on CPython 3.10, 3.11 and 3.12 (75.8 on the heap, whose
#: exact pending test advances a few charges more)
BUDGET = 76.0


def test_exs_calls_per_message_stay_within_budget():
    assert calls_per_message("exs") <= BUDGET


if __name__ == "__main__":
    print(f"{calls_per_message('exs'):.2f} exs calls per message (budget {BUDGET})")
