"""A deterministic budget for Python calls into the verbs layer per message.

The verbs frame path (post → wire → placement → ACK → completion) costs
one Python call per hop.  Call counts, unlike host time, repeat exactly
run to run, so a profile of one fixed blast is a budget that a change which
puts accessor calls back on that path exceeds at once: no timing, no
repeated pairs.  ``perf/run.py --trace 1`` reports the same count as
``verbs.calls_per_msg`` on its workloads.
"""

import cProfile
import os
import pstats

from repro import BlastConfig, ExponentialSizes, ProtocolMode, ScenarioConfig, run_blast

MESSAGES = 200

#: measured 57.2 on CPython 3.10, 3.11 and 3.12, on either calendar; a call
#: added once per frame costs about 2 per message (a DATA frame and its ACK
#: each way)
BUDGET = 58.0

_VERBS = os.sep + os.path.join("repro", "verbs") + os.sep


def _blast():
    config = BlastConfig(total_messages=MESSAGES, sizes=ExponentialSizes(seed=1),
                         outstanding_sends=4, outstanding_recvs=8, mode=ProtocolMode.DYNAMIC)
    return run_blast(config, ScenarioConfig(profile="fdr", seed=1))


def verbs_calls_per_message() -> float:
    """Calls into ``repro/verbs/*.py`` functions per message of the blast,
    after one unprofiled warm-up run."""
    _blast()
    profile = cProfile.Profile()
    profile.enable()
    result = _blast()
    profile.disable()
    assert result.total_bytes > 0
    calls = sum(ncalls for (filename, _line, _name), (_cc, ncalls, *_rest)
                in pstats.Stats(profile).stats.items()
                if _VERBS in filename and filename.endswith(".py"))
    return calls / MESSAGES


def test_verbs_calls_per_message_stay_within_budget():
    assert verbs_calls_per_message() <= BUDGET


if __name__ == "__main__":
    print(f"{verbs_calls_per_message():.2f} verbs calls per message (budget {BUDGET})")
