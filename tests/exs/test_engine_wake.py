"""The progress engine's wake protocol, race by race, on the real stack.

An idle engine sleeps on its completion channel *or* its kick.  These
tests drive one established connection's engine through the orderings
where the two race, and pin what the calendar did: every entry fired from
the scenario's start — its category, its parent entry, when it was placed
and when it fired (causal capture) — and every re-arm of the engine's CQ,
which the engine does once per wake-up just before it sleeps again.  The
pins were captured from the generator-process engine the callback driver
replaced (``python tests/exs/test_engine_wake.py`` prints them), so they
say the two wake identically.

The scenarios keep the engine awake across simulated time by queueing a
control message for it: sending one charges the library core 300 ns.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import ScenarioConfig
from repro.exs import BlockingSocket, CreditMsg, ExsSocketOptions
from repro.testbed import Testbed
from repro.verbs import fixed_wakeup

#: the channel wake-up latency the scenarios pin (well above one charge)
WAKE_NS = 2000


class _Probe:
    """One quiescent connection pair under capture, plus the two logs."""

    def __init__(self, seed: int = 5) -> None:
        self.tb = tb = Testbed(ScenarioConfig(seed=seed, causal_capture=True))
        out = {}

        def server():
            conn = yield from BlockingSocket.accept_one(tb.server, 5300)
            out["got"] = yield from conn.recv_bytes(4096, waitall=True)

        def client():
            conn = yield from BlockingSocket.connect(tb.client, 5300)
            out["conn"] = conn.sock.conn
            yield from conn.send_bytes(b"w" * 4096)

        tb.sim.process(server())
        tb.sim.process(client())
        tb.sim.run()
        assert out["got"] == b"w" * 4096
        self.sim = tb.sim
        self.rec = tb.sim._recorder
        self.conn = conn = out["conn"]
        conn.channel.wakeup = fixed_wakeup(WAKE_NS)
        self.t0 = tb.sim.now
        self.n0 = self.rec._next
        self.arms = []
        cq = conn.cq
        arm = cq.req_notify

        def req_notify():
            self.arms.append((self.sim.now - self.t0, self._rel(self.rec.current)))
            arm()

        cq.req_notify = req_notify

    def _rel(self, cid: int) -> int:
        return cid - self.n0 if cid >= self.n0 else -1

    def at(self, dt: int, action) -> None:
        """Run *action()* *dt* ns after the scenario's start."""
        self.sim.call_in(self.t0 + dt - self.sim.now, lambda _arg: action())

    def control(self) -> None:
        """Queue one control message (300 ns of library core to send)."""
        self.conn.queue_control(CreditMsg(credit_cum=0))

    def run(self) -> dict:
        self.sim.run()
        nodes = sorted(
            (n for n in self.rec.nodes.values() if n.cid >= self.n0 and n.fire_ns >= 0),
            key=lambda n: (n.fire_ns, n.cid))
        fired = [[n.cid - self.n0, self._rel(n.parent), n.category,
                  n.sched_ns - self.t0, n.fire_ns - self.t0] for n in nodes]
        return {"fired": fired, "arms": [list(a) for a in self.arms],
                "slept_wakeups": self.conn.channel.slept_wakeups}


def scenario_stale_channel_entry() -> dict:
    """(a) A kick wakes the engine; while it works, the channel it is still
    registered with is notified, placing a wake entry WAKE_NS out.  The
    engine sleeps again long before that entry fires: it must not wake."""
    p = _Probe()
    p.at(0, p.control)
    p.at(0, p.conn.kick)
    p.at(100, p.conn.channel.notify)
    return p.run()


def scenario_channel_wins_then_kicks(kicks: int) -> dict:
    """(b) The channel wins (the kick is withdrawn).  The first kick while
    the engine works is absorbed; a second one latches, so the engine
    wakes again at once when it next sleeps."""
    p = _Probe()
    p.at(0, p.control)
    p.at(0, p.conn.channel.notify)
    for k in range(kicks):
        p.at(WAKE_NS + 100 + 50 * k, p.conn.kick)
    return p.run()


def scenario_latched_channel_and_kick() -> dict:
    """(c) A channel notification and a kick both latch while the engine
    works.  Its next sleep places two zero-delay wake entries in one
    instant: the first wakes it, the second is a no-op."""
    p = _Probe()
    p.at(0, p.control)
    p.at(0, p.conn.channel.notify)
    p.at(WAKE_NS + 100, p.conn.channel.notify)
    p.at(WAKE_NS + 150, p.conn.kick)  # absorbed: the channel won
    p.at(WAKE_NS + 200, p.conn.kick)  # latches
    return p.run()


def scenario_contended_core() -> dict:
    """(d) A second connection is set up on the client while the first
    one's engine streams: the connect process's ``work()`` and the engine's
    charges contend for one library core.  Pins the full dispatch log (as a
    digest) and the core's busy intervals."""
    p = _Probe()
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(p.tb.server, 5301)
        out["got"] = yield from conn.recv_bytes(64, waitall=True)

    def client():
        conn = yield from BlockingSocket.connect(
            p.tb.client, 5301, options=ExsSocketOptions(credits=64))
        yield from conn.send_bytes(b"c" * 64)

    def stream():
        p.sim.process(server())
        for _ in range(16):
            p.control()
        p.conn.kick()

    p.at(0, stream)
    p.at(600, lambda: p.sim.process(client()))
    cpu = p.tb.host("client").cpu
    n_intervals = len(cpu.intervals)
    busy0 = cpu.busy_ns_total
    log = p.run()
    assert out["got"] == b"c" * 64
    intervals = [[s - p.t0, e - p.t0] for s, e in cpu.intervals[n_intervals:]]
    blob = json.dumps(log["fired"]).encode()
    return {"fired_sha256": hashlib.sha256(blob).hexdigest(), "fired": len(log["fired"]),
            "arms": log["arms"], "busy_ns": cpu.busy_ns_total - busy0,
            "intervals": intervals}


SCENARIOS = {
    "a": scenario_stale_channel_entry,
    "b1": lambda: scenario_channel_wins_then_kicks(1),
    "b2": lambda: scenario_channel_wins_then_kicks(2),
    "c": scenario_latched_channel_and_kick,
    "d": scenario_contended_core,
}


#: captured from the generator-process engine (see the module docstring);
#: fired rows are [entry, parent entry (-1: outside the scenario), category,
#: placed at, fired at], times in ns from the scenario's start; arms are
#: [time, entry whose dispatch re-armed the CQ]
PINNED = {
    "a": {
        "fired": [
            [0, -1, "call", 0, 0],
            [1, -1, "call", 0, 0],
            [3, 1, "event", 0, 0],
            [2, -1, "call", 0, 100],
            [4, 3, "timeout", 0, 300],
            [6, 4, "event", 300, 300],
            [7, 6, "timeout", 300, 450],
            [8, 7, "link", 450, 979],
            [10, 8, "ack", 979, 1479],
            [5, 2, "event", 100, 2100],
            [11, 10, "event", 1479, 3479],
            [12, 11, "timeout", 3479, 3829],
            [9, 8, "event", 979, 4620],
            [13, 9, "timeout", 4620, 4870],
        ],
        "arms": [[300, 4], [3829, 12]],
        "slept_wakeups": 4,
    },
    "b1": {
        "fired": [
            [0, -1, "call", 0, 0],
            [1, -1, "call", 0, 0],
            [3, 1, "event", 0, 2000],
            [2, -1, "call", 0, 2100],
            [4, 3, "timeout", 2000, 2300],
            [5, 4, "event", 2300, 2300],
            [6, 5, "timeout", 2300, 2450],
            [7, 6, "link", 2450, 2979],
            [9, 7, "ack", 2979, 3479],
            [10, 9, "event", 3479, 5479],
            [11, 10, "timeout", 5479, 5829],
            [8, 7, "event", 2979, 6620],
            [12, 8, "timeout", 6620, 6870],
        ],
        "arms": [[2300, 4], [5829, 11]],
        "slept_wakeups": 4,
    },
    "b2": {
        "fired": [
            [0, -1, "call", 0, 0],
            [1, -1, "call", 0, 0],
            [4, 1, "event", 0, 2000],
            [2, -1, "call", 0, 2100],
            [3, -1, "call", 0, 2150],
            [5, 4, "timeout", 2000, 2300],
            [6, 5, "event", 2300, 2300],
            [7, 5, "event", 2300, 2300],
            [8, 6, "timeout", 2300, 2450],
            [9, 8, "link", 2450, 2979],
            [11, 9, "ack", 2979, 3479],
            [12, 11, "event", 3479, 5479],
            [13, 12, "timeout", 5479, 5829],
            [10, 9, "event", 2979, 6620],
            [14, 10, "timeout", 6620, 6870],
        ],
        "arms": [[2300, 5], [2300, 7], [5829, 13]],
        "slept_wakeups": 4,
    },
    "c": {
        "fired": [
            [0, -1, "call", 0, 0],
            [1, -1, "call", 0, 0],
            [5, 1, "event", 0, 2000],
            [2, -1, "call", 0, 2100],
            [3, -1, "call", 0, 2150],
            [4, -1, "call", 0, 2200],
            [6, 5, "timeout", 2000, 2300],
            [7, 6, "event", 2300, 2300],
            [8, 6, "event", 2300, 2300],
            [9, 6, "event", 2300, 2300],
            [10, 7, "timeout", 2300, 2450],
            [11, 10, "link", 2450, 2979],
            [13, 11, "ack", 2979, 3479],
            [14, 13, "event", 3479, 5479],
            [15, 14, "timeout", 5479, 5829],
            [12, 11, "event", 2979, 6620],
            [16, 12, "timeout", 6620, 6870],
        ],
        "arms": [[2300, 6], [2300, 8], [5829, 15]],
        "slept_wakeups": 4,
    },
    "d": {
        "fired_sha256": "ff6be5a61718cab21afefc0f4fb1fc1d3df46d1518cb9b5dade4b2ee1a5e765f",
        "fired": 172,
        "arms": [[23200, 114]],
        "busy_ns": 24250,
        "intervals": [
            [0, 23200],
            [55876, 56076],
            [63830, 64680],
        ],
    },
}


def _woken_by(log: dict) -> list:
    """Entries whose dispatch ran the engine to its next sleep."""
    return [parent for _t, parent in log["arms"]]


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_wake_ordering_matches_the_process_engine(key):
    assert SCENARIOS[key]() == PINNED[key]


def test_stale_channel_entry_does_not_wake():
    log = scenario_stale_channel_entry()
    (stale,) = [row for row in log["fired"] if row[1] == 2]  # placed by the notify
    assert stale[2:] == ["event", 100, 100 + WAKE_NS]
    assert stale[0] not in _woken_by(log)
    assert log["arms"][0][0] == 300  # asleep again after one 300 ns charge


def test_kick_after_a_channel_win_is_absorbed_then_latches():
    for kicks in (1, 2):
        log = scenario_channel_wins_then_kicks(kicks)
        late = {row[0] for row in log["fired"] if row[1] == -1 and row[4] > WAKE_NS}
        assert len(late) == kicks
        assert not [row for row in log["fired"] if row[1] in late]  # no kick placed a wake
        # asleep after the 300 ns charge; with a second kick latched, the
        # engine wakes again that instant
        assert [t for t, _ in log["arms"]].count(WAKE_NS + 300) == kicks


def test_latched_channel_and_kick_wake_once():
    log = scenario_latched_channel_and_kick()
    sleep_at = WAKE_NS + 300
    wakes = [row[0] for row in log["fired"]
             if row[2] == "event" and row[3] == row[4] == sleep_at]
    tx_wake, chan, kick = wakes  # the HCA's, then the two latched wakes
    assert chan in _woken_by(log) and kick not in _woken_by(log)


def test_contended_core_serves_work_and_run_in_fifo_order():
    """The connect process's ``work()`` turn and the engine's ``run()``
    requests share the core's queue; the pinned intervals prove the FIFO
    order and accounting, and both kinds really queued."""
    from repro.hosts.cpu import Cpu

    kinds = []
    run, work = Cpu.run, Cpu.work

    def run_spy(self, duration_ns, fn, arg=None):
        if self._busy:
            kinds.append("run")
        return run(self, duration_ns, fn, arg)

    def work_spy(self, duration_ns):
        if self._busy:
            kinds.append("work")
        return (yield from work(self, duration_ns))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cpu, "run", run_spy)
        mp.setattr(Cpu, "work", work_spy)
        assert scenario_contended_core() == PINNED["d"]
    assert "run" in kinds and "work" in kinds


if __name__ == "__main__":  # print the pins
    for key, fn in SCENARIOS.items():
        print(key, json.dumps(fn()))
