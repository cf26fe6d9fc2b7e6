#!/usr/bin/env python3
"""Ping-pong latency across protocols, message sizes, and notification modes.

The classic ``ib_write_lat``-style study the paper lists as future work:
the client bounces a message off the server and we record round-trip
percentiles.  Ping-pong is the worst case for the dynamic protocol's
ADVERT pipeline — nothing can be pre-posted more than one message ahead —
so it cleanly exposes the zero-copy vs. buffered latency trade-off:

* tiny messages: buffering wins (the ADVERT wait dominates, the copy is free)
* large messages: zero-copy wins (the copy dominates, the ADVERT is cheap)
* busy polling removes two OS wake-ups per hop — a big deal at 64 B,
  irrelevant at 1 MiB (exactly why the paper used event notification).

Run:  python examples/latency_pingpong.py
"""

from repro import ExsSocketOptions, ProtocolMode
from repro.apps import EchoConfig, run_echo
from repro.config import ScenarioConfig

SIZES = [64, 4 * 1024, 64 * 1024, 1024 * 1024]
ITERATIONS = 60


def measure(size: int, mode: ProtocolMode, busy_poll: bool = False):
    cfg = EchoConfig(
        iterations=ITERATIONS,
        message_bytes=size,
        mode=mode,
        options=ExsSocketOptions(busy_poll=busy_poll),
    )
    return run_echo(cfg, ScenarioConfig(seed=4))


def main() -> None:
    print(f"median round-trip latency over {ITERATIONS} iterations, FDR InfiniBand model\n")
    print(f"{'size':>10s} {'direct-only':>12s} {'indirect':>12s} {'dynamic':>12s} "
          f"{'dynamic+poll':>13s}   winner")
    for size in SIZES:
        d = measure(size, ProtocolMode.DIRECT_ONLY)
        i = measure(size, ProtocolMode.INDIRECT_ONLY)
        y = measure(size, ProtocolMode.DYNAMIC)
        p = measure(size, ProtocolMode.DYNAMIC, busy_poll=True)
        winner = "zero-copy" if d.median_ns < i.median_ns else "buffered"
        print(f"{size:>9d}B {d.median_ns / 1000:>10.1f}us {i.median_ns / 1000:>10.1f}us "
              f"{y.median_ns / 1000:>10.1f}us {p.median_ns / 1000:>11.1f}us   {winner}")
    print("\np99 round-trip for 64 B dynamic: "
          f"{measure(64, ProtocolMode.DYNAMIC).p99_ns / 1000:.1f} us")


if __name__ == "__main__":
    main()
