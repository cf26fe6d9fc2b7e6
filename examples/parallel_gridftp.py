#!/usr/bin/env python3
"""GridFTP-style parallel-stream file movement over distance.

The work that motivated UNH EXS over distance (the paper's reference to
RDMA-based GridFTP) moves big files across long fat networks with several
parallel streams.  This example transfers a 256 MiB file over the emulated
10 GbE + 48 ms path, sweeping the stream count: each stream is window-
limited, so aggregate throughput scales with streams until the wire is
full — exactly why bulk-transfer tools parallelise.

The sweep itself runs through :func:`repro.sweep.run_sweep`, so the four
independent simulations are spread across CPU cores (results are identical
to running them serially — pass ``-j 1`` to check).

Run:  python examples/parallel_gridftp.py [-j N]   (default: one worker per CPU)
"""

import argparse

from repro import ExsSocketOptions, ROCE_10G_WAN
from repro.apps import MIB, FileTransferConfig, run_file_transfer
from repro.sweep import run_sweep
from repro.config import ScenarioConfig

FILE = 256 * MIB
STREAMS = (1, 2, 4, 8)


def transfer(cfg: FileTransferConfig, seed: int):
    """Sweep worker: one simulated transfer (module-level so it pickles)."""
    return run_file_transfer(cfg, ScenarioConfig(profile=ROCE_10G_WAN, seed=seed))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-j", "--processes", type=int, default=0,
                        help="sweep worker processes (default 0: one per CPU)")
    args = parser.parse_args()
    print(f"moving a {FILE // MIB} MiB file over 10 GbE + 48 ms RTT "
          f"(1 MiB chunks, 8 outstanding per stream)\n")
    configs = [
        FileTransferConfig(
            file_bytes=FILE,
            streams=streams,
            chunk_bytes=1 * MIB,
            outstanding=8,
            options=ExsSocketOptions(ring_capacity=64 * MIB),
        )
        for streams in STREAMS
    ]
    results = run_sweep(
        configs, transfer,
        processes=args.processes,
        seeds=[2] * len(configs),
    )
    print(f"{'streams':>8s} {'throughput':>14s} {'elapsed':>10s} {'per-stream':>12s}")
    for streams, r in zip(STREAMS, results):
        per = sum(s.throughput_bps for s in r.streams) / len(r.streams) / 1e9
        print(f"{streams:>8d} {r.throughput_gbps:>11.2f} Gb/s {r.elapsed_s:>8.2f} s "
              f"{per:>9.2f} Gb/s")
    print("\neach stream is limited to outstanding x chunk / RTT; parallel")
    print("streams multiply the in-flight window until the 10 GbE wire binds.")


if __name__ == "__main__":
    main()
