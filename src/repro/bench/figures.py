"""Per-figure experiment runners: one function per paper table/figure.

Each runner sweeps exactly the parameter grid of the corresponding paper
artifact, aggregates over repetitions, and returns a :class:`FigureData`
whose ``text()`` renders the same rows/series the paper plots.  The
benchmark suite (``benchmarks/``) calls these and asserts the *shape*
claims (who wins, by what factor, where crossovers fall).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..apps.blast import BlastConfig
from ..config import ScenarioConfig
from ..apps.workloads import KIB, MIB, ExponentialSizes, FixedSizes
from ..core import ProtocolMode
from ..exs import ExsSocketOptions
from .experiment import AggregateResult, QUICK, RunQuality, run_grid
from .profiles import FDR_INFINIBAND, ROCE_10G_WAN, HardwareProfile
from .report import format_series_table, format_table

__all__ = [
    "FigureData",
    "PROTOCOLS",
    "OUTSTANDING_SWEEP",
    "fig9a",
    "fig9b",
    "fig10a",
    "fig10b",
    "fig11",
    "fig12",
    "fig13",
    "table3",
]

#: protocol series, in the paper's legend order
PROTOCOLS = (ProtocolMode.DIRECT_ONLY, ProtocolMode.DYNAMIC, ProtocolMode.INDIRECT_ONLY)

#: the paper's x axis for Figs. 9, 10, 13
OUTSTANDING_SWEEP = (1, 2, 4, 8, 16, 32)

#: Fig. 11's fixed message sizes
FIG11_SIZES = (512, 8 * KIB, 128 * KIB, 1 * MIB)

#: Fig. 12's size sweep: 512 B ... 128 MiB in powers of 4 (paper x axis)
FIG12_SIZES = tuple(512 * 4**k for k in range(10))

#: intermediate buffer used for the over-distance runs (sized above the
#: bandwidth-delay product so indirect transfers can fill the pipe)
WAN_OPTIONS = ExsSocketOptions(ring_capacity=64 * MIB)


@dataclass
class FigureData:
    """One figure's (or table's) results."""

    figure_id: str
    x_name: str
    xs: List
    #: series name -> one AggregateResult per x
    series: Dict[str, List[AggregateResult]]
    description: str = ""

    def metric(self, series_name: str, fn: Callable[[AggregateResult], float]) -> List[float]:
        return [fn(agg) for agg in self.series[series_name]]

    def throughputs_gbps(self, series_name: str) -> List[float]:
        return self.metric(series_name, lambda a: a.throughput_gbps)

    def text(self, metric: str = "throughput") -> str:
        """Render the figure's data as an aligned table."""
        fmt: Dict[str, Callable[[AggregateResult], str]] = {
            "throughput": lambda a: f"{a.throughput_gbps:8.2f} Gb/s ±{a.throughput_bps.half_width / 1e9:5.2f}",
            "throughput_mbps": lambda a: f"{a.throughput_mbps:8.1f} Mb/s ±{a.throughput_bps.half_width / 1e6:6.1f}",
            "cpu": lambda a: f"{a.receiver_cpu.mean * 100:5.1f}% ±{a.receiver_cpu.half_width * 100:4.1f}",
            "ratio": lambda a: f"{a.direct_ratio.mean:5.3f} ±{a.direct_ratio.half_width:5.3f}",
            "switches": lambda a: f"{a.mode_switches.mean:6.1f} ±{a.mode_switches.half_width:5.1f}",
        }[metric]
        return format_series_table(
            self.x_name,
            self.xs,
            {name: [fmt(a) for a in aggs] for name, aggs in self.series.items()},
            title=f"{self.figure_id}: {self.description}",
        )


# ---------------------------------------------------------------------------
# Figures 9 and 10: outstanding-operation sweeps, three protocols
# ---------------------------------------------------------------------------
def _outstanding_sweep(
    figure_id: str,
    description: str,
    sends_of: Callable[[int], int],
    quality: RunQuality,
    profile: HardwareProfile,
    xs: Sequence[int] = OUTSTANDING_SWEEP,
    options: Optional[ExsSocketOptions] = None,
    processes: int = 1,
) -> FigureData:
    # Build the whole (x, protocol) grid up front so a parallel sweep can
    # spread every point across workers; the grid order (x-major, protocol
    # order within each x) is part of the deterministic contract.
    grid = [
        BlastConfig(
            total_messages=quality.messages,
            sizes=ExponentialSizes(seed=40),
            outstanding_sends=max(1, sends_of(n)),
            outstanding_recvs=n,
            mode=mode,
            options=options,
        )
        for n in xs
        for mode in PROTOCOLS
    ]
    aggs = run_grid(grid, quality=quality, processes=processes,
                    scenario=ScenarioConfig(profile=profile))
    series: Dict[str, List[AggregateResult]] = {m.value: [] for m in PROTOCOLS}
    for i, agg in enumerate(aggs):
        series[PROTOCOLS[i % len(PROTOCOLS)].value].append(agg)
    return FigureData(figure_id, "outstanding_recvs", list(xs), series, description)


def fig9a(quality: RunQuality = QUICK, profile: HardwareProfile = FDR_INFINIBAND,
          processes: int = 1) -> FigureData:
    """Fig. 9a: throughput vs outstanding ops, sender == receiver (FDR IB)."""
    return _outstanding_sweep(
        "fig9a", "throughput, equal outstanding ops, exp sizes (max 4 MiB)",
        lambda n: n, quality, profile, processes=processes,
    )


def fig9b(quality: RunQuality = QUICK, profile: HardwareProfile = FDR_INFINIBAND,
          processes: int = 1) -> FigureData:
    """Fig. 9b: throughput vs outstanding ops, sender = receiver / 2."""
    return _outstanding_sweep(
        "fig9b", "throughput, sender outstanding = half of receiver",
        lambda n: n // 2, quality, profile, xs=[x for x in OUTSTANDING_SWEEP if x >= 2],
        processes=processes,
    )


def fig10a(quality: RunQuality = QUICK, profile: HardwareProfile = FDR_INFINIBAND,
           processes: int = 1) -> FigureData:
    """Fig. 10a: receiver CPU% vs outstanding ops, equal (same runs as 9a)."""
    fd = fig9a(quality, profile, processes)
    return replace_id(fd, "fig10a", "receiver CPU usage, equal outstanding ops")


def fig10b(quality: RunQuality = QUICK, profile: HardwareProfile = FDR_INFINIBAND,
           processes: int = 1) -> FigureData:
    """Fig. 10b: receiver CPU% vs outstanding ops, sender = receiver / 2."""
    fd = fig9b(quality, profile, processes)
    return replace_id(fd, "fig10b", "receiver CPU usage, sender = receiver/2")


def replace_id(fd: FigureData, figure_id: str, description: str) -> FigureData:
    return FigureData(figure_id, fd.x_name, fd.xs, fd.series, description)


# ---------------------------------------------------------------------------
# Figure 11: outstanding sends sweep at fixed sizes, receiver fixed at 32
# ---------------------------------------------------------------------------
def fig11(
    quality: RunQuality = QUICK,
    profile: HardwareProfile = FDR_INFINIBAND,
    sends: Sequence[int] = (1, 2, 5, 10, 15, 20, 25, 32),
    processes: int = 1,
) -> FigureData:
    """Figs. 11a/11b: dynamic protocol, receiver fixed at 32 outstanding.

    Series per message size; ``throughput`` and ``ratio`` metrics of the
    same runs correspond to the paper's 11a and 11b.
    """
    grid = [
        BlastConfig(
            total_messages=quality.fixed_size_messages(size),
            sizes=FixedSizes(size),
            outstanding_sends=ns,
            outstanding_recvs=32,
            recv_buffer_bytes=max(size, 4096),
            mode=ProtocolMode.DYNAMIC,
        )
        for size in FIG11_SIZES
        for ns in sends
    ]
    aggs = run_grid(grid, quality=quality, processes=processes,
                    scenario=ScenarioConfig(profile=profile))
    series: Dict[str, List[AggregateResult]] = {}
    for i, size in enumerate(FIG11_SIZES):
        series[_size_label(size)] = aggs[i * len(sends):(i + 1) * len(sends)]
    return FigureData(
        "fig11", "outstanding_sends", list(sends), series,
        "dynamic protocol, receiver outstanding fixed at 32",
    )


# ---------------------------------------------------------------------------
# Figure 12: message-size sweep, receiver 4 / sender 2
# ---------------------------------------------------------------------------
def fig12(
    quality: RunQuality = QUICK,
    profile: HardwareProfile = FDR_INFINIBAND,
    sizes: Sequence[int] = FIG12_SIZES,
    processes: int = 1,
) -> FigureData:
    """Figs. 12a/12b: effect of message size on the dynamic protocol."""
    grid = [
        BlastConfig(
            total_messages=quality.fixed_size_messages(size, lo=12),
            sizes=FixedSizes(size),
            outstanding_sends=2,
            outstanding_recvs=4,
            recv_buffer_bytes=max(size, 4096),
            mode=ProtocolMode.DYNAMIC,
        )
        for size in sizes
    ]
    aggs = run_grid(grid, quality=quality, processes=processes,
                    scenario=ScenarioConfig(profile=profile))
    return FigureData(
        "fig12", "message_size", [_size_label(s) for s in sizes],
        {"dynamic": aggs},
        "dynamic protocol, receiver 4 / sender 2 outstanding",
    )


# ---------------------------------------------------------------------------
# Figure 13: over-distance sweep (RoCE 10G + 48 ms RTT)
# ---------------------------------------------------------------------------
def fig13(quality: RunQuality = QUICK, profile: HardwareProfile = ROCE_10G_WAN,
          processes: int = 1) -> FigureData:
    """Fig. 13: throughput vs outstanding ops at 48 ms RTT, equal sender/receiver."""
    return _outstanding_sweep(
        "fig13", "throughput over 48 ms RTT (RoCE 10G + emulator), equal outstanding",
        lambda n: n, quality, profile, options=WAN_OPTIONS, processes=processes,
    )


# ---------------------------------------------------------------------------
# Table III: mode switches and direct:total ratio
# ---------------------------------------------------------------------------
TABLE3_CONFIGS = (
    (1, 1), (2, 2), (4, 4), (8, 8), (16, 16), (32, 32),
    (2, 1), (4, 2), (8, 4), (16, 8), (32, 16),
)


def table3(quality: RunQuality = QUICK, profile: HardwareProfile = FDR_INFINIBAND,
           processes: int = 1):
    """Table III: average mode switches and direct-transfer ratio per config.

    Returns ``(rows, text)`` where each row is
    ``(recvs, sends, switches_ci, ratio_ci)``.
    """
    grid = [
        BlastConfig(
            total_messages=quality.messages,
            sizes=ExponentialSizes(seed=40),
            outstanding_sends=ns,
            outstanding_recvs=nr,
            mode=ProtocolMode.DYNAMIC,
        )
        for nr, ns in TABLE3_CONFIGS
    ]
    aggs = run_grid(grid, quality=quality, processes=processes,
                    scenario=ScenarioConfig(profile=profile))
    rows = []
    for (nr, ns), agg in zip(TABLE3_CONFIGS, aggs):
        rows.append((nr, ns, agg.mode_switches, agg.direct_ratio, agg))
    text = format_table(
        ["recvs", "sends", "mode switches", "direct:total ratio"],
        [
            (nr, ns, f"{sw.mean:6.1f} ±{sw.half_width:5.1f}", f"{ra.mean:6.3f} ±{ra.half_width:5.3f}")
            for nr, ns, sw, ra, _ in rows
        ],
        title="Table III: mode switches / direct-transfer ratio (dynamic protocol)",
    )
    return rows, text


def _size_label(size: int) -> str:
    if size >= MIB and size % MIB == 0:
        return f"{size // MIB}MiB"
    if size >= KIB and size % KIB == 0:
        return f"{size // KIB}KiB"
    return f"{size}B"
