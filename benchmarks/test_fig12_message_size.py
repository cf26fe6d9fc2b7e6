"""Figure 12: effect of message size (dynamic protocol, recv 4 / send 2).

Paper claims:

* 12a — "throughput generally increases with message size.  However, there
  is a 46.5 Gbps peak at the 2 mebibyte message size, with slightly lower
  throughput for higher message sizes" (attributed to HCA caching).
* 12b — "The ratio of direct sends to total sends decreases with message
  size until the message size reaches about 32 kibibytes, at which point
  the ratio begins to increase again.  With 512 KiB or higher message
  sizes, the sender is able to use all direct sends."
"""

from conftest import run_once
from repro.bench.figures import fig12


def test_fig12a_throughput(benchmark, quality):
    fd = run_once(benchmark, lambda: fig12(quality))
    print("\n" + fd.text("throughput"))
    print("\n" + fd.text("ratio"))

    thr = fd.throughputs_gbps("dynamic")
    labels = fd.xs
    # generally increasing up to the peak
    peak_idx = thr.index(max(thr))
    assert labels[peak_idx] in ("512KiB", "2MiB"), f"peak at {labels[peak_idx]}"
    assert 40 < max(thr) < 50  # paper: 46.5 Gb/s peak
    # slightly lower beyond the peak (the caching-effect dip), but not a cliff
    tail = thr[peak_idx + 1 :]
    assert all(t < max(thr) for t in tail)
    assert all(t > 0.85 * max(thr) for t in tail)


def test_fig12b_direct_ratio_u_shape(benchmark, quality):
    fd = run_once(benchmark, lambda: fig12(quality))

    ratios = [a.direct_ratio.mean for a in fd.series["dynamic"]]
    labels = fd.xs
    by_label = dict(zip(labels, ratios))

    # all-direct at >= 512 KiB (paper's exact claim)
    for label in ("512KiB", "2MiB", "8MiB", "32MiB", "128MiB"):
        assert by_label[label] > 0.99, f"{label}: {by_label[label]}"

    # the minimum sits in the paper's mid-size band (8 KiB - 128 KiB) ...
    min_label = labels[ratios.index(min(ratios))]
    assert min_label in ("8KiB", "32KiB", "128KiB"), f"minimum at {min_label}"
    # ... visibly below the all-direct plateau (U-shape)
    assert min(ratios) < 0.92
    # and the small-message end stays high (the left arm of the U)
    assert by_label["512B"] > 0.9
    # with the characteristic run-to-run instability in the mid band
    mid_spread = max(
        a.direct_ratio.half_width
        for a, l in zip(fd.series["dynamic"], labels)
        if l in ("8KiB", "32KiB", "128KiB")
    )
    assert mid_spread > max(
        a.direct_ratio.half_width
        for a, l in zip(fd.series["dynamic"], labels)
        if l in ("512KiB", "2MiB", "8MiB")
    )
