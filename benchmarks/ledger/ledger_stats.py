"""Order statistics and the one comparison rule of the ledger.

Between runs: medians and quartiles only, never best-of-N. Inside one
run, a host time is :func:`quiet_seconds` — see there for why a median of
passes is not usable on a shared host.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: tail candidates, lowest first; the helper picks the highest that has
#: at least ``MIN_BEYOND`` samples beyond it
TAIL_PERCENTILES: Tuple[float, ...] = (0.75, 0.90, 0.95, 0.99)
MIN_BEYOND = 10


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample (q in [0, 1])."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with >= MIN_BEYOND samples beyond
    the one :func:`percentile` returns, in a sample of ``n``; None when
    even the lowest has fewer."""
    chosen = None
    for q in TAIL_PERCENTILES:
        if n - 1 - int(q * n) >= MIN_BEYOND:
            chosen = q
    return chosen


def median_and_tail(values: Sequence[float]) -> Tuple[float, float, str]:
    """``(median, tail, tail_label)`` of a sample.

    The tail is the percentile :func:`tail_percentile` allows, or the
    maximum when the sample is too small for any (label ``"max"``).
    """
    ordered = sorted(values)
    q = tail_percentile(len(ordered))
    if q is None:
        return statistics.median(ordered), ordered[-1], "max"
    return (statistics.median(ordered), percentile(ordered, q),
            f"p{round(q * 100)}")


def quiet_seconds(passes: Sequence[Sequence[float]]) -> float:
    """Host seconds of one pass on a quiet host.

    ``passes[k][i]`` is what segment ``i`` of the pass took the ``k``-th
    time it ran. Every pass does the same deterministic work with one
    runnable thread, so what differs between them is the host: a shared
    machine slows a process 1.2-1.75x in states that last 5-60 s and
    only ever add time (measured, README *Noise*), which moved the median
    pass of a run by 10-40% from run to run and moves the sum of each
    segment's fastest time by 1-7%. A slow state spares some segments in
    every pass, so the finer the segments the fewer passes it takes to
    see each one undisturbed.
    """
    if len({len(p) for p in passes}) != 1:
        raise ValueError("passes differ in their number of segments")
    return sum(map(min, zip(*passes)))


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the distance between
    the first and third quartile (``statistics.quantiles(n=4)``); with
    fewer than four runs, the full range."""
    mid = statistics.median(values)
    if mid == 0 or len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "spread": spread(values)}


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> Tuple[float, str]:
    """``(new median / base median, verdict)`` for one metric on one
    workload.

    * ``unresolved`` — either side's own spread is wider than the bound,
      so the bound cannot tell a change from noise;
    * ``regressed`` / ``improved`` — the median moved the wrong / right
      way by more than the bound;
    * ``unchanged`` — within the bound.
    """
    b, n = statistics.median(base), statistics.median(new)
    ratio = n / b if b else float("inf")
    worse = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if max(spread(base), spread(new)) > bound:
        return ratio, "unresolved"
    if worse > bound:
        return ratio, "regressed"
    if worse < -bound:
        return ratio, "improved"
    return ratio, "unchanged"


def compare(a: dict, b: dict, end_to_end) -> List[dict]:
    """One row per (workload, end-to-end metric) present in both ledgers."""
    rows = []
    for workload, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(workload)
        if runs_b is None:
            continue
        for metric in end_to_end:
            va = runs_a["end_to_end"].get(metric.name, {}).get("values")
            vb = runs_b["end_to_end"].get(metric.name, {}).get("values")
            if not va or not vb:
                continue
            ratio, word = verdict(va, vb, metric.better, metric.bound)
            rows.append({
                "workload": workload, "metric": metric.name,
                "unit": metric.unit, "base_median": statistics.median(va),
                "new_median": statistics.median(vb), "ratio": ratio,
                "bound": metric.bound, "base_spread": spread(va),
                "new_spread": spread(vb), "verdict": word})
    return rows
