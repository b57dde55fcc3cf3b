"""Benchmark harness utilities: time decomposition and table formatting.

Every figure in the paper is either a bar/line chart of elapsed times or of
speedups; the harness renders them as aligned text tables (the benches
print exactly the rows the paper plots) and extracts the 4-way time
decomposition used by Figures 2/3/4/18:

* ``agg-compute`` — first stage of the aggregation (seqOp over partitions),
* ``agg-reduce``  — everything after it (tree levels / ring + gather),
* ``driver``      — non-scalable computation in the driver,
* ``non-agg``     — scalable computation unrelated to aggregation
  (broadcast, sampling, residual stage work).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..rdd.context import SparkerContext

__all__ = ["TimeBreakdown", "BreakdownRecorder", "format_table", "geomean",
           "format_seconds"]


@dataclass(frozen=True)
class TimeBreakdown:
    """The paper's 4-way end-to-end decomposition."""

    agg_compute: float
    agg_reduce: float
    driver: float
    non_agg: float

    @property
    def total(self) -> float:
        return self.agg_compute + self.agg_reduce + self.driver + self.non_agg

    @property
    def aggregation(self) -> float:
        """Combined aggregation time (Figure 2's "aggregation" bar)."""
        return self.agg_compute + self.agg_reduce

    @property
    def agg_fraction(self) -> float:
        """Share of end-to-end time spent aggregating."""
        return self.aggregation / self.total if self.total > 0 else 0.0

    def __str__(self) -> str:
        return (f"compute={self.agg_compute:.3f}s "
                f"reduce={self.agg_reduce:.3f}s driver={self.driver:.3f}s "
                f"non-agg={self.non_agg:.3f}s (total {self.total:.3f}s)")


class BreakdownRecorder:
    """Brackets a training run and extracts its TimeBreakdown.

    Usage::

        rec = BreakdownRecorder(sc)
        ...  # run the workload
        breakdown = rec.finish()
    """

    def __init__(self, sc: "SparkerContext"):
        self.sc = sc
        self._t0 = sc.now
        self._spans0 = dict(sc.stopwatch.as_dict())

    def _delta(self, key: str) -> float:
        return self.sc.stopwatch.total(key) - self._spans0.get(key, 0.0)

    def finish(self) -> TimeBreakdown:
        total = self.sc.now - self._t0
        agg_compute = self._delta("agg.compute")
        agg_reduce = self._delta("agg.reduce")
        driver = self._delta("ml.driver")
        non_agg = max(total - agg_compute - agg_reduce - driver, 0.0)
        return TimeBreakdown(agg_compute, agg_reduce, driver, non_agg)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's summary statistic)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of nothing")
    if any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_seconds(seconds: float) -> str:
    """Human-scaled time: µs/ms/s."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.2f}s"


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Render an aligned text table (numbers get sensible formatting)."""
    def render(cell) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1000 or abs(cell) < 0.01:
                return f"{cell:.3g}"
            return f"{cell:.3f}".rstrip("0").rstrip(".")
        return str(cell)

    grid: List[List[str]] = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in grid:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    for row in grid:
        out.append(line(row))
    return "\n".join(out)
