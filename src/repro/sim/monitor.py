"""Lightweight instrumentation for simulations.

:class:`Stopwatch` accumulates named spans of virtual time. It is a plain
accumulator — it never affects simulation behaviour — and is the source of
every decomposed-time figure in the benchmark harness (driver / non-agg /
agg-compute / agg-reduce).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Stopwatch"]


class Stopwatch:
    """Accumulates virtual-time spans under string keys.

    Spans are recorded explicitly (``add(key, seconds)``) or scoped
    (``with sw.span(key): ...``); ``total(key)`` and ``as_dict()`` read
    them back.

    ``on_record(key, seconds, now)`` is invoked after every recording;
    the engine uses it to mirror spans onto its observability bus. The
    callback must not advance virtual time.
    """

    def __init__(self, env: "Environment",
                 on_record: Optional[Callable[[str, float, float],
                                              None]] = None):
        self.env = env
        self.on_record = on_record
        self._total: Dict[str, float] = defaultdict(float)

    def add(self, key: str, seconds: float) -> None:
        """Record ``seconds`` of virtual time under ``key``."""
        if seconds < 0:
            raise ValueError(f"negative span for {key!r}: {seconds}")
        self._total[key] += seconds
        if self.on_record is not None:
            self.on_record(key, seconds, self.env.now)

    @contextmanager
    def span(self, key: str):
        """Scoped bracket: records ``key`` even when the body raises,
        charging whatever virtual time elapsed up to the raise."""
        began = self.env.now
        try:
            yield self
        finally:
            self.add(key, self.env.now - began)

    def total(self, key: str) -> float:
        """Accumulated time for ``key`` (0.0 if never recorded)."""
        return self._total.get(key, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """All accumulated spans as a plain dict."""
        return dict(self._total)

    def __repr__(self) -> str:
        spans = ", ".join(f"{k}={v:.6g}" for k, v in sorted(self._total.items()))
        return f"<Stopwatch {spans}>"
