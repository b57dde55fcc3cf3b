"""Cost annotations for user functions running inside simulated tasks.

The engine executes user closures (map functions, ``seqOp``/``combOp``) for
real, but real wall-clock time on the test machine says nothing about time
on the paper's clusters. A :class:`Costed` wrapper attaches a *virtual cost
model* to a callable; every engine call site that invokes user code checks
for it and charges the declared cost to the running task.

Example: a logistic-regression ``seqOp`` whose virtual cost is proportional
to the sample's non-zeros at the platform's per-element rate::

    seq_op = Costed(lambda agg, pt: agg.add(pt),
                    lambda agg, pt: pt.nnz * FLOP_TIME)
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

__all__ = ["Costed", "cost_of", "sum_in_order", "ELEMENT_OVERHEAD"]

#: default per-element iteration overhead charged by bulk transformations
#: (JVM iterator + closure dispatch per record, ~50 ns)
ELEMENT_OVERHEAD = 50e-9


class Costed:
    """A callable with an attached virtual-cost model.

    ``cost_fn`` receives the same arguments as ``fn`` and returns seconds of
    virtual time; a float is accepted as a constant cost.
    """

    __slots__ = ("fn", "cost_fn")

    def __init__(self, fn: Callable, cost_fn: Any):
        if not callable(fn):
            raise TypeError(f"fn must be callable, got {type(fn).__name__}")
        if not callable(cost_fn) and not isinstance(cost_fn, (int, float)):
            raise TypeError("cost_fn must be callable or a constant")
        self.fn = fn
        self.cost_fn = cost_fn

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.fn(*args, **kwargs)

    def cost(self, *args: Any, **kwargs: Any) -> float:
        if callable(self.cost_fn):
            value = self.cost_fn(*args, **kwargs)
        else:
            value = float(self.cost_fn)
        if value < 0:
            raise ValueError(f"negative cost {value} from {self.fn!r}")
        return value


def cost_of(fn: Callable, *args: Any, **kwargs: Any) -> float:
    """Virtual cost of calling ``fn(*args)``; 0 for un-annotated callables."""
    if isinstance(fn, Costed):
        return fn.cost(*args, **kwargs)
    return 0.0


def sum_in_order(start: float, terms: Any, n: int) -> float:
    """``start + t0 + t1 + ...``, added left to right as a loop would.

    A seqOp that folds a whole partition at once charges (and sums its
    statistics) with this, so every total is the per-element loop's."""
    steps = np.empty(n + 1)
    steps[0] = start
    steps[1:] = terms
    return float(np.add.accumulate(steps)[-1])
