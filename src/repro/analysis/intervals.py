"""Interval (min/max) delay analysis — bounding the cycle time.

The paper assumes fixed delays; real gate libraries specify ranges.
For Timed Signal Graphs under MAX semantics the cycle time is
*monotone* in every arc delay (a property-based test checks this), so
interval delays give exact bounds:

    λ_min = cycle time with every delay at its minimum
    λ_max = cycle time with every delay at its maximum

and any fixed choice of delays inside the intervals yields a cycle
time within ``[λ_min, λ_max]``.  The two extreme analyses also expose
which arcs are critical in the best and worst corner — arcs critical
in *both* corners are robust bottlenecks worth optimising first.

When the graph (and the interval endpoints) are exact — int or
Fraction — both corners run through the exact kernel and the bounds
are exact numbers.  Otherwise the two corners are swept together as a
two-row batch through the vectorized float64 kernel
(:func:`~repro.core.kernel.run_border_simulations_batch`), which
halves the Python-level overhead of the corner analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..core.arithmetic import Number
from ..core.cycle_time import CycleTimeResult, compute_cycle_time
from ..core.errors import GraphConstructionError
from ..core.events import as_event, event_label
from ..core.kernel import compiled_graph, rebind_compiled, run_border_simulations_batch
from ..core.signal_graph import Event, TimedSignalGraph
from ..core.validation import validate as validate_graph


@dataclass
class IntervalResult:
    """Bounds on the cycle time under interval delays."""

    lower: CycleTimeResult
    upper: CycleTimeResult

    @property
    def bounds(self) -> Tuple[Number, Number]:
        return (self.lower.cycle_time, self.upper.cycle_time)

    @property
    def spread(self) -> Number:
        return self.upper.cycle_time - self.lower.cycle_time

    def robust_critical_events(self) -> frozenset:
        """Events critical in both delay corners."""
        return self.lower.critical_events & self.upper.critical_events

    def __str__(self) -> str:
        return "cycle time in [%s, %s]" % self.bounds


def interval_cycle_time(
    graph: TimedSignalGraph,
    bounds: Dict[Tuple[Event, Event], Tuple[Number, Number]],
) -> IntervalResult:
    """Cycle-time bounds for arcs with ``(min, max)`` delay intervals.

    ``bounds`` maps arc pairs to intervals; arcs not listed keep their
    fixed delay.  Float corners run as one two-row fused sweep; exact
    int/Fraction corners run the exact kernel one at a time.  Raises
    :class:`~repro.core.errors.GraphConstructionError` for an interval
    with ``min > max`` or one naming a missing arc.
    """
    # Canonicalize keys once so string labels ("a+") and Transition
    # events address the same arc in both the validation below and the
    # arc.pair lookups of the float fast path.
    bounds = {
        (as_event(source), as_event(target)): interval
        for (source, target), interval in bounds.items()
    }
    for (source, target), (low, high) in bounds.items():
        if not graph.has_arc(source, target):
            raise GraphConstructionError(
                "interval on missing arc %s -> %s"
                % (event_label(source), event_label(target))
            )
        if low > high:
            raise GraphConstructionError(
                "empty interval [%s, %s] on %s -> %s"
                % (low, high, event_label(source), event_label(target))
            )

    # Both corners share the graph's structure: validate and compile it
    # once, then rebind only the corner delays.
    validate_graph(graph)
    base = compiled_graph(graph)

    exact = graph.is_exact and all(
        isinstance(value, (int, Fraction)) and not isinstance(value, bool)
        for interval in bounds.values()
        for value in interval
    )
    if not exact:
        # Float corners: one two-row batch through the vectorized
        # kernel instead of two per-corner kernel runs.
        matrix = np.array(
            [
                [
                    float(bounds[arc.pair][row]) if arc.pair in bounds
                    else float(arc.delay)
                    for arc in graph.arcs
                ]
                for row in (0, 1)
            ],
            dtype=np.float64,
        )
        sweep = run_border_simulations_batch(graph, matrix)
        return IntervalResult(
            lower=sweep.sample_result(0), upper=sweep.sample_result(1)
        )

    def corner(pick: Callable) -> TimedSignalGraph:
        clone = graph.copy()
        for (source, target), interval in bounds.items():
            clone.set_delay(source, target, pick(interval))
        rebind_compiled(clone, base)
        return clone

    lower = compute_cycle_time(corner(lambda interval: interval[0]), check=False)
    upper = compute_cycle_time(corner(lambda interval: interval[1]), check=False)
    return IntervalResult(lower=lower, upper=upper)


def uniform_interval_cycle_time(
    graph: TimedSignalGraph,
    relative_margin: float,
) -> IntervalResult:
    """Bounds for a uniform ±margin on every delay (process spread).

    ``relative_margin`` of 0.1 models delays in ``[0.9 d, 1.1 d]``.
    Exact delays stay exact when ``relative_margin`` is a Fraction.
    """
    if relative_margin < 0:
        raise GraphConstructionError("margin must be non-negative")
    bounds = {
        arc.pair: (
            arc.delay - arc.delay * relative_margin,
            arc.delay + arc.delay * relative_margin,
        )
        for arc in graph.arcs
    }
    return interval_cycle_time(graph, bounds)
