"""Cycles of a Signal Graph and their effective lengths (Section V).

A cycle is a closed path of repetitive events.  Its *length* is the sum
of its arc delays, its *occurrence period* ``epsilon`` the number of
unfolding periods it spans — which equals the number of initial tokens
it carries — and its *effective length* the ratio ``length/epsilon``.
The cycle time of the graph is the maximum effective length over all
simple cycles; the maximisers are the *critical cycles*.

Enumeration uses Johnson's algorithm (via networkx) and is exponential
in the worst case; it is the exhaustive ground truth against which the
polynomial algorithms are validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import networkx as nx

from .arithmetic import Number, exact_div
from .errors import AcyclicGraphError
from .events import event_label
from .signal_graph import Arc, Event, TimedSignalGraph


@dataclass(frozen=True)
class Cycle:
    """A simple cycle with its timing attributes.

    ``events`` holds the cycle's events in path order; the closing arc
    from the last event back to the first is implied.  The
    representation is rotated so the smallest label comes first, making
    equal cycles compare equal regardless of enumeration order.
    """

    events: Tuple[Event, ...]
    length: Number
    tokens: int

    @property
    def occurrence_period(self) -> int:
        """``epsilon``: unfolding periods covered = tokens carried."""
        return self.tokens

    @property
    def effective_length(self) -> Number:
        """``length / epsilon`` — the quantity the cycle time maximises."""
        return exact_div(self.length, self.tokens)

    def __len__(self) -> int:
        return len(self.events)

    def __str__(self) -> str:
        path = " -> ".join(event_label(e) for e in self.events)
        return "[%s -> %s] length=%s tokens=%d" % (
            path,
            event_label(self.events[0]),
            self.length,
            self.tokens,
        )

    def arcs(self, graph: TimedSignalGraph) -> List[Arc]:
        """The arcs of the cycle, in path order."""
        return [
            graph.arc(source, target)
            for source, target in cycle_pairs(self.events)
        ]


def cycle_pairs(events: Sequence[Event]) -> List[Tuple[Event, Event]]:
    """The ``(source, target)`` arc pairs of a closed event sequence,
    in path order, the closing arc last."""
    events = tuple(events)
    return list(zip(events, events[1:] + events[:1]))


def canonical_rotation(events: Sequence[Event]) -> Tuple[Event, ...]:
    """Rotate a cycle's event list to start at its minimal label."""
    labels = [event_label(e) for e in events]
    start = labels.index(min(labels))
    return tuple(events[start:]) + tuple(events[:start])


def cycle_arcs(
    graph: TimedSignalGraph, events: Sequence[Event]
) -> Tuple[Tuple[Event, ...], List[Arc]]:
    """A cycle's events in canonical rotation and its arcs in that
    path order: everything of a :class:`Cycle` but the length sum."""
    events = canonical_rotation(list(events))
    arcs = [graph.arc(source, target) for source, target in cycle_pairs(events)]
    return events, arcs


def make_cycle(graph: TimedSignalGraph, events: Sequence[Event]) -> Cycle:
    """Build a :class:`Cycle` from an event sequence, computing length
    and tokens from the graph's arcs."""
    events, arcs = cycle_arcs(graph, events)
    length: Number = 0
    tokens = 0
    for arc in arcs:
        length = length + arc.delay
        tokens += arc.tokens
    return Cycle(events, length, tokens)


def simple_cycles(graph: TimedSignalGraph) -> Iterator[Cycle]:
    """All simple cycles of the graph (Johnson's algorithm)."""
    digraph = graph.to_networkx()
    for events in nx.simple_cycles(digraph):
        yield make_cycle(graph, events)


def critical_cycles(
    graph: TimedSignalGraph,
) -> Tuple[Number, List[Cycle]]:
    """Exhaustively find the cycle time and all critical cycles.

    Returns ``(cycle_time, [critical cycles])``.  Raises
    :class:`~repro.core.errors.AcyclicGraphError` when no cycle exists
    and :class:`ZeroDivisionError` never (live graphs have ``tokens >=
    1`` on every cycle; validate first).
    """
    best: Optional[Number] = None
    winners: List[Cycle] = []
    for cycle in simple_cycles(graph):
        ratio = cycle.effective_length
        if best is None or ratio > best:
            best = ratio
            winners = [cycle]
        elif ratio == best:
            winners.append(cycle)
    if best is None:
        raise AcyclicGraphError("graph %r has no cycles" % graph.name)
    return best, winners


def max_occurrence_period(graph: TimedSignalGraph) -> int:
    """``epsilon_max``: the largest token count of any simple cycle.

    Proposition 6 bounds this by the size of a minimum cut set; the
    property-based tests check that bound.
    """
    return max(cycle.tokens for cycle in simple_cycles(graph))
