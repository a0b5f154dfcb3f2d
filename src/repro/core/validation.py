"""Structural validation of Timed Signal Graphs (Section III-A).

The paper restricts analysis to graphs that are:

* **connected** — the repetitive events form one strongly connected
  core (so all repetitive events share a single cycle time,
  Proposition 2);
* **bounded** — automatic for strongly connected marked graphs (token
  counts on cycles are invariant);
* **initially-safe** — boolean marking, enforced at construction time
  by :class:`~repro.core.signal_graph.TimedSignalGraph`;
* **live** — every cycle carries at least one initial token
  (Commoner's condition for marked graphs [5]);
* **well-formed** — no repetitive events before disengageable arcs;
  we also require, equivalently for our initially-safe setting, that
  arcs out of non-repetitive events never need to fire twice.

``validate(graph)`` runs all checks and raises the first violation;
individual ``check_*`` predicates report booleans with witnesses.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import networkx as nx

from .errors import (
    AcyclicGraphError,
    NotConnectedError,
    NotLiveError,
    NotWellFormedError,
)
from .events import Transition, event_label, event_sort_key
from .signal_graph import Event, TimedSignalGraph


def unmarked_subgraph(graph: TimedSignalGraph) -> "nx.DiGraph":
    """The sub-digraph of arcs without an initial token.

    Liveness of the Signal Graph is equivalent to this subgraph being
    acyclic, and its topological order is the firing order within one
    unfolding period.
    """
    subgraph = nx.DiGraph()
    subgraph.add_nodes_from(graph.events)
    for arc in graph.arcs:
        if not arc.marked:
            subgraph.add_edge(arc.source, arc.target, delay=arc.delay)
    return subgraph


def live_order(graph: TimedSignalGraph) -> Optional[Tuple[Event, ...]]:
    """The lexicographic topological order of the unmarked subgraph.

    ``None`` when the sort fails, which it does exactly when a
    token-free cycle exists, so this one sort decides liveness and
    yields the canonical intra-period firing order the compiled kernel
    uses.  Cached on the graph until its next mutation.
    """

    def compute() -> Optional[Tuple[Event, ...]]:
        try:
            return tuple(
                nx.lexicographical_topological_sort(
                    unmarked_subgraph(graph), key=event_sort_key
                )
            )
        except nx.NetworkXUnfeasible:
            return None

    return graph.cached("live-order", compute)


def find_unmarked_cycle(graph: TimedSignalGraph) -> Optional[List]:
    """An event cycle with no token, or None if the graph is live."""
    subgraph = unmarked_subgraph(graph)
    try:
        cycle_edges = nx.find_cycle(subgraph)
    except nx.NetworkXNoCycle:
        return None
    return [edge[0] for edge in cycle_edges]


def check_live(graph: TimedSignalGraph) -> bool:
    """True iff every cycle contains an initially marked arc."""
    return live_order(graph) is not None


def check_connected_core(graph: TimedSignalGraph) -> bool:
    """True iff the repetitive events form one strongly connected core.

    Graphs whose cyclic behaviour splits into independent components
    have, in general, different cycle times per component, which
    Proposition 2 excludes.
    """
    repetitive = graph.repetitive_events
    if not repetitive:
        return True
    core = graph.repetitive_core()
    return nx.is_strongly_connected(core)


def check_well_formed(graph: TimedSignalGraph) -> bool:
    """True iff no disengageable arc has a repetitive source."""
    repetitive = graph.repetitive_events
    return not any(
        arc.disengageable and arc.source in repetitive for arc in graph.arcs
    )


def check_has_cycles(graph: TimedSignalGraph) -> bool:
    """True iff the graph has repetitive behaviour to analyse."""
    return bool(graph.repetitive_events)


def check_switchover_correct(graph: TimedSignalGraph) -> Tuple[bool, Optional[str]]:
    """Necessary conditions for circuit implementability (Section VIII-A).

    Applies only to graphs whose events are
    :class:`~repro.core.events.Transition` objects: for every signal the
    numbers of rising and falling *repetitive* events must balance, so
    up- and down-going transitions can alternate.  Non-transition
    events make the check vacuously true.

    Returns ``(ok, message)``.
    """
    rising = {}
    falling = {}
    repetitive = graph.repetitive_events
    for event in graph.events:
        if not isinstance(event, Transition) or event not in repetitive:
            continue
        bucket = rising if event.is_rising else falling
        bucket[event.signal] = bucket.get(event.signal, 0) + 1
    for signal in set(rising) | set(falling):
        ups = rising.get(signal, 0)
        downs = falling.get(signal, 0)
        if ups != downs:
            return (
                False,
                "signal %r has %d rising but %d falling repetitive events"
                % (signal, ups, downs),
            )
    return True, None


def validate(graph: TimedSignalGraph, require_cycles: bool = True) -> None:
    """Run all structural checks, raising the first failure.

    Parameters
    ----------
    graph:
        The graph to check.
    require_cycles:
        When True (default) an entirely acyclic graph raises
        :class:`~repro.core.errors.AcyclicGraphError`, because no cycle
        time exists for it.
    """
    if live_order(graph) is None:
        cycle = find_unmarked_cycle(graph)
        raise NotLiveError(
            "cycle without initial token: %s"
            % " -> ".join(event_label(e) for e in cycle),
            cycle=cycle,
        )
    if not check_connected_core(graph):
        raise NotConnectedError(
            "repetitive events do not form one strongly connected core"
        )
    if not check_well_formed(graph):
        raise NotWellFormedError("disengageable arc with repetitive source event")
    if require_cycles and not check_has_cycles(graph):
        raise AcyclicGraphError(
            "graph %r has no cycles; cycle time is undefined" % graph.name
        )
