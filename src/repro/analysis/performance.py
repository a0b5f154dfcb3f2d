"""Steady-state performance reports built on the cycle-time analysis.

Beyond the cycle time itself, designers need to know *where* the time
goes.  Given λ, assign every repetitive event a potential ``p(e)`` —
its offset inside the steady-state period, so event ``e`` fires at
``p(e) + λ·k`` — by longest-path propagation under the reduced arc
weights ``w = delay - λ·tokens`` (no cycle is positive at λ; critical
cycles are exactly the zero-weight ones).  Then every arc has a
non-negative *slack*::

    slack(e -> f) = p(f) - p(e) - delay + λ·tokens

Zero-slack arcs form the **critical subgraph**: every critical cycle
lives inside it (the converse does not hold — a zero-slack arc off
every critical cycle is merely locally tight; only delay increases on
critical *cycles* raise λ, which is what the sensitivity module
reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import networkx as nx

from ..core.arithmetic import Number, numbers_close
from ..core.cycle_time import CycleTimeResult, compute_cycle_time
from ..core.cycles import Cycle, make_cycle
from ..core.errors import SignalGraphError
from ..core.events import event_label
from ..core.signal_graph import Arc, Event, TimedSignalGraph


@dataclass
class PerformanceReport:
    """Cycle time, schedule potentials, slacks and the critical core."""

    graph: TimedSignalGraph
    result: CycleTimeResult
    potentials: Dict[Event, Number]
    slacks: Dict[Tuple[Event, Event], Number]

    @property
    def cycle_time(self) -> Number:
        return self.result.cycle_time

    @property
    def critical_arcs(self) -> List[Arc]:
        """Arcs with zero slack (the critical subgraph)."""
        return [
            self.graph.arc(source, target)
            for (source, target), slack in self.slacks.items()
            if numbers_close(slack, 0)
        ]

    def critical_subgraph(self) -> "nx.DiGraph":
        digraph = nx.DiGraph()
        for arc in self.critical_arcs:
            digraph.add_edge(arc.source, arc.target)
        return digraph

    def all_critical_cycles(self) -> List[Cycle]:
        """Every critical cycle (cycles of the critical subgraph).

        Exhaustive over the (typically tiny) critical subgraph, unlike
        ``result.critical_cycles`` which holds only backtracked
        witnesses.
        """
        cycles = []
        for events in nx.simple_cycles(self.critical_subgraph()):
            cycle = make_cycle(self.graph, events)
            if numbers_close(cycle.effective_length, self.cycle_time):
                cycles.append(cycle)
        return cycles

    def slack_of(self, source, target) -> Number:
        arc = self.graph.arc(source, target)
        return self.slacks[arc.pair]

    def schedule(self, periods: int = 1) -> List[Tuple[Number, str]]:
        """Steady-state firing times ``(time, event)`` over ``periods``."""
        rows = []
        for event, potential in self.potentials.items():
            for k in range(periods):
                rows.append(
                    (potential + self.cycle_time * k, event_label(event))
                )
        rows.sort(key=lambda row: (float(row[0]), row[1]))
        return rows

    def summary(self) -> str:
        lines = [
            "Performance report for %r" % self.graph.name,
            "  cycle time: %s" % self.cycle_time,
            "  border events: %s"
            % ", ".join(event_label(e) for e in self.result.border_events),
        ]
        for cycle in self.result.critical_cycles:
            lines.append("  critical: %s" % cycle)
        lines.append("  arc slacks:")
        for (source, target), slack in sorted(
            self.slacks.items(), key=lambda item: (float(item[1]), str(item[0]))
        ):
            marker = "  <- critical" if numbers_close(slack, 0) else ""
            lines.append(
                "    %s -> %s : %s%s"
                % (event_label(source), event_label(target), slack, marker)
            )
        return "\n".join(lines)


def steady_state_potentials(
    graph: TimedSignalGraph, cycle_time: Number
) -> Dict[Event, Number]:
    """Longest-path potentials under ``w = delay - λ·tokens``.

    Propagated over the repetitive core from an arbitrary root by
    Bellman-Ford (at most ``n`` rounds; no positive cycles exist at the
    true cycle time).

    A graph with float delays propagates exactly on ``Fraction(delay)``
    — floats are dyadic rationals, so nothing is lost — at the rate
    ``max(Fraction(cycle_time), λ*)``, where λ* is the exact cycle time
    of those delays (``howard-ratio``): a float λ rounded below λ*
    would otherwise read as a positive cycle.  Each potential is
    rounded to float once, at the end.
    """
    repetitive = graph.repetitive_events
    nodes = [event for event in graph.events if event in repetitive]
    if not nodes:
        raise SignalGraphError("graph has no repetitive core")
    arcs = [
        (arc.source, arc.target, arc.delay, arc.tokens)
        for arc in graph.arcs
        if arc.source in repetitive and arc.target in repetitive
    ]
    if graph.is_exact:
        return _longest_paths(nodes, arcs, cycle_time)
    # imported here: the repro.baselines package imports scipy
    from ..baselines.howard import max_cycle_ratio_howard

    exact_graph = graph.copy()
    for arc in graph.arcs:
        exact_graph.set_delay(arc.source, arc.target, Fraction(arc.delay))
    rate = max(Fraction(cycle_time), max_cycle_ratio_howard(exact_graph)[0])
    exact_arcs = [
        (source, target, Fraction(delay), tokens)
        for source, target, delay, tokens in arcs
    ]
    return {
        event: float(potential)
        for event, potential in _longest_paths(nodes, exact_arcs, rate).items()
    }


def _longest_paths(nodes, arcs, cycle_time) -> Dict[Event, Number]:
    """Bellman-Ford over ``(source, target, delay, tokens)`` arcs."""
    potentials: Dict[Event, Number] = {nodes[0]: 0}
    for _ in range(len(nodes) + 1):
        changed = False
        for source, target, delay, tokens in arcs:
            if source not in potentials:
                continue
            candidate = potentials[source] + delay - cycle_time * tokens
            if target not in potentials or candidate > potentials[target]:
                potentials[target] = candidate
                changed = True
        if not changed:
            break
    else:
        raise SignalGraphError(
            "positive cycle at the supplied cycle time %s (is it too small?)"
            % cycle_time
        )
    return potentials


def analyze(
    graph: TimedSignalGraph,
    result: Optional[CycleTimeResult] = None,
) -> PerformanceReport:
    """Full performance analysis: cycle time + schedule + slacks."""
    if result is None:
        result = compute_cycle_time(graph)
    potentials = steady_state_potentials(graph, result.cycle_time)
    repetitive = graph.repetitive_events
    slacks: Dict[Tuple[Event, Event], Number] = {}
    for arc in graph.arcs:
        if arc.source in repetitive and arc.target in repetitive:
            slacks[arc.pair] = (
                potentials[arc.target]
                - potentials[arc.source]
                - arc.delay
                + result.cycle_time * arc.tokens
            )
    return PerformanceReport(graph, result, potentials, slacks)
