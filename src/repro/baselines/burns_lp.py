"""Burns' linear-programming formulation (reference [2] of the paper).

Burns reduced cycle-time analysis of asynchronous circuits to a linear
program.  In steady state every repetitive event ``e`` fires at times
``p(e) + lambda * k`` (period ``k``); the MAX-causality constraints
then read, for each arc ``e -> f`` with delay ``delta`` and marking
``m``::

    p(f) >= p(e) + delta - lambda * m

Minimising ``lambda`` subject to these constraints yields exactly the
maximum cycle ratio, i.e. the cycle time.  The dual interpretation:
the optimal basis pins the critical cycle's arcs tight.

Solved with ``scipy.optimize.linprog`` (HiGHS).  Results are floats;
steady-state potentials ``p`` are returned for slack analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.errors import AcyclicGraphError, SignalGraphError
from ..core.signal_graph import Event, TimedSignalGraph


@dataclass
class LPSolution:
    """Cycle time plus a steady-state schedule (potentials)."""

    cycle_time: float
    potentials: Dict[Event, float]

    def slack(self, graph: TimedSignalGraph, source, target) -> float:
        """Non-negative slack of an arc in the steady-state schedule.

        Zero slack marks arcs of the critical subgraph.
        """
        arc = graph.arc(source, target)
        return (
            self.potentials[arc.target]
            - self.potentials[arc.source]
            - float(arc.delay)
            + self.cycle_time * arc.tokens
        )


def cycle_time_lp(graph: TimedSignalGraph) -> LPSolution:
    """Solve Burns' LP for the repetitive core of ``graph``."""
    from scipy.optimize import linprog  # only this method needs scipy

    repetitive = graph.repetitive_events
    if not repetitive:
        raise AcyclicGraphError("graph %r has no cycles" % graph.name)
    nodes: List[Event] = [event for event in graph.events if event in repetitive]
    index = {event: position for position, event in enumerate(nodes)}
    arcs = [
        arc
        for arc in graph.arcs
        if arc.source in repetitive and arc.target in repetitive
    ]

    # Variables: [p_0 ... p_{n-1}, lambda]; minimise lambda.
    n = len(nodes)
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    # Constraint p(e) - p(f) - lambda*m <= -delta  per arc.
    a_ub = np.zeros((len(arcs), n + 1))
    b_ub = np.zeros(len(arcs))
    for row, arc in enumerate(arcs):
        a_ub[row, index[arc.source]] += 1.0
        a_ub[row, index[arc.target]] -= 1.0
        a_ub[row, n] = -float(arc.tokens)
        b_ub[row] = -float(arc.delay)
    bounds = [(None, None)] * n + [(0, None)]
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise SignalGraphError("LP solver failed: %s" % result.message)
    potentials = {event: float(result.x[index[event]]) for event in nodes}
    return LPSolution(cycle_time=float(result.x[n]), potentials=potentials)
