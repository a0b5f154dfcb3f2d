"""The paper's cycle-time algorithm (Section VII).

Skeleton, as published:

1. take the Timed Signal Graph;
2. identify the *border events* (repetitive events with an initially
   marked in-arc) — a cut set of all cycles;
3. for each of the ``b`` border events run an event-initiated timing
   simulation over ``b`` periods of the unfolding, collecting the
   average occurrence distance ``delta_{g_0}(g_i) = t_{g_0}(g_i)/i``
   after each full period;
4. the largest of the (at most ``b^2``) collected distances is the
   cycle time (Propositions 7 and 8);
5. backtrack the longest path of a winning simulation to recover a
   critical cycle.

One timing simulation touches at most ``b * m`` unfolding arcs, so the
whole algorithm runs in ``O(b^2 * m)`` — typically near-linear since
``b`` is small for real circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .arithmetic import Number, exact_div, numbers_close
from .cycles import Cycle, make_cycle
from .errors import AcyclicGraphError, SignalGraphError
from .events import event_label
from .kernel import resolve_kernel, run_border_simulations
from .signal_graph import Event, TimedSignalGraph
from .simulation import EventInitiatedSimulation
from .validation import validate as validate_graph
from ..obs.profile import phase as _phase
from ..obs.tracing import tracer as _tracer


@dataclass(frozen=True)
class BorderDistance:
    """One collected measurement ``delta_{g_0}(g_i)``."""

    border_event: Event
    period: int
    time: Number
    distance: Number

    def __str__(self) -> str:
        return "delta_{%s_0}(%s_%d) = %s/%d = %s" % (
            event_label(self.border_event),
            event_label(self.border_event),
            self.period,
            self.time,
            self.period,
            self.distance,
        )


@dataclass
class CycleTimeResult:
    """Outcome of the timing-simulation cycle-time algorithm.

    Attributes
    ----------
    cycle_time:
        The cycle time λ of the graph (exact
        :class:`fractions.Fraction` for int/Fraction delays).
    critical_cycles:
        Critical cycles recovered by backtracking winning simulations —
        at least one; possibly not *all* critical cycles (use the
        exhaustive baseline to enumerate every one).
    border_events:
        The border events, in graph insertion order.
    distances:
        All collected ``delta`` measurements (at most ``b^2``).
    periods:
        How many periods each simulation covered (>= ``b``).
    simulations:
        The per-border-event simulations, for inspection, timing
        diagrams and backtracking.  Empty when the analysis was run
        with ``keep_simulations=False`` (bulk sweeps drop them to keep
        the memory footprint flat).
    """

    cycle_time: Number
    critical_cycles: List[Cycle]
    border_events: Tuple[Event, ...]
    distances: List[BorderDistance]
    periods: int
    simulations: Dict[Event, EventInitiatedSimulation] = field(repr=False, default_factory=dict)

    @property
    def critical_events(self) -> frozenset:
        """Events appearing on a recovered critical cycle."""
        found = set()
        for cycle in self.critical_cycles:
            found.update(cycle.events)
        return frozenset(found)

    def winning_distances(self) -> List[BorderDistance]:
        """The measurements that achieve the cycle time."""
        return [
            record
            for record in self.distances
            if numbers_close(record.distance, self.cycle_time)
        ]

    def distance_table(self) -> str:
        """Formatted table of all collected distances (for reports)."""
        lines = ["border event   i   t_{g0}(g_i)   delta"]
        for record in self.distances:
            lines.append(
                "%-13s %3d   %-11s   %s"
                % (
                    event_label(record.border_event),
                    record.period,
                    record.time,
                    record.distance,
                )
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        cycles = "; ".join(str(cycle) for cycle in self.critical_cycles)
        return "cycle time %s, critical: %s" % (self.cycle_time, cycles)


def compute_cycle_time(
    graph: TimedSignalGraph,
    periods: Optional[int] = None,
    check: bool = True,
    kernel: str = "auto",
    workers: Optional[int] = None,
    keep_simulations: bool = True,
    backtrack: bool = True,
    cache: object = "auto",
) -> CycleTimeResult:
    """Run the paper's algorithm on a validated Timed Signal Graph.

    Parameters
    ----------
    graph:
        A live, connected, initially-safe Timed Signal Graph.
    periods:
        Number of unfolding periods per simulation.  Defaults to the
        number of border events ``b``, which Proposition 7 proves
        sufficient; experiments may pass more (the Muller ring table in
        Section VIII-D extends to 10 periods).
    check:
        Run structural validation first (recommended; disable only for
        repeated analyses of a graph already validated).
    kernel:
        Simulation engine: ``"auto"`` (exact kernel for int/Fraction
        delays, float64 fast path otherwise), ``"exact"``, ``"float"``
        or ``"legacy"`` (the original dict-based loops).  See
        :mod:`repro.core.kernel`.
    workers:
        Fan the ``b`` border simulations out over a thread pool of this
        size (default: run them serially).
    keep_simulations:
        Retain the per-border simulations on the result.  Bulk sweeps
        (Monte-Carlo, sensitivity) pass False to drop the ``b`` full
        simulations once the critical cycles are backtracked.
    backtrack:
        Recover critical cycles from the winning simulations.  Sweeps
        that only need λ (a Monte-Carlo histogram, an interval bound
        probe) pass False and skip the backtracking cost entirely;
        ``critical_cycles`` is then empty.
    cache:
        Content-addressed caching policy (:mod:`repro.service.cache`).
        ``"auto"`` (default) resolves the compiled topology through the
        process-wide compile cache — a graph content-equal to one seen
        before adopts its compiled programs instead of recompiling, and
        a delay-only variant rebinds in O(m).  ``"results"``
        additionally memoises the finished analysis by content hash
        (only applied together with ``keep_simulations=False``, since
        cached results are shared).  ``False``/``"off"`` bypasses both.
    """
    if check:
        with _phase("validate"):
            validate_graph(graph)
    use_cache = cache not in (False, None, "off")
    resolved = resolve_kernel(graph, kernel)
    if use_cache and resolved != "legacy":
        # Lazy import: core must stay importable without the service
        # package, and the service package imports core.
        from ..service.cache import shared_compiled_graph

        shared_compiled_graph(graph)
    border = graph.border_events
    if not border:
        raise AcyclicGraphError(
            "graph %r has no border events (no marked arcs on cycles)" % graph.name
        )
    if periods is None:
        periods = len(border)
    elif periods < len(border):
        raise SignalGraphError(
            "periods=%d is below the sound bound b=%d" % (periods, len(border))
        )

    cache_key = None
    if use_cache and cache == "results" and not keep_simulations:
        from ..service.cache import result_cache
        from ..service.hashing import analysis_key

        cache_key = analysis_key(
            graph,
            "cycle-time",
            periods=periods,
            kernel=resolved,
            backtrack=backtrack,
        )
        memoised = result_cache().get(cache_key)
        if memoised is not None:
            return memoised

    with _tracer().span(
        "kernel.analyze",
        attributes={"events": len(graph), "border": len(border), "periods": periods},
    ):
        with _phase("simulate"):
            simulations = run_border_simulations(
                graph, periods, kernel=kernel, workers=workers, border=border
            )
        with _phase("collect"):
            records: List[BorderDistance] = []
            best: Optional[Number] = None
            for border_event, simulation in simulations.items():
                for index, time in simulation.initiator_times():
                    distance = exact_div(time, index)
                    records.append(
                        BorderDistance(border_event, index, time, distance)
                    )
                    if best is None or distance > best:
                        best = distance
        if best is None:
            raise AcyclicGraphError(
                "no border event of %r re-occurs within %d periods"
                % (graph.name, periods)
            )

        if backtrack:
            with _phase("backtrack"):
                winners = [
                    record
                    for record in records
                    if numbers_close(record.distance, best)
                ]
                cycles = _backtrack_critical_cycles(
                    graph, simulations, winners, best
                )
        else:
            cycles = []
    result = CycleTimeResult(
        cycle_time=best,
        critical_cycles=cycles,
        border_events=border,
        distances=records,
        periods=periods,
        simulations=simulations if keep_simulations else {},
    )
    if cache_key is not None:
        from ..service.cache import result_cache

        result_cache().put(cache_key, result)
    return result


def _backtrack_critical_cycles(
    graph: TimedSignalGraph,
    simulations: Dict[Event, EventInitiatedSimulation],
    winners: Sequence[BorderDistance],
    cycle_time: Number,
) -> List[Cycle]:
    """Recover critical cycles from winning simulations (Proposition 1).

    The longest path from ``(g, 0)`` to ``(g, i)`` is an unfolded cycle
    whose effective length equals the cycle time.  Its projection onto
    the Signal Graph may repeat events (a non-simple cycle); every
    simple sub-cycle of the decomposition then achieves the cycle time
    (Proposition 5 with equality), so we return those.
    """
    found: Dict[Tuple[Event, ...], Cycle] = {}
    seen_walks = set()
    processed_borders = set()
    for record in winners:
        # One witness per border event suffices (ties at several periods
        # typically re-trace the same cycle); the exhaustive set is
        # available from PerformanceReport.all_critical_cycles().
        if record.border_event in processed_borders:
            continue
        processed_borders.add(record.border_event)
        simulation = simulations[record.border_event]
        path = simulation.critical_path(record.border_event, record.period)
        events = tuple(instance[0] for instance in path)
        if events in seen_walks:
            continue
        seen_walks.add(events)
        for cycle in _simple_sub_cycles(graph, events):
            if numbers_close(cycle.effective_length, cycle_time):
                found.setdefault(cycle.events, cycle)
    return list(found.values())


def _simple_sub_cycles(graph: TimedSignalGraph, events: Sequence[Event]) -> List[Cycle]:
    """Decompose a closed projected walk into simple cycles."""
    return [make_cycle(graph, loop) for loop in _simple_loops(events)]


def _simple_loops(walk: Sequence) -> List[list]:
    """The simple loops of a closed walk, in the order they close.

    Walks the sequence with a stack; whenever an item repeats, the
    enclosed loop is popped off as one simple loop.  Items may be
    events or any other hashable stand-in for them (the batch
    backtracker passes dense event ids).
    """
    if walk and walk[0] == walk[-1] and len(set(walk)) == len(walk) - 1:
        # the common case, a walk once around one simple cycle
        return [list(walk[:-1])]
    loops: List[list] = []
    stack: list = []
    position: Dict[object, int] = {}
    for item in walk:
        if item in position:
            start = position[item]
            loop = stack[start:]
            if loop:
                loops.append(loop)
            for removed in loop:
                del position[removed]
            del stack[start:]
        position[item] = len(stack)
        stack.append(item)
    return loops
