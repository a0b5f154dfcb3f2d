"""Delay sensitivity and bottleneck optimisation.

For an arc on a critical cycle with occurrence period ε, increasing its
delay by ``d`` increases the cycle time by ``d/ε`` (until another cycle
takes over); off-critical arcs have zero first-order sensitivity.  The
*bottleneck ranking* orders arcs by that derivative — the actionable
output of a performance analysis: "speed up this gate input first".

:func:`optimize_bottlenecks` applies the obvious greedy loop: shave a
chosen amount off the most sensitive arc, re-analyse, repeat — the
workflow the paper motivates for asynchronous circuit design.

Two batch-powered probes complement the analytic ranking:
:func:`what_if_delays` sweeps candidate delays for one arc through the
vectorized float64 kernel in a single call, and
:func:`empirical_sensitivities` measures finite-difference dλ/dδ for
every repetitive-core arc as one ``(m+1)``-row batch — the empirical
cross-check of the ``1/ε`` derivation (they agree for perturbations
small enough not to switch the critical cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.arithmetic import Number, exact_div
from ..core.cycle_time import compute_cycle_time
from ..core.errors import GraphConstructionError
from ..core.events import as_event, event_label
from ..core.kernel import compiled_graph, rebind_compiled, run_border_simulations_batch
from ..core.signal_graph import Event, TimedSignalGraph
from ..core.validation import validate as validate_graph
from .performance import PerformanceReport, analyze


@dataclass(frozen=True)
class ArcSensitivity:
    """First-order derivative of the cycle time w.r.t. one arc delay."""

    source: Event
    target: Event
    delay: Number
    sensitivity: Number  # dλ/dδ — 1/ε for critical arcs, else 0

    def __str__(self) -> str:
        return "%s -> %s (delay %s): dλ/dδ = %s" % (
            event_label(self.source),
            event_label(self.target),
            self.delay,
            self.sensitivity,
        )


def delay_sensitivities(
    graph: TimedSignalGraph,
    report: Optional[PerformanceReport] = None,
) -> List[ArcSensitivity]:
    """Sensitivity of the cycle time to every repetitive-core arc.

    Arcs on several critical cycles take the largest ``1/ε``.
    Returned sorted by decreasing sensitivity, then delay.
    """
    if report is None:
        report = analyze(graph)
    best: Dict[Tuple[Event, Event], Number] = {}
    for cycle in report.all_critical_cycles():
        weight = exact_div(1, cycle.occurrence_period)
        for arc in cycle.arcs(graph):
            key = arc.pair
            if key not in best or weight > best[key]:
                best[key] = weight
    rows = []
    for (source, target), slack in report.slacks.items():
        arc = graph.arc(source, target)
        rows.append(
            ArcSensitivity(
                source, target, arc.delay, best.get(arc.pair, Fraction(0))
            )
        )
    rows.sort(key=lambda row: (-float(row.sensitivity), -float(row.delay), str(row.source)))
    return rows


def _resolve_compiled(graph: TimedSignalGraph, cache: bool):
    """Compile ``graph`` through the content-addressed cache or directly."""
    if cache:
        from ..service.cache import shared_compiled_graph

        return shared_compiled_graph(graph)
    return compiled_graph(graph)


def what_if_delays(
    graph: TimedSignalGraph,
    arc: Tuple[Event, Event],
    values: Sequence[Number],
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    cache: bool = True,
) -> List[Tuple[float, float]]:
    """λ for each candidate delay of one arc, as ``(delay, λ)`` rows.

    All candidates sweep through the fused batch sweep as one
    ``(len(values), m)`` binding matrix — the "what if this gate were
    faster/slower" probe at one kernel invocation instead of
    ``len(values)`` re-analyses.  Results are float64; exact callers
    evaluate corners individually via
    :func:`~repro.core.compute_cycle_time`.
    """
    source, target = as_event(arc[0]), as_event(arc[1])
    if not graph.has_arc(source, target):
        raise GraphConstructionError(
            "no arc %s -> %s" % (event_label(source), event_label(target))
        )
    if not values:
        raise GraphConstructionError("need at least one candidate delay")
    validate_graph(graph)
    _resolve_compiled(graph, cache)
    arcs = graph.arcs
    nominal = np.asarray([float(row.delay) for row in arcs], dtype=np.float64)
    matrix = np.tile(nominal, (len(values), 1))
    column = next(
        index for index, row in enumerate(arcs) if row.pair == (source, target)
    )
    matrix[:, column] = [float(value) for value in values]
    sweep = run_border_simulations_batch(
        graph, matrix, batch_size=batch_size, workers=workers
    )
    lambdas = sweep.cycle_times()
    return [
        (float(value), float(lam)) for value, lam in zip(values, lambdas)
    ]


def empirical_sensitivities(
    graph: TimedSignalGraph,
    epsilon: float = 1e-6,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    cache: bool = True,
) -> List[ArcSensitivity]:
    """Finite-difference dλ/dδ for every repetitive-core arc.

    One batched sweep evaluates the nominal binding plus one
    ``+epsilon`` perturbation per core arc (``m+1`` rows total); the
    sensitivity of arc ``a`` is ``(λ_a − λ_nominal) / epsilon``.  For
    ``epsilon`` small enough not to switch the critical cycle this
    reproduces the analytic :func:`delay_sensitivities` ranking —
    the empirical cross-check, and the fallback when the analytic
    preconditions (exhaustive critical-cycle enumeration) are too
    expensive.  Returned sorted like :func:`delay_sensitivities`.
    """
    if epsilon <= 0:
        raise GraphConstructionError("epsilon must be positive")
    validate_graph(graph)
    _resolve_compiled(graph, cache)
    repetitive = graph.repetitive_events
    arcs = graph.arcs
    core = [
        (column, row)
        for column, row in enumerate(arcs)
        if row.source in repetitive and row.target in repetitive
    ]
    nominal = np.asarray([float(row.delay) for row in arcs], dtype=np.float64)
    matrix = np.tile(nominal, (len(core) + 1, 1))
    for sample, (column, _) in enumerate(core, start=1):
        matrix[sample, column] += epsilon
    sweep = run_border_simulations_batch(
        graph, matrix, batch_size=batch_size, workers=workers
    )
    lambdas = sweep.cycle_times()
    rows = [
        ArcSensitivity(
            row.source,
            row.target,
            row.delay,
            float((lambdas[sample] - lambdas[0]) / epsilon),
        )
        for sample, (_, row) in enumerate(core, start=1)
    ]
    rows.sort(
        key=lambda row: (-float(row.sensitivity), -float(row.delay), str(row.source))
    )
    return rows


@dataclass
class OptimizationStep:
    """One greedy improvement step."""

    arc: Tuple[Event, Event]
    old_delay: Number
    new_delay: Number
    cycle_time_before: Number
    cycle_time_after: Number


def optimize_bottlenecks(
    graph: TimedSignalGraph,
    steps: int,
    shave: Number = 1,
    floor: Number = 0,
) -> Tuple[TimedSignalGraph, List[OptimizationStep]]:
    """Greedy bottleneck shaving.

    Each step reduces the most sensitive positive-delay arc by
    ``shave`` (not below ``floor``) and re-analyses.  Returns the
    improved graph copy and the step log.  Stops early when no
    critical arc can be reduced further.
    """
    work = graph.copy(name=graph.name + "-optimized")
    log: List[OptimizationStep] = []
    # Validate and compile once: shaving only changes delays, so each
    # re-analysis rebinds the compiled structure and skips the checks,
    # and one cycle-time result per step feeds both the step log and
    # the sensitivity ranking.
    validate_graph(work)
    base = compiled_graph(graph)
    result = compute_cycle_time(work, check=False, keep_simulations=False)
    for _ in range(steps):
        before = result.cycle_time
        candidates = [
            row
            for row in delay_sensitivities(work, analyze(work, result))
            if row.sensitivity > 0 and row.delay > floor
        ]
        if not candidates:
            break
        chosen = candidates[0]
        new_delay = max(floor, chosen.delay - shave)
        work.set_delay(chosen.source, chosen.target, new_delay)
        rebind_compiled(work, base)
        result = compute_cycle_time(work, check=False, keep_simulations=False)
        log.append(
            OptimizationStep(
                arc=(chosen.source, chosen.target),
                old_delay=chosen.delay,
                new_delay=new_delay,
                cycle_time_before=before,
                cycle_time_after=result.cycle_time,
            )
        )
    return work, log
