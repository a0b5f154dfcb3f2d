"""One equivalence matrix over every simulation-kernel tier.

Each tier is one :data:`TIERS` entry, checked against its reference on
random live graphs:

* **exact** tiers run int/Fraction arithmetic and must equal the
  legacy dict loops (``kernel="legacy"``, the executable
  specification) bit for bit — global and initiated simulation times,
  critical paths, initiator times, λ and its type, δ records and
  critical cycles;
* **float** tiers run float64 and must equal the per-sample float
  reference (``rebind_compiled`` + one interpreted float
  ``compute_cycle_time`` per binding, the path
  ``monte_carlo_cycle_time(method="persample")`` runs) bit for bit on
  every binding — initiator tables, δ records, λ and critical cycles
  (events, length, tokens and their order) — on random delays and on
  integer-valued ones, where ties and several winning borders are the
  rule, and match the exact oracle at the graph's own delays to a
  relative 1e-12.  The fused tiers recover their cycles through both
  ``sample_result(i)`` and one all-samples ``critical_cycles()`` call.

IEEE float64 addition and maximum give the same bits however the
bindings, origins and arcs are laid out, so "close" is never enough.
Removing a tier from the code is one line here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import (
    EventInitiatedSimulation,
    TimingSimulation,
    compiled_graph,
    compute_cycle_time,
    rebind_compiled,
    run_border_simulations_batch,
)
from repro.core.kernel import CODEGEN_THRESHOLD, NEG_INF

from tests.strategies import live_tsgs

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

PERIODS = 3
SAMPLES = 5


def floatified(graph):
    """A copy with the same structure but strictly float delays."""
    clone = graph.copy(name=graph.name + "-float")
    for arc in graph.arcs:
        clone.set_delay(arc.source, arc.target, float(arc.delay) * 1.25)
    return clone


def random_matrix(graph, samples, seed):
    """(S, m) random positive delays around each arc's nominal value."""
    rng = np.random.default_rng(seed)
    nominal = np.asarray([float(arc.delay) for arc in graph.arcs])
    return nominal * rng.uniform(0.5, 1.5, size=(samples, len(nominal)))


def integer_matrix(graph, samples, seed):
    """(S, m) integer-valued float delays in 1..3: ties everywhere."""
    rng = np.random.default_rng(seed)
    return rng.integers(1, 4, size=(samples, graph.num_arcs)).astype(
        np.float64
    )


MATRICES = {"random": random_matrix, "integer": integer_matrix}


def bound_copy(graph, row):
    """A copy of ``graph`` carrying one binding's delays."""
    trial = graph.copy()
    for arc, value in zip(graph.arcs, row):
        trial.set_delay(arc.source, arc.target, float(value))
    return trial


def per_sample(graph, matrix, index, **kwargs):
    """The float reference: rebind one binding, run the float kernel."""
    trial = bound_copy(graph, matrix[index])
    rebind_compiled(trial, compiled_graph(graph))
    return compute_cycle_time(
        trial, check=False, kernel="float", keep_simulations=False, **kwargs
    )


@dataclass
class Outcome:
    """What a float tier reports for one binding."""

    tables: dict
    records: list
    cycle_time: float
    cycles: list


def cycle_rows(cycles):
    """Whole critical cycles, in the order they were found."""
    return [(cycle.events, cycle.length, cycle.tokens) for cycle in cycles]


def outcome_of(result, border) -> Outcome:
    """A per-sample :class:`CycleTimeResult` in :class:`Outcome` form."""
    tables = {
        event: np.full(result.periods, NEG_INF) for event in border
    }
    for record in result.distances:
        tables[record.border_event][record.period - 1] = record.time
    return Outcome(
        tables=tables,
        records=[
            (rec.border_event, rec.period, rec.time, rec.distance)
            for rec in result.distances
        ],
        cycle_time=float(result.cycle_time),
        cycles=cycle_rows(result.critical_cycles),
    )


# ----------------------------------------------------------------------
# the tiers
# ----------------------------------------------------------------------
def _scalar_float(graph, matrix, warm: bool):
    outcomes = []
    for row in matrix:
        trial = bound_copy(graph, row)
        cg = compiled_graph(trial)
        if warm:
            for _ in range(CODEGEN_THRESHOLD + 1):
                compute_cycle_time(trial, check=False, kernel="float",
                                   backtrack=False)
            assert cg._float_fns is not None
        else:
            cg._allow_codegen = False
        result = compute_cycle_time(trial, check=False, kernel="float")
        outcomes.append(outcome_of(result, trial.border_events))
    return outcomes


def _fused(graph, matrix, **kwargs):
    sweep = run_border_simulations_batch(graph, matrix, **kwargs)
    lambdas = sweep.cycle_times()
    together = sweep.critical_cycles()
    outcomes = []
    for index in range(sweep.samples):
        alone = sweep.sample_result(index)
        assert alone.cycle_time == lambdas[index]
        assert cycle_rows(alone.critical_cycles) == cycle_rows(
            together[index]
        )
        outcomes.append(
            Outcome(
                tables={
                    event: sweep.initiator_times[event][index]
                    for event in sweep.border
                },
                records=[
                    (rec.border_event, rec.period, rec.time, rec.distance)
                    for rec in sweep.sample_records(index)
                ],
                cycle_time=float(lambdas[index]),
                cycles=cycle_rows(together[index]),
            )
        )
    return outcomes


@dataclass(frozen=True)
class Tier:
    name: str
    #: exact tiers: the ``kernel=`` selector run against ``legacy``
    kernel: Optional[str] = None
    #: float tiers: ``(graph, (S, m) matrix) -> [Outcome] per binding``
    sweep: Optional[Callable] = None


TIERS = [
    Tier("exact", kernel="exact"),
    Tier("auto-exact", kernel="auto"),
    Tier("float", sweep=lambda g, m: _scalar_float(g, m, warm=False)),
    Tier("float-codegen", sweep=lambda g, m: _scalar_float(g, m, warm=True)),
    Tier("fused", sweep=_fused),
    Tier("fused-chunked",
         sweep=lambda g, m: _fused(g, m, batch_size=2, workers=3)),
]

EXACT_TIERS = [tier for tier in TIERS if tier.kernel is not None]
FLOAT_TIERS = [tier for tier in TIERS if tier.sweep is not None]


def _ids(tiers):
    return [tier.name for tier in tiers]


# ----------------------------------------------------------------------
# exact tiers == legacy, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", EXACT_TIERS, ids=_ids(EXACT_TIERS))
@COMMON
@given(graph=live_tsgs())
def test_exact_tier_matches_legacy(tier, graph):
    legacy = TimingSimulation(graph, PERIODS, kernel="legacy")
    fast = TimingSimulation(graph, PERIODS, kernel=tier.kernel)
    assert legacy.times == fast.times
    for event in graph.events:
        assert legacy.critical_path(event, 0) == fast.critical_path(event, 0)

    for initiator in graph.border_events:
        legacy = EventInitiatedSimulation(graph, initiator, PERIODS,
                                          kernel="legacy")
        fast = EventInitiatedSimulation(graph, initiator, PERIODS,
                                        kernel=tier.kernel)
        assert legacy.times == fast.times
        assert legacy.initiator_times() == fast.initiator_times()
        for index, _ in legacy.initiator_times():
            assert legacy.critical_path(initiator, index) == (
                fast.critical_path(initiator, index)
            )

    legacy = compute_cycle_time(graph, kernel="legacy")
    fast = compute_cycle_time(graph, kernel=tier.kernel)
    assert legacy.cycle_time == fast.cycle_time
    assert type(legacy.cycle_time) is type(fast.cycle_time)
    assert sorted(cycle.events for cycle in legacy.critical_cycles) == sorted(
        cycle.events for cycle in fast.critical_cycles
    )
    assert [
        (rec.border_event, rec.period, rec.time) for rec in legacy.distances
    ] == [(rec.border_event, rec.period, rec.time) for rec in fast.distances]


# ----------------------------------------------------------------------
# float tiers == the per-sample float reference, bit for bit
# ----------------------------------------------------------------------
def assert_same_outcome(got: Outcome, want: Outcome) -> None:
    assert got.tables.keys() == want.tables.keys()
    for event, table in want.tables.items():
        assert np.array_equal(got.tables[event], table)
    assert got.records == want.records
    assert got.cycle_time == want.cycle_time
    assert got.cycles == want.cycles


@pytest.mark.parametrize(
    "tier, delays",
    [
        pytest.param(tier, delays, id=tier.name + suffix)
        for tier in FLOAT_TIERS
        for delays, suffix in (("random", ""), ("integer", "-integer"))
    ],
)
@COMMON
@given(graph=live_tsgs())
def test_float_tier_matches_per_sample_reference(tier, delays, graph):
    clone = floatified(graph)
    matrix = MATRICES[delays](clone, SAMPLES, seed=0)
    outcomes = tier.sweep(clone, matrix)
    assert len(outcomes) == SAMPLES
    for index, got in enumerate(outcomes):
        want = outcome_of(per_sample(clone, matrix, index),
                          clone.border_events)
        assert_same_outcome(got, want)


@pytest.mark.parametrize("tier", FLOAT_TIERS, ids=_ids(FLOAT_TIERS))
@COMMON
@given(graph=live_tsgs())
def test_float_tier_matches_exact_oracle(tier, graph):
    # float64 at the graph's own int/Fraction delays reproduces the
    # exact λ up to float conversion
    matrix = np.asarray(
        [[float(arc.delay) for arc in graph.arcs]], dtype=np.float64
    )
    (got,) = tier.sweep(graph, matrix)
    exact = compute_cycle_time(graph, check=False, kernel="exact")
    assert got.cycle_time == pytest.approx(float(exact.cycle_time), rel=1e-12)
