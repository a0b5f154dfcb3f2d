"""Cross-validation of the fused period-program kernel.

The fused whole-period programs run the same IEEE float64 additions
and maximums as the per-sample float kernel, in a different layout, so
their initiator-time tables, λ values and backtracked critical cycles
must agree **bit for bit** with it.  These tests pin that invariant
across random topologies, degenerate shapes (b=1, S=1, single-level
graphs), every unroll span the fused planner can choose, and the plan
caching that rides along the compile cache's adopt/rebound paths.
Whole backtracked cycles are checked in the equivalence matrix
(``tests/core/test_kernel_equivalence.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.circuits.library import (
    async_stack_tsg,
    linear_pipeline_tsg,
    muller_ring_tsg,
    oscillator_tsg,
)
from repro.core import (
    compiled_graph,
    compute_cycle_time,
    rebind_compiled,
    run_border_simulations_batch,
)
from repro.core.errors import SignalGraphError
from repro.core.kernel import (
    NEG_INF,
    BatchBindings,
    CompiledGraph,
    _batch_structure_of,
    _FusedLevel,
    _FusedProgram,
    run_border_sweep_fused,
)
from repro.core.signal_graph import TimedSignalGraph
from repro.generators import ring_with_chords

from tests.strategies import live_tsgs

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

SAMPLES = 5


def _floatified(graph):
    clone = graph.copy(name=graph.name + "-float")
    for arc in graph.arcs:
        clone.set_delay(arc.source, arc.target, float(arc.delay) * 1.25)
    return clone


def _random_matrix(graph, samples, seed):
    rng = np.random.default_rng(seed)
    nominal = np.asarray([float(arc.delay) for arc in graph.arcs])
    return nominal * rng.uniform(0.5, 1.5, size=(samples, len(nominal)))


def _per_sample(graph, matrix, index, **kwargs):
    base = compiled_graph(graph)
    trial = graph.copy()
    for arc, value in zip(graph.arcs, matrix[index]):
        trial.set_delay(arc.source, arc.target, float(value))
    rebind_compiled(trial, base)
    return compute_cycle_time(
        trial, check=False, kernel="float", keep_simulations=False, **kwargs
    )


def _tables(graph, matrix, **kwargs):
    sweep = run_border_simulations_batch(graph, matrix, **kwargs)
    return sweep, {
        event: table for event, table in sweep.initiator_times.items()
    }


def _reference_tables(graph, matrix):
    """Per-border ``(S, b)`` initiator tables of the per-sample path."""
    border = graph.border_events
    tables = {
        event: np.full((len(matrix), len(border)), NEG_INF)
        for event in border
    }
    for index in range(len(matrix)):
        reference = _per_sample(graph, matrix, index, backtrack=False)
        for record in reference.distances:
            tables[record.border_event][index, record.period - 1] = record.time
    return tables


# ----------------------------------------------------------------------
# property-based cross-validation
# ----------------------------------------------------------------------
@COMMON
@given(graph=live_tsgs())
def test_fused_lambda_bit_identical_to_per_sample(graph):
    clone = _floatified(graph)
    matrix = _random_matrix(clone, SAMPLES, seed=1)
    lambdas = run_border_simulations_batch(clone, matrix).cycle_times()
    for index in range(SAMPLES):
        reference = _per_sample(clone, matrix, index, backtrack=False)
        assert lambdas[index] == float(reference.cycle_time)


@COMMON
@given(graph=live_tsgs())
def test_fused_agrees_with_exact_oracle(graph):
    # The float64 fused sweep at the graph's own (int/Fraction) delays
    # must reproduce the exact kernel's λ up to float conversion.
    matrix = np.asarray(
        [[float(arc.delay) for arc in graph.arcs]], dtype=np.float64
    )
    fused = run_border_simulations_batch(graph, matrix).cycle_times()
    exact = compute_cycle_time(graph, check=False, kernel="exact")
    assert fused[0] == pytest.approx(float(exact.cycle_time), rel=1e-12)


# ----------------------------------------------------------------------
# odd shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "factory",
    [
        oscillator_tsg,                              # b=2, tiny
        lambda: linear_pipeline_tsg(stages=7),       # b=1 (deep unroll)
        lambda: linear_pipeline_tsg(stages=2),       # b=1, minimal levels
        lambda: muller_ring_tsg(stages=5),           # odd ring
        async_stack_tsg,                             # b=22, wide border
    ],
    ids=["oscillator", "pipeline7", "pipeline2", "muller5", "stack"],
)
def test_odd_shapes_bit_identical(factory):
    graph = _floatified(factory())
    for samples in (1, 3):  # S=1 exercises the degenerate sample axis
        matrix = _random_matrix(graph, samples, seed=samples)
        _, fused = _tables(graph, matrix)
        reference = _reference_tables(graph, matrix)
        assert fused.keys() == reference.keys()
        for event, table in reference.items():
            assert np.array_equal(table, fused[event])


@pytest.mark.parametrize("unroll", [1, 2, 3, 4])
def test_forced_unroll_spans_bit_identical(unroll):
    # Forcing every span covers both the empty tail (periods-1 a
    # multiple of the span) and partial tails.
    graph = _floatified(ring_with_chords(stages=24, tokens=4, chords=6,
                                         seed=9))
    matrix = _random_matrix(graph, 4, seed=unroll)
    _, fused = _tables(graph, matrix, unroll=unroll)
    for event, table in _reference_tables(graph, matrix).items():
        assert np.array_equal(table, fused[event])


def test_single_period_sweep():
    # periods == 1 leaves no room for any steady span: p0 + p1 only.
    graph = _floatified(linear_pipeline_tsg(stages=4))
    assert len(graph.border_events) == 1  # so the reference runs 1 period
    matrix = _random_matrix(graph, 3, seed=5)
    cg = compiled_graph(graph)
    origins = [cg.id_of[event] for event in graph.border_events]
    fused = run_border_sweep_fused(BatchBindings(cg, matrix), origins, 1)
    reference = _reference_tables(graph, matrix)
    for event, table in zip(graph.border_events, fused):
        assert np.array_equal(table, reference[event])


@pytest.mark.parametrize("bad", [-1, 12])
@pytest.mark.parametrize("field", ["offsets", "targets", "empty"])
def test_out_of_range_index_rejected_when_program_built(field, bad):
    # The level gathers run unbuffered with mode="clip", which clamps;
    # a bad index must fail at build time, not read a wrong slot.
    indices = {"offsets": [0, 3], "targets": [4], "empty": [5]}
    indices[field] = indices[field][:-1] + [bad]
    level = _FusedLevel(
        targets=np.asarray(indices["targets"], dtype=np.intp),
        offsets=np.asarray(indices["offsets"], dtype=np.intp),
        empty=np.asarray(indices["empty"], dtype=np.intp),
        nrows=1,
        steps=((1, 1, 2),),
        dlo=0,
    )
    with pytest.raises(SignalGraphError, match="outside its 12-slot ring"):
        _FusedProgram([level], np.zeros(2, dtype=np.intp), 1, 2, 12)


def test_built_plans_index_inside_their_ring():
    graph = _floatified(ring_with_chords(stages=20, tokens=4, chords=5,
                                         seed=9))
    structure = _batch_structure_of(compiled_graph(graph))
    for span in (1, 2, 3):
        plan = structure.fused_plan(span)
        size = plan.frames * plan.n
        programs = [plan.p0, plan.p1, *plan.steady, *plan.tail]
        for program in programs:
            for level in program.levels:
                for indices in (level.offsets, level.targets, level.empty):
                    if indices is not None and indices.size:
                        assert 0 <= indices.min() and indices.max() < size


# ----------------------------------------------------------------------
# plan caching across adopt / rebound
# ----------------------------------------------------------------------
def test_adopt_carries_fused_plans_as_donor():
    graph = _floatified(ring_with_chords(stages=16, tokens=3, chords=4,
                                         seed=2))
    cg = compiled_graph(graph)
    matrix = _random_matrix(graph, 3, seed=0)
    run_border_simulations_batch(graph, matrix)
    structure = _batch_structure_of(cg)
    assert structure._fused_plans  # warmed by the sweep

    twin = graph.copy()
    adopted = CompiledGraph.adopt(cg, twin)
    # O(1) adoption defers validation: the donor rides along and the
    # twin's first batch use resolves to the very same structure.
    assert adopted._batch_structure is None
    assert _batch_structure_of(adopted) is structure

    sweep = run_border_simulations_batch(twin, matrix).cycle_times()
    original = run_border_simulations_batch(graph, matrix).cycle_times()
    assert np.array_equal(sweep, original)


def test_rebound_carries_fused_plans_as_donor():
    graph = _floatified(ring_with_chords(stages=16, tokens=3, chords=4,
                                         seed=3))
    cg = compiled_graph(graph)
    run_border_simulations_batch(graph, _random_matrix(graph, 2, seed=1))
    structure = _batch_structure_of(cg)

    trial = graph.copy()
    for arc in graph.arcs:
        trial.set_delay(arc.source, arc.target, float(arc.delay) * 1.5)
    rebound = rebind_compiled(trial, cg)
    assert _batch_structure_of(rebound) is structure


def test_donor_dropped_when_arc_order_differs():
    graph = _floatified(ring_with_chords(stages=10, tokens=2, chords=3,
                                         seed=4))
    cg = compiled_graph(graph)
    run_border_simulations_batch(graph, _random_matrix(graph, 2, seed=2))
    donor = _batch_structure_of(cg)

    # Same content, different arc insertion order: the donor's column
    # layout no longer matches and must be rebuilt, not reused.
    reordered = TimedSignalGraph(name=graph.name + "-reordered")
    for event in graph.events:
        reordered.add_event(event)
    for arc in reversed(list(graph.arcs)):
        reordered.add_arc(arc.source, arc.target, arc.delay,
                          marked=arc.marked,
                          disengageable=arc.disengageable)
    assert [a.pair for a in reordered.arcs] != [a.pair for a in graph.arcs]
    adopted = CompiledGraph.adopt(cg, reordered)
    fresh = _batch_structure_of(adopted)
    assert fresh is not donor

    matrix = _random_matrix(reordered, 3, seed=5)
    got = run_border_simulations_batch(reordered, matrix).cycle_times()
    for index in range(3):
        reference = _per_sample(reordered, matrix, index, backtrack=False)
        assert got[index] == float(reference.cycle_time)


def test_pickle_roundtrip_drops_donor_and_still_sweeps():
    import pickle

    graph = _floatified(ring_with_chords(stages=10, tokens=2, chords=2,
                                         seed=6))
    cg = compiled_graph(graph)
    matrix = _random_matrix(graph, 3, seed=7)
    want = run_border_simulations_batch(graph, matrix).cycle_times()
    clone = pickle.loads(pickle.dumps(cg))
    assert clone._batch_donor is None
    origins = [clone.id_of[event] for event in graph.border_events]
    fused = run_border_sweep_fused(
        BatchBindings(clone, matrix), origins, len(origins)
    )
    reference = run_border_simulations_batch(graph, matrix)
    for event, table in zip(graph.border_events, fused):
        assert np.array_equal(table, reference.initiator_times[event])
    assert np.array_equal(want, reference.cycle_times())
