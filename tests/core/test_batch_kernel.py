"""Property-based cross-validation of the batched float64 sweep.

The per-sample path — ``rebind_compiled`` + one float-kernel
``compute_cycle_time`` per binding — is the executable specification;
the batched sweep advances all S bindings in lockstep through the same
compiled arc programs and must agree **bit for bit**: IEEE float64
addition and maximum produce identical bits regardless of how the
bindings are laid out, so every λ, every collected δ measurement and
every backtracked critical cycle must be exactly equal, not merely
close (the cycles are checked in ``tests/core/test_kernel_equivalence.py``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import (
    BatchBindings,
    EventInitiatedSimulation,
    SignalGraphError,
    TimedSignalGraph,
    compiled_graph,
    compute_cycle_time,
    rebind_compiled,
    run_border_simulations_batch,
)
from repro.core.cycles import make_cycle
from repro.generators import ring_with_chords

from tests.strategies import live_tsgs

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

SAMPLES = 5


def _floatified(graph):
    """A copy with the same structure but strictly float delays."""
    clone = graph.copy(name=graph.name + "-float")
    for arc in graph.arcs:
        clone.set_delay(arc.source, arc.target, float(arc.delay) * 1.25)
    return clone


def _random_matrix(graph, samples, seed):
    """(S, m) random positive delays around each arc's nominal value."""
    rng = np.random.default_rng(seed)
    nominal = np.asarray([float(arc.delay) for arc in graph.arcs])
    return nominal * rng.uniform(0.5, 1.5, size=(samples, len(nominal)))


def _per_sample(graph, matrix, index, **kwargs):
    """The reference path: rebind one binding, run the float kernel."""
    base = compiled_graph(graph)
    trial = graph.copy()
    for arc, value in zip(graph.arcs, matrix[index]):
        trial.set_delay(arc.source, arc.target, float(value))
    rebind_compiled(trial, base)
    return compute_cycle_time(
        trial, check=False, kernel="float", keep_simulations=False, **kwargs
    )


@COMMON
@given(graph=live_tsgs())
def test_batch_lambda_bit_identical_to_per_sample(graph):
    clone = _floatified(graph)
    matrix = _random_matrix(clone, SAMPLES, seed=0)
    lambdas = run_border_simulations_batch(clone, matrix).cycle_times()
    for index in range(SAMPLES):
        reference = _per_sample(clone, matrix, index, backtrack=False)
        assert lambdas[index] == float(reference.cycle_time)


@COMMON
@given(graph=live_tsgs())
def test_batch_distance_tables_bit_identical(graph):
    clone = _floatified(graph)
    matrix = _random_matrix(clone, SAMPLES, seed=1)
    sweep = run_border_simulations_batch(clone, matrix)
    for index in range(SAMPLES):
        reference = _per_sample(clone, matrix, index, backtrack=False)
        batched = [
            (rec.border_event, rec.period, rec.time, rec.distance)
            for rec in sweep.sample_records(index)
        ]
        expected = [
            (rec.border_event, rec.period, rec.time, rec.distance)
            for rec in reference.distances
        ]
        assert batched == expected


@COMMON
@given(graph=live_tsgs())
def test_chunked_and_threaded_sweeps_identical(graph):
    clone = _floatified(graph)
    matrix = _random_matrix(clone, SAMPLES, seed=3)
    whole = run_border_simulations_batch(clone, matrix)
    chunked = run_border_simulations_batch(
        clone, matrix, batch_size=2, workers=3
    )
    assert np.array_equal(whole.cycle_times(), chunked.cycle_times())
    for border in whole.border:
        assert np.array_equal(
            whole.initiator_times[border], chunked.initiator_times[border]
        )


def test_batch_bindings_validation():
    graph = _floatified(ring_with_chords(stages=8, tokens=2, chords=2, seed=0))
    base = compiled_graph(graph)
    with pytest.raises(SignalGraphError):
        BatchBindings(base, np.ones((3, graph.num_arcs + 1)))
    with pytest.raises(SignalGraphError):
        BatchBindings(base, np.ones(graph.num_arcs))
    with pytest.raises(SignalGraphError):
        BatchBindings(base, np.empty((0, graph.num_arcs)))


def test_nominal_bindings_reproduce_single_analysis():
    graph = _floatified(ring_with_chords(stages=12, tokens=3, chords=4, seed=4))
    bindings = BatchBindings.nominal(compiled_graph(graph), samples=3)
    lambdas = run_border_simulations_batch(graph, bindings).cycle_times()
    reference = compute_cycle_time(graph, kernel="float")
    assert np.all(lambdas == float(reference.cycle_time))


def test_backtrack_flag_skips_critical_cycles():
    graph = _floatified(ring_with_chords(stages=10, tokens=2, chords=3, seed=6))
    fast = compute_cycle_time(graph, kernel="float", backtrack=False)
    full = compute_cycle_time(graph, kernel="float")
    assert fast.critical_cycles == []
    assert fast.cycle_time == full.cycle_time
    assert fast.distances and fast.distances == full.distances


def test_subset_views_share_the_matrix():
    graph = _floatified(ring_with_chords(stages=8, tokens=2, chords=2, seed=7))
    bindings = BatchBindings.nominal(compiled_graph(graph), samples=6)
    view = bindings.subset(2, 5)
    assert view.samples == 3
    assert view.matrix.base is bindings.matrix or (
        view.matrix.base is not None
        and view.matrix.base is bindings.matrix.base
    )


def test_walk_stops_at_its_origin():
    # a's one period-0 in-arc comes from p, which precedes it in the
    # period; the walk back from (a, 2) must stop at (a, 0), as the
    # per-sample critical path does, not run on into the undefined
    # (p, 0) and pop the loop [p, a, b] instead of the critical one.
    graph = TimedSignalGraph("origin-with-predecessor")
    graph.add_arc("a", "b", 1.0)
    graph.add_arc("b", "p", 1.0, marked=True)
    graph.add_arc("p", "a", 1.0)
    graph.add_arc("p", "d", 5.0)
    graph.add_arc("d", "a", 5.0, marked=True)
    simulation = EventInitiatedSimulation(graph, "a", 2, kernel="float")
    assert simulation.critical_path("a", 2)[0] == ("a", 0)
    matrix = [[float(arc.delay) for arc in graph.arcs]]
    sweep = run_border_simulations_batch(
        graph, matrix, border=["a"], periods=2
    )
    (cycles,) = sweep.critical_cycles()
    assert cycles == [make_cycle(graph, ["a", "b", "p", "d"])]
