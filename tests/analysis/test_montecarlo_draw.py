"""The one-call delay draw against the per-column reference.

:func:`repro.analysis.montecarlo.sample_delay_matrix` calls the sampler
once per sweep and returns the transposed view of an arc-major block;
``tests/reference_montecarlo.py`` keeps the per-arc loop it replaced.
The stream must not change: every value, every seed, every sampler
kind, bit for bit.  The batch kernel must then read the F-ordered view
in place and produce the tables it produces from a C-ordered copy.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import repro.analysis.montecarlo as montecarlo
from repro.analysis.montecarlo import (
    monte_carlo_cycle_time,
    normal_spread,
    sample_delay_matrix,
    uniform_spread,
)
from repro.circuits.library import async_stack_tsg, oscillator_tsg
from repro.core.kernel import (
    BatchBindings,
    compiled_graph,
    run_border_simulations_batch,
    shutdown_process_pool,
)
from repro.generators import ring_with_chords

from tests.reference_montecarlo import reference_delay_matrix


def _scalar(rng, nominal):
    return nominal * (1.0 + 0.1 * rng.standard_normal())


def _keywords(rng, nominal, **kwargs):
    loc = np.asarray(nominal, dtype=np.float64)
    return rng.uniform(0.8 * loc, 1.25 * loc, size=kwargs["size"])


SAMPLERS = {
    "uniform": uniform_spread(0.2),
    "normal": normal_spread(0.3),
    "scalar": _scalar,
    "kwargs": _keywords,
}

DELAYS = {
    "int": lambda delay: int(delay),
    "fraction": lambda delay: Fraction(int(delay), 3),
    "float": lambda delay: float(delay) * 1.1,
}


def _graph(shape: str, kind: str):
    """``prefix``: the oscillator, whose prefix arcs are not resampled;
    ``cyclic``: a chorded ring, every arc repetitive."""
    if shape == "prefix":
        graph = oscillator_tsg()
    else:
        graph = ring_with_chords(12, 3, chords=3, seed=1)
    for arc in graph.arcs:
        graph.set_delay(arc.source, arc.target, DELAYS[kind](arc.delay))
    return graph


def _repetitive_columns(graph):
    repetitive = graph.repetitive_events
    return [
        arc.source in repetitive and arc.target in repetitive
        for arc in graph.arcs
    ]


@pytest.mark.parametrize("samples", [1, 7, 300])
@pytest.mark.parametrize("kind", sorted(DELAYS))
@pytest.mark.parametrize("shape", ["prefix", "cyclic"])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_draw_bit_identical_to_per_column_reference(sampler, shape, kind,
                                                     samples):
    graph = _graph(shape, kind)
    columns = _repetitive_columns(graph)
    assert all(columns) == (shape == "cyclic")
    got = sample_delay_matrix(
        graph, SAMPLERS[sampler], samples, np.random.default_rng(2024)
    )
    want = reference_delay_matrix(
        graph, SAMPLERS[sampler], samples, np.random.default_rng(2024)
    )
    assert got.shape == want.shape == (samples, len(graph.arcs))
    assert np.array_equal(got, want)
    # the arc-major block, transposed
    assert got.flags.f_contiguous
    nominal = np.asarray([float(arc.delay) for arc in graph.arcs])
    for column, resampled in enumerate(columns):
        if not resampled:
            assert np.all(got[:, column] == nominal[column])


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("seed", [0, 5, 91])
@pytest.mark.parametrize("factory", [async_stack_tsg, oscillator_tsg],
                         ids=["stack", "oscillator"])
def test_monte_carlo_pinned_by_reference_draw(monkeypatch, factory, seed,
                                              track):
    sampler = uniform_spread(0.15)
    got = monte_carlo_cycle_time(
        factory(), sampler, samples=40, seed=seed, track_criticality=track
    )
    monkeypatch.setattr(montecarlo, "sample_delay_matrix",
                        reference_delay_matrix)
    want = monte_carlo_cycle_time(
        factory(), sampler, samples=40, seed=seed, track_criticality=track
    )
    assert np.array_equal(got.samples, want.samples)
    assert got.criticality == want.criticality


class TestLayoutKept:
    @pytest.fixture(autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_process_pool()

    def test_bindings_share_the_drawn_matrix(self, stack):
        matrix = sample_delay_matrix(
            stack, uniform_spread(0.1), 9, np.random.default_rng(1)
        )
        bindings = BatchBindings(compiled_graph(stack), matrix)
        assert np.shares_memory(bindings.matrix, matrix)
        c_ordered = np.ascontiguousarray(matrix)
        assert np.shares_memory(
            BatchBindings(compiled_graph(stack), c_ordered).matrix, c_ordered
        )

    def test_other_layouts_are_copied(self, stack):
        wide = sample_delay_matrix(
            stack, uniform_spread(0.1), 12, np.random.default_rng(1)
        )
        strided = wide[::2]
        assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
        bindings = BatchBindings(compiled_graph(stack), strided)
        assert bindings.matrix.flags.c_contiguous
        assert np.array_equal(bindings.matrix, strided)

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"batch_size": 7},
            {"batch_size": 8, "workers": 2},
            {"workers": 2, "executor": "process"},
        ],
        ids=["one-chunk", "chunks", "threads", "process"],
    )
    def test_f_ordered_tables_equal_c_ordered(self, stack, options):
        matrix = sample_delay_matrix(
            stack, normal_spread(0.1), 23, np.random.default_rng(8)
        )
        assert matrix.flags.f_contiguous
        got = run_border_simulations_batch(stack, matrix, **options)
        want = run_border_simulations_batch(
            stack, np.ascontiguousarray(matrix), **options
        )
        for event, table in want.initiator_times.items():
            assert np.array_equal(got.initiator_times[event], table)
        assert np.array_equal(got.cycle_times(), want.cycle_times())
