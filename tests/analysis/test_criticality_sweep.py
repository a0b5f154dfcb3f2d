"""Monte-Carlo criticality through the batched backtracker.

``monte_carlo_cycle_time(track_criticality=True)`` backtracks every
sample with one :meth:`BatchSweepResult.critical_cycles` call: a
re-sweep of the samples that records their slot times, chunked to
:data:`repro.core.kernel.RECORD_BUDGET` bytes.  Criticality and λ must
not depend on how the λ pass was split or executed, nor on how many
record chunks the backtracker needed, and must equal the per-sample
reference.  Its memory must not grow with the number of samples, and a
λ-only sweep must record nothing.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.core.kernel as kernel_mod
from repro.analysis.montecarlo import monte_carlo_cycle_time, uniform_spread
from repro.core.kernel import run_border_simulations_batch, shutdown_process_pool
from repro.generators import ring_with_chords


@pytest.fixture(autouse=True)
def _pool_teardown():
    yield
    shutdown_process_pool()


@pytest.fixture(scope="module")
def chorded():
    return ring_with_chords(60, 4, chords=15, seed=9)


def _sweep(graph, **options):
    return monte_carlo_cycle_time(
        graph, uniform_spread(0.2), 30, seed=3, track_criticality=True,
        **options,
    )


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"batch_size": 7},
        {"workers": 2},
        {"batch_size": 8, "workers": 2},
        {"workers": 2, "executor": "process"},
    ],
    ids=["one-chunk", "batch-7", "threads", "chunked-threads", "process"],
)
def test_criticality_independent_of_how_lambda_ran(chorded, options):
    reference = _sweep(chorded, method="persample")
    got = _sweep(chorded, **options)
    assert np.array_equal(got.samples, reference.samples)
    assert got.criticality == reference.criticality
    assert any(value > 0 for value in got.criticality.values())


def test_criticality_spanning_several_record_chunks(chorded, monkeypatch):
    # a budget of two samples' records: 30 samples take 15 re-sweeps
    graph_bytes = (len(chorded.border_events) + 1) * chorded.num_events
    graph_bytes *= len(chorded.border_events) * 8
    monkeypatch.setattr(kernel_mod, "RECORD_BUDGET", 2 * graph_bytes)
    calls = []
    real = kernel_mod.run_border_sweep_fused

    def spy(bindings, *args, **kwargs):
        if kwargs.get("record") is not None:
            calls.append(bindings.samples)
        return real(bindings, *args, **kwargs)

    monkeypatch.setattr(kernel_mod, "run_border_sweep_fused", spy)
    got = _sweep(chorded)
    assert calls == [2] * 15
    reference = _sweep(chorded, method="persample")
    assert np.array_equal(got.samples, reference.samples)
    assert got.criticality == reference.criticality


def test_requested_samples_in_any_order(chorded):
    matrix = np.random.default_rng(4).integers(
        1, 4, size=(9, chorded.num_arcs)
    ).astype(np.float64)
    sweep = run_border_simulations_batch(chorded, matrix)
    every = sweep.critical_cycles()
    wanted = [7, 2, 2, 0, 8]
    picked = sweep.critical_cycles(wanted)
    assert picked == [every[index] for index in wanted]
    assert sweep.critical_cycles([]) == []


def test_lambda_only_sweep_records_nothing(chorded, monkeypatch):
    records = []
    real = kernel_mod.run_border_sweep_fused

    def spy(*args, **kwargs):
        records.append(kwargs.get("record"))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel_mod, "run_border_sweep_fused", spy)
    result = monte_carlo_cycle_time(
        chorded, uniform_spread(0.2), 30, seed=3, track_criticality=False
    )
    assert result.criticality == {}
    assert records and all(record is None for record in records)


def _peak_bytes(graph, samples, track):
    """tracemalloc peak of one sweep, from a cold fused scratch."""
    kernel_mod._FUSED_SCRATCH.arrays = None
    tracemalloc.start()
    try:
        monte_carlo_cycle_time(
            graph, uniform_spread(0.1), samples, seed=2,
            track_criticality=track,
        )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        kernel_mod._FUSED_SCRATCH.arrays = None


def test_criticality_memory_is_bounded_by_the_record_budget():
    graph = ring_with_chords(800, 8, chords=80, seed=3)
    budget = kernel_mod.RECORD_BUDGET
    excess = {}
    for samples in (600, 2000):
        lam = _peak_bytes(graph, samples, track=False)
        crit = _peak_bytes(graph, samples, track=True)
        excess[samples] = crit - lam
    assert all(value < 2 * budget for value in excess.values()), excess
    assert abs(excess[2000] - excess[600]) < budget // 4, excess
