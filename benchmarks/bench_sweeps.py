"""Fused delay-sweep throughput vs the per-sample rebind loop.

The fused sweep (:func:`repro.core.run_border_simulations_batch`)
advances S delay bindings in lockstep through whole-period index
programs over a slot-major buffer, so a Monte-Carlo run pays the
Python interpreter once per period instead of once per sample.  These
benchmarks measure Monte-Carlo samples/sec for both paths across graph
sizes and batch widths, and assert the headline recorded in
``BENCH_montecarlo.json`` (see ``scripts/bench_to_json.py --suite
montecarlo``): the fused sweep is at least
:data:`HEADLINE_MIN_SPEEDUP` times the per-sample loop at S=1000 on
the 200-stage scaling graph — with bit-identical λ samples, since IEEE
float64 addition and maximum do not care how the bindings are laid
out.

Run ``python benchmarks/bench_sweeps.py --quick`` for the CI perf
smoke: the same headline check, no pytest-benchmark machinery, plus a
small criticality sweep checked equal to ``method="persample"`` (no
timing gate; ``bench_to_json --suite montecarlo`` gates its cost).
"""

import time

import numpy as np
import pytest

from repro.analysis import monte_carlo_cycle_time, uniform_spread
from repro.generators import ring_with_chords

try:
    from conftest import emit
except ImportError:  # invoked as a script (--quick), not under pytest
    def emit(title, body):
        print("\n%s\n%s" % (title, body))

SIZES = [50, 100, 200]
BATCHES = [100, 1000]

#: The acceptance target: the 200-stage scaling-suite graph, S=1000.
HEADLINE = dict(stages=200, tokens=4, chords=50, seed=7)
HEADLINE_SAMPLES = 1000
#: Fused over per-sample at the headline shape.  77 = the former bar
#: (fused >= 1.0x the per-level batch kernel) times the batch kernel's
#: measured 77.55x over the per-sample loop at this shape, so it fails
#: wherever the former bar did.
HEADLINE_MIN_SPEEDUP = 77.0

WARMUP = 2
SPREAD = uniform_spread(0.1)


def _graph(stages):
    return ring_with_chords(stages=stages, tokens=4, chords=stages // 4, seed=7)


def _best_of(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run(graph, samples, method):
    return monte_carlo_cycle_time(
        graph, SPREAD, samples=samples, seed=0,
        track_criticality=False, method=method,
    )


@pytest.mark.parametrize("samples", BATCHES)
@pytest.mark.parametrize("stages", SIZES)
def test_fused_sweep_speed(benchmark, stages, samples):
    graph = _graph(stages)
    for _ in range(WARMUP):
        _run(graph, samples, "batch")
    result = benchmark(_run, graph, samples, "batch")
    assert result.count == samples
    emit(
        "fused Monte-Carlo, n=%d, S=%d" % (stages, samples),
        "%.0f samples/sec" % (samples / benchmark.stats.stats.mean),
    )


@pytest.mark.parametrize("stages", SIZES)
def test_persample_reference_speed(benchmark, stages):
    graph = _graph(stages)
    samples = 100  # the slow path; keep the suite's runtime bounded
    for _ in range(WARMUP):
        _run(graph, samples, "persample")
    result = benchmark(_run, graph, samples, "persample")
    assert result.count == samples
    emit(
        "per-sample Monte-Carlo, n=%d, S=%d" % (stages, samples),
        "%.0f samples/sec" % (samples / benchmark.stats.stats.mean),
    )


def test_fused_headline_vs_persample():
    """The acceptance bar: the fused sweep >= HEADLINE_MIN_SPEEDUP times
    the per-sample rebind loop at S=1000 on the 200-stage graph,
    bit-identically (the n=800 kernel-only bar is asserted by
    ``bench_to_json --suite montecarlo``)."""
    speedup, fused_rate, loop_rate = _fused_vs_persample(
        HEADLINE, HEADLINE_SAMPLES
    )
    emit(
        "fused vs per-sample Monte-Carlo (n=200, S=1000)",
        "per-sample %.0f samples/sec, fused %.0f samples/sec -> %.1fx"
        % (loop_rate, fused_rate, speedup),
    )
    assert speedup >= HEADLINE_MIN_SPEEDUP, (
        "fused sweep only %.1fx the per-sample loop" % speedup
    )


def _fused_vs_persample(graph_kwargs, samples, reps=3):
    """(fused/per-sample speedup, fused rate, per-sample rate),
    bit-identity asserted.  The per-sample loop runs once and doubles
    as the identity reference."""
    graph = ring_with_chords(**graph_kwargs)
    for _ in range(WARMUP):
        _run(graph, samples, "batch")
    fused_s = _best_of(lambda: _run(graph, samples, "batch"), reps)
    started = time.perf_counter()
    reference = _run(graph, samples, "persample")
    loop_s = time.perf_counter() - started
    fused = _run(graph, samples, "batch")
    assert np.array_equal(fused.samples, reference.samples), (
        "fused sweep diverged from the per-sample loop"
    )
    return loop_s / fused_s, samples / fused_s, samples / loop_s


#: The criticality smoke: a small chorded ring, every border on the
#: ring, so each sample backtracks several winning walks.
CRITICALITY = dict(stages=120, tokens=6, chords=30, seed=5)
CRITICALITY_SAMPLES = 40


def _criticality_matches_persample():
    """Batched criticality equals the per-sample loop's, samples too."""
    graph = ring_with_chords(**CRITICALITY)
    runs = [
        monte_carlo_cycle_time(
            graph, SPREAD, samples=CRITICALITY_SAMPLES, seed=0,
            track_criticality=True, method=method,
        )
        for method in ("batch", "persample")
    ]
    return (
        np.array_equal(runs[0].samples, runs[1].samples)
        and runs[0].criticality == runs[1].criticality
    )


def test_criticality_matches_persample():
    assert _criticality_matches_persample()


def test_chunked_sweep_matches_and_stays_fast():
    """Chunking bounds memory without giving up the vectorized win."""
    graph = _graph(100)
    samples = 1000
    whole = _run(graph, samples, "batch")
    chunked = monte_carlo_cycle_time(
        graph, SPREAD, samples=samples, seed=0,
        track_criticality=False, batch_size=128, workers=2,
    )
    assert np.array_equal(whole.samples, chunked.samples)
    for _ in range(WARMUP):
        monte_carlo_cycle_time(
            graph, SPREAD, samples=samples, seed=0,
            track_criticality=False, batch_size=128,
        )
    timed = _best_of(
        lambda: monte_carlo_cycle_time(
            graph, SPREAD, samples=samples, seed=0,
            track_criticality=False, batch_size=128,
        )
    )
    loop = _best_of(lambda: _run(graph, 100, "persample")) * (samples / 100)
    emit(
        "chunked batch Monte-Carlo (n=100, S=1000, batch_size=128)",
        "%.0f samples/sec (%.1fx the per-sample loop)"
        % (samples / timed, loop / timed),
    )
    assert timed < loop


def main(argv=None):
    """CI perf smoke: ``python benchmarks/bench_sweeps.py --quick``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="one fused-vs-per-sample throughput check at n=200, "
        "S=1000 (bit-identity asserted); exits non-zero below the "
        "%.0fx bar" % HEADLINE_MIN_SPEEDUP,
    )
    args = parser.parse_args(argv)
    if not args.quick:
        parser.error("run under pytest for the full suite, "
                     "or pass --quick for the CI perf smoke")
    speedup, fused_rate, loop_rate = _fused_vs_persample(
        HEADLINE, HEADLINE_SAMPLES
    )
    print("fused vs per-sample @ n=%d, S=%d: per-sample %.0f samples/sec, "
          "fused %.0f samples/sec -> %.1fx (bit-identical)"
          % (HEADLINE["stages"], HEADLINE_SAMPLES,
             loop_rate, fused_rate, speedup))
    if speedup < HEADLINE_MIN_SPEEDUP:
        print("FAIL: fused sweep below %.0fx the per-sample loop"
              % HEADLINE_MIN_SPEEDUP)
        return 1
    if not _criticality_matches_persample():
        print("FAIL: batched criticality differs from the per-sample loop")
        return 1
    print("PASS: fused >= %.0fx per-sample; criticality @ n=%d, S=%d "
          "equals the per-sample loop's"
          % (HEADLINE_MIN_SPEEDUP, CRITICALITY["stages"],
             CRITICALITY_SAMPLES))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
