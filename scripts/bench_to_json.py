#!/usr/bin/env python
"""Measure the kernel speedups and record them as JSON.

Seven suites::

    PYTHONPATH=src python scripts/bench_to_json.py [--suite kernels]
    PYTHONPATH=src python scripts/bench_to_json.py --suite montecarlo
    PYTHONPATH=src python scripts/bench_to_json.py --suite service
    PYTHONPATH=src python scripts/bench_to_json.py --suite obs
    PYTHONPATH=src python scripts/bench_to_json.py --suite scaling_out
    PYTHONPATH=src python scripts/bench_to_json.py --suite ptime
    PYTHONPATH=src python scripts/bench_to_json.py --suite overload
    PYTHONPATH=src python scripts/bench_to_json.py --suite netlist

``kernels`` (the default) times the legacy, exact and float engines —
border simulations and end-to-end ``compute_cycle_time`` — on the
scaling-suite graphs and writes ``BENCH_cycle_time.json``.

``montecarlo`` times Monte-Carlo sweep throughput (samples/sec) for
the fused vectorized sweep (in-process and on the shared-memory
process pool) vs the per-sample rebind loop across graph sizes and
batch widths, verifies all paths produce bit-identical λ samples, and
writes ``BENCH_montecarlo.json``; its ``criticality_gate`` block times
``track_criticality=True`` against λ-only per sample at n=800 and
fails above :data:`MC_CRIT_MAX_RATIO`.

``service`` times the ``repro.service`` layer — cold compiles vs
warm content-addressed cache resolutions (adopt and delay-rebind
tiers), and serial vs coalesced Monte-Carlo dispatch — and writes
``BENCH_service.json``.

``obs`` times the observability layer (``repro.obs``) and writes
``BENCH_obs.json``: end-to-end analysis latency with the layer
disabled vs tracing vs phase profiling, the measured cost of the
disabled no-op hooks (must fit a 2%% budget), and warm-cache
``/analyze`` HTTP throughput with metrics off/on/traced.  All records
feed the README's performance notes and the CI smoke checks.

``scaling_out`` measures horizontal scale-out and writes
``BENCH_scaling_out.json``: warm-cache ``/analyze`` throughput against
a pre-fork SO_REUSEPORT worker pool at 1/2/4 workers, and the
process-pool vs threaded Monte-Carlo executor on a GIL-bound n=800
sweep (with a bit-identity check against the single-process kernel).
Scaling gates are enforced only when ``os.cpu_count()`` provides the
parallel hardware they presume; the recorded ``cpu_count`` and
``hardware_note`` keep single-core runs honest.

``ptime`` times the P-time layer — ``check_consistency`` (exact
Fraction and float modes), the full ``lambda_range`` interval, and the
certified-rejection path on planted-inconsistent instances — across
graph sizes, runs a 3-rate ``cross_validate`` correctness rider, and
writes ``BENCH_ptime.json``.

``netlist`` times the real-circuit pipeline — ``.bench`` parsing,
ring-wrap closure, structural DAG extraction and cycle-time analysis —
on the shipped corpus (c17 through the 1440-gate mult16), checks the
golden unit-delay cycle times, cross-checks structural extraction
against the exhaustive oracle on c17 and the sparse ratio-form Howard
against the token-graph reduction on rca8, and writes
``BENCH_netlist.json``.

``overload`` ramps concurrent Monte-Carlo load past a deliberately
small service capacity and records shed-rate, degraded-rate and
p50/p99 latency per level along with the AIMD limiter and brownout
snapshots, writing ``BENCH_overload.json``.  Gates: the limiter stays
within ``[min_limit, ceiling]`` and no unstructured 5xx ever escapes.

Timings are best-of-N wall clock after warmup (the float kernel's
code-generation tier activates during warmup, as it does in any
repeated analysis).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np  # noqa: E402

from repro.analysis import monte_carlo_cycle_time, uniform_spread  # noqa: E402
from repro.core import compute_cycle_time, run_border_simulations  # noqa: E402
from repro.generators import ring_with_chords  # noqa: E402

KERNELS = ("legacy", "exact", "float")
SIZES = (100, 400, 800)
WARMUP = 8
REPS = 15

MC_SIZES = (50, 100, 200)
MC_BATCHES = (100, 1000)
MC_WARMUP = 2
MC_REPS = 3
#: the fused acceptance gate at n=800, S=1000: the kernel-only fused
#: sweep against the per-sample loop.  250 = the former bar (fused >=
#: 3.0x the per-level batch kernel) times the batch kernel's measured
#: 83.75x over the per-sample loop at this shape, so it fails wherever
#: the former bar did.
MC_GATE_STAGES = 800
MC_GATE_SAMPLES = 1000
MC_GATE_MIN_SPEEDUP = 250.0
#: the criticality gate: a criticality sample costs at most this many
#: λ-only samples at n=800, b=8 (ROADMAP item 3), at each width S.
MC_CRIT_GRAPH = dict(stages=800, tokens=8, chords=80, seed=3)
MC_CRIT_SAMPLES = (10, 64)
MC_CRIT_MAX_RATIO = 10.0

SCALE_WORKERS = (1, 2, 4)
SCALE_STORM_S = 2.0
SCALE_CLIENTS = 8
SCALE_WARMUP_REQUESTS = 4
SCALE_MC_STAGES = 800
SCALE_MC_SAMPLES = 64
SCALE_MIN_SPEEDUP_AT_4 = 2.5


def best_of(fn, reps=REPS):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(stages):
    graph = ring_with_chords(stages=stages, tokens=4, chords=stages // 4, seed=7)
    row = {
        "stages": stages,
        "events": graph.num_events,
        "arcs": graph.num_arcs,
        "border_events": len(graph.border_events),
        "simulate_ms": {},
        "end_to_end_ms": {},
    }
    for kernel in KERNELS:
        for _ in range(WARMUP):
            run_border_simulations(graph, kernel=kernel)
            compute_cycle_time(graph, check=False, kernel=kernel)
        row["simulate_ms"][kernel] = 1e3 * best_of(
            lambda: run_border_simulations(graph, kernel=kernel)
        )
        row["end_to_end_ms"][kernel] = 1e3 * best_of(
            lambda: compute_cycle_time(graph, check=False, kernel=kernel)
        )
    for section in ("simulate_ms", "end_to_end_ms"):
        legacy = row[section]["legacy"]
        row[section.replace("_ms", "_speedup")] = {
            kernel: legacy / row[section][kernel] for kernel in ("exact", "float")
        }
    return row


def measure_montecarlo(stages, batches, process_workers=2):
    graph = ring_with_chords(stages=stages, tokens=4, chords=stages // 4, seed=7)
    sampler = uniform_spread(0.1)

    def run(samples, method="batch", executor="thread", workers=None):
        return monte_carlo_cycle_time(
            graph, sampler, samples=samples, seed=0,
            track_criticality=False, method=method,
            executor=executor, workers=workers,
        )

    def pooled(samples):
        return run(samples, executor="process", workers=process_workers)

    row = {
        "stages": stages,
        "events": graph.num_events,
        "arcs": graph.num_arcs,
        "border_events": len(graph.border_events),
        "sweeps": [],
    }
    for samples in batches:
        for _ in range(MC_WARMUP):
            run(samples)
        fused = best_of(lambda: run(samples), reps=MC_REPS)
        shm = best_of(lambda: pooled(samples), reps=MC_REPS)
        loop = best_of(lambda: run(samples, "persample"), reps=MC_REPS)
        reference = run(samples, "persample").samples
        identical = bool(
            np.array_equal(run(samples).samples, reference)
            and np.array_equal(pooled(samples).samples, reference)
        )
        row["sweeps"].append(
            {
                "samples": samples,
                "fused_samples_per_sec": samples / fused,
                "process_shm_samples_per_sec": samples / shm,
                "process_workers": process_workers,
                "persample_samples_per_sec": samples / loop,
                "speedup": loop / fused,
                "identical": identical,
            }
        )
    return row


def measure_fused_gate(stages=MC_GATE_STAGES, samples=MC_GATE_SAMPLES,
                       process_workers=2):
    """The fused acceptance gate: fused vs per-sample at n=800, S=1000.

    Times the fused kernel sweep directly (one pre-sampled delay
    matrix, the same seed-0 stream ``monte_carlo_cycle_time`` draws) so
    the ratio is not diluted by sampler overhead.  The per-sample loop
    runs once, through ``monte_carlo_cycle_time(method="persample")``
    (its sampling is well under 1% of its time at this size), and
    doubles as the bit-identity reference for the fused sweep, the
    full Monte-Carlo path and the process pool.
    """
    from repro.analysis.montecarlo import sample_delay_matrix
    from repro.core import run_border_simulations_batch

    graph = ring_with_chords(stages=stages, tokens=4, chords=stages // 4,
                             seed=7)
    sampler = uniform_spread(0.1)
    matrix = sample_delay_matrix(graph, sampler, samples,
                                 np.random.default_rng(0))

    def sweep(executor="thread", workers=None):
        return run_border_simulations_batch(
            graph, matrix, executor=executor, workers=workers,
        )

    def mc(method="batch"):
        return monte_carlo_cycle_time(
            graph, sampler, samples=samples, seed=0,
            track_criticality=False, method=method,
        )

    for _ in range(MC_WARMUP):
        sweep()
    fused = best_of(sweep, reps=MC_REPS)
    shm = best_of(
        lambda: sweep(executor="process", workers=process_workers),
        reps=MC_REPS,
    )
    started = time.perf_counter()
    reference = mc("persample").samples
    loop = time.perf_counter() - started
    identical = bool(
        np.array_equal(sweep().cycle_times(), reference)
        and np.array_equal(mc().samples, reference)
        and np.array_equal(
            sweep(executor="process",
                  workers=process_workers).cycle_times(),
            reference,
        )
    )
    return {
        "graph": "stages=%d" % stages,
        "samples": samples,
        "timed": "fused: run_border_simulations_batch only (pre-sampled "
                 "matrix; sampler excluded), best of %d; per-sample: one "
                 "monte_carlo_cycle_time(method='persample') run" % MC_REPS,
        "fused_samples_per_sec": samples / fused,
        "process_shm_samples_per_sec": samples / shm,
        "process_workers": process_workers,
        "persample_samples_per_sec": samples / loop,
        "fused_speedup_vs_persample": loop / fused,
        "min_fused_speedup": MC_GATE_MIN_SPEEDUP,
        "identical": identical,
    }


def measure_criticality_gate(graph_kwargs=MC_CRIT_GRAPH,
                             widths=MC_CRIT_SAMPLES):
    """Criticality vs λ-only Monte-Carlo cost per sample at n=800.

    Both sides time the whole ``monte_carlo_cycle_time`` call (draw,
    λ sweep, and for criticality the batched backtracking), best of
    :data:`MC_REPS` after :data:`MC_WARMUP` runs, at each width.  One
    ``method="persample"`` run per width is the reference: samples and
    ``criticality`` must be identical.
    """
    graph = ring_with_chords(**graph_kwargs)
    sampler = uniform_spread(0.1)

    def run(samples, track, method="batch"):
        return monte_carlo_cycle_time(
            graph, sampler, samples=samples, seed=0,
            track_criticality=track, method=method,
        )

    rows = []
    for samples in widths:
        for _ in range(MC_WARMUP):
            run(samples, True)
            run(samples, False)
        crit = best_of(lambda: run(samples, True), reps=MC_REPS)
        lam = best_of(lambda: run(samples, False), reps=MC_REPS)
        reference = run(samples, True, "persample")
        got = run(samples, True)
        rows.append({
            "samples": samples,
            "criticality_ms_per_sample": 1e3 * crit / samples,
            "lambda_only_ms_per_sample": 1e3 * lam / samples,
            "ratio": crit / lam,
            "identical": bool(
                np.array_equal(got.samples, reference.samples)
                and got.criticality == reference.criticality
            ),
        })
    return {
        "graph": "ring_with_chords(%d, %d, chords=%d, seed=%d)" % (
            graph_kwargs["stages"], graph_kwargs["tokens"],
            graph_kwargs["chords"], graph_kwargs["seed"],
        ),
        "timed": "monte_carlo_cycle_time end to end, track_criticality "
                 "True vs False, best of %d" % MC_REPS,
        "max_ratio": MC_CRIT_MAX_RATIO,
        "rows": rows,
    }


def run_montecarlo_suite(sizes, batches, output, fused_gate=False):
    rows = []
    for stages in sizes:
        row = measure_montecarlo(stages, batches)
        rows.append(row)
        for sweep in row["sweeps"]:
            print(
                "n=%-4d S=%-5d  per-sample %8.0f samples/sec  "
                "fused %8.0f samples/sec (%.1fx)  "
                "process+shm %8.0f samples/sec  identical=%s"
                % (
                    stages,
                    sweep["samples"],
                    sweep["persample_samples_per_sec"],
                    sweep["fused_samples_per_sec"],
                    sweep["speedup"],
                    sweep["process_shm_samples_per_sec"],
                    sweep["identical"],
                )
            )
    headline = rows[-1]["sweeps"][-1]
    cpu_count = os.cpu_count() or 1
    document = {
        "benchmark": "fused Monte-Carlo delay sweep vs per-sample rebind loop",
        "workload": "ring_with_chords(stages=n, tokens=4, chords=n/4, seed=7), "
        "uniform_spread(0.1), track_criticality=False",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        "hardware_note": (
            "process_shm columns ran the shared kernel process pool with "
            "shared-memory delay matrices on a host exposing %d CPU "
            "core(s)%s" % (
                cpu_count,
                "; with a single core they measure dispatch overhead, "
                "not scale-out" if cpu_count < 2 else "",
            )
        ),
        "warmup_runs": MC_WARMUP,
        "timer": "best of %d, wall clock" % MC_REPS,
        "rows": rows,
        "headline": {
            "graph": "stages=%d" % rows[-1]["stages"],
            "samples": headline["samples"],
            "fused_samples_per_sec": headline["fused_samples_per_sec"],
            "process_shm_samples_per_sec":
                headline["process_shm_samples_per_sec"],
            "persample_samples_per_sec": headline["persample_samples_per_sec"],
            "speedup": headline["speedup"],
            "identical": headline["identical"],
        },
    }
    failed = False
    if fused_gate:
        gate = measure_fused_gate()
        document["fused_gate"] = gate
        print(
            "fused gate n=%d S=%d: per-sample %8.1f samples/sec  "
            "fused %8.0f samples/sec (%.0fx, need >= %.0fx)  identical=%s"
            % (
                MC_GATE_STAGES,
                gate["samples"],
                gate["persample_samples_per_sec"],
                gate["fused_samples_per_sec"],
                gate["fused_speedup_vs_persample"],
                MC_GATE_MIN_SPEEDUP,
                gate["identical"],
            )
        )
        if gate["fused_speedup_vs_persample"] < MC_GATE_MIN_SPEEDUP:
            print("FAIL: fused speedup below the %.0fx acceptance bar"
                  % MC_GATE_MIN_SPEEDUP)
            failed = True
        if not gate["identical"]:
            print("FAIL: fused sweep diverged from the per-sample loop")
            failed = True
        crit = measure_criticality_gate()
        document["criticality_gate"] = crit
        for row in crit["rows"]:
            print(
                "criticality gate n=%d S=%d: %.2f ms/sample vs λ-only "
                "%.3f ms/sample (%.1fx, need <= %.0fx)  identical=%s"
                % (
                    MC_CRIT_GRAPH["stages"], row["samples"],
                    row["criticality_ms_per_sample"],
                    row["lambda_only_ms_per_sample"], row["ratio"],
                    MC_CRIT_MAX_RATIO, row["identical"],
                )
            )
            if row["ratio"] > MC_CRIT_MAX_RATIO:
                print("FAIL: criticality above %.0fx λ-only per sample"
                      % MC_CRIT_MAX_RATIO)
                failed = True
            if not row["identical"]:
                print("FAIL: criticality diverged from the per-sample loop")
                failed = True
    with open(output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % os.path.abspath(output))
    return 1 if failed else 0


SERVICE_SIZES = (100, 200, 400)
SERVICE_COPIES = 12
SERVICE_REQUESTS = 16
SERVICE_SAMPLES = 32
SERVICE_REPS = 5


def _timed_each(fn, items):
    start = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - start) / len(items)


def measure_service_compile(stages):
    from repro.core.kernel import CompiledGraph
    from repro.service.cache import clear_caches, configure, shared_compiled_graph

    graph = ring_with_chords(stages=stages, tokens=4, chords=stages // 4, seed=7)
    CompiledGraph(graph.copy())  # warm interpreter paths
    cold = min(
        _timed_each(CompiledGraph, [graph.copy() for _ in range(SERVICE_COPIES)])
        for _ in range(SERVICE_REPS)
    )
    configure()
    shared_compiled_graph(graph)  # seed the cache
    warm = min(
        _timed_each(
            shared_compiled_graph, [graph.copy() for _ in range(SERVICE_COPIES)]
        )
        for _ in range(SERVICE_REPS)
    )

    def variants():
        built = []
        for index in range(SERVICE_COPIES):
            variant = graph.copy()
            arc = variant.arcs[index % variant.num_arcs]
            variant.set_delay(arc.source, arc.target, float(arc.delay) + 0.25)
            built.append(variant)
        return built

    rebound = min(
        _timed_each(shared_compiled_graph, variants())
        for _ in range(SERVICE_REPS)
    )
    clear_caches()
    return {
        "stages": stages,
        "events": graph.num_events,
        "arcs": graph.num_arcs,
        "cold_compile_ms": 1e3 * cold,
        "warm_adopt_ms": 1e3 * warm,
        "warm_rebind_ms": 1e3 * rebound,
        "warm_adopt_speedup": cold / warm,
        "warm_rebind_speedup": cold / rebound,
    }


def measure_service_coalescing(stages):
    from repro.core.kernel import BatchBindings, compiled_graph
    from repro.core.kernel import run_border_simulations_batch
    from repro.analysis.montecarlo import sample_delay_matrix
    from repro.service.queue import RequestCoalescer

    graph = ring_with_chords(stages=stages, tokens=4, chords=stages // 4, seed=7)
    sampler = uniform_spread(0.1)
    rng = np.random.default_rng(0)
    matrices = [
        sample_delay_matrix(graph, sampler, SERVICE_SAMPLES, rng)
        for _ in range(SERVICE_REQUESTS)
    ]
    cg = compiled_graph(graph)

    def serial():
        for matrix in matrices:
            run_border_simulations_batch(
                graph, BatchBindings(cg, matrix)
            ).cycle_times()

    serial()  # warm
    serial_s = best_of(serial, reps=SERVICE_REPS)

    def coalesced(coalescer):
        futures = [coalescer.submit(graph, m) for m in matrices]
        for future in futures:
            future.result(60)

    with RequestCoalescer(linger_s=0.005) as coalescer:
        coalesced(coalescer)  # warm
        coalesced_s = best_of(lambda: coalesced(coalescer), reps=SERVICE_REPS)
    total = SERVICE_REQUESTS * SERVICE_SAMPLES
    return {
        "stages": stages,
        "requests": SERVICE_REQUESTS,
        "samples_per_request": SERVICE_SAMPLES,
        "serial_samples_per_sec": total / serial_s,
        "coalesced_samples_per_sec": total / coalesced_s,
        "coalesced_speedup": serial_s / coalesced_s,
    }


def run_service_suite(sizes, output):
    compile_rows = []
    for stages in sizes:
        row = measure_service_compile(stages)
        compile_rows.append(row)
        print(
            "n=%-4d  cold %7.3f ms  adopt %7.3f ms (%.1fx)  "
            "rebind %7.3f ms (%.1fx)"
            % (
                stages,
                row["cold_compile_ms"],
                row["warm_adopt_ms"],
                row["warm_adopt_speedup"],
                row["warm_rebind_ms"],
                row["warm_rebind_speedup"],
            )
        )
    coalesce_row = measure_service_coalescing(100)
    print(
        "coalescing n=100, %dx%d: serial %8.0f samples/sec  "
        "coalesced %8.0f samples/sec (%.1fx)"
        % (
            coalesce_row["requests"],
            coalesce_row["samples_per_request"],
            coalesce_row["serial_samples_per_sec"],
            coalesce_row["coalesced_samples_per_sec"],
            coalesce_row["coalesced_speedup"],
        )
    )
    largest = compile_rows[-1]
    document = {
        "benchmark": "repro.service content-addressed cache and request coalescer",
        "workload": "ring_with_chords(stages=n, tokens=4, chords=n/4, seed=7); "
        "cold CompiledGraph() vs shared_compiled_graph() on fresh "
        "content-equal copies; %d Monte-Carlo requests x %d samples "
        "serial vs coalesced" % (SERVICE_REQUESTS, SERVICE_SAMPLES),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timer": "best of %d, wall clock, %d graphs per measurement"
        % (SERVICE_REPS, SERVICE_COPIES),
        "compile_rows": compile_rows,
        "coalescing": coalesce_row,
        "headline": {
            "graph": "stages=%d" % largest["stages"],
            "warm_compile_speedup": largest["warm_adopt_speedup"],
            "warm_rebind_speedup": largest["warm_rebind_speedup"],
            "coalesced_speedup": coalesce_row["coalesced_speedup"],
        },
    }
    with open(output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % os.path.abspath(output))
    if largest["warm_adopt_speedup"] < 5.0:
        print(
            "WARNING: warm compile speedup %.1fx below the 5x target"
            % largest["warm_adopt_speedup"]
        )
        return 1
    return 0


OBS_SIZES = (200, 400)
OBS_REPS = 5
OBS_WARMUP = 4
OBS_SERVER_REQUESTS = 200
OBS_SERVER_ROUNDS = 10
OBS_HOOK_LOOPS = 200000
OBS_DISABLED_BUDGET_PCT = 2.0


def _per_call_ns(fn, loops=OBS_HOOK_LOOPS):
    start = time.perf_counter()
    for _ in range(loops):
        fn()
    return 1e9 * (time.perf_counter() - start) / loops


def measure_obs_null_hooks():
    """Nanoseconds per *disabled* observability touchpoint.

    These are the only costs the instrumentation adds when the obs
    layer is off: a no-op span context manager, a no-op phase context
    manager, and a contextvar lookup.  Each includes Python call
    overhead, so the per-analysis estimate built from them is an
    upper bound.
    """
    import repro.obs as obs
    from repro.obs.profile import active_profiler, phase
    from repro.obs.tracing import tracer

    obs.disable()
    t = tracer()

    def null_span():
        with t.span("bench"):
            pass

    def null_phase():
        with phase("bench"):
            pass

    return {
        "null_span_ns": _per_call_ns(null_span),
        "null_phase_ns": _per_call_ns(null_phase),
        "profiler_lookup_ns": _per_call_ns(active_profiler),
    }


def measure_obs_kernel(stages, hooks):
    """Analysis latency with obs disabled / traced / phase-profiled."""
    import repro.obs as obs
    from repro.obs.profile import PhaseProfiler, profile_phases
    from repro.obs.tracing import RingExporter, tracer

    graph = ring_with_chords(stages=stages, tokens=4, chords=stages // 4, seed=7)
    border = len(graph.border_events)

    def run():
        compute_cycle_time(graph, check=False, cache="off")

    obs.disable()
    for _ in range(OBS_WARMUP):
        run()
    disabled = best_of(run, reps=OBS_REPS)

    obs.enable(metrics=True, tracing=True)
    ring = RingExporter(capacity=4096)
    tracer().add_exporter(ring)
    try:
        for _ in range(OBS_WARMUP):
            run()
        traced = best_of(run, reps=OBS_REPS)
    finally:
        tracer().remove_exporter(ring)
        obs.disable()

    def run_profiled():
        with profile_phases(PhaseProfiler()):
            run()

    for _ in range(OBS_WARMUP):
        run_profiled()
    profiled = best_of(run_profiled, reps=OBS_REPS)

    # Disabled-path budget: per-analysis hook counts x measured no-op
    # costs.  One kernel.analyze span; phases = validate + simulate +
    # collect + one run per border simulation (toposort/codegen hit
    # the compile path, counted once); one profiler lookup per
    # simulation plus the per-period `is not None` branches (counted
    # at lookup cost — another overestimate).
    spans = 1
    phases = 3 + border
    lookups = border + border * (border + 3)
    hook_s = 1e-9 * (
        spans * hooks["null_span_ns"]
        + phases * hooks["null_phase_ns"]
        + lookups * hooks["profiler_lookup_ns"]
    )
    return {
        "stages": stages,
        "events": graph.num_events,
        "arcs": graph.num_arcs,
        "border_events": border,
        "disabled_ms": 1e3 * disabled,
        "traced_ms": 1e3 * traced,
        "profiled_ms": 1e3 * profiled,
        "traced_overhead_pct": 100.0 * (traced - disabled) / disabled,
        "profiled_overhead_pct": 100.0 * (profiled - disabled) / disabled,
        "disabled_overhead_pct": 100.0 * hook_s / disabled,
    }


def measure_obs_server():
    """Warm-cache /analyze requests/sec with obs off, on, and traced.

    Host speed drifts over seconds, so the modes take turns for
    ``OBS_SERVER_ROUNDS`` rounds and each reports its median round.
    """
    import statistics
    import tempfile
    import threading

    import repro.obs as obs
    from repro.service.client import ServiceClient
    from repro.service.server import make_server

    graph = ring_with_chords(stages=60, tokens=4, chords=15, seed=7)
    trace_path = os.path.join(
        tempfile.mkdtemp(prefix="repro-bench-obs-"), "trace.json"
    )
    modes = (
        ("disabled", dict(metrics=False)),
        ("metrics", dict(metrics=True)),
        ("metrics+tracing", dict(metrics=True, trace_export=trace_path)),
    )
    rounds = {mode: [] for mode, _ in modes}
    for _ in range(OBS_SERVER_ROUNDS):
        for mode, overrides in modes:
            obs.disable()
            server = make_server(quiet=True, **overrides)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                client = ServiceClient(server.url, timeout=10, retries=0)
                for _ in range(OBS_WARMUP):
                    client.analyze(graph)  # first call seeds the result cache
                start = time.perf_counter()
                for _ in range(OBS_SERVER_REQUESTS):
                    client.analyze(graph)
                elapsed = time.perf_counter() - start
            finally:
                server.shutdown()
                server.close()
                thread.join(timeout=5)
                obs.disable()
            rounds[mode].append(OBS_SERVER_REQUESTS / elapsed)
    rows = {mode: statistics.median(rps) for mode, rps in rounds.items()}
    return {
        "requests": OBS_SERVER_REQUESTS,
        "rounds": OBS_SERVER_ROUNDS,
        "workload": "warm result-cache /analyze, sequential HTTP client, "
        "median of %d alternating rounds" % OBS_SERVER_ROUNDS,
        "requests_per_sec": rows,
        "metrics_overhead_pct":
            100.0 * (rows["disabled"] / rows["metrics"] - 1.0),
        "tracing_overhead_pct":
            100.0 * (rows["disabled"] / rows["metrics+tracing"] - 1.0),
    }


def run_obs_suite(sizes, output):
    hooks = measure_obs_null_hooks()
    print(
        "null hooks: span %.0f ns  phase %.0f ns  profiler lookup %.0f ns"
        % (hooks["null_span_ns"], hooks["null_phase_ns"],
           hooks["profiler_lookup_ns"])
    )
    kernel_rows = []
    for stages in sizes:
        row = measure_obs_kernel(stages, hooks)
        kernel_rows.append(row)
        print(
            "n=%-4d  disabled %7.3f ms  traced %7.3f ms (+%.2f%%)  "
            "profiled %7.3f ms (+%.2f%%)  disabled budget %.4f%%"
            % (
                stages,
                row["disabled_ms"],
                row["traced_ms"],
                row["traced_overhead_pct"],
                row["profiled_ms"],
                row["profiled_overhead_pct"],
                row["disabled_overhead_pct"],
            )
        )
    server_row = measure_obs_server()
    rps = server_row["requests_per_sec"]
    print(
        "server /analyze: disabled %7.0f req/s  metrics %7.0f req/s "
        "(+%.2f%%)  metrics+tracing %7.0f req/s (+%.2f%%)"
        % (
            rps["disabled"],
            rps["metrics"],
            server_row["metrics_overhead_pct"],
            rps["metrics+tracing"],
            server_row["tracing_overhead_pct"],
        )
    )
    worst_disabled = max(r["disabled_overhead_pct"] for r in kernel_rows)
    document = {
        "benchmark": "repro.obs overhead: disabled no-op hooks vs "
        "tracing and phase profiling",
        "workload": "ring_with_chords(stages=n, tokens=4, chords=n/4, "
        "seed=7) end-to-end compute_cycle_time; warm-cache /analyze "
        "over HTTP",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timer": "best of %d after %d warmups, wall clock"
        % (OBS_REPS, OBS_WARMUP),
        "disabled_overhead_method": "per-analysis hook counts x measured "
        "no-op hook costs (upper bound; each no-op includes Python "
        "call overhead)",
        "null_hooks_ns": hooks,
        "kernel_rows": kernel_rows,
        "server": server_row,
        "headline": {
            "disabled_overhead_pct": worst_disabled,
            "disabled_budget_pct": OBS_DISABLED_BUDGET_PCT,
            "traced_overhead_pct": kernel_rows[-1]["traced_overhead_pct"],
            "profiled_overhead_pct": kernel_rows[-1]["profiled_overhead_pct"],
            "server_metrics_overhead_pct": server_row["metrics_overhead_pct"],
        },
    }
    with open(output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % os.path.abspath(output))
    if worst_disabled > OBS_DISABLED_BUDGET_PCT:
        print(
            "WARNING: disabled-path overhead %.3f%% exceeds the %.1f%% budget"
            % (worst_disabled, OBS_DISABLED_BUDGET_PCT)
        )
        return 1
    return 0


def measure_worker_scaling(worker_counts, storm_s, clients):
    """Warm-cache /analyze req/s against 1..N pre-fork workers."""
    import threading

    from repro.service.client import ServiceClient
    from repro.service.pool import WorkerPool
    from repro.service.server import ServiceConfig

    graph = ring_with_chords(stages=60, tokens=4, chords=15, seed=7)
    rows = []
    for workers in worker_counts:
        config = ServiceConfig(
            host="127.0.0.1", port=0, quiet=True, drain_timeout=3.0,
        )
        pool = WorkerPool(config, workers, cache_config={})
        pool.start(timeout=60.0)
        handles = []
        try:
            # Keep-alive pins each client to one kernel-picked worker,
            # so warming through every client warms every worker the
            # storm will actually touch.
            handles = [
                ServiceClient(pool.url, timeout=30, retries=2)
                for _ in range(clients)
            ]
            for client in handles:
                for _ in range(SCALE_WARMUP_REQUESTS):
                    client.analyze(graph)
            counts = [0] * clients
            deadline = time.monotonic() + storm_s

            def run(index):
                client = handles[index]
                while time.monotonic() < deadline:
                    client.analyze(graph)
                    counts[index] += 1

            threads = [
                threading.Thread(target=run, args=(index,), daemon=True)
                for index in range(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
        finally:
            for client in handles:
                client.close()
            pool.terminate(timeout=15.0)
        total = sum(counts)
        rows.append(
            {
                "workers": workers,
                "requests": total,
                "requests_per_sec": total / elapsed,
            }
        )
        print(
            "workers=%d  %6d reqs in %.2fs  %7.0f req/s"
            % (workers, total, elapsed, rows[-1]["requests_per_sec"])
        )
    baseline = rows[0]["requests_per_sec"]
    for row in rows:
        row["speedup_vs_1_worker"] = row["requests_per_sec"] / baseline
    return rows


def measure_executor_scaling(stages, samples, workers):
    """Threaded vs process-pool MC executor on one GIL-bound sweep."""
    from repro.core.kernel import shutdown_process_pool

    graph = ring_with_chords(stages=stages, tokens=4, chords=stages // 4, seed=7)
    sampler = uniform_spread(0.1)

    def run(executor, pool_workers, batch_size=None):
        return monte_carlo_cycle_time(
            graph, sampler, samples=samples, seed=0,
            track_criticality=False, workers=pool_workers,
            executor=executor, batch_size=batch_size,
        )

    try:
        chunk = max(1, samples // workers)
        for _ in range(MC_WARMUP):
            run(None, None)
            run("thread", workers, chunk)
            run("process", workers)
        single = run(None, None)
        threaded = run("thread", workers, chunk)
        pooled = run("process", workers)
        single_s = best_of(lambda: run(None, None), reps=MC_REPS)
        thread_s = best_of(lambda: run("thread", workers, chunk), reps=MC_REPS)
        process_s = best_of(lambda: run("process", workers), reps=MC_REPS)
    finally:
        shutdown_process_pool()
    return {
        "stages": stages,
        "events": graph.num_events,
        "arcs": graph.num_arcs,
        "samples": samples,
        "workers": workers,
        "single_samples_per_sec": samples / single_s,
        "thread_samples_per_sec": samples / thread_s,
        "process_samples_per_sec": samples / process_s,
        "process_vs_thread_speedup": thread_s / process_s,
        "process_vs_single_speedup": single_s / process_s,
        "identical": bool(
            np.array_equal(single.samples, threaded.samples)
            and np.array_equal(single.samples, pooled.samples)
        ),
    }


PTIME_SIZES = (20, 60, 120)
PTIME_WARMUP = 1
PTIME_REPS = 5


def measure_ptime(stages):
    from repro.generators import (
        plant_inconsistency,
        ptime_wrap,
    )
    from repro.ptime import check_consistency, lambda_range

    graph = ring_with_chords(
        stages=stages, tokens=3, chords=stages // 4, seed=7
    )
    exact = ptime_wrap(
        graph, tightness=0.5, seed=stages, infinite_fraction=0.2
    )
    floaty = exact.copy()
    for arc, interval in exact.arc_bounds():
        floaty.set_bounds(
            arc.source, arc.target,
            float(interval.lower),
            None if interval.upper is None else float(interval.upper),
        )
    planted = plant_inconsistency(exact, seed=stages)

    for _ in range(PTIME_WARMUP):
        check_consistency(exact)
        check_consistency(floaty)
        lambda_range(exact)
        check_consistency(planted)

    check_result = check_consistency(exact)
    range_result = lambda_range(exact)
    reject_result = check_consistency(planted)
    assert check_result.consistent and range_result.consistent
    assert not reject_result.consistent

    return {
        "stages": stages,
        "events": exact.num_events,
        "arcs": exact.num_arcs,
        "check_exact_ms": 1e3 * best_of(
            lambda: check_consistency(exact), reps=PTIME_REPS
        ),
        "check_float_ms": 1e3 * best_of(
            lambda: check_consistency(floaty), reps=PTIME_REPS
        ),
        "lambda_range_exact_ms": 1e3 * best_of(
            lambda: lambda_range(exact), reps=PTIME_REPS
        ),
        "reject_planted_ms": 1e3 * best_of(
            lambda: check_consistency(planted), reps=PTIME_REPS
        ),
        "check_iterations": check_result.iterations,
        "range_iterations": range_result.iterations,
        "lam_min": str(range_result.lam_min),
        "lam_max": (
            None if range_result.lam_max is None
            else str(range_result.lam_max)
        ),
    }


def run_ptime_suite(sizes, output):
    from repro.ptime import cross_validate

    rows = []
    for stages in sizes:
        row = measure_ptime(stages)
        rows.append(row)
        print(
            "n=%-4d  check exact %7.2f ms  float %7.2f ms  "
            "lambda-range %7.2f ms (%d passes)  reject %7.2f ms"
            % (
                stages,
                row["check_exact_ms"],
                row["check_float_ms"],
                row["lambda_range_exact_ms"],
                row["range_iterations"],
                row["reject_planted_ms"],
            )
        )

    # correctness rider: the smallest instance must cross-validate
    # (trajectories verified, kernel bit-exact on induced delays)
    graph = ring_with_chords(
        stages=sizes[0], tokens=3, chords=sizes[0] // 4, seed=7
    )
    from repro.generators import ptime_wrap

    rider = cross_validate(
        ptime_wrap(graph, tightness=0.5, seed=sizes[0], infinite_fraction=0.2),
        samples=3,
        horizon=4,
    )
    failures = [] if rider.ok else [str(rider)]

    cpu_count = os.cpu_count() or 1
    document = {
        "benchmark": "P-time analysis: NPC consistency checks and "
        "lambda-range synthesis",
        "workload": "ptime_wrap(ring_with_chords(stages=n, tokens=3, "
        "chords=n/4, seed=7), tightness=0.5, infinite_fraction=0.2); "
        "rejection rows add two conflicting rigid gadgets",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        "hardware_note": (
            "single-process, single-thread Bellman-Ford passes on a host "
            "exposing %d CPU core(s); wall-clock medians are stable but "
            "absolute times are container-dependent" % cpu_count
        ),
        "warmup_runs": PTIME_WARMUP,
        "timer": "best of %d, wall clock" % PTIME_REPS,
        "rows": rows,
        "gates": {
            "cross_validate": "enforced" if rider.ok else "FAILED",
        },
        "headline": {
            "graph": "stages=%d" % rows[-1]["stages"],
            "check_exact_ms": rows[-1]["check_exact_ms"],
            "lambda_range_exact_ms": rows[-1]["lambda_range_exact_ms"],
        },
    }
    with open(output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % os.path.abspath(output))
    for failure in failures:
        print("WARNING: %s" % failure)
    return 1 if failures else 0


def run_scaling_out_suite(output):
    cpu_count = os.cpu_count() or 1
    print("cpu_count=%d" % cpu_count)
    rows = measure_worker_scaling(SCALE_WORKERS, SCALE_STORM_S, SCALE_CLIENTS)
    executor_row = measure_executor_scaling(
        SCALE_MC_STAGES, SCALE_MC_SAMPLES, workers=min(4, max(2, cpu_count))
    )
    print(
        "mc n=%d S=%d: single %6.1f  thread %6.1f  process %6.1f "
        "samples/s (process %0.2fx thread)  identical=%s"
        % (
            executor_row["stages"],
            executor_row["samples"],
            executor_row["single_samples_per_sec"],
            executor_row["thread_samples_per_sec"],
            executor_row["process_samples_per_sec"],
            executor_row["process_vs_thread_speedup"],
            executor_row["identical"],
        )
    )

    failures = []
    gates = {}
    if not executor_row["identical"]:
        failures.append(
            "process-pool MC samples are not bit-identical to the "
            "single-process kernel"
        )
    gates["bit_identical"] = "enforced"

    # The scale-out gates presume parallel hardware; on smaller hosts
    # they are recorded as skipped rather than faked.
    four = next((r for r in rows if r["workers"] == 4), None)
    if cpu_count >= 4 and four is not None:
        gates["worker_scaling_4x"] = "enforced"
        if four["speedup_vs_1_worker"] < SCALE_MIN_SPEEDUP_AT_4:
            failures.append(
                "4-worker speedup %.2fx is below the %.1fx floor"
                % (four["speedup_vs_1_worker"], SCALE_MIN_SPEEDUP_AT_4)
            )
    else:
        gates["worker_scaling_4x"] = "skipped (cpu_count=%d < 4)" % cpu_count
        print(
            "NOTE: %.1fx@4-workers gate skipped — host has %d CPU core(s)"
            % (SCALE_MIN_SPEEDUP_AT_4, cpu_count)
        )
    if cpu_count >= 2:
        gates["process_beats_thread"] = "enforced"
        if executor_row["process_vs_thread_speedup"] <= 1.0:
            failures.append(
                "process executor (%.1f samples/s) does not beat the "
                "threaded executor (%.1f samples/s)"
                % (
                    executor_row["process_samples_per_sec"],
                    executor_row["thread_samples_per_sec"],
                )
            )
    else:
        gates["process_beats_thread"] = (
            "skipped (cpu_count=%d < 2)" % cpu_count
        )
        print(
            "NOTE: process-beats-thread gate skipped — host has %d CPU "
            "core(s)" % cpu_count
        )

    document = {
        "benchmark": "horizontal scale-out: pre-fork SO_REUSEPORT worker "
        "pool and process-pool Monte-Carlo executor",
        "workload": "warm-cache /analyze storm (ring stages=60, %d "
        "keep-alive clients, %.1fs) at 1/2/4 workers; n=%d GIL-bound MC "
        "sweep, thread vs process executor"
        % (SCALE_CLIENTS, SCALE_STORM_S, SCALE_MC_STAGES),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        "hardware_note": None if cpu_count >= 4 else (
            "host exposes %d CPU core(s); worker and process-pool "
            "parallelism cannot speed up CPU-bound work here, so the "
            "numbers below measure correctness and overhead, not "
            "scale-out" % cpu_count
        ),
        "worker_scaling": {
            "storm_seconds": SCALE_STORM_S,
            "clients": SCALE_CLIENTS,
            "rows": rows,
        },
        "executor": executor_row,
        "gates": gates,
        "headline": {
            "speedup_at_4_workers": (
                four["speedup_vs_1_worker"] if four else None
            ),
            "process_vs_thread_speedup":
                executor_row["process_vs_thread_speedup"],
            "bit_identical": executor_row["identical"],
        },
    }
    with open(output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % os.path.abspath(output))
    for failure in failures:
        print("WARNING: %s" % failure)
    return 1 if failures else 0


OVERLOAD_LEVELS = (2, 6, 12)
OVERLOAD_LEVEL_S = 3.0
OVERLOAD_STAGES = 80
OVERLOAD_SAMPLES = 2048
OVERLOAD_FLOOR = 64
OVERLOAD_TIMEOUT_MS = 2000


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return None
    index = int(fraction * (len(sorted_values) - 1))
    return sorted_values[index]


def measure_overload_level(url, clients, seed_base):
    """Offered load of ``clients`` concurrent Monte-Carlo callers for
    one ramp level; returns outcome mix and latency percentiles."""
    import threading

    from repro.service.client import (
        DeadlineExceededError,
        ServerSaturatedError,
        ServiceClient,
        ServiceError,
    )

    graph = ring_with_chords(stages=OVERLOAD_STAGES, tokens=4, chords=20,
                             seed=7)
    lock = threading.Lock()
    outcomes = {"ok": 0, "shed_429": 0, "deadline_504": 0, "error_5xx": 0}
    degraded = [0]
    durations = []
    counter = [0]
    deadline = time.monotonic() + OVERLOAD_LEVEL_S

    def on_degraded(_stamp):
        with lock:
            degraded[0] += 1

    def run(index):
        client = ServiceClient(url, timeout=10, retries=0,
                               on_degraded=on_degraded)
        try:
            while time.monotonic() < deadline:
                with lock:
                    counter[0] += 1
                    seed = seed_base + counter[0]
                started = time.perf_counter()
                try:
                    client.montecarlo(
                        graph, samples=OVERLOAD_SAMPLES, seed=seed,
                        timeout_ms=OVERLOAD_TIMEOUT_MS,
                        priority=("interactive", "bulk")[index % 2],
                    )
                    outcome = "ok"
                except ServerSaturatedError:
                    outcome = "shed_429"
                except DeadlineExceededError:
                    outcome = "deadline_504"
                except ServiceError:
                    outcome = "error_5xx"
                elapsed = time.perf_counter() - started
                with lock:
                    outcomes[outcome] += 1
                    if outcome == "ok":
                        durations.append(elapsed)
        finally:
            client.close()

    threads = [
        threading.Thread(target=run, args=(index,), daemon=True)
        for index in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    durations.sort()
    total = sum(outcomes.values())
    return {
        "offered_clients": clients,
        "requests": total,
        "throughput_ok_per_sec": outcomes["ok"] / elapsed,
        "outcomes": dict(outcomes),
        "shed_rate": outcomes["shed_429"] / total if total else 0.0,
        "degraded_responses": degraded[0],
        "degraded_rate": degraded[0] / total if total else 0.0,
        "p50_ms": (_percentile(durations, 0.50) or 0.0) * 1000.0,
        "p99_ms": (_percentile(durations, 0.99) or 0.0) * 1000.0,
    }


def run_overload_suite(output):
    """Ramped-load overload behaviour: shed/degraded rates and latency
    percentiles as offered concurrency climbs past capacity."""
    import threading

    from repro.service.client import ServiceClient
    from repro.service.server import make_server

    server = make_server(
        quiet=True, max_inflight=2, max_queue_depth=8,
        adaptive=True, brownout=True, brownout_floor=OVERLOAD_FLOOR,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    rows = []
    failures = []
    try:
        probe = ServiceClient(server.url, timeout=10, retries=0)
        for level, clients in enumerate(OVERLOAD_LEVELS):
            row = measure_overload_level(
                server.url, clients, seed_base=100000 * (level + 1)
            )
            stats = probe.stats()
            overload = stats.get("overload") or {}
            row["limiter"] = overload.get("limiter")
            row["brownout"] = overload.get("brownout")
            rows.append(row)
            print(
                "clients=%-3d %5d reqs  ok %6.1f/s  shed %5.1f%%  "
                "degraded %5.1f%%  p50 %7.1f ms  p99 %7.1f ms"
                % (
                    clients, row["requests"],
                    row["throughput_ok_per_sec"],
                    100.0 * row["shed_rate"],
                    100.0 * row["degraded_rate"],
                    row["p50_ms"], row["p99_ms"],
                )
            )
        probe.close()
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)

    for row in rows:
        limiter = row["limiter"]
        if limiter is None:
            failures.append("no adaptive limiter snapshot on /stats")
        elif not (
            limiter["min_limit"] <= limiter["limit"] <= limiter["ceiling"]
        ):
            failures.append("limiter diverged: %r" % limiter)
        if row["outcomes"]["error_5xx"]:
            failures.append(
                "unstructured 5xx under ramped load: %r" % row["outcomes"]
            )
    top = rows[-1]
    document = {
        "benchmark": "closed-loop overload control: AIMD limiter, "
        "deadline/CoDel shedding and brownout degradation under a "
        "ramped Monte-Carlo load",
        "workload": "ring_with_chords(stages=%d) /montecarlo "
        "samples=%d, %.1fs per level at %r concurrent clients, "
        "max_inflight=2, queue depth 8, brownout floor %d"
        % (OVERLOAD_STAGES, OVERLOAD_SAMPLES, OVERLOAD_LEVEL_S,
           list(OVERLOAD_LEVELS), OVERLOAD_FLOOR),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "levels": rows,
        "headline": {
            "peak_shed_rate": max(r["shed_rate"] for r in rows),
            "peak_degraded_rate": max(r["degraded_rate"] for r in rows),
            "p99_ms_at_peak": top["p99_ms"],
            "limit_at_peak": (top["limiter"] or {}).get("limit"),
            "brownout_level_at_peak": (top["brownout"] or {}).get("level"),
        },
    }
    with open(output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % os.path.abspath(output))
    for failure in failures:
        print("WARNING: %s" % failure)
    return 1 if failures else 0


NETLIST_CORPUS = ("c17", "rca8", "sreg16", "mult16")
NETLIST_GOLDEN = {"c17": 8, "rca8": 22, "sreg16": 132, "mult16": 91}
NETLIST_REPS_SMALL = 5
NETLIST_REPS_LARGE = 2


def measure_netlist(name):
    from fractions import Fraction

    from repro.baselines import compute_cycle_time as baseline_cycle_time
    from repro.netlist import (
        corpus_path,
        load_corpus,
        parse_bench,
        ring_wrap,
        structural_extract,
    )

    with open(corpus_path(name), encoding="utf-8") as handle:
        source = handle.read()
    network = parse_bench(source)
    reps = NETLIST_REPS_SMALL if network.num_gates < 500 else NETLIST_REPS_LARGE

    parse_s = best_of(lambda: parse_bench(source), reps=reps)
    wrapped = ring_wrap(network)
    transform_s = best_of(lambda: ring_wrap(network), reps=reps)
    graph = structural_extract(wrapped)
    extract_s = best_of(lambda: structural_extract(wrapped), reps=reps)

    border = len(graph.border_events)
    method = "timing" if border <= 48 else "howard-ratio"
    if method == "timing":
        result = compute_cycle_time(graph)
        analyze_s = best_of(lambda: compute_cycle_time(graph), reps=reps)
    else:
        result = baseline_cycle_time(graph, "howard-ratio")
        analyze_s = best_of(
            lambda: baseline_cycle_time(graph, "howard-ratio"), reps=reps
        )
    value = result.cycle_time
    return {
        "circuit": name,
        "gates": network.num_gates,
        "wrapped_gates": len(wrapped.gates),
        "events": graph.num_events,
        "arcs": graph.num_arcs,
        "border_events": border,
        "method": method,
        "cycle_time": str(Fraction(value)) if not isinstance(value, float)
        else repr(value),
        "parse_ms": parse_s * 1e3,
        "transform_ms": transform_s * 1e3,
        "extract_ms": extract_s * 1e3,
        "analyze_ms": analyze_s * 1e3,
        "end_to_end_ms": (parse_s + transform_s + extract_s + analyze_s) * 1e3,
    }


def run_netlist_suite(output):
    from repro.baselines import compute_cycle_time as baseline_cycle_time
    from repro.circuits.extraction import extract_signal_graph
    from repro.netlist import load_corpus, ring_wrap, structural_extract

    failures = []
    rows = []
    for name in NETLIST_CORPUS:
        row = measure_netlist(name)
        rows.append(row)
        expected = NETLIST_GOLDEN[name]
        if row["cycle_time"] != str(expected):
            failures.append(
                "%s: cycle time %s, expected %d"
                % (name, row["cycle_time"], expected)
            )
        print(
            "%-7s %4d gates  parse %6.1f ms  wrap %6.1f ms  "
            "extract %7.1f ms  analyze %8.1f ms  lambda=%s (%s)"
            % (
                name,
                row["gates"],
                row["parse_ms"],
                row["transform_ms"],
                row["extract_ms"],
                row["analyze_ms"],
                row["cycle_time"],
                row["method"],
            )
        )

    # correctness riders: the scalable path must match the exhaustive
    # oracle on c17, and the sparse ratio-form Howard must match the
    # token-graph reduction on a mid-size circuit.
    wrapped_c17 = ring_wrap(load_corpus("c17"))
    if not structural_extract(wrapped_c17).structurally_equal(
        extract_signal_graph(wrapped_c17)
    ):
        failures.append("structural extraction != oracle on wrapped c17")
    rca8_graph = structural_extract(ring_wrap(load_corpus("rca8")))
    via_ratio = baseline_cycle_time(rca8_graph, "howard-ratio").cycle_time
    via_reduction = baseline_cycle_time(rca8_graph, "howard").cycle_time
    if via_ratio != via_reduction:
        failures.append(
            "howard-ratio %r != reduction howard %r on rca8"
            % (via_ratio, via_reduction)
        )
    ratio_s = best_of(
        lambda: baseline_cycle_time(rca8_graph, "howard-ratio"),
        reps=NETLIST_REPS_SMALL,
    )
    reduction_s = best_of(
        lambda: baseline_cycle_time(rca8_graph, "howard"),
        reps=NETLIST_REPS_SMALL,
    )
    print(
        "rca8 analyze: howard-ratio %.1f ms vs reduction howard %.1f ms "
        "(%.1fx)"
        % (ratio_s * 1e3, reduction_s * 1e3, reduction_s / ratio_s)
    )

    largest = rows[-1]
    cpu_count = os.cpu_count() or 1
    document = {
        "benchmark": "real-circuit netlist pipeline: parse -> ring-wrap -> "
        "structural extraction -> cycle time",
        "workload": "shipped .bench corpus with unit gate/ack delays; "
        "structural extraction with hash-window fold; method auto-selected "
        "by border size (timing <= 48 border events, else ratio-form "
        "Howard on the sparse repetitive core)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        "timer": "best of %d (small) / %d (>=500 gates), wall clock"
        % (NETLIST_REPS_SMALL, NETLIST_REPS_LARGE),
        "rows": rows,
        "howard_ratio_vs_reduction": {
            "circuit": "rca8",
            "ratio_ms": ratio_s * 1e3,
            "reduction_ms": reduction_s * 1e3,
            "speedup": reduction_s / ratio_s,
        },
        "gates": {
            "golden_cycle_times": "FAILED" if any(
                f.startswith(tuple(NETLIST_CORPUS)) for f in failures
            ) else "enforced",
            "structural_equals_oracle_c17": "FAILED" if any(
                "oracle" in f for f in failures
            ) else "enforced",
            "ratio_equals_reduction_rca8": "FAILED" if any(
                "reduction" in f for f in failures
            ) else "enforced",
        },
        "headline": {
            "circuit": largest["circuit"],
            "gates": largest["gates"],
            "events": largest["events"],
            "end_to_end_ms": largest["end_to_end_ms"],
            "cycle_time": largest["cycle_time"],
        },
    }
    with open(output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % os.path.abspath(output))
    for failure in failures:
        print("WARNING: %s" % failure)
    return 1 if failures else 0


def main(argv=None) -> int:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=("kernels", "montecarlo", "service", "obs", "scaling_out",
                 "ptime", "overload", "netlist"),
        default="kernels",
        help="what to measure (default: the single-analysis kernels)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="output JSON path (default: repo-root BENCH_cycle_time.json "
        "or BENCH_montecarlo.json by suite)",
    )
    parser.add_argument(
        "--sizes", default=None,
        help="comma-separated ring sizes to measure",
    )
    parser.add_argument(
        "--samples", default=",".join(str(s) for s in MC_BATCHES),
        help="comma-separated batch widths S (montecarlo suite only)",
    )
    parser.add_argument(
        "--fused-gate", action="store_true",
        help="force the n=%d fused-vs-per-sample acceptance gate even with "
        "--sizes overridden (montecarlo suite only)" % MC_GATE_STAGES,
    )
    args = parser.parse_args(argv)
    if args.suite == "netlist":
        output = args.output or os.path.join(root, "BENCH_netlist.json")
        return run_netlist_suite(output)
    if args.suite == "overload":
        output = args.output or os.path.join(root, "BENCH_overload.json")
        return run_overload_suite(output)
    if args.suite == "scaling_out":
        output = args.output or os.path.join(root, "BENCH_scaling_out.json")
        return run_scaling_out_suite(output)
    if args.suite == "ptime":
        sizes = [
            int(part)
            for part in (args.sizes or ",".join(map(str, PTIME_SIZES))).split(",")
        ]
        output = args.output or os.path.join(root, "BENCH_ptime.json")
        return run_ptime_suite(sizes, output)
    if args.suite == "obs":
        sizes = [
            int(part)
            for part in (args.sizes or ",".join(map(str, OBS_SIZES))).split(",")
        ]
        output = args.output or os.path.join(root, "BENCH_obs.json")
        return run_obs_suite(sizes, output)
    if args.suite == "service":
        sizes = [
            int(part)
            for part in (args.sizes or ",".join(map(str, SERVICE_SIZES))).split(",")
        ]
        output = args.output or os.path.join(root, "BENCH_service.json")
        return run_service_suite(sizes, output)
    if args.suite == "montecarlo":
        sizes = [
            int(part)
            for part in (args.sizes or ",".join(map(str, MC_SIZES))).split(",")
        ]
        batches = [int(part) for part in args.samples.split(",")]
        output = args.output or os.path.join(root, "BENCH_montecarlo.json")
        # The n=800 fused acceptance gate runs with the full default
        # sweep; size-overridden smoke runs stay quick (opt back in
        # with --fused-gate).
        fused_gate = args.fused_gate or args.sizes is None
        return run_montecarlo_suite(sizes, batches, output,
                                    fused_gate=fused_gate)
    sizes = [
        int(part) for part in (args.sizes or ",".join(map(str, SIZES))).split(",")
    ]
    rows = []
    for stages in sizes:
        row = measure(stages)
        rows.append(row)
        print(
            "n=%-4d  sim legacy %7.3f ms  exact %7.3f ms (%.1fx)  "
            "float %7.3f ms (%.1fx)"
            % (
                stages,
                row["simulate_ms"]["legacy"],
                row["simulate_ms"]["exact"],
                row["simulate_speedup"]["exact"],
                row["simulate_ms"]["float"],
                row["simulate_speedup"]["float"],
            )
        )
    largest = rows[-1]
    document = {
        "benchmark": "compiled simulation kernels vs legacy dict-based loops",
        "workload": "ring_with_chords(stages=n, tokens=4, chords=n/4, seed=7)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "warmup_runs": WARMUP,
        "timer": "best of %d, wall clock" % REPS,
        "rows": rows,
        "headline": {
            "graph": "stages=%d" % largest["stages"],
            "float_simulation_speedup": largest["simulate_speedup"]["float"],
            "exact_simulation_speedup": largest["simulate_speedup"]["exact"],
            "float_end_to_end_speedup": largest["end_to_end_speedup"]["float"],
        },
    }
    output = args.output or os.path.join(root, "BENCH_cycle_time.json")
    with open(output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % os.path.abspath(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
