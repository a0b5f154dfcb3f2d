"""One measured round of a workload, in a fresh process.

    python3 perfbench/round.py WORKLOAD SEED PART BLOCKS TRACE FINAL SPAWNED_AT

Run from the root of a checkout by ``perfbench/run.py``: imports
``repro`` from ``src/``, builds part ``PART`` of the seeded op list,
warms up, runs every op once under the clock, then checks every answer
and prints one JSON object with the raw measurements as its last line.
``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide on Linux), so set-up
time includes start-up.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import sys
import time

import stats


def import_repro(root: str) -> None:
    """Import ``repro`` from the checkout's ``src/``, nowhere else."""
    source = os.path.join(root, "src")
    sys.path.insert(0, source)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(source) + os.sep):
        raise SystemExit("repro imported from %s, not %s" % (repro.__file__, source))


def timed_reference() -> tuple:
    """(host reference ms, seconds the reference itself took)."""
    start = time.monotonic()
    value = stats.host_reference_ms()
    return value, time.monotonic() - start


def run_in_process(module, ops, traced: bool, final: bool, spawned_at: float) -> dict:
    """Time ``ops`` on one thread; check the answers afterwards."""
    from repro.service.cache import service_cache_stats

    workload = module.Workload(ops)
    workload.warm_up()
    # The whole list's inputs live until the checks.  Freezing them keeps
    # full collections from rescanning the benchmark's own inputs; what
    # the program allocates while timed is collected as usual.
    gc.collect()
    gc.freeze()
    recorder = None
    if traced:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    host_before, reference_s = timed_reference()
    cache_before = service_cache_stats()
    outputs, latencies = [], []
    setup_s = time.monotonic() - spawned_at - reference_s
    started = time.perf_counter()
    for index in range(len(ops)):
        if recorder is not None:
            recorder.set_op(index)
        begin = time.perf_counter()
        try:
            outputs.append(workload.run(index))
        except Exception as error:  # noqa: BLE001 — a failed op is counted, not fatal
            print("op %d failed: %r" % (index, error), file=sys.stderr)
            outputs.append(error)
        latencies.append(time.perf_counter() - begin)
    wall = time.perf_counter() - started
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "latencies_s": latencies,
        "peak_rss_mb": stats.vm_hwm_mb(),
    }
    if recorder is not None:
        timed_spans, counts = list(recorder.spans), dict(recorder.counts)
        layers = spans.layer_metrics(stats.self_times(timed_spans), counts)
        layers.update(spans.cache_metrics(cache_before, service_cache_stats()))
        layers["unattributed_pct"] = stats.unattributed_pct(timed_spans, wall, module.LANES)
        result["layers"] = layers
    result["host_ref_ms"] = [host_before, stats.host_reference_ms()]
    verdicts = workload.check(outputs)
    result["failed_ops"] = [index for index, ok in enumerate(verdicts) if not ok]
    result["problems"] = workload.global_checks(outputs, final)
    return result


def main(argv) -> int:
    workload, seed, part, blocks, traced, final, spawned_at = argv[1:8]
    import_repro(os.getcwd())
    module = importlib.import_module(workload)
    ops = module.specs(stats.list_seed(int(seed), int(part)), int(blocks))
    if workload == "serve":
        # serve times set-up from daemon spawn and has no final-round check
        result = module.run_round(ops, traced == "1")
    else:
        result = run_in_process(module, ops, traced == "1", final == "1", float(spawned_at))
    result["digest"] = stats.digest(ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
