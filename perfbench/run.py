"""The repo benchmark: seeded workloads, checked answers, metrics by name.

    python3 perfbench/run.py --workload sweep|solve|serve|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run spawns :data:`ROUNDS` fresh
round processes (``perfbench/round.py``) one after another; each builds
one part of the seeded op list, warms up, times every op once and checks
every answer outside the timed phase.  Parts hold the same job mix with
their own draws, so the pooled percentiles rest on every part's ops.

* ``--trace 0``: the end-to-end metrics ``setup_s``, ``ops_per_s``,
  ``p50_ms``, ``p95_ms`` and ``peak_rss_mb``, each part in its round;
* ``--trace 1``: the per-layer metrics of one traced round, which runs
  part 0 between two untraced rounds of part 0 that give
  ``trace_overhead_pct``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("sweep", "solve", "serve")

#: Fresh processes per run, one per part of the run's list.
ROUNDS = 3

#: Blocks a round runs at least: enough ops beyond p95 once pooled over
#: rounds, and enough measured time that runs of the same code agree.
MIN_BLOCKS = {"sweep": 4, "solve": 2, "serve": 2}

ROUND_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("p50_ms", "ms"), ("p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units():
    units = {name: "ms" for name in spans.SELF_MS}
    units.update({name: "count" for name in spans.COUNTS})
    units.update({
        "service.cache.compiled": "count", "service.cache.adopted": "count",
        "service.cache.rebound": "count", "service.cache.result_hit_ratio": "ratio",
        "service.server.http_ms": "ms", "service.transport.wait_ms": "ms",
        "service.queue.batch_size": "count",
        "unattributed_pct": "%", "trace_overhead_pct": "%",
    })
    return units


def blocks_for(workload: str, seconds: float) -> int:
    """List size: the blocks one round runs in its share of ``seconds``."""
    module = __import__(workload)
    share = seconds / ROUNDS - module.FIXED_S
    return max(MIN_BLOCKS[workload], int(round(share / module.BLOCK_S)))


def run_round(workload: str, seed: int, part: int, blocks: int, traced: bool,
              final: bool) -> dict:
    spawned_at = time.monotonic()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "round.py"), workload, str(seed), str(part),
         str(blocks), "1" if traced else "0", "1" if final else "0", repr(spawned_at)],
        stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError("%s round exited with %d" % (workload, completed.returncode))
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's rounds, aggregated; prints a readable summary."""
    blocks = blocks_for(workload, seconds)
    # (part, traced) per round
    plan = [(0, False), (0, True), (0, False)] if trace else [
        (part, False) for part in range(ROUNDS)
    ]
    rounds = [
        run_round(workload, seed, part, blocks, traced, index == len(plan) - 1)
        for index, (part, traced) in enumerate(plan)
    ]
    problems = [problem for result in rounds for problem in result["problems"]]
    module = __import__(workload)
    expected = [
        stats.digest(module.specs(stats.list_seed(seed, part), blocks)) for part, _ in plan
    ]
    if [result["digest"] for result in rounds] != expected:
        problems.append("a round ran another op list than its seed and part give")
    attempted = sum(len(result["latencies_s"]) for result in rounds)
    failed = sum(len(result["failed_ops"]) for result in rounds)
    if trace:
        throughput = [len(r["latencies_s"]) / r["wall_s"] for r in rounds]
        units = per_layer_units()
        layers = dict(rounds[1]["layers"])
        untraced = statistics.mean((throughput[0], throughput[2]))
        layers["trace_overhead_pct"] = 100.0 * (1.0 - throughput[1] / untraced)
        # Daemon-only layers are idle in-process.
        values = {name: layers.get(name, 0.0) for name in units}
    else:
        units = dict(END_TO_END)
        # Every part's ops over all measured time: a round on a slow
        # stretch of a shared host moves these by its share, not all or
        # nothing as a median over three rounds would.
        latencies = [value for r in rounds for value in r["latencies_s"]]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "ops_per_s": attempted / sum(r["wall_s"] for r in rounds),
            "p50_ms": _ms(stats.percentile(latencies, 50)),
            "p95_ms": _ms(stats.percentile(latencies, 95)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items() if value is not None
    }
    print("%s: seed %d, %d ops x %d rounds, digests %s" % (
        workload, seed, len(rounds[0]["latencies_s"]), len(rounds),
        " ".join(result["digest"] for result in rounds)))
    for name, metric in metrics.items():
        print("  %-32s %14.4f %s" % (name, metric["value"], metric["unit"]))
    print("  attempted %d, failed %d" % (attempted, failed))
    for problem in problems:
        print("  problem: %s" % problem)
    print(json.dumps({"details": workload, "rounds": [
        {key: r[key] for key in r if key not in ("latencies_s", "layers")} for r in rounds
    ]}))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _ms(seconds):
    return None if seconds is None else 1000.0 * seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a repro checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        workload: measure(workload, args.seed, args.seconds, bool(args.trace))
        for workload in chosen
    }
    if len(results) == 1:
        summary = results[chosen[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                "%s.%s" % (workload, name): metric
                for workload, r in results.items() for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
