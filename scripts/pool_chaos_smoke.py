#!/usr/bin/env python
"""Pool chaos smoke: the sharded service's overload behaviour stays
bounded while workers are being killed out from under it.

Spawns ``repro serve --workers 2 --router --brownout`` with shared
memory disabled (``REPRO_DISABLE_SHM=1``) and a deliberately small
admission envelope, then:

1. fills the (shared) disk cache with warm results;
2. fires a seeded storm from 10 threads — mixed
   ``interactive``/``bulk`` priorities, a slice of tight deadlines —
   while a killer thread SIGKILLs a live worker twice mid-storm.  The
   storm sends at least 240 requests and keeps going until both kills
   have landed and every restarted worker has answered requests
   (bounded by ``STORM_TIMEOUT_S``), so a restarted worker is never
   left without the traffic its limiter needs;
3. keeps a saturating brownout phase running until at least one
   Monte-Carlo response comes back degraded (honestly stamped).

Invariants checked (exit 0 means all held):

* every request is answered or cleanly shed — success or structured
  429/503/504, never a hang, transport error, 500, or traceback;
* degraded responses carry ``{"degraded": {"requested", "served"}}``
  with ``floor <= served < requested`` — degradation is never silent;
* the AIMD limiter converges: every worker reports
  ``min_limit <= limit <= ceiling`` with a nonzero sample count;
* storm p99 wall time stays bounded;
* the supervisor restarted every SIGKILLed worker;
* after SIGTERM the pool exits 0 with zero tracebacks, no orphaned
  descendant processes, and no new shared-memory segments.

Usage::

    PYTHONPATH=src python scripts/pool_chaos_smoke.py
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import uuid

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.circuits.library import muller_ring_tsg  # noqa: E402
from repro.service.client import (  # noqa: E402
    DeadlineExceededError,
    ServerSaturatedError,
    ServiceClient,
    ServiceError,
    free_port,
)
from repro.service.resilience import RetryPolicy  # noqa: E402

STORM_REQUESTS = 240     # the storm sends at least this many requests
STORM_TIMEOUT_S = 60.0   # and stops after this long whatever happened
STORM_THREADS = 10
RING_SIZES = (3, 4, 5, 6, 7)
P99_BOUND_S = 12.0
BROWNOUT_FLOOR = 64
BROWNOUT_SAMPLES = 4096
BROWNOUT_TIMEOUT_S = 45.0
MARKER_ENV = "REPRO_POOL_CHAOS_MARKER"


class Failure(Exception):
    pass


def check(condition, message):
    if not condition:
        raise Failure(message)


def make_client(url, seed, retries=4, on_degraded=None):
    return ServiceClient(
        url,
        timeout=25,
        retries=retries,
        retry_policy=RetryPolicy(retries=retries, base=0.05, cap=0.5,
                                 rng=random.Random(seed)),
        on_degraded=on_degraded,
    )


def worker_blocks(stats):
    return [
        block for block in stats.get("workers", {}).values()
        if isinstance(block, dict) and "admission" in block
    ]


def shm_segment_count():
    try:
        return len(os.listdir("/dev/shm"))
    except OSError:
        return 0


def reap(daemon):
    """Hard-stop the whole pool process group; best-effort output."""
    try:
        os.killpg(daemon.pid, signal.SIGKILL)
    except OSError:
        try:
            daemon.kill()
        except OSError:
            pass
    try:
        return daemon.communicate(timeout=10)[0] or ""
    except (subprocess.TimeoutExpired, ValueError, OSError):
        return ""


def descendants_with_marker(marker):
    """PIDs of live processes that inherited our marker env var."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/environ" % entry, "rb") as handle:
                environ = handle.read()
        except OSError:
            continue
        if marker.encode("utf-8") in environ:
            found.append(int(entry))
    return found


def warm_disk_cache(url):
    client = make_client(url, seed=77)
    for index, size in enumerate(RING_SIZES):
        result = client.montecarlo(muller_ring_tsg(size), samples=100,
                                   seed=500 + index)
        check(result.get("count") == 100, "warm request truncated: %r"
              % result)
    return len(RING_SIZES)


def every_worker_served(stats, killed):
    """True once every pool member is live, none is a killed process,
    and each one's limiter has seen requests since it (re)started."""
    pids = (stats.get("pool") or {}).get("pids") or {}
    blocks = worker_blocks(stats)
    return len(blocks) == len(pids) and all(
        block.get("pid") not in killed
        and ((block.get("overload") or {}).get("limiter") or {}).get(
            "samples", 0) > 0
        for block in blocks
    )


def storm_with_kills(url):
    """Seeded storm; a killer thread SIGKILLs a live worker twice."""
    graphs = {size: muller_ring_tsg(size) for size in RING_SIZES}
    lock = threading.Lock()
    issued = [0]
    outcomes = {}
    durations = []
    killed = []
    storm_done = threading.Event()
    # Set once both kills landed and every restarted worker answered.
    settled = threading.Event()
    deadline = time.monotonic() + STORM_TIMEOUT_S

    def next_index():
        with lock:
            if time.monotonic() >= deadline or (
                issued[0] >= STORM_REQUESTS and settled.is_set()
            ):
                return None
            issued[0] += 1
            return issued[0] - 1

    def killer():
        probe = make_client(url, seed=1234, retries=2)
        strikes = 0
        # The storm runs until both strikes landed, so each one hits
        # it while it is still thick and killed in-flight work is
        # observed by the invariants.
        while strikes < 2 and not storm_done.wait(0.75):
            try:
                pids = probe.stats()["pool"]["pids"]
            except (ServiceError, KeyError, OSError):
                continue
            victims = [
                pid for pid in pids.values() if pid not in killed
            ] or list(pids.values())
            if not victims:
                continue
            victim = victims[strikes % len(victims)]
            try:
                os.kill(victim, signal.SIGKILL)
            except OSError:
                continue
            killed.append(victim)
            strikes += 1
            # Let the supervisor restart before the second strike.
            if storm_done.wait(2.0):
                return
        while not storm_done.wait(0.25):
            try:
                if every_worker_served(probe.stats(), killed):
                    settled.set()
                    return
            except (ServiceError, OSError):
                continue

    def run_worker(worker_index):
        client = make_client(url, seed=worker_index)
        while True:
            index = next_index()
            if index is None:
                return
            graph = graphs[RING_SIZES[index % len(RING_SIZES)]]
            tight = index % 6 == 0
            priority = ("interactive", "normal", "bulk")[index % 3]
            # 8s normal deadlines bound queue sojourn: an admitted
            # request can never wait longer than its own budget.
            timeout_ms = 50 if tight else 8000
            started = time.monotonic()
            try:
                if index % 11 == 0:
                    client.analyze(graph, timeout_ms=timeout_ms,
                                   priority=priority)
                else:
                    # Mostly-distinct seeds keep the storm computing
                    # (cache hits would finish before the first kill).
                    client.montecarlo(
                        graph, samples=400, seed=index,
                        timeout_ms=timeout_ms, priority=priority,
                    )
                outcome = "ok"
            except DeadlineExceededError:
                outcome = "deadline_504"
            except ServerSaturatedError:
                outcome = "saturated_429"
            except ServiceError as error:
                if error.status == 503:
                    outcome = "unavailable_503"
                else:
                    outcome = "UNBOUNDED:%s status=%d" % (error.kind,
                                                          error.status)
            except Exception as error:  # noqa: BLE001 — invariant boundary
                outcome = "UNBOUNDED:%s" % type(error).__name__
            finally:
                elapsed = time.monotonic() - started
            with lock:
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
                durations.append(elapsed)

    threads = [
        threading.Thread(target=run_worker, args=(i,))
        for i in range(STORM_THREADS)
    ]
    chaos_thread = threading.Thread(target=killer, daemon=True)
    for thread in threads:
        thread.start()
    chaos_thread.start()
    for thread in threads:
        thread.join()
    storm_done.set()
    chaos_thread.join(5)

    check(len(durations) == issued[0],
          "lost requests: %d of %d answered" % (len(durations), issued[0]))
    unbounded = {k: v for k, v in outcomes.items()
                 if k.startswith("UNBOUNDED")}
    check(not unbounded, "unbounded failures: %r" % unbounded)
    check(outcomes.get("ok", 0) >= len(durations) // 3,
          "too few successes: %r" % outcomes)
    durations.sort()
    p99 = durations[int(0.99 * (len(durations) - 1))]
    check(p99 < P99_BOUND_S,
          "p99 latency %.2fs exceeds %.1fs bound (outcomes %r)"
          % (p99, P99_BOUND_S, outcomes))
    check(killed, "killer thread never SIGKILLed a worker")
    check(settled.is_set(),
          "storm hit its %.0fs bound before both kills landed and every "
          "restarted worker answered (killed %r)" % (STORM_TIMEOUT_S, killed))
    return outcomes, p99, killed


def brownout_until_degraded(url):
    """Saturate /montecarlo until a degraded-stamped response appears."""
    lock = threading.Lock()
    stamps = []

    def on_degraded(stamp):
        with lock:
            stamps.append(stamp)

    stop = threading.Event()
    graph = muller_ring_tsg(6)
    counter = [0]

    def pound(worker_index):
        client = make_client(url, seed=9000 + worker_index, retries=2,
                             on_degraded=on_degraded)
        while not stop.is_set():
            with lock:
                counter[0] += 1
                seed = counter[0]
            try:
                client.montecarlo(graph, samples=BROWNOUT_SAMPLES,
                                  seed=seed, timeout_ms=20000,
                                  priority="bulk")
            except ServiceError:
                continue

    threads = [
        threading.Thread(target=pound, args=(i,), daemon=True)
        for i in range(12)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + BROWNOUT_TIMEOUT_S
    while time.monotonic() < deadline:
        with lock:
            if stamps:
                break
        time.sleep(0.25)
    stop.set()
    for thread in threads:
        thread.join(10)
    check(stamps, "no degraded response within %.0fs of saturation"
          % BROWNOUT_TIMEOUT_S)
    for stamp in stamps:
        check(
            isinstance(stamp, dict)
            and stamp.get("requested") == BROWNOUT_SAMPLES
            and BROWNOUT_FLOOR <= stamp.get("served", 0)
            < BROWNOUT_SAMPLES,
            "malformed degraded stamp: %r" % stamp,
        )
    return len(stamps)


def check_limiter_and_health(stats, killed):
    blocks = worker_blocks(stats)
    check(blocks, "no worker blocks in router /stats: %r" % sorted(stats))
    for block in blocks:
        limiter = (block.get("overload") or {}).get("limiter")
        check(limiter is not None,
              "worker %r reports no adaptive limiter" % block.get("worker_id"))
        check(
            limiter["min_limit"] <= limiter["limit"] <= limiter["ceiling"],
            "limiter diverged: %r" % limiter,
        )
        check(limiter["samples"] > 0, "limiter saw no samples: %r" % limiter)
    restarts = stats["pool"]["restarts"]
    check(sum(restarts.values()) >= len(set(killed)),
          "supervisor restarts %r do not cover %d kills"
          % (restarts, len(set(killed))))
    check("health" in stats, "router /stats lacks the health block")
    shm_fallbacks = sum(
        ((block.get("kernel") or {}).get("shm") or {}).get("fallback", 0)
        for block in blocks
    )
    return {str(k): v for k, v in restarts.items()}, shm_fallbacks


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="repro-pool-chaos-")
    marker = "pool-chaos-%s" % uuid.uuid4().hex
    port = free_port()
    url = "http://127.0.0.1:%d" % port
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env["REPRO_DISABLE_SHM"] = "1"
    env[MARKER_ENV] = marker
    shm_before = shm_segment_count()
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--quiet",
            "--workers", "2", "--router",
            "--brownout", "--brownout-floor", str(BROWNOUT_FLOOR),
            "--disk-cache", "--cache-dir", cache_dir,
            "--max-inflight", "2", "--max-queue-depth", "8",
            "--kernel-executor", "process", "--kernel-workers", "2",
            "--request-timeout", "20",
            "--drain-timeout", "10",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        start_new_session=True,
    )
    out = ""
    try:
        client = make_client(url, seed=0)
        check(client.wait_until_ready(timeout=60),
              "pool did not come up within 60s")

        warmed = warm_disk_cache(url)
        print("pool-chaos: %d results warmed onto the disk tier" % warmed)

        outcomes, p99, killed = storm_with_kills(url)
        print("pool-chaos: storm outcomes %r, p99 %.2fs, SIGKILLed pids %r"
              % (outcomes, p99, killed))

        degraded = brownout_until_degraded(url)
        print("pool-chaos: %d honestly-stamped degraded responses under "
              "saturation" % degraded)

        # Give the supervisor a beat to finish any in-progress restart
        # before reading the final counters.
        stats = None
        for _ in range(40):
            try:
                stats = client.stats()
                if len(worker_blocks(stats)) >= 2:
                    break
            except ServiceError:
                pass
            time.sleep(0.25)
        check(stats is not None, "router /stats unreachable at the end")
        restarts, shm_fallbacks = check_limiter_and_health(stats, killed)
        print("pool-chaos: limiter converged on every worker, restarts %r, "
              "shm fallbacks %d (shm disabled)" % (restarts, shm_fallbacks))

        daemon.send_signal(signal.SIGTERM)
        out, _ = daemon.communicate(timeout=60)
        check(daemon.returncode == 0,
              "pool exit code %d" % daemon.returncode)
        check("shut down cleanly" in out, "missing clean-shutdown message")

        for _ in range(50):  # descendants may take a beat to reap
            orphans = descendants_with_marker(marker)
            if not orphans:
                break
            time.sleep(0.2)
        check(not orphans, "orphaned processes outlived the pool: %r"
              % orphans)
        shm_after = shm_segment_count()
        check(shm_after <= shm_before,
              "shared-memory segments leaked: %d -> %d"
              % (shm_before, shm_after))
    except Failure as failure:
        print("FAIL: %s" % failure, file=sys.stderr)
        if daemon.poll() is None:
            out = reap(daemon)
        print("--- pool output ---\n%s" % out, file=sys.stderr)
        return 1
    except Exception as error:  # noqa: BLE001 — smoke harness boundary
        print("FAIL: %s: %s" % (type(error).__name__, error), file=sys.stderr)
        if daemon.poll() is None:
            out = reap(daemon)
        print("--- pool output ---\n%s" % out, file=sys.stderr)
        return 1
    finally:
        if daemon.poll() is None:
            reap(daemon)
        shutil.rmtree(cache_dir, ignore_errors=True)

    if "Traceback" in out:
        print("FAIL: traceback in pool log\n%s" % out, file=sys.stderr)
        return 1
    print("pool chaos smoke: every invariant held (answered-or-shed, "
          "honest degradation, limiter converged, no orphans, no shm leaks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
