#!/usr/bin/env python
"""End-to-end smoke test of the real-circuit netlist pipeline.

Three legs, mirroring the acceptance criteria of the netlist front end:

1. **Library** — every shipped corpus circuit parses, ring-wraps,
   extracts structurally, and yields the golden unit-delay cycle time;
   the structural extraction is cross-checked bit-identical against the
   exhaustive oracle on c17.  The oracle's exploration of wrapped c17
   visits exactly 33,600 configurations and 170,384 moves (counts, not
   timings, so a dropped or double-counted move fails), and wrapped
   rca2, whose 1.37 M configurations exceed the ``extraction="auto"``
   state budget, falls back to the structural path with the same
   cycle time.
2. **CLI** — ``repro netlist corpus:mult16`` (>=1000 gates) returns
   exit code 0 and reports the golden cycle time; ``repro convert``
   round-trips c17 through structural Verilog.
3. **Service** — a spawned ``repro serve`` daemon answers
   ``POST /netlist`` for c17 and mult16, the repeated request hits the
   result cache, mult16 with ``"extraction": "oracle"`` runs out of its
   width-derived state budget and gets a structured 422
   ``StateSpaceLimitError`` within 5 s, and the daemon shuts down
   cleanly on SIGINT.

Exit code 0 means the whole loop works; this is the CI netlist smoke
job.

Usage::

    PYTHONPATH=src python scripts/netlist_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.circuits.extraction import extract_signal_graph  # noqa: E402
from repro.circuits.state_space import explore  # noqa: E402
from repro.netlist import (  # noqa: E402
    analyze_network,
    corpus,
    corpus_path,
    load_corpus,
    ring_wrap,
    structural_extract,
)
from repro.service.client import ServiceClient, ServiceError, free_port  # noqa: E402

GOLDEN = {"c17": 8, "rca8": 22, "sreg16": 132, "mult16": 91}

#: Reachable configurations and moves of wrapped c17.
C17_SPACE = (33_600, 170_384)


def fail(message: str) -> int:
    print("FAIL: %s" % message, file=sys.stderr)
    return 1


def library_leg() -> int:
    for name, expected in sorted(GOLDEN.items()):
        started = time.perf_counter()
        network = load_corpus(name)
        _, report = analyze_network(network)
        elapsed = time.perf_counter() - started
        if report["cycle_time"] != expected:
            return fail(
                "%s: cycle time %r, expected %r"
                % (name, report["cycle_time"], expected)
            )
        print(
            "smoke: %-7s %4d gates -> %5d events, lambda=%s (%s/%s, %.2fs)"
            % (
                name,
                network.num_gates,
                report["graph"]["events"],
                report["cycle_time"],
                report["extraction"],
                report["method"],
                elapsed,
            )
        )
    mult16 = load_corpus("mult16")
    if mult16.num_gates < 1000:
        return fail("mult16 has %d gates, need >=1000" % mult16.num_gates)

    wrapped = ring_wrap(load_corpus("c17"))
    if not structural_extract(wrapped).structurally_equal(
        extract_signal_graph(wrapped)
    ):
        return fail("structural extraction diverges from the oracle on c17")
    print("smoke: structural == oracle on wrapped c17")

    space = explore(wrapped)
    if (space.num_states, space.num_moves) != C17_SPACE:
        return fail(
            "wrapped c17 explored %d configurations / %d moves, expected %d / %d"
            % ((space.num_states, space.num_moves) + C17_SPACE)
        )
    print("smoke: wrapped c17 state space %d configurations, %d moves" % C17_SPACE)

    rca2 = corpus.ripple_carry_adder(2)
    _, auto = analyze_network(rca2)
    _, structural = analyze_network(rca2, extraction="structural")
    if auto["extraction"] != "structural":
        return fail("rca2 under auto used %r, expected the structural "
                    "fallback" % auto["extraction"])
    if auto["cycle_time"] != structural["cycle_time"]:
        return fail("rca2 auto lambda %r != structural %r"
                    % (auto["cycle_time"], structural["cycle_time"]))
    print("smoke: rca2 (%d wrapped signals) falls back to structural, lambda=%s"
          % (auto["wrapped"]["signals"], auto["cycle_time"]))
    return 0


def cli_leg() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )

    result = subprocess.run(
        [sys.executable, "-m", "repro", "netlist", "corpus:mult16"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    if result.returncode != 0:
        return fail("repro netlist corpus:mult16 rc=%d\n%s"
                    % (result.returncode, result.stderr))
    if "cycle time: 91" not in result.stdout:
        return fail("mult16 CLI output missing golden cycle time:\n%s"
                    % result.stdout)
    print("smoke: CLI analyzed mult16 (>=1000 gates), lambda=91")

    convert = subprocess.run(
        [sys.executable, "-m", "repro", "convert", "corpus:c17"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    if convert.returncode != 0 or "NAND" not in convert.stdout:
        return fail("repro convert corpus:c17 failed:\n%s" % convert.stderr)
    print("smoke: CLI converted c17 to .bench on stdout")
    return 0


def service_leg() -> int:
    port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--quiet"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )

    def daemon_fail(message: str) -> int:
        print("FAIL: %s" % message, file=sys.stderr)
        daemon.kill()
        out, _ = daemon.communicate(timeout=10)
        print("--- daemon output ---\n%s" % out, file=sys.stderr)
        return 1

    try:
        client = ServiceClient("http://127.0.0.1:%d" % port, timeout=300)
        if not client.wait_until_ready(timeout=30):
            return daemon_fail("daemon did not come up within 30s")

        with open(corpus_path("c17"), encoding="utf-8") as handle:
            c17 = handle.read()
        first = client.netlist(c17, name="c17")
        if first["cycle_time"] != GOLDEN["c17"]:
            return daemon_fail("c17 /netlist lambda %r" % first["cycle_time"])
        if first["cached"]:
            return daemon_fail("first /netlist claimed a cache hit")
        second = client.netlist(c17, name="c17")
        if not second["cached"]:
            return daemon_fail("second identical /netlist missed the cache")
        print("smoke: /netlist c17 lambda=%s, repeat cached" %
              first["cycle_time"])

        with open(corpus_path("mult16"), encoding="utf-8") as handle:
            mult16 = handle.read()
        started = time.perf_counter()
        big = client.netlist(mult16, name="mult16")
        elapsed = time.perf_counter() - started
        if big["cycle_time"] != GOLDEN["mult16"]:
            return daemon_fail("mult16 /netlist lambda %r"
                               % big["cycle_time"])
        print(
            "smoke: /netlist mult16 lambda=%s via %s/%s in %.2fs"
            % (big["cycle_time"], big["extraction"], big["method"], elapsed)
        )

        started = time.perf_counter()
        try:
            client.netlist(mult16, name="mult16", extraction="oracle")
        except ServiceError as error:
            elapsed = time.perf_counter() - started
            if (error.status, error.kind) != (422, "StateSpaceLimitError"):
                return daemon_fail("mult16 oracle: %s" % error)
        else:
            return daemon_fail("mult16 oracle extraction fit its state budget")
        if elapsed > 5.0:
            return daemon_fail("mult16 oracle 422 took %.2fs (limit 5s)" % elapsed)
        print("smoke: /netlist mult16 oracle -> 422 StateSpaceLimitError in %.2fs"
              % elapsed)

        stats = client.stats()
        if stats["requests"].get("netlist", 0) < 4:
            return daemon_fail("netlist request counter: %r"
                               % stats["requests"])
    except Exception as error:  # noqa: BLE001 — smoke harness boundary
        return daemon_fail("%s: %s" % (type(error).__name__, error))

    daemon.send_signal(signal.SIGINT)
    try:
        out, _ = daemon.communicate(timeout=15)
    except subprocess.TimeoutExpired:
        return daemon_fail("daemon did not exit on SIGINT")
    if daemon.returncode != 0:
        print("FAIL: daemon exit code %d\n%s" % (daemon.returncode, out),
              file=sys.stderr)
        return 1
    print("smoke: clean SIGINT shutdown")
    return 0


def main() -> int:
    for leg in (library_leg, cli_leg, service_leg):
        rc = leg()
        if rc:
            return rc
    print("smoke: netlist pipeline OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
