"""``serve``: a closed loop against stock ``python -m repro serve``.

One worker with default flags (metrics on, tracing off; ``--port 0``
and ``--quiet`` only choose the port and silence the access log).  Two
client threads each send their half of the list over one keep-alive
connection through ``repro.service.client.PooledTransport``; a thread
sends its next request when the previous answer has arrived.  Request
bodies are encoded at set-up.

Most requests are ``/analyze`` repeats over a pool of 8 topologies, far
below the 128-entry compile cache, so they are result-cache hits.  The
rest are ``/analyze`` delay variants (compile-cache rebind plus the
exact kernel), λ-only ``/montecarlo`` with fresh seeds (through the
coalescer), ``/ptime``, ``/netlist`` on small circuits and malformed
requests that must get their documented 4xx.  Per-request plumbing
(HTTP, decode, hashing, caches, admission, metrics) dominates here and
barely appears in the other workloads.

The multi-worker router answers 404 to ``POST /ptime`` and
``POST /netlist`` at this commit, so this workload runs the default
single worker; a router workload is left to a change after that fix.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List

import stats
from stats import strata

LANES = 2

#: One block of 40 requests: 60% hits, 15% delay variants, 12.5%
#: Monte-Carlo, 7.5% P-time, 2.5% netlist, 2.5% malformed.  With one
#: netlist job per 40, p95 falls inside the variant/Monte-Carlo/P-time
#: latencies instead of on the edge of the dearer netlist class.
BLOCK = (("hit",) * 24 + ("variant",) * 6 + ("mc",) * 5 + ("ptime",) * 3
         + ("netlist",) + ("bad",))

#: Topologies in the repeated pool.
POOL = 8

#: Seconds per block on the reference host (2-core x86 container).
BLOCK_S, FIXED_S = 1.2, 0.0

#: Small circuits for ``/netlist``: oracle (sreg4, sreg8), structural +
#: paper algorithm (rca4), structural + howard-ratio (mult4).
CIRCUITS = (("sreg", 4), ("rca", 4), ("sreg", 8), ("mult", 4))

#: Malformed requests: (path, body, status, error type) per the API doc.
#: A POST to an unknown path is not among them: the server answers 404
#: without reading the body, which then poisons the next request on the
#: keep-alive connection.  :func:`desync_probe` shows that defect apart
#: from the timed list (see README.md).
MALFORMED = (
    ("/analyze", "not json", 400, "BadRequest"),
    ("/analyze", {"kernel": "bogus"}, 400, "BadRequest"),
    ("/montecarlo", {"samples": 0}, 400, "BadRequest"),
    ("/ptime", {"mode": "bogus"}, 400, "BadRequest"),
)

#: Response fields that differ between equal answers: the cache flag and
#: the netlist pipeline's wall-clock phase timings.
VOLATILE = ("cached", "timings_ms")

ENDPOINTS = ("/analyze", "/montecarlo", "/ptime", "/netlist", "other")


def specs(seed: int, blocks: int) -> List[Dict]:
    """The seeded request list: plain data, encoded into bodies at set-up."""
    rng = random.Random(seed)
    kinds = list(BLOCK * blocks)
    rng.shuffle(kinds)
    pool = [
        {"n": int(n), "b": 4 + index % 5, "topo": rng.randrange(2 ** 31)}
        for index, n in enumerate(strata(rng, POOL, 60, 200))
    ]
    mc_samples = iter(strata(rng, kinds.count("mc"), 100, 400))
    ptime_n = iter(strata(rng, kinds.count("ptime"), 8, 20))
    seen: Dict[str, int] = {}
    ops = []
    for kind in kinds:
        index = seen[kind] = seen.get(kind, -1) + 1
        spec = {"kind": kind}
        if kind in ("hit", "variant", "mc"):
            spec.update(pool[index % POOL])
        if kind == "variant":
            spec["delays"] = rng.randrange(1, 2 ** 31)
        elif kind == "mc":
            spec.update(samples=int(next(mc_samples)), seed=rng.randrange(2 ** 31))
        elif kind == "ptime":
            spec.update(
                n=int(next(ptime_n)), b=2 + index % 3, topo=rng.randrange(2 ** 31),
                mode=("check", "lambda-range")[index % 2], planted=index % 4 == 3,
            )
        elif kind == "netlist":
            circuit, width = CIRCUITS[index % len(CIRCUITS)]
            spec.update(circuit=circuit, width=width, seed=rng.randrange(2 ** 31))
        elif kind == "bad":
            spec.update(malformed=index % len(MALFORMED), n=pool[0]["n"],
                        b=pool[0]["b"], topo=pool[0]["topo"])
        ops.append(spec)
    return ops


def _graph(spec: Dict):
    import sweep

    return sweep.build_graph(dict(spec, delays=spec.get("delays", 0)))


def request_of(spec: Dict):
    """(path, payload or raw text, expected status, expected error type)."""
    from repro.io.json_io import graph_to_dict, ptime_graph_to_dict

    kind = spec["kind"]
    if kind in ("hit", "variant"):
        return "/analyze", {"graph": graph_to_dict(_graph(spec))}, 200, None
    if kind == "mc":
        return "/montecarlo", {
            "graph": graph_to_dict(_graph(spec)), "samples": spec["samples"],
            "seed": spec["seed"], "track_criticality": False,
        }, 200, None
    if kind == "ptime":
        import solve

        ptg = solve._ptime_instance(dict(spec, float=False, tightness=0.5))[0]
        return "/ptime", {"graph": ptime_graph_to_dict(ptg), "mode": spec["mode"]}, 200, None
    if kind == "netlist":
        import solve

        source = solve._source(dict(spec, format="bench"))
        return "/netlist", {"source": source, "seed": spec["seed"]}, 200, None
    path, body, status, error = MALFORMED[spec["malformed"]]
    if isinstance(body, dict):
        body = dict(body, graph=graph_to_dict(_graph(spec)))
    return path, body, status, error


def _encode(payload) -> bytes:
    return (payload if isinstance(payload, str) else json.dumps(payload)).encode("utf-8")


HEADERS = {"Content-Type": "application/json"}


class Daemon:
    """A ``repro serve`` child on an ephemeral port."""

    def __init__(self, traced_spans: str = None) -> None:
        root = os.getcwd()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        if traced_spans is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, os.path.join("perfbench", "serve_traced.py"), traced_spans]
        self.process = subprocess.Popen(
            command + ["serve", "--port", "0", "--quiet"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=root,
        )
        banner = self.process.stdout.readline()
        if "listening on" not in banner:
            self.stop()
            raise RuntimeError("daemon did not start: %r" % banner)
        self.url = banner.split("listening on", 1)[1].strip()

    def stop(self) -> str:
        """SIGTERM, wait for the drain, return the rest of stdout."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            rest, _ = self.process.communicate()
        return rest or ""


def _get_json(transport, path: str):
    status, raw, _ = transport.request_ex("GET", path, None, {})
    if status != 200:
        raise RuntimeError("GET %s -> %d" % (path, status))
    return json.loads(raw)


def _request_seconds(transport) -> float:
    """Server-side request seconds summed over the POST endpoints."""
    from repro.obs.textformat import parse

    status, raw, _ = transport.request_ex("GET", "/metrics", None, {})
    family = parse(raw.decode("utf-8")).get("repro_request_seconds")
    if family is None:
        return 0.0
    return sum(
        value for name, labels, value in family.samples
        if name.endswith("_sum") and labels.get("endpoint") in ENDPOINTS
    )


def desync_probe(url: str, body: bytes) -> bool:
    """True when a POST to an unknown path still poisons its connection.

    Sends ``POST /nope`` with a JSON body, then a valid ``/analyze`` on
    the same keep-alive connection, and reports whether the second one
    came back as the server's HTML 400 for the first one's unread body.
    """
    from repro.service.client import PooledTransport

    transport = PooledTransport(url, pool_connections=1)
    try:
        transport.request_ex("POST", "/nope", body, HEADERS)
        status, raw, _ = transport.request_ex("POST", "/analyze", body, HEADERS)
    finally:
        transport.close()
    return status == 400 and raw.lstrip().startswith(b"<")


def run_round(ops: List[Dict], traced: bool) -> dict:
    from repro.service.client import PooledTransport

    requests = [request_of(spec) for spec in ops]
    bodies = [_encode(payload) for _, payload, _, _ in requests]
    hit_bodies = list(dict.fromkeys(
        body for body, spec in zip(bodies, ops) if spec["kind"] == "hit"
    ))
    warm_specs = [
        {"kind": "variant", "n": 50, "b": 4, "topo": 1, "delays": 3},
        {"kind": "mc", "n": 50, "b": 4, "topo": 1, "samples": 100, "seed": 3},
        {"kind": "ptime", "n": 9, "b": 3, "topo": 4, "mode": "check", "planted": False},
        {"kind": "netlist", "circuit": "sreg", "width": 3, "seed": 1},
    ]
    recorder = None
    spans_path = None
    if traced:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        spans_path = os.path.join(os.getcwd(), ".perfbench", "daemon-spans-%d.json" % os.getpid())
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    started_daemon = time.monotonic()
    daemon = Daemon(spans_path)
    try:
        transports = [PooledTransport(daemon.url, pool_connections=1) for _ in range(LANES)]
        for body in hit_bodies:
            transports[0].request_ex("POST", "/analyze", body, HEADERS)
        for spec in warm_specs:
            path, payload, _, _ = request_of(spec)
            transports[1].request_ex("POST", path, _encode(payload), HEADERS)
        setup_end = time.monotonic()
        host_before = stats.host_reference_ms()
        if traced:
            stats_before = _get_json(transports[0], "/stats")
            seconds_before = _request_seconds(transports[0])
        outcomes: List = [None] * len(ops)
        latencies: List = [0.0] * len(ops)
        barrier = threading.Barrier(LANES + 1)

        def lane(number: int) -> None:
            transport = transports[number]
            barrier.wait()
            for index in range(number, len(ops), LANES):
                if recorder is not None:
                    recorder.set_op(index)
                path, _, _, _ = requests[index]
                begin = time.perf_counter()
                try:
                    status, raw, _ = transport.request_ex("POST", path, bodies[index], HEADERS)
                    outcomes[index] = (status, raw)
                except Exception as error:  # noqa: BLE001 — counted as a failed op
                    outcomes[index] = error
                latencies[index] = time.perf_counter() - begin

        threads = [threading.Thread(target=lane, args=(number,)) for number in range(LANES)]
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        barrier.wait()
        for thread in threads:
            thread.join()
        ended = time.perf_counter()
        peak_rss = stats.vm_hwm_mb(str(daemon.process.pid))
        result = {
            "setup_s": setup_end - started_daemon,
            "wall_s": ended - started,
            "latencies_s": latencies,
            "peak_rss_mb": peak_rss,
        }
        if traced:
            stats_after = _get_json(transports[0], "/stats")
            server_s = _request_seconds(transports[0]) - seconds_before
            client_spans = list(recorder.spans)
        for transport in transports:
            transport.close()
        result["host_ref_ms"] = [host_before, stats.host_reference_ms()]
        result["known_defects"] = {
            "post_404_keepalive_desync": desync_probe(daemon.url, hit_bodies[0]),
        }
    finally:
        drained = "shut down cleanly" in daemon.stop()
    if traced:
        result["layers"] = _layers(
            spans_path, client_spans, started, ended, server_s, stats_before, stats_after
        )
    result["failed_ops"], result["problems"] = _check(ops, requests, outcomes)
    if not drained:
        result["problems"].append("daemon did not drain cleanly on SIGTERM")
    return result


def _layers(spans_path, client_spans, started, ended, server_s, before, after) -> dict:
    import spans

    with open(spans_path) as handle:
        dump = json.load(handle)
    os.remove(spans_path)
    daemon_spans = [
        tuple(span) for span in dump["spans"] if started <= span[2] <= ended
    ]
    client_spans = [span for span in client_spans if started <= span[2] <= ended]
    layers = spans.layer_metrics(stats.self_times(daemon_spans), dump["counts"])
    layers.update(spans.cache_metrics(before["cache"], after["cache"]))
    handle_s = stats.total_times(daemon_spans).get("service.server.handle", 0.0)
    client_s = sum(end - start for _, _, start, end, parent, _ in client_spans if parent is None)
    coalesced = after["coalescer"]["requests"] - before["coalescer"]["requests"]
    batches = after["coalescer"]["batches"] - before["coalescer"]["batches"]
    layers.update({
        "service.server.http_ms": 1000.0 * (server_s - handle_s),
        "service.transport.wait_ms": 1000.0 * (client_s - server_s),
        "service.queue.batch_size": coalesced / batches if batches else 0.0,
        "unattributed_pct": stats.unattributed_pct(client_spans, ended - started, LANES),
    })
    return layers


def _check(ops, requests, outcomes):
    """Each answer equals the in-process result for the same input;
    each malformed request gets its documented status and error type."""
    from repro.service.server import AnalysisService

    service = AnalysisService()
    handlers = {
        "/analyze": service.handle_analyze, "/montecarlo": service.handle_montecarlo,
        "/ptime": service.handle_ptime, "/netlist": service.handle_netlist,
    }
    expected_by_body: Dict[str, dict] = {}
    failed, problems = [], []
    try:
        for index, ((path, payload, status, error), outcome) in enumerate(zip(requests, outcomes)):
            if isinstance(outcome, BaseException):
                ok = stats.op_passes(status, None, transport_error=True)
                problems.append("op %d: transport error %r" % (index, outcome))
            else:
                got_status, raw = outcome
                answer_ok = False
                try:
                    answer = json.loads(raw)
                    if error is not None:
                        answer_ok = answer["error"]["type"] == error
                    else:
                        key = json.dumps(payload, sort_keys=True)
                        if key not in expected_by_body:
                            expected_by_body[key] = json.loads(json.dumps(handlers[path](payload)))
                        expected = expected_by_body[key]
                        differ = sorted(
                            field for field in set(expected) | set(answer)
                            if field not in VOLATILE and expected.get(field) != answer.get(field)
                        )
                        answer_ok = not differ
                except (ValueError, KeyError, TypeError) as problem:
                    differ = [repr(problem)]
                ok = stats.op_passes(status, got_status, answer_ok=answer_ok)
                if not ok:
                    problems.append("op %d %s: status %d, differs in %s: %s" % (
                        index, path, got_status, differ if error is None else "error type",
                        raw[:300].decode("utf-8", "replace")))
            if not ok:
                failed.append(index)
    finally:
        service.close()
    return failed, problems
