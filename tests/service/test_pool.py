"""Worker pool: shard stability, supervision, router, drain."""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.circuits.library import muller_ring_tsg, oscillator_tsg
from repro.service.client import PooledTransport, ServiceClient
from repro.service.hashing import topology_hash
from repro.service.pool import (
    RouterServer,
    WorkerHealth,
    WorkerPool,
    shard_preference,
    shard_worker,
)
from repro.service.server import ServiceConfig

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestShardHashing:
    KEYS = ["k%d" % i for i in range(200)]

    def test_deterministic_and_order_independent(self):
        for key in self.KEYS:
            owner = shard_worker(key, [0, 1, 2, 3])
            assert owner == shard_worker(key, [3, 1, 0, 2])
            assert owner == shard_worker(key, (2, 3, 0, 1))

    def test_every_worker_owns_a_share(self):
        owners = {shard_worker(key, [0, 1, 2, 3]) for key in self.KEYS}
        assert owners == {0, 1, 2, 3}

    def test_removing_a_worker_only_moves_its_shard(self):
        before = {key: shard_worker(key, [0, 1, 2, 3]) for key in self.KEYS}
        after = {key: shard_worker(key, [0, 1, 3]) for key in self.KEYS}
        for key in self.KEYS:
            if before[key] != 2:
                assert after[key] == before[key]
            else:
                assert after[key] != 2

    def test_restart_restores_the_original_assignment(self):
        # A restarted worker keeps its id, so the map returns to the
        # pre-crash assignment: only its own shard ever moved.
        before = {key: shard_worker(key, [0, 1, 2]) for key in self.KEYS}
        restored = {key: shard_worker(key, [2, 0, 1]) for key in self.KEYS}
        assert before == restored

    def test_preference_order_heads_with_the_owner(self):
        for key in self.KEYS[:20]:
            order = shard_preference(key, [0, 1, 2, 3])
            assert sorted(order) == [0, 1, 2, 3]
            assert order[0] == shard_worker(key, [0, 1, 2, 3])
            # failover target: the owner among the survivors
            assert order[1] == shard_worker(
                key, [w for w in (0, 1, 2, 3) if w != order[0]]
            )


@pytest.fixture
def pool_config():
    return ServiceConfig(
        host="127.0.0.1", port=0, quiet=True, drain_timeout=3.0,
        request_timeout=15.0,
    )


def _terminated(pool):
    assert pool.terminate(timeout=10.0)


class TestWorkerPool:
    def test_shared_port_serves_all_endpoints(self, pool_config):
        pool = WorkerPool(pool_config, 2, cache_config={})
        pool.start(timeout=30.0)
        try:
            assert sorted(pool.live_ids()) == [0, 1]
            client = ServiceClient(pool.url, timeout=15)
            graph = oscillator_tsg()
            assert client.analyze(graph)["cycle_time"] == 10
            mc = client.montecarlo(graph, samples=50, seed=2)
            assert mc["count"] == 50
            client.close()
        finally:
            _terminated(pool)

    def test_crashed_worker_restarts_with_backoff(self, pool_config):
        pool = WorkerPool(
            pool_config, 2, cache_config={},
            backoff_base=0.05, backoff_cap=0.2,
        )
        pool.start(timeout=30.0)
        try:
            victim = pool.handle_of(1)
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if victim.ready and victim.alive() and victim.restarts == 1:
                    break
                time.sleep(0.05)
            assert victim.restarts == 1
            assert sorted(pool.live_ids()) == [0, 1]
            # the restarted pool still answers on the shared port
            client = ServiceClient(pool.url, timeout=15)
            assert client.healthz()
            client.close()
        finally:
            _terminated(pool)


def _post_analyze(transport, graph, extra_headers=None):
    from repro.io.json_io import graph_to_dict

    body = json.dumps({"graph": graph_to_dict(graph)}).encode("utf-8")
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "X-Topology-Hash": topology_hash(graph),
    }
    headers.update(extra_headers or {})
    return transport.request("POST", "/analyze", body, headers)


class _RawTransport(PooledTransport):
    """PooledTransport variant that also surfaces response headers."""

    def __init__(self, base_url, **kwargs):
        super().__init__(base_url, **kwargs)
        self.last_headers = {}

    def _roundtrip(self, connection, method, path, body, headers):
        status, raw, response_headers, keep = super()._roundtrip(
            connection, method, path, body, headers
        )
        self.last_headers = dict(response_headers)
        return status, raw, response_headers, keep


@pytest.fixture
def router_pool(pool_config):
    pool = WorkerPool(pool_config, 2, mode="private", cache_config={})
    pool.start(timeout=30.0)
    router = RouterServer(
        ServiceConfig(host="127.0.0.1", port=0, quiet=True), pool
    )
    thread = threading.Thread(
        target=router.serve_forever, kwargs={"poll_interval": 0.1},
        daemon=True,
    )
    thread.start()
    yield pool, router
    router.shutdown()
    router.close()
    thread.join(timeout=5)
    _terminated(pool)


class TestRouter:
    def test_same_topology_routes_to_one_worker(self, router_pool):
        pool, router = router_pool
        transport = _RawTransport(router.url, timeout=15)
        graph = oscillator_tsg()
        owners = set()
        for _ in range(4):
            status, _, _ = _post_analyze(transport, graph)
            assert status == 200
            owners.add(transport.last_headers["X-Worker-Id"])
        assert len(owners) == 1
        expected = shard_worker(topology_hash(graph), pool.live_ids())
        assert owners == {str(expected)}
        transport.close()

    def test_distinct_topologies_can_shard_apart(self, router_pool):
        pool, router = router_pool
        transport = _RawTransport(router.url, timeout=15)
        live = pool.live_ids()
        # Find two graphs the hash assigns to different workers (the
        # ring family gives plenty of distinct topologies to pick from).
        graphs = [oscillator_tsg()] + [muller_ring_tsg(n) for n in (3, 4, 5, 6)]
        owners = {shard_worker(topology_hash(g), live) for g in graphs}
        assert owners == set(live)
        for graph in graphs[:3]:
            status, _, _ = _post_analyze(transport, graph)
            assert status == 200
            assert transport.last_headers["X-Worker-Id"] == str(
                shard_worker(topology_hash(graph), live)
            )
        transport.close()

    def test_warm_shard_serves_from_cache(self, router_pool):
        _, router = router_pool
        transport = _RawTransport(router.url, timeout=15)
        graph = muller_ring_tsg(4)
        _, first, _ = _post_analyze(transport, graph)
        _, second, _ = _post_analyze(transport, graph)
        assert json.loads(first)["cached"] is False
        assert json.loads(second)["cached"] is True
        transport.close()

    def test_readyz_aggregates_workers(self, router_pool):
        pool, router = router_pool
        transport = PooledTransport(router.url, timeout=15)
        status, raw, _ = transport.request("GET", "/readyz", None, {})
        assert status == 200
        document = json.loads(raw)
        assert document["status"] == "ready"
        assert set(document["workers"]) == {"0", "1"}
        assert all(document["workers"].values())
        transport.close()

    def test_stats_and_metrics_merge_all_workers(self, router_pool):
        pool, router = router_pool
        transport = _RawTransport(router.url, timeout=15)
        for graph in (oscillator_tsg(), muller_ring_tsg(3)):
            _post_analyze(transport, graph)
        status, raw, _ = transport.request("GET", "/stats", None, {})
        assert status == 200
        document = json.loads(raw)
        assert document["router"]["routed"] == 2
        assert set(document["workers"]) == {"0", "1"}
        for worker_id, block in document["workers"].items():
            assert block["worker_id"] == int(worker_id)
        status, raw, _ = transport.request("GET", "/metrics", None, {})
        assert status == 200
        from repro.obs.textformat import parse

        families = parse(raw.decode("utf-8"))
        requests = families["repro_requests_total"]
        workers_seen = {
            labels["worker"] for _, labels, _ in requests.samples
        }
        assert workers_seen == {"0", "1"}
        transport.close()


def _stable(answer):
    """An answer minus the fields that differ between equal answers."""
    return {
        name: value for name, value in answer.items()
        if name not in ("cached", "timings_ms")
    }


class TestRouterEndpoints:
    HEADERS = {"Content-Type": "application/json"}

    def test_every_post_endpoint_matches_a_direct_worker(
        self, router_pool, endpoint_payloads
    ):
        pool, router = router_pool
        routed = PooledTransport(router.url, timeout=30)
        direct = [
            PooledTransport("http://127.0.0.1:%d" % port, timeout=30)
            for port in pool.worker_ports().values()
        ]
        try:
            for path, payload in endpoint_payloads.items():
                body = json.dumps(payload).encode("utf-8")
                status, raw, _ = routed.request_ex(
                    "POST", path, body, self.HEADERS
                )
                assert status == 200, (path, raw)
                expected = _stable(json.loads(raw))
                for transport in direct:
                    status, raw, _ = transport.request_ex(
                        "POST", path, body, self.HEADERS
                    )
                    assert status == 200, (path, raw)
                    assert _stable(json.loads(raw)) == expected, path
        finally:
            for transport in [routed] + direct:
                transport.close()

    def test_early_replies_keep_the_connection_in_step(self, router_pool):
        import http.client

        from repro.io.json_io import graph_to_dict

        _, router = router_pool
        body = json.dumps({"graph": graph_to_dict(oscillator_tsg())}).encode()
        connection = http.client.HTTPConnection(
            "127.0.0.1", router.server_address[1], timeout=15
        )
        connection.request("POST", "/nope", body, self.HEADERS)
        response = connection.getresponse()
        response.read()
        assert response.status == 404
        connection.request("POST", "/analyze", body, self.HEADERS)
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["cycle_time"] == 10
        connection.close()
        # Without a Content-Length the body cannot be skipped: 411 and
        # the router closes the connection.
        with socket.create_connection(router.server_address[:2], 15) as sock:
            sock.sendall(b"POST /analyze HTTP/1.1\r\nHost: x\r\n\r\n{}")
            reply = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 411")
        assert b"Connection: close" in reply

    def test_router_replies_are_one_write_on_nodelay_sockets(
        self, router_pool, writes
    ):
        _, router = router_pool
        transport = PooledTransport(router.url, timeout=15)
        body = json.dumps({"graph": {"kind": "bogus"}}).encode()
        for method, path, payload in (
            ("POST", "/analyze", body),
            ("GET", "/stats", None),
            ("GET", "/metrics", None),
            ("POST", "/nope", body),
        ):
            transport.request_ex(method, path, payload, self.HEADERS)
        transport.close()
        assert len(writes) == 4
        assert all(nodelay for _, nodelay in writes)


class _FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestWorkerHealth:
    def test_healthy_worker_always_allowed(self):
        health = WorkerHealth()
        assert health.allow()
        health.record(True, rtt_s=0.01)
        assert health.allow()
        assert not health.ejected

    def test_ejects_after_errors_but_not_before_min_samples(self):
        clock = _FakeClock()
        health = WorkerHealth(min_samples=3, clock=clock)
        # alpha=0.3: two failures push the EWMA past 0.5 but the
        # sample floor holds the ejection back until the third.
        health.record(False)
        health.record(False)
        assert not health.ejected
        assert health.allow()
        health.record(False)
        assert health.ejected
        assert not health.allow()
        assert health.snapshot()["ejections"] == 1

    def test_probation_admits_exactly_one_probe(self):
        clock = _FakeClock()
        health = WorkerHealth(min_samples=3, cooldown_s=2.0, clock=clock)
        for _ in range(3):
            health.record(False)
        assert not health.allow()
        clock.now = 2.0
        # cooldown lapsed: exactly one probe claim is handed out
        assert health.allow()
        assert not health.allow()
        assert health.snapshot()["probing"] is True

    def test_probe_success_re_enters_with_clean_score(self):
        clock = _FakeClock()
        health = WorkerHealth(min_samples=3, cooldown_s=2.0, clock=clock)
        for _ in range(3):
            health.record(False)
        clock.now = 2.0
        assert health.allow()
        health.record(True, rtt_s=0.005)
        assert not health.ejected
        assert health.allow()
        assert health.snapshot()["error_ewma"] == 0.0

    def test_probe_failure_doubles_cooldown_up_to_cap(self):
        clock = _FakeClock()
        health = WorkerHealth(
            min_samples=3, cooldown_s=2.0, cooldown_cap_s=5.0, clock=clock,
        )
        for _ in range(3):
            health.record(False)
        clock.now = 2.0
        assert health.allow()
        health.record(False)  # failed probe: cooldown 2 -> 4
        assert health.snapshot()["cooldown_s"] == 4.0
        assert not health.allow()
        clock.now += 4.0
        assert health.allow()
        health.record(False)  # failed probe: 8 capped to 5
        assert health.snapshot()["cooldown_s"] == 5.0
        assert health.snapshot()["ejections"] == 3

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            WorkerHealth(alpha=0.0)
        with pytest.raises(ValueError):
            WorkerHealth(eject_threshold=1.5)


class TestReturnHeaders:
    def test_forwards_allowlist_case_insensitively(self):
        picked = RouterServer._pick_return_headers(3, {
            "content-type": "application/json",
            "TRACEPARENT": "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01",
            "retry-after": "2",
            "X-Internal-Detail": "never-forwarded",
        })
        assert picked == {
            "Content-Type": "application/json",
            "traceparent": "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01",
            "Retry-After": "2",
            "X-Worker-Id": "3",
        }

    def test_worker_stamp_wins_over_router_default(self):
        picked = RouterServer._pick_return_headers(
            3, {"x-worker-id": "7"}
        )
        assert picked["X-Worker-Id"] == "7"


class TestRouterFailoverPolicy:
    def _break_worker(self, router, target):
        """Simulate a transport failure for one worker id."""
        original = router._attempt_worker

        def flaky(worker_id, method, path, body, headers):
            if worker_id == target:
                return None
            return original(worker_id, method, path, body, headers)

        router._attempt_worker = flaky
        return original

    def test_non_idempotent_requests_never_replay(self, router_pool):
        pool, router = router_pool
        graph = muller_ring_tsg(5)
        target = shard_worker(topology_hash(graph), pool.live_ids())
        original = self._break_worker(router, target)
        try:
            transport = _RawTransport(router.url, timeout=15)
            before = router.counters["unroutable"]
            status, raw, _ = _post_analyze(transport, graph)
            assert status == 503
            document = json.loads(raw)
            assert document["error"]["type"] == "NonIdempotentFailover"
            assert router.counters["unroutable"] == before + 1
            assert router.counters["failovers"] == 0
            transport.close()
        finally:
            router._attempt_worker = original

    def test_idempotency_key_opts_into_failover(self, router_pool):
        pool, router = router_pool
        graph = muller_ring_tsg(5)
        live = pool.live_ids()
        target = shard_worker(topology_hash(graph), live)
        survivor = next(w for w in live if w != target)
        original = self._break_worker(router, target)
        try:
            transport = _RawTransport(router.url, timeout=15)
            status, raw, _ = _post_analyze(
                transport, graph,
                extra_headers={"X-Idempotency-Key": "failover-test-1"},
            )
            assert status == 200
            assert "cycle_time" in json.loads(raw)
            assert transport.last_headers["X-Worker-Id"] == str(survivor)
            assert router.counters["failovers"] >= 1
            transport.close()
        finally:
            router._attempt_worker = original

    def test_stats_expose_per_worker_health(self, router_pool):
        pool, router = router_pool
        transport = _RawTransport(router.url, timeout=15)
        graph = oscillator_tsg()
        status, _, _ = _post_analyze(transport, graph)
        assert status == 200
        status, raw, _ = transport.request("GET", "/stats", None, {})
        assert status == 200
        document = json.loads(raw)
        owner = str(shard_worker(topology_hash(graph), pool.live_ids()))
        assert owner in document["health"]
        block = document["health"][owner]
        assert block["samples"] >= 1
        assert block["ejected"] is False
        assert block["error_ewma"] == 0.0
        transport.close()


class TestPoolDrain:
    def test_sigterm_drains_every_worker(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workers", "2", "--port", "0", "--quiet",
                "--drain-timeout", "3",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            assert match, "no listening banner: %r" % banner
            client = ServiceClient(
                "http://127.0.0.1:%s" % match.group(1), timeout=15
            )
            assert client.wait_until_ready(timeout=15.0)
            assert client.analyze(oscillator_tsg())["cycle_time"] == 10
            client.close()
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        except BaseException:
            process.kill()
            raise
        assert process.returncode == 0, output
        assert "shut down cleanly" in output
        assert "Traceback" not in output
