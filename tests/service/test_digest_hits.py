"""Digest-first warm hits: a byte-identical POST body is answered from
the result cache before it is decoded."""

from __future__ import annotations

import json
import threading

import pytest

from repro.circuits.library import muller_ring_tsg, oscillator_tsg
from repro.io.json_io import graph_to_dict
from repro.service.cache import configure, result_cache
from repro.service.client import PooledTransport
from repro.service.server import AnalysisService, make_server

HEADERS = {"Content-Type": "application/json"}


def _encode(payload, **dumps_options) -> bytes:
    return json.dumps(payload, **dumps_options).encode("utf-8")


class _Daemon:
    def __init__(self, **overrides):
        self.server = make_server(quiet=True, **overrides)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True,
        )
        self.thread.start()
        self.service = self.server.service
        self.transport = PooledTransport(self.server.url, pool_connections=1)

    def post(self, path, body, headers=None):
        status, raw, _ = self.transport.request_ex(
            "POST", path, body, dict(HEADERS, **(headers or {}))
        )
        return status, raw

    def close(self):
        self.transport.close()
        self.server.shutdown()
        self.server.close()
        self.thread.join(timeout=5)


@pytest.fixture
def daemon():
    daemon = _Daemon()
    yield daemon
    daemon.close()


@pytest.fixture
def handler_calls(monkeypatch):
    """Count calls into the four AnalysisService handlers."""
    calls = []
    for name in ("handle_analyze", "handle_montecarlo", "handle_ptime",
                 "handle_netlist"):
        original = getattr(AnalysisService, name)

        def counted(self, payload, deadline=None, _original=original):
            calls.append(_original.__name__)
            return _original(self, payload, deadline)

        monkeypatch.setattr(AnalysisService, name, counted)
    return calls


class TestDigestHit:
    @pytest.mark.parametrize(
        "path", ["/analyze", "/montecarlo", "/ptime", "/netlist"]
    )
    def test_digest_hit_returns_the_canonical_hit_bytes(
        self, daemon, handler_calls, endpoint_payloads, path
    ):
        payload = endpoint_payloads[path]
        body = _encode(payload)
        # Same document, other bytes: a canonical (decode + hash) hit.
        respelled = _encode(payload, indent=1, sort_keys=True)
        assert respelled != body
        status, first = daemon.post(path, body)
        assert status == 200
        assert json.loads(first)["cached"] is False
        status, canonical = daemon.post(path, respelled)
        assert status == 200
        assert json.loads(canonical)["cached"] is True
        assert len(handler_calls) == 2
        status, digest = daemon.post(path, body)
        assert status == 200
        assert digest == canonical
        assert len(handler_calls) == 2  # answered before any decode
        result = daemon.service.results.stats.snapshot()
        assert (result["hits"], result["misses"]) == (2, 1)

    def test_evicted_canonical_entry_is_recomputed(self):
        configure(result_entries=2)
        daemon = _Daemon()
        try:
            body = _encode({"graph": graph_to_dict(muller_ring_tsg(3))})
            assert daemon.post("/analyze", body)[0] == 200
            # Two other answers push the ring's result out of the cache
            # without touching the digest map.
            for n in (4, 5):
                daemon.service.handle_analyze(
                    {"graph": graph_to_dict(muller_ring_tsg(n))}
                )
            assert len(daemon.service.digests) == 1
            misses = daemon.service.results.stats.get("misses")
            status, raw = daemon.post("/analyze", body)
            assert status == 200
            assert json.loads(raw)["cached"] is False
            # One lookup, one miss: the digest step's miss is not
            # counted again by the handler.
            assert daemon.service.results.stats.get("misses") == misses + 1
            status, raw = daemon.post("/analyze", body)
            assert json.loads(raw)["cached"] is True
        finally:
            daemon.close()

    def test_degraded_montecarlo_is_never_served_from_the_map(
        self, daemon, handler_calls, endpoint_payloads
    ):
        class HalveEverything:
            def update(self, pressure):
                return 1

            def degrade(self, requested):
                return requested // 2

        body = _encode(endpoint_payloads["/montecarlo"])
        daemon.service.brownout = HalveEverything()
        for _ in range(2):
            status, raw = daemon.post("/montecarlo", body)
            assert status == 200
            answer = json.loads(raw)
            assert answer["degraded"] == {"requested": 40, "served": 20}
            assert answer["cached"] is False
        assert len(daemon.service.digests) == 0
        daemon.service.brownout = None
        status, raw = daemon.post("/montecarlo", body)
        answer = json.loads(raw)
        assert "degraded" not in answer and answer["count"] == 40
        assert len(handler_calls) == 3
        status, raw = daemon.post("/montecarlo", body)
        assert json.loads(raw)["cached"] is True
        assert len(handler_calls) == 3

    def test_failed_requests_add_no_entry(self, daemon):
        oscillator = graph_to_dict(oscillator_tsg())
        for path, body, status in (
            ("/analyze", b"not json", 400),
            ("/analyze", _encode({"graph": oscillator, "kernel": "warp"}), 400),
            ("/analyze", _encode({"graph": oscillator, "priority": "vip"}), 400),
            ("/montecarlo", _encode({"graph": oscillator, "samples": 0}), 400),
        ):
            for _ in range(2):
                assert daemon.post(path, body)[0] == status
        assert len(daemon.service.digests) == 0

    def test_map_is_bounded_by_the_result_cache(self):
        configure(result_entries=3)
        daemon = _Daemon()
        try:
            assert daemon.service.digests.max_entries == 3
            for n in range(3, 9):
                body = _encode({"graph": graph_to_dict(muller_ring_tsg(n))})
                assert daemon.post("/analyze", body)[0] == 200
                assert len(daemon.service.digests) <= 3
            assert len(result_cache().memory) <= 3
        finally:
            daemon.close()


class TestPipelineOnDigestHits:
    """Everything around the lookup runs exactly as on the full path."""

    def _warm(self, daemon, payload):
        body = _encode(payload)
        assert daemon.post("/analyze", body)[0] == 200
        assert len(daemon.service.digests) == 1
        return body

    def test_header_deadline_still_applies(self, daemon):
        body = self._warm(daemon, {"graph": graph_to_dict(oscillator_tsg())})
        status, raw = daemon.post(
            "/analyze", body, {"X-Request-Timeout-Ms": "0.001"}
        )
        assert status == 504
        assert json.loads(raw)["error"]["type"] == "DeadlineExceeded"
        status, raw = daemon.post(
            "/analyze", body, {"X-Request-Timeout-Ms": "nan-ish"}
        )
        assert status == 400

    def test_remembered_timeout_field_wins_over_the_header(self, daemon):
        body = self._warm(daemon, {
            "graph": graph_to_dict(oscillator_tsg()), "timeout_ms": 60000,
        })
        status, raw = daemon.post(
            "/analyze", body, {"X-Request-Timeout-Ms": "0.001"}
        )
        assert status == 200
        assert json.loads(raw)["cached"] is True

    def test_priority_reaches_admission(self, daemon, monkeypatch):
        body = self._warm(daemon, {
            "graph": graph_to_dict(oscillator_tsg()), "priority": "bulk",
        })
        seen = []
        admit = daemon.service.admission.admit

        def spy(deadline, priority="normal"):
            seen.append(priority)
            return admit(deadline, priority=priority)

        monkeypatch.setattr(daemon.service.admission, "admit", spy)
        assert daemon.post("/analyze", body)[0] == 200
        assert seen == ["bulk"]

    def test_idempotent_replay_and_admission_counters(self, daemon):
        body = self._warm(daemon, {"graph": graph_to_dict(oscillator_tsg())})
        admitted = daemon.service.admission.snapshot()["admitted"]
        samples = daemon.service.limiter.snapshot()["samples"]
        keyed = {"X-Idempotency-Key": "digest-replay"}
        status, first = daemon.post("/analyze", body, keyed)
        status2, replay = daemon.post("/analyze", body, keyed)
        assert status == status2 == 200
        assert replay == first
        counters = daemon.service.counters.snapshot()
        assert counters["idempotent_replays"] == 1
        # The replay returns before admission, as on the full path.
        snapshot = daemon.service.admission.snapshot()
        assert snapshot["admitted"] == admitted + 1
        assert daemon.service.limiter.snapshot()["samples"] == samples + 1
        for _ in range(3):
            assert daemon.post("/analyze", body)[0] == 200
        snapshot = daemon.service.admission.snapshot()
        assert snapshot["admitted"] == admitted + 4
