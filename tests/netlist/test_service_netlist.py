"""``POST /netlist``: the real-circuit pipeline over the wire."""

from __future__ import annotations

import threading
from fractions import Fraction

import pytest

from repro.netlist import corpus_path
from repro.service.cache import clear_caches, configure
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import make_server


@pytest.fixture(autouse=True)
def fresh_caches():
    configure()
    yield
    clear_caches()
    configure()


@pytest.fixture
def service():
    server = make_server(quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url, timeout=30)
    yield client
    server.shutdown()
    server.close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def c17_text():
    with open(corpus_path("c17"), encoding="utf-8") as handle:
        return handle.read()


class TestNetlistEndpoint:
    def test_c17_end_to_end(self, service, c17_text):
        result = service.netlist(c17_text, name="c17")
        assert result["cycle_time"] == 8
        assert result["cached"] is False
        assert result["extraction"] == "oracle"
        assert result["method"] == "timing"
        assert result["network"]["gates"] == 6
        assert result["source_hash"]

    def test_repeat_request_hits_the_cache(self, service, c17_text):
        assert service.netlist(c17_text)["cached"] is False
        assert service.netlist(c17_text)["cached"] is True

    def test_parameters_partition_the_cache(self, service, c17_text):
        service.netlist(c17_text)
        changed = service.netlist(c17_text, delay=2)
        assert changed["cached"] is False
        assert changed["cycle_time"] > 8

    def test_interval_delays_round_trip_exact(self, service, c17_text):
        result = service.netlist(c17_text, delay=(2, 5), seed=3)
        assert isinstance(result["cycle_time"], (int, Fraction))

    def test_verilog_source(self, service):
        from repro.netlist import load_corpus, write_verilog

        result = service.netlist(write_verilog(load_corpus("c17")))
        assert result["cycle_time"] == 8

    def test_bad_source_is_structured_422(self, service):
        with pytest.raises(ServiceError) as info:
            service.netlist("INPUT(a)\nb = WAT(a)\n")
        assert info.value.status == 422

    def test_oracle_on_a_wide_circuit_is_a_structured_422(self, service):
        # Wrapped mult16's default exploration budget (43,448
        # configurations, derived from its 2946-bit width) runs out.
        with open(corpus_path("mult16"), encoding="utf-8") as handle:
            mult16 = handle.read()
        with pytest.raises(ServiceError) as info:
            service.netlist(mult16, extraction="oracle")
        assert info.value.status == 422
        assert info.value.kind == "StateSpaceLimitError"
        assert "43448 states" in info.value.message

    def test_empty_source_rejected(self, service):
        with pytest.raises(ServiceError) as info:
            service.netlist("   ")
        assert info.value.status == 400

    def test_bad_method_rejected(self, service, c17_text):
        with pytest.raises(ServiceError):
            service.netlist(c17_text, method="magic")

    def test_bad_delay_rejected(self, service, c17_text):
        with pytest.raises(ServiceError) as info:
            service.netlist(c17_text, delay="soon")
        assert info.value.status == 400

    def test_counter_increments(self, service, c17_text):
        service.netlist(c17_text)
        stats = service.stats()
        assert stats["requests"]["netlist"] >= 1
