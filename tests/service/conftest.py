"""Service-layer fixtures: isolated process-wide caches per test."""

from __future__ import annotations

import socket
import socketserver

import pytest

from repro.service.cache import clear_caches, configure


@pytest.fixture(autouse=True)
def fresh_caches():
    """Rebuild the process-wide caches around every service test."""
    configure()
    yield
    clear_caches()
    configure()


@pytest.fixture
def endpoint_payloads():
    """One small request payload per POST endpoint."""
    from repro.circuits.library import oscillator_tsg
    from repro.generators import ptime_wrap, random_live_tsg
    from repro.io.json_io import graph_to_dict, ptime_graph_to_dict
    from repro.netlist.bench import write_bench
    from repro.netlist.corpus import shift_register

    oscillator = graph_to_dict(oscillator_tsg())
    ptg = ptime_wrap(random_live_tsg(events=5, extra_arcs=3, seed=7), seed=7)
    return {
        "/analyze": {"graph": oscillator},
        "/montecarlo": {"graph": oscillator, "samples": 40, "seed": 3},
        "/ptime": {"graph": ptime_graph_to_dict(ptg), "mode": "check"},
        "/netlist": {"source": write_bench(shift_register(2)), "seed": 1},
    }


@pytest.fixture
def writes(monkeypatch):
    """Every response write by a server handler in this process:
    ``(bytes written, TCP_NODELAY set on the socket)``."""
    calls = []
    original = socketserver._SocketWriter.write

    def write(self, data):
        nodelay = self._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        calls.append((len(data), bool(nodelay)))
        return original(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", write)
    return calls
