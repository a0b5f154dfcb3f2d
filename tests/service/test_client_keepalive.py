"""Persistent client connections: reuse, stale reconnect, idempotency."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.circuits.library import oscillator_tsg
from repro.service.client import PooledTransport, ServiceClient, free_port
from repro.service.server import make_server


def _start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture
def service():
    server = make_server(quiet=True)
    thread = _start(server)
    yield server
    server.shutdown()
    server.close()
    thread.join(timeout=5)


class TestKeepAlive:
    def test_sequential_requests_reuse_one_socket(self, service):
        with ServiceClient(service.url, timeout=10) as client:
            graph = oscillator_tsg()
            client.analyze(graph)
            client.montecarlo(graph, samples=20)
            client.stats()
            stats = client.transport_stats()
        assert stats["opened"] == 1
        assert stats["reused"] == 2
        assert stats["stale_reconnects"] == 0

    def test_close_keeps_the_client_usable(self, service):
        client = ServiceClient(service.url, timeout=10)
        assert client.healthz()
        client.close()
        assert client.healthz()  # fresh unpooled connection

    def test_draining_server_stops_reuse(self, service):
        client = ServiceClient(service.url, timeout=10)
        client.healthz()
        assert client.transport_stats()["idle"] == 1
        service.service.draining = True
        client.stats()  # Connection: close -> socket not pooled back
        stats = client.transport_stats()
        assert stats["idle"] == 0
        assert stats["discarded"] >= 1
        client.close()


class _ClosingStubServer:
    """Keep-alive HTTP stub that drops each connection after N responses
    *without* advertising ``Connection: close`` — exactly what a worker
    restart does to a pooled client socket."""

    def __init__(self, close_after: int = 1):
        self.close_after = close_after
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.served = 0
        self._served_lock = threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            ).start()

    def _serve_conn(self, conn):
        with conn:
            for _ in range(self.close_after):
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    data += chunk
                head, _, rest = data.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                while len(rest) < length:
                    rest += conn.recv(65536)
                body = b'{"status": "ok"}'
                # Count before replying: once the client holds the
                # response, its assertion on `served` may run at once.
                with self._served_lock:
                    self.served += 1
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )

    def close(self):
        self.sock.close()


class TestStaleReconnect:
    def test_stale_pooled_socket_reconnects_transparently(self):
        stub = _ClosingStubServer(close_after=1)
        client = ServiceClient("http://127.0.0.1:%d" % stub.port, timeout=10)
        try:
            assert client.stats()["status"] == "ok"
            # The stub closed the connection after that response; the
            # pooled socket is stale.  The next request must reconnect
            # and replay without surfacing an error.
            assert client.stats()["status"] == "ok"
            stats = client.transport_stats()
            assert stats["stale_reconnects"] == 1
            assert stub.served == 2
        finally:
            client.close()
            stub.close()

    def test_fresh_connection_failure_is_not_replayed(self):
        transport = PooledTransport(
            "http://127.0.0.1:%d" % free_port(), timeout=2
        )
        with pytest.raises(OSError):
            transport.request("GET", "/healthz", None, {})
        assert transport.stats["stale_reconnects"] == 0


class TestIdempotencyOverReuse:
    def test_keyed_retry_replays_over_the_same_socket(self, service):
        from repro.io.json_io import graph_to_dict

        body = json.dumps(
            {"graph": graph_to_dict(oscillator_tsg())}
        ).encode("utf-8")
        transport = PooledTransport(service.url, timeout=10)
        headers = {
            "Content-Type": "application/json",
            "X-Idempotency-Key": "keepalive-test-key",
        }
        status1, raw1, _ = transport.request(
            "POST", "/analyze", body, headers
        )
        status2, raw2, _ = transport.request(
            "POST", "/analyze", body, headers
        )
        assert status1 == status2 == 200
        assert raw1 == raw2  # byte-identical replay
        assert transport.stats["reused"] == 1
        counters = service.service.counters.snapshot()
        assert counters.get("idempotent_replays") == 1
        transport.close()
