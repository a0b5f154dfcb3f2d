"""HTTP plumbing: one send per response, TCP_NODELAY, keep-alive-safe
early replies."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.circuits.library import oscillator_tsg
from repro.io.json_io import graph_to_dict
from repro.service.client import PooledTransport
from repro.service.server import make_server

HEADERS = {"Content-Type": "application/json"}


def _serve(**overrides):
    server = make_server(quiet=True, **overrides)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    return server, thread


@pytest.fixture
def server():
    server, thread = _serve()
    yield server
    server.shutdown()
    server.close()
    thread.join(timeout=5)


@pytest.fixture
def analyze_body():
    return json.dumps({"graph": graph_to_dict(oscillator_tsg())}).encode()


def _connection(url):
    host, port = url.rsplit("/", 1)[1].split(":")
    return http.client.HTTPConnection(host, int(port), timeout=10)


def _exchange(connection, method, path, body=None, headers=None):
    connection.request(method, path, body=body, headers=headers or {})
    response = connection.getresponse()
    return response, response.read()


class TestOneSend:
    def test_every_kind_of_response_is_one_write_on_a_nodelay_socket(
        self, server, writes, analyze_body
    ):
        connection = _connection(server.url)
        replies = [
            _exchange(connection, "POST", "/analyze", analyze_body, HEADERS),
            _exchange(connection, "POST", "/analyze", analyze_body, HEADERS),
            _exchange(connection, "GET", "/metrics"),
            _exchange(connection, "POST", "/analyze", b"not json", HEADERS),
            _exchange(connection, "GET", "/nope"),
        ]
        connection.close()
        assert [response.status for response, _ in replies] == [
            200, 200, 200, 400, 404,
        ]
        assert replies[2][0].getheader("Content-Type").startswith("text/plain")
        # One write per response, each carrying the whole reply.
        assert len(writes) == len(replies)
        for (size, nodelay), (response, body) in zip(writes, replies):
            assert nodelay
            assert size > len(body) > 0

    def test_warm_hits_do_not_wait_for_delayed_acks(self, server, analyze_body):
        # With the body held back by Nagle's algorithm each reply waits
        # ~44 ms for the client's delayed ACK: 50 hits take >= 2.2 s.
        transport = PooledTransport(server.url, pool_connections=1)
        transport.request_ex("POST", "/analyze", analyze_body, HEADERS)
        started = time.perf_counter()
        for _ in range(50):
            status, _, _ = transport.request_ex(
                "POST", "/analyze", analyze_body, HEADERS
            )
            assert status == 200
        elapsed = time.perf_counter() - started
        transport.close()
        assert transport.stats["opened"] == 1
        assert elapsed < 1.0


class TestEarlyReplies:
    def test_unknown_post_path_drains_its_body(self, server, analyze_body):
        connection = _connection(server.url)
        response, body = _exchange(
            connection, "POST", "/nope", analyze_body, HEADERS
        )
        assert response.status == 404
        assert json.loads(body)["error"]["type"] == "NotFound"
        assert not response.will_close
        response, body = _exchange(
            connection, "POST", "/analyze", analyze_body, HEADERS
        )
        assert response.status == 200
        assert json.loads(body)["cycle_time"] == 10
        connection.close()

    def test_oversized_body_closes_the_connection(self, analyze_body):
        server, thread = _serve(max_body_bytes=64)
        try:
            connection = _connection(server.url)
            response, body = _exchange(
                connection, "POST", "/analyze", analyze_body, HEADERS
            )
            assert response.status == 413
            assert json.loads(body)["error"]["type"] == "PayloadTooLarge"
            assert response.getheader("Connection") == "close"
            assert response.will_close
            connection.close()
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)

    def test_missing_content_length_closes_the_connection(self, server):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: x\r\n\r\n{\"graph\": {}}"
            )
            reply = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # the server closed: nothing left to misparse
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411")
        assert b"Connection: close" in head
        assert json.loads(body)["error"]["type"] == "LengthRequired"

    def test_get_without_a_body_keeps_the_connection(self, server):
        connection = _connection(server.url)
        for _ in range(2):
            response, _ = _exchange(connection, "GET", "/nope")
            assert response.status == 404
            assert not response.will_close
        connection.close()
