"""Multi-process scale-out: pre-fork worker pool + sharding router.

One Python process can't push the batch kernel and the HTTP layer past
one core — ``ThreadingHTTPServer`` threads all contend for the GIL.
``repro serve --workers N`` escapes that by running N *single-process*
workers (each a full :class:`~repro.service.server.ServiceServer` with
its own caches, coalescer and admission queue) under one supervising
parent:

* **reuseport** (default where ``SO_REUSEPORT`` exists): every worker
  binds the same ``host:port`` with ``SO_REUSEPORT`` and the kernel
  load-balances accepted connections across them.  The parent holds a
  bound, *never listening* reservation socket so ``--port 0`` resolves
  to one concrete port before the first worker starts, and the port
  cannot be lost while a crashed worker is restarting.
* **inherit** (fallback): the parent binds + listens once and the
  listening fd is inherited across ``fork``; all workers ``accept()``
  from the shared socket.
* **router** (``--router``): each worker binds a private loopback
  port and the parent runs a :class:`RouterServer` on the public
  address that proxies each request to a worker chosen by *rendezvous
  hashing* of the request's topology hash — same topology, same
  worker, so the compile/result caches stay warm per shard.  When a
  worker dies, only its shard moves (to each key's next-best worker);
  every other shard keeps its warm worker.

The supervisor restarts crashed workers with exponential backoff
(reset after a stable stretch of uptime) and, on SIGTERM/SIGINT,
forwards SIGTERM to every worker so each drains in-flight requests
(PR 4's drain machinery) before the parent exits.

Worker processes rebuild process-global state after the fork: a fresh
metrics registry stamped with ``worker=<id>`` constant labels (so a
router-merged ``/metrics`` scrape never collides) and freshly
``configure()``-d caches, making the pool safe under both ``fork`` and
``spawn`` start methods (``inherit`` mode is fork-only — a listening
socket does not pickle).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import queue as queue_module
import signal
import socket
import sys
import threading
import time
from dataclasses import replace
from http.server import ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import SignalGraphError
from .server import (
    POST_ENDPOINTS,
    KeepAliveHandler,
    RequestError,
    ServiceConfig,
    ServiceServer,
)

#: restart backoff schedule: base * 2^n seconds, capped; the streak
#: resets after a worker stays up for STABLE_UPTIME seconds.
BACKOFF_BASE = 0.1
BACKOFF_CAP = 5.0
STABLE_UPTIME = 30.0


# ----------------------------------------------------------------------
# shard routing: rendezvous (highest-random-weight) hashing
# ----------------------------------------------------------------------
def _shard_score(key: str, worker_id: int) -> bytes:
    return hashlib.sha256(("%s|%d" % (key, worker_id)).encode("utf-8")).digest()


def shard_worker(key: str, worker_ids: Sequence[int]) -> int:
    """The worker owning ``key`` among ``worker_ids`` (rendezvous hash).

    Deterministic in the *set* of ids (ordering never matters), and
    minimally disruptive: removing one worker moves only the keys it
    owned — every other key keeps its worker — which is exactly the
    cache-affinity property the router needs across worker restarts.
    """
    if not worker_ids:
        raise SignalGraphError("no workers available to shard %r" % key)
    return max(worker_ids, key=lambda wid: _shard_score(key, wid))


def shard_preference(key: str, worker_ids: Sequence[int]) -> List[int]:
    """All of ``worker_ids`` ordered best-first for ``key`` — the
    failover order: index 0 is :func:`shard_worker`'s answer, index 1
    is where the shard moves if that worker is down, and so on."""
    return sorted(
        worker_ids, key=lambda wid: _shard_score(key, wid), reverse=True
    )


# ----------------------------------------------------------------------
# worker process entry
# ----------------------------------------------------------------------
def _worker_main(
    worker_id: int,
    config: ServiceConfig,
    cache_config: Optional[Dict[str, Any]],
    conn,
    sock: Optional[socket.socket] = None,
) -> None:
    """Run one worker's server until SIGTERM; executed in the child."""
    # The parent's Ctrl-C is delivered to the whole foreground process
    # group; workers must only react to the supervisor's SIGTERM so
    # the drain sequencing stays in one place.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)

    # Rebuild process-global state the fork (or spawn) carried over:
    # a private metrics registry and private caches per worker.
    from ..obs.metrics import reset_registry

    reset_registry()
    if cache_config is not None:
        from .cache import configure

        configure(**cache_config)
    config = replace(config, worker_id=worker_id)
    try:
        server = ServiceServer(config, sock=sock)
    except BaseException as error:  # noqa: BLE001 — reported to parent
        try:
            conn.send(("failed", "%s: %s" % (type(error).__name__, error)))
        finally:
            conn.close()
        raise SystemExit(1)
    conn.send(("ready", int(server.server_address[1])))
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.drain()
        server.close()
    raise SystemExit(0)


class WorkerHandle:
    """Parent-side record of one worker slot (stable ``worker_id``)."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.process = None
        self.conn = None
        self.port: Optional[int] = None
        self.ready = False
        self.started_at = 0.0
        self.restarts = 0
        self.failures = 0  # consecutive, drives backoff
        self.next_start = 0.0

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """Spawn, supervise and address N analysis workers.

    ``mode`` is one of ``"reuseport"``, ``"inherit"`` or ``"private"``
    (each worker on its own ephemeral loopback port — the router's
    mode); :meth:`default_mode` picks for the platform.  The pool is
    usable programmatically (tests, benchmarks) without the router or
    any signal handling: ``start()`` blocks until every worker
    answered ready, ``terminate()`` SIGTERMs and joins them.
    """

    def __init__(
        self,
        config: ServiceConfig,
        workers: int,
        mode: Optional[str] = None,
        cache_config: Optional[Dict[str, Any]] = None,
        backoff_base: float = BACKOFF_BASE,
        backoff_cap: float = BACKOFF_CAP,
        stable_uptime: float = STABLE_UPTIME,
    ):
        if workers < 1:
            raise SignalGraphError("need at least one worker")
        self.config = config
        self.workers = workers
        self.mode = mode or self.default_mode()
        if self.mode not in ("reuseport", "inherit", "private"):
            raise SignalGraphError("unknown pool mode %r" % self.mode)
        self.cache_config = cache_config
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.stable_uptime = stable_uptime
        self.handles = [WorkerHandle(i) for i in range(workers)]
        self._ctx = self._pick_context()
        self._reservation: Optional[socket.socket] = None
        self._shared_sock: Optional[socket.socket] = None
        self._port: Optional[int] = None
        self._lock = threading.Lock()
        self._stopping = False
        self._supervisor: Optional[threading.Thread] = None

    # -- platform plumbing ---------------------------------------------
    @staticmethod
    def default_mode() -> str:
        return "reuseport" if hasattr(socket, "SO_REUSEPORT") else "inherit"

    def _pick_context(self):
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _reserve_port(self) -> int:
        """Resolve ``--port 0`` and pin the port for the pool's lifetime."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.config.host, self.config.port))
        self._reservation = sock  # bound, never listening
        return sock.getsockname()[1]

    def _bind_shared(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, self.config.port))
        sock.listen(128)
        return sock

    # -- lifecycle ------------------------------------------------------
    def start(self, timeout: float = 30.0) -> None:
        """Spawn every worker and wait until all report ready."""
        if self.mode == "reuseport":
            self._port = self._reserve_port()
        elif self.mode == "inherit":
            if self._ctx.get_start_method() != "fork":
                raise SignalGraphError(
                    "inherit mode needs the fork start method "
                    "(a listening socket does not pickle)"
                )
            self._shared_sock = self._bind_shared()
            self._port = self._shared_sock.getsockname()[1]
        deadline = time.monotonic() + timeout
        for handle in self.handles:
            self._spawn(handle)
        for handle in self.handles:
            self._await_ready(handle, deadline)
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-pool-supervisor", daemon=True
        )
        self._supervisor.start()

    def _worker_config(self) -> ServiceConfig:
        if self.mode == "reuseport":
            return replace(self.config, port=self._port, reuse_port=True)
        if self.mode == "inherit":
            return self.config  # socket is adopted, address ignored
        return replace(self.config, host="127.0.0.1", port=0)

    def _spawn(self, handle: WorkerHandle) -> None:
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                handle.worker_id,
                self._worker_config(),
                self.cache_config,
                child_conn,
                self._shared_sock if self.mode == "inherit" else None,
            ),
            name="repro-worker-%d" % handle.worker_id,
            daemon=False,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.ready = False
        handle.started_at = time.monotonic()

    def _await_ready(self, handle: WorkerHandle, deadline: float) -> None:
        remaining = deadline - time.monotonic()
        if remaining > 0 and handle.conn.poll(remaining):
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                message = None
            if message and message[0] == "ready":
                handle.port = message[1]
                handle.ready = True
                handle.failures = 0
                return
            if message and message[0] == "failed":
                raise SignalGraphError(
                    "worker %d failed to start: %s"
                    % (handle.worker_id, message[1])
                )
        raise SignalGraphError(
            "worker %d did not report ready in time" % handle.worker_id
        )

    def _supervise(self) -> None:
        """Restart crashed workers with backoff until :meth:`terminate`."""
        while not self._stopping:
            time.sleep(0.05)
            now = time.monotonic()
            for handle in self.handles:
                if self._stopping or handle.alive():
                    continue
                with self._lock:
                    if handle.ready:
                        # It had been up: decide the next backoff from
                        # how long it survived.
                        uptime = now - handle.started_at
                        if uptime >= self.stable_uptime:
                            handle.failures = 0
                        handle.failures += 1
                        handle.ready = False
                        pause = min(
                            self.backoff_cap,
                            self.backoff_base * (2 ** (handle.failures - 1)),
                        )
                        handle.next_start = now + pause
                    if now < handle.next_start:
                        continue
                    handle.restarts += 1
                    self._spawn(handle)
                try:
                    self._await_ready(handle, time.monotonic() + 10.0)
                except SignalGraphError:
                    handle.failures += 1
                    handle.next_start = time.monotonic() + min(
                        self.backoff_cap,
                        self.backoff_base * (2 ** (handle.failures - 1)),
                    )

    def terminate(self, timeout: Optional[float] = None) -> bool:
        """SIGTERM every worker (each drains) and join; True if all
        exited within ``timeout`` (default drain_timeout + 5s)."""
        if timeout is None:
            timeout = self.config.drain_timeout + 5.0
        self._stopping = True
        for handle in self.handles:
            if handle.alive():
                handle.process.terminate()  # SIGTERM
        deadline = time.monotonic() + timeout
        clean = True
        for handle in self.handles:
            if handle.process is None:
                continue
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
                clean = False
        if self._supervisor is not None:
            self._supervisor.join(1.0)
        for sock in (self._reservation, self._shared_sock):
            if sock is not None:
                sock.close()
        self._reservation = self._shared_sock = None
        return clean

    # -- addressing -----------------------------------------------------
    @property
    def port(self) -> int:
        """The shared public port (reuseport/inherit modes)."""
        if self._port is None:
            raise SignalGraphError("pool is not started or runs in router mode")
        return self._port

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.config.host, self.port)

    def worker_ports(self) -> Dict[int, int]:
        """Private per-worker ports (populated in every mode)."""
        return {
            handle.worker_id: handle.port
            for handle in self.handles
            if handle.port is not None
        }

    def live_ids(self) -> List[int]:
        return [
            handle.worker_id
            for handle in self.handles
            if handle.alive() and handle.ready
        ]

    def handle_of(self, worker_id: int) -> WorkerHandle:
        return self.handles[worker_id]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "live": self.live_ids(),
            "restarts": {h.worker_id: h.restarts for h in self.handles},
            "pids": {
                h.worker_id: h.process.pid
                for h in self.handles
                if h.process is not None and h.process.pid is not None
            },
        }


# ----------------------------------------------------------------------
# per-worker health scoring
# ----------------------------------------------------------------------
class WorkerHealth:
    """EWMA error/latency score with outlier ejection and probation.

    Replaces blind in-order failover: the router records every
    forwarding outcome (``record``), and a worker whose error EWMA
    climbs past ``eject_threshold`` (after ``min_samples``
    observations) is *ejected* — :meth:`allow` answers False, so the
    shard moves to the key's next-best worker without burning a
    request on the sick one.  After ``cooldown_s`` one *probation
    probe* is admitted (single-claim, like the circuit breaker's
    half-open slot): success re-enters the worker with a clean error
    score, failure re-ejects it with the cooldown doubled up to
    ``cooldown_cap_s``.
    """

    def __init__(
        self,
        alpha: float = 0.3,
        eject_threshold: float = 0.5,
        min_samples: int = 3,
        cooldown_s: float = 2.0,
        cooldown_cap_s: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < eject_threshold <= 1.0:
            raise ValueError("eject_threshold must be in (0, 1]")
        self.alpha = alpha
        self.eject_threshold = eject_threshold
        self.min_samples = min_samples
        self.cooldown_s = cooldown_s
        self.cooldown_cap_s = cooldown_cap_s
        self._clock = clock
        self._lock = threading.Lock()
        self.error_ewma = 0.0
        self.latency_ewma_ms = 0.0
        self.samples = 0
        self.ejections = 0
        self._cooldown = cooldown_s
        self._ejected_until: Optional[float] = None
        self._probing = False

    def record(self, ok: bool, rtt_s: Optional[float] = None) -> None:
        """One forwarding outcome for this worker."""
        now = self._clock()
        with self._lock:
            self.samples += 1
            self.error_ewma += self.alpha * (
                (0.0 if ok else 1.0) - self.error_ewma
            )
            if rtt_s is not None:
                self.latency_ewma_ms += self.alpha * (
                    rtt_s * 1000.0 - self.latency_ewma_ms
                )
            if ok:
                if self._probing:
                    # Probation probe succeeded: full re-entry.
                    self._probing = False
                    self._ejected_until = None
                    self._cooldown = self.cooldown_s
                    self.error_ewma = 0.0
                return
            if self._probing:
                # Probation probe failed: re-eject, cooldown doubled.
                self._probing = False
                self._cooldown = min(self._cooldown * 2.0,
                                     self.cooldown_cap_s)
                self._ejected_until = now + self._cooldown
                self.ejections += 1
            elif (
                self._ejected_until is None
                and self.samples >= self.min_samples
                and self.error_ewma > self.eject_threshold
            ):
                self._ejected_until = now + self._cooldown
                self.ejections += 1

    def allow(self) -> bool:
        """May the router send this worker a request right now?

        While ejected: False until the cooldown lapses, then True for
        exactly one caller (the probation probe claim).
        """
        with self._lock:
            if self._ejected_until is None:
                return True
            if self._probing:
                return False
            if self._clock() >= self._ejected_until:
                self._probing = True
                return True
            return False

    @property
    def ejected(self) -> bool:
        with self._lock:
            return self._ejected_until is not None

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "error_ewma": self.error_ewma,
                "latency_ewma_ms": self.latency_ewma_ms,
                "samples": self.samples,
                "ejections": self.ejections,
                "ejected": self._ejected_until is not None,
                "probing": self._probing,
                "cooldown_s": self._cooldown,
            }


# ----------------------------------------------------------------------
# the front-door router
# ----------------------------------------------------------------------
#: request headers forwarded verbatim to the chosen worker
_FORWARD_HEADERS = (
    "Content-Type",
    "Accept",
    "X-Idempotency-Key",
    "X-Request-Timeout-Ms",
    "X-Topology-Hash",
    "traceparent",
)
#: response headers forwarded verbatim back to the caller —
#: X-Worker-Id and traceparent included so pool-level traces and
#: affinity stay observable across the router hop
_RETURN_HEADERS = ("Retry-After", "Content-Type", "X-Worker-Id",
                   "traceparent")


class _RouterHandler(KeepAliveHandler):
    server_version = "repro-router"

    @property
    def router(self) -> "RouterServer":
        return self.server  # type: ignore[return-value]

    # -- plumbing ------------------------------------------------------
    def _reply(
        self,
        status: int,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
        content_type: str = "application/json",
    ) -> None:
        headers = dict(headers or {})
        content_type = headers.pop("Content-Type", content_type)
        self.send_whole(status, body, headers, content_type)

    def _reply_json(self, status: int, payload: Dict[str, Any],
                    headers: Optional[Dict[str, str]] = None) -> None:
        self._reply(status, json.dumps(payload).encode("utf-8"), headers)

    def _reply_error(self, status: int, kind: str, message: str) -> None:
        self._reply_json(
            status, {"error": {"type": kind, "message": message}}
        )

    def _shard_key(self, body: bytes) -> str:
        """The affinity key: the client's X-Topology-Hash when present
        (the real canonical topology hash), else a digest of the raw
        graph document — stable for byte-identically serialised
        graphs, which covers any single client's retries."""
        header = self.headers.get("X-Topology-Hash")
        if header:
            return header
        try:
            document = json.loads(body)
            graph = document.get("graph")
        except ValueError:
            graph = None
        if isinstance(graph, dict):
            canonical = json.dumps(
                graph, sort_keys=True, separators=(",", ":")
            )
            return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return hashlib.sha256(body).hexdigest()

    # -- routes --------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        path = self.path.split("?", 1)[0]
        if path not in POST_ENDPOINTS:
            self._reply_error(404, "NotFound", "no such endpoint: %s" % path)
            return
        try:
            body = self.read_body()
        except RequestError as error:
            self._reply_error(error.status, error.kind, str(error))
            return
        headers = {
            name: self.headers[name]
            for name in _FORWARD_HEADERS
            if self.headers.get(name)
        }
        headers["Content-Length"] = str(len(body))
        key = self._shard_key(body)
        self.router.forward(self, "POST", path, body, headers, key)

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._reply_json(200, {"status": "ok"})
        elif path == "/readyz":
            self.router.handle_readyz(self)
        elif path == "/stats":
            self.router.handle_stats(self)
        elif path == "/metrics":
            self.router.handle_metrics(self)
        else:
            self._reply_error(404, "NotFound", "no such endpoint: %s" % path)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.router.quiet:
            sys.stderr.write(
                "[repro.router] %s - %s\n"
                % (self.address_string(), format % args)
            )


class RouterServer(ThreadingHTTPServer):
    """Topology-affinity front door over a :class:`WorkerPool`.

    POSTs are forwarded to the rendezvous-chosen worker over pooled
    keep-alive backend connections.  Per-worker :class:`WorkerHealth`
    scores steer routing: an ejected worker is skipped outright until
    its probation probe succeeds.  A worker that cannot be reached is
    skipped for that request — but the *failover replay* only happens
    for idempotent requests (GETs, or POSTs carrying an
    ``X-Idempotency-Key``); a non-idempotent request whose bytes may
    already have reached a worker is answered 503
    ``NonIdempotentFailover`` and counted ``unroutable`` instead of
    risking double execution.  With ``hedge_ms`` set, an idempotent
    request that hasn't answered within that delay is *hedged* to the
    key's second-best worker and the first answer wins.
    ``/readyz`` aggregates worker readiness — ready while at least one
    worker answers ready.  ``/metrics`` merges every worker's scrape
    into one exposition (series stay distinct via their ``worker``
    constant label); ``/stats`` nests each worker's stats document and
    the health scores.
    """

    daemon_threads = True

    def __init__(self, config: ServiceConfig, pool: WorkerPool):
        self.pool = pool
        self.quiet = config.quiet
        self.max_body_bytes = config.max_body_bytes
        self.probe_timeout = min(5.0, config.request_timeout)
        self.hedge_ms = config.hedge_ms
        self._transports: Dict[int, Any] = {}
        self._transports_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.counters = {
            "routed": 0, "failovers": 0, "unroutable": 0,
            "hedged": 0, "hedged_wins": 0,
        }
        self._per_worker: Dict[int, int] = {}
        self._health: Dict[int, WorkerHealth] = {}
        self._health_lock = threading.Lock()
        self._request_timeout = config.request_timeout
        super().__init__((config.host, config.port), _RouterHandler)

    def health_of(self, worker_id: int) -> WorkerHealth:
        with self._health_lock:
            health = self._health.get(worker_id)
            if health is None:
                health = self._health[worker_id] = WorkerHealth()
            return health

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return "http://%s:%d" % (host, port)

    def _count(self, name: str, worker_id: Optional[int] = None) -> None:
        with self._stats_lock:
            self.counters[name] += 1
            if worker_id is not None:
                self._per_worker[worker_id] = (
                    self._per_worker.get(worker_id, 0) + 1
                )

    def _transport(self, worker_id: int):
        from .client import PooledTransport

        port = self.pool.worker_ports().get(worker_id)
        if port is None:
            return None
        with self._transports_lock:
            transport = self._transports.get(worker_id)
            if transport is not None and transport.port == port:
                return transport
            if transport is not None:
                transport.close()  # the worker restarted on a new port
            transport = PooledTransport(
                "http://127.0.0.1:%d" % port,
                timeout=self._request_timeout,
                pool_connections=4,
            )
            self._transports[worker_id] = transport
            return transport

    # -- proxying ------------------------------------------------------
    @staticmethod
    def _pick_return_headers(
        worker_id: int, response_headers: Dict[str, str]
    ) -> Dict[str, str]:
        """The worker reply headers the router forwards to the caller."""
        reply: Dict[str, str] = {}
        wanted = {name.lower(): name for name in _RETURN_HEADERS}
        for name, value in response_headers.items():
            canonical = wanted.get(name.lower())
            if canonical is not None:
                reply[canonical] = value
        # A worker that didn't stamp itself still gets identified.
        reply.setdefault("X-Worker-Id", str(worker_id))
        return reply

    def _attempt_worker(
        self,
        worker_id: int,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> Optional[Tuple[int, int, bytes, Dict[str, str]]]:
        """One forwarding attempt; records the health outcome.

        Returns ``(worker_id, status, body, headers)`` or ``None`` on
        a transport error.
        """
        transport = self._transport(worker_id)
        if transport is None:
            return None
        started = time.monotonic()
        try:
            status, raw, response_headers = transport.request_ex(
                method, path, body, headers
            )
        except (OSError, http.client.HTTPException):
            self.health_of(worker_id).record(False)
            return None
        # Structured client errors (4xx) prove the worker is healthy;
        # only 5xx counts against its score.
        self.health_of(worker_id).record(
            status < 500, time.monotonic() - started
        )
        return worker_id, status, raw, response_headers

    def _hedged_attempt(
        self,
        primary: int,
        backup: int,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> Optional[Tuple[int, int, bytes, Dict[str, str]]]:
        """Race ``primary`` against a delayed ``backup``; first answer
        wins.  Only called for idempotent requests — the loser's work
        is wasted, never harmful."""
        results: "queue_module.Queue" = queue_module.Queue()

        def run(worker_id: int) -> None:
            results.put(
                self._attempt_worker(worker_id, method, path, body, headers)
            )

        threading.Thread(
            target=run, args=(primary,), daemon=True,
            name="repro-router-hedge-primary",
        ).start()
        deadline = time.monotonic() + self._request_timeout
        pending = 1
        hedged = False
        wait = self.hedge_ms / 1000.0
        while pending:
            try:
                outcome = results.get(
                    timeout=max(0.01, min(
                        wait, deadline - time.monotonic()
                    ))
                )
            except queue_module.Empty:
                if hedged or time.monotonic() >= deadline:
                    return None
                outcome = False  # sentinel: hedge fire, nothing read
            if outcome is False or (outcome is None and not hedged):
                if outcome is None:
                    pending -= 1
                self._count("hedged")
                hedged = True
                pending += 1
                wait = max(0.01, deadline - time.monotonic())
                threading.Thread(
                    target=run, args=(backup,), daemon=True,
                    name="repro-router-hedge-backup",
                ).start()
                continue
            pending -= 1
            if outcome is not None:
                if outcome[0] == backup:
                    self._count("hedged_wins")
                return outcome
        return None

    def forward(
        self,
        handler: _RouterHandler,
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
        key: str,
    ) -> None:
        live = self.pool.live_ids()
        if not live:
            handler._reply_error(
                503, "NoWorkers", "no live workers to route to"
            )
            self._count("unroutable")
            return
        # Failover replay is only safe when re-execution is: a GET, or
        # a POST carrying an idempotency key (the worker replays the
        # stored byte-identical response instead of recomputing).
        idempotent = method == "GET" or bool(
            headers.get("X-Idempotency-Key")
        )
        preference = shard_preference(key, live)
        candidates = [
            worker_id for worker_id in preference
            if self.health_of(worker_id).allow()
        ]
        if not candidates:
            # Every worker ejected: routing *somewhere* beats a
            # guaranteed 503 — fall back to plain preference order.
            candidates = preference
        if idempotent and self.hedge_ms > 0 and len(candidates) >= 2:
            outcome = self._hedged_attempt(
                candidates[0], candidates[1], method, path, body, headers
            )
            if outcome is not None:
                worker_id, status, raw, response_headers = outcome
                self._count("routed", worker_id)
                handler._reply(
                    status, raw,
                    self._pick_return_headers(worker_id, response_headers),
                )
                return
            candidates = candidates[2:]
        attempts = 0
        for worker_id in candidates:
            if self._transport(worker_id) is None:
                # No known port yet (worker mid-restart): nothing was
                # sent, so skipping is safe even for non-idempotent
                # requests.
                continue
            attempts += 1
            outcome = self._attempt_worker(
                worker_id, method, path, body, headers
            )
            if outcome is None:
                # Worker unreachable (mid-restart or sick).  Replaying
                # elsewhere is only safe for idempotent requests: for
                # anything else the bytes may already have reached the
                # worker, and a replay could double-execute.
                if not idempotent:
                    self._count("unroutable")
                    handler._reply_error(
                        503, "NonIdempotentFailover",
                        "worker %d failed mid-request; refusing to replay "
                        "a non-idempotent request (add X-Idempotency-Key "
                        "to opt in to failover)" % worker_id,
                    )
                    return
                self._count("failovers")
                continue
            worker_id, status, raw, response_headers = outcome
            self._count("routed", worker_id)
            handler._reply(
                status, raw,
                self._pick_return_headers(worker_id, response_headers),
            )
            return
        handler._reply_error(
            503,
            "NoWorkers",
            "all %d route attempts failed for this request" % attempts,
        )
        self._count("unroutable")

    def _scrape_worker(
        self, worker_id: int, path: str
    ) -> Optional[Tuple[int, bytes]]:
        transport = self._transport(worker_id)
        if transport is None:
            return None
        try:
            status, raw, _ = transport.request(
                "GET", path, None, {"Accept": "application/json"}
            )
        except (OSError, http.client.HTTPException):
            return None
        return status, raw

    # -- aggregate endpoints -------------------------------------------
    def handle_readyz(self, handler: _RouterHandler) -> None:
        states: Dict[str, bool] = {}
        any_ready = False
        for worker_id in self.pool.live_ids():
            scraped = self._scrape_worker(worker_id, "/readyz")
            ready = scraped is not None and scraped[0] == 200
            states[str(worker_id)] = ready
            any_ready = any_ready or ready
        status = 200 if any_ready else 503
        handler._reply_json(
            status,
            {
                "status": "ready" if any_ready else "unavailable",
                "workers": states,
            },
        )

    def handle_stats(self, handler: _RouterHandler) -> None:
        workers: Dict[str, Any] = {}
        for worker_id in self.pool.live_ids():
            scraped = self._scrape_worker(worker_id, "/stats")
            if scraped is None:
                workers[str(worker_id)] = {"error": "unreachable"}
                continue
            try:
                workers[str(worker_id)] = json.loads(scraped[1])
            except ValueError:
                workers[str(worker_id)] = {"error": "bad stats payload"}
        with self._stats_lock:
            router = dict(
                self.counters,
                routed_by_worker={
                    str(k): v for k, v in sorted(self._per_worker.items())
                },
            )
        with self._health_lock:
            health = {
                str(worker_id): tracker.snapshot()
                for worker_id, tracker in sorted(self._health.items())
            }
        handler._reply_json(
            200,
            {
                "status": "ok",
                "router": router,
                "health": health,
                "pool": self.pool.snapshot(),
                "workers": workers,
            },
        )

    def handle_metrics(self, handler: _RouterHandler) -> None:
        """One merged Prometheus exposition over all workers.

        Family ``# HELP``/``# TYPE`` headers are emitted once; sample
        lines concatenate from every worker and stay distinct series
        because each worker stamps its ``worker`` constant label.
        """
        seen_headers = set()
        merged: List[str] = []
        scraped_any = False
        for worker_id in self.pool.live_ids():
            scraped = self._scrape_worker(worker_id, "/metrics")
            if scraped is None or scraped[0] != 200:
                continue
            scraped_any = True
            for line in scraped[1].decode("utf-8").splitlines():
                if line.startswith("#"):
                    if line in seen_headers:
                        continue
                    seen_headers.add(line)
                merged.append(line)
        if not scraped_any:
            handler._reply_error(503, "NoWorkers", "no worker scrapes")
            return
        handler._reply(
            200,
            ("\n".join(merged) + "\n").encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def close(self) -> None:
        self.server_close()
        with self._transports_lock:
            transports = list(self._transports.values())
            self._transports.clear()
        for transport in transports:
            transport.close()


# ----------------------------------------------------------------------
# the CLI entry: supervise until SIGTERM
# ----------------------------------------------------------------------
def serve_pool(
    config: ServiceConfig,
    workers: int,
    router: bool = False,
    cache_config: Optional[Dict[str, Any]] = None,
) -> int:
    """``repro serve --workers N [--router]``: run until SIGINT/SIGTERM.

    Returns 0 when every worker drained and exited cleanly.
    """
    mode = "private" if router else None
    pool = WorkerPool(config, workers, mode=mode, cache_config=cache_config)
    pool.start()
    front: Optional[RouterServer] = None

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    clean = True
    try:
        if router:
            front = RouterServer(config, pool)
            print(
                "repro service router on %s (%d workers: %s)"
                % (
                    front.url,
                    workers,
                    ", ".join(
                        ":%d" % p for p in pool.worker_ports().values()
                    ),
                ),
                flush=True,
            )
            front.serve_forever(poll_interval=0.2)
        else:
            print(
                "repro service listening on %s (%d workers, %s mode)"
                % (pool.url, workers, pool.mode),
                flush=True,
            )
            while True:
                time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        if front is not None:
            front.close()
        clean = pool.terminate()
    if clean:
        print("repro service pool: shut down cleanly", flush=True)
        return 0
    print("repro service pool: worker(s) killed after drain timeout",
          flush=True)
    return 1
