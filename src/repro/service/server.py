"""The analysis daemon: JSON over HTTP, stdlib only.

``repro serve`` (or :func:`serve` programmatically) runs a
:class:`http.server.ThreadingHTTPServer` exposing

* ``POST /analyze`` — cycle time / critical cycles of a posted graph;
* ``POST /montecarlo`` — λ distribution under random delay variation;
* ``POST /ptime`` — P-time consistency / λ-range / trajectory synthesis
  for interval-bound graphs (``kind: ptime-signal-graph`` documents);
* ``POST /netlist`` — the real-circuit front end: parse a ``.bench``/
  structural-Verilog/``logic-network`` source, ring-wrap it into an
  autonomous self-timed circuit, extract the Timed Signal Graph
  (structural path for large instances) and return its cycle time;
* ``GET /stats`` — request counters, cache hit/miss/eviction counters,
  coalescer, admission-queue and fault-injection statistics;
* ``GET /healthz`` — liveness probe;
* ``GET /readyz`` — readiness probe: 503 while draining or saturated,
  200 otherwise (distinct from liveness so a load balancer can stop
  routing before shutdown).

Request graphs use the standard JSON document format of
:mod:`repro.io.json_io` under a ``"graph"`` key.  Every response is
JSON; errors are *structured* —
``{"error": {"type": ..., "message": ...}}`` with a meaningful HTTP
status — and a traceback is never written to the wire.  Exact cycle
times travel as tagged numbers (``{"fraction": [n, d]}``) so the
typed client round-trips them losslessly.

Bounded failure behaviour (:mod:`repro.service.resilience`):

* every request carries a server-side deadline (``timeout_ms`` field
  or ``X-Request-Timeout-Ms`` header; default ``--request-timeout``),
  checked before compile, before kernel dispatch and between batch
  chunks — an exhausted budget is a structured **504**, never a hung
  thread;
* a bounded admission queue (``--max-inflight`` computing,
  ``--max-queue-depth`` waiting) sheds excess load with **429** +
  ``Retry-After`` instead of letting ``ThreadingHTTPServer`` pile up
  unbounded threads;
* POSTs carrying an ``X-Idempotency-Key`` header replay the stored
  byte-identical response on retry instead of recomputing;
* an AIMD :class:`~repro.service.overload.AdaptiveLimiter` (on by
  default, ``--no-adaptive`` to pin the static limit) lowers the
  effective in-flight limit when observed latency inflates past the
  no-queueing floor; a ``priority`` request field
  (``interactive``/``normal``/``bulk``) orders the wait queue, and
  CoDel-style shedding keeps queue sojourn bounded;
* ``--brownout`` lets ``/montecarlo`` degrade ``samples`` toward
  ``--brownout-floor`` under sustained pressure, stamping
  ``{"degraded": {"requested": S, "served": S'}}`` — never silently;
* ``--chaos SPEC`` arms the deterministic fault-injection harness
  (:mod:`repro.service.faults`) for resilience testing.

Work sharing: the four POST endpoints' responses are memoised in the
process-wide result cache keyed by content hash + parameters, and a
byte-identical repeat body finds its result key by a digest of its raw
bytes, before any decoding; compiled topologies are shared through
:func:`~repro.service.cache.shared_compiled_graph`; and concurrent
λ-only Monte-Carlo requests over one topology are merged into single
batched kernel calls by the :class:`~repro.service.queue.RequestCoalescer`.

Every response leaves in one ``send()`` on a ``TCP_NODELAY`` socket
(:class:`KeepAliveHandler`, shared with the router).

The daemon shuts down cleanly on SIGINT/SIGTERM: the listener closes,
in-flight requests *drain* (finish writing their responses) for up to
``--drain-timeout`` seconds, the coalescer drains its queue, and
``serve`` returns 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..analysis.montecarlo import (
    monte_carlo_cycle_time,
    normal_spread,
    sample_delay_matrix,
    uniform_spread,
)
from ..core.cycle_time import compute_cycle_time
from ..core.errors import SignalGraphError
from ..core.events import event_label
from ..core.kernel import KERNELS, shm_stats
from ..core.signal_graph import TimedSignalGraph
from ..io.json_io import (
    decode_number,
    encode_number,
    graph_from_dict,
    ptime_graph_from_dict,
)
from ..obs import STATE as _obs
from ..obs.logging import get_logger
from ..obs.metrics import DEFAULT_BUCKETS, Family, registry as _registry
from ..obs.tracing import (
    ChromeTraceExporter,
    current_traceparent,
    parse_traceparent,
    tracer as _tracer,
)
from ..ptime import (
    check_consistency,
    lambda_range,
    synthesize_trajectory,
    verify_trajectory,
)
from ..ptime.model import PTimeSignalGraph
from . import faults
from .cache import (
    CacheStats,
    LRUCache,
    compile_cache,
    result_cache,
    service_cache_stats,
)
from .hashing import (
    analysis_key,
    bound_token,
    delay_token,
    netlist_analysis_key,
    netlist_source_hash,
    ptime_analysis_key,
)
from .overload import AdaptiveLimiter, BrownoutController
from .queue import RequestCoalescer
from .resilience import (
    PRIORITIES,
    AdmissionQueue,
    Deadline,
    DeadlineExceeded,
    Saturated,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8177


class RequestError(Exception):
    """A client-side error with an HTTP status and a stable type name."""

    def __init__(self, message: str, status: int = 400, kind: str = "BadRequest"):
        super().__init__(message)
        self.status = status
        self.kind = kind


class _AnswerRecord(threading.local):
    """Per-thread notes that :meth:`AnalysisService.answer` collects."""

    key: Optional[str] = None     # result key the handler hit or stored
    missed: Optional[str] = None  # result key answer() already missed on


@dataclass
class ServiceConfig:
    """Daemon knobs (all reachable from ``repro serve`` flags)."""

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    request_timeout: float = 30.0    # socket timeout *and* default deadline
    max_body_bytes: int = 16 * 1024 * 1024
    max_samples: int = 100_000       # per Monte-Carlo request
    max_periods: int = 10_000
    linger_ms: float = 2.0           # coalescer window
    max_batch_samples: int = 65536
    max_inflight: int = 8            # admission: concurrent compute cap
    max_queue_depth: int = 32        # admission: bounded wait queue
    retry_after_s: float = 0.25      # Retry-After hint on 429/503
    drain_timeout: float = 10.0      # SIGTERM: wait for in-flight writes
    idempotency_entries: int = 256   # replay cache for keyed retries
    chaos: Optional[str] = None      # fault-injection spec (faults.py)
    quiet: bool = False
    metrics: bool = True             # serve /metrics + record histograms
    trace_export: Optional[str] = None  # Chrome trace_event JSON path
    reuse_port: bool = False         # SO_REUSEPORT (multi-worker sharing)
    worker_id: Optional[int] = None  # set by the pool supervisor
    kernel_executor: str = "thread"  # batch-sweep chunk executor
    kernel_workers: int = 0          # 0 = no chunk fan-out
    kernel_batch_size: Optional[int] = None  # chunk size override
    batch_kernel: Optional[str] = None  # auto/batch/fused/numba tier
    adaptive: bool = True            # AIMD limiter under --max-inflight
    brownout: bool = False           # degrade /montecarlo under pressure
    brownout_floor: int = 64         # smallest degraded sample count
    codel_target_ms: float = 50.0    # queue sojourn target (CoDel)
    codel_interval_ms: float = 100.0  # CoDel observation interval
    hedge_ms: float = 0.0            # router: hedge idempotent requests


class AnalysisService:
    """Protocol-independent request handlers backing the HTTP layer."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.results = result_cache()
        # Digest-first warm hits: (endpoint, sha256 of the raw body) ->
        # (result key, the fields read before compute).  It points into
        # self.results and holds no answer of its own, so that cache's
        # bound, disk tier and hit/miss counters still decide each hit.
        self.digests = LRUCache(max_entries=self.results.memory.max_entries)
        self._record = _AnswerRecord()
        # One reentrant lock shared by every component's counter block:
        # a /stats or /metrics scrape takes it once and reads all
        # counters from the same instant (no shed count from mid-storm
        # paired with a hit count from before it).
        self.stats_lock = threading.RLock()
        self.coalescer = RequestCoalescer(
            linger_s=self.config.linger_ms / 1000.0,
            max_batch_samples=self.config.max_batch_samples,
            kernel_executor=self.config.kernel_executor,
            kernel_workers=self.config.kernel_workers,
            kernel_batch_size=self.config.kernel_batch_size,
            kernel=self.config.batch_kernel,
        )
        self.coalescer.stats.share_lock(self.stats_lock)
        # The old static knobs survive as hard bounds: the limiter may
        # pull the effective in-flight limit *below* --max-inflight,
        # never above it.
        self.limiter: Optional[AdaptiveLimiter] = (
            AdaptiveLimiter(ceiling=self.config.max_inflight)
            if self.config.adaptive else None
        )
        self.brownout: Optional[BrownoutController] = (
            BrownoutController(floor=self.config.brownout_floor)
            if self.config.brownout else None
        )
        self.admission = AdmissionQueue(
            max_inflight=self.config.max_inflight,
            max_queue_depth=self.config.max_queue_depth,
            retry_after=self.config.retry_after_s,
            lock=self.stats_lock,
            limiter=self.limiter,
            codel_target_ms=self.config.codel_target_ms,
            codel_interval_ms=self.config.codel_interval_ms,
        )
        self.idempotency = LRUCache(max_entries=self.config.idempotency_entries)
        self.counters = CacheStats(lock=self.stats_lock)
        compile_cache().stats.share_lock(self.stats_lock)
        result_cache().stats.share_lock(self.stats_lock)
        self.draining = False
        self.faults: Optional[faults.FaultInjector] = None
        if self.config.chaos:
            self.faults = faults.install(faults.FaultInjector.parse(self.config.chaos))
            self.faults.share_lock(self.stats_lock)
        self.started = time.time()
        self.trace_exporter: Optional[ChromeTraceExporter] = None
        if self.config.trace_export:
            self.trace_exporter = ChromeTraceExporter(self.config.trace_export)
            _tracer().add_exporter(self.trace_exporter)
            _obs.tracing = True
        if self.config.metrics:
            _obs.metrics = True
            _registry().register_callback(self._collect_families)
            if self.config.worker_id is not None:
                # Every series this worker renders carries its id, so a
                # router-merged multi-worker scrape never collides.
                _registry().set_constant_labels(worker=self.config.worker_id)

    def close(self) -> None:
        self.coalescer.close()
        if self.faults is not None and faults.active() is self.faults:
            faults.clear()
        if self.config.metrics:
            _registry().unregister_callback(self._collect_families)
        if self.trace_exporter is not None:
            _tracer().remove_exporter(self.trace_exporter)
            try:
                events = self.trace_exporter.flush()
            except OSError as error:
                get_logger("repro.service").error(
                    "failed to write trace export",
                    path=self.trace_exporter.path,
                    error=str(error),
                )
            else:
                get_logger("repro.service").info(
                    "trace export written",
                    path=self.trace_exporter.path,
                    events=events,
                )
            self.trace_exporter = None

    # ------------------------------------------------------------------
    # metrics bridge: existing counter blocks -> Prometheus families
    # ------------------------------------------------------------------
    def _collect_families(self):
        """Snapshot every component counter block at scrape time.

        Holding :attr:`stats_lock` across the whole collection makes
        the scrape atomic, exactly like :meth:`handle_stats`.
        """
        with self.stats_lock:
            service = self.counters.snapshot()
            cache = service_cache_stats()
            coalescer = self.coalescer.stats.snapshot()
            admission = self.admission.snapshot()
            injected = (
                {} if self.faults is None
                else self.faults.snapshot()["injected"]
            )
            limiter = None if self.limiter is None else self.limiter.snapshot()
            brownout = (
                None if self.brownout is None else self.brownout.snapshot()
            )
        families = [
            Family(
                "repro_service_events_total",
                "Service-level request/outcome counters.",
                "counter",
                [({"event": name}, value) for name, value in sorted(service.items())],
            ),
            Family(
                "repro_cache_events_total",
                "Hit/miss/eviction/degraded counters per cache tier.",
                "counter",
                [
                    ({"cache": cache_name, "event": name}, value)
                    for cache_name, block in sorted(cache.items())
                    for name, value in sorted(block.items())
                    if isinstance(value, int) and not isinstance(value, bool)
                    and name not in ("entries", "max_entries")
                ],
            ),
            Family(
                "repro_cache_entries",
                "Live in-memory entries per cache.",
                "gauge",
                [
                    ({"cache": cache_name}, block.get("entries", 0))
                    for cache_name, block in sorted(cache.items())
                ],
            ),
            Family(
                "repro_cache_degraded",
                "1 while a cache's disk tier is tripped to memory-only.",
                "gauge",
                [
                    ({"cache": cache_name}, 1.0 if block.get("degraded") else 0.0)
                    for cache_name, block in sorted(cache.items())
                ],
            ),
            Family(
                "repro_coalescer_events_total",
                "Coalescer request/batch/expiry counters.",
                "counter",
                [
                    ({"event": name}, value)
                    for name, value in sorted(coalescer.items())
                    if name != "max_batch_requests"
                ],
            ),
            Family(
                "repro_coalescer_max_batch_requests",
                "Largest request count merged into one batch.",
                "gauge",
                [({}, coalescer.get("max_batch_requests", 0))],
            ),
            Family(
                "repro_admission_inflight",
                "Requests currently computing.",
                "gauge",
                [({}, admission.get("inflight", 0))],
            ),
            Family(
                "repro_admission_queue_depth",
                "Requests waiting for an admission slot.",
                "gauge",
                [({}, admission.get("waiting", 0))],
            ),
            Family(
                "repro_admission_events_total",
                "Admission outcomes (admitted/shed/expired_in_queue/"
                "codel_shed/displaced).",
                "counter",
                [
                    ({"event": name}, value)
                    for name, value in sorted(admission.items())
                    if name in ("admitted", "shed", "expired_in_queue",
                                "codel_shed", "displaced")
                ],
            ),
            Family(
                "repro_admission_limit",
                "Effective in-flight limit (adaptive, <= --max-inflight).",
                "gauge",
                [({}, admission.get("limit", 0))],
            ),
            Family(
                "repro_fault_injections_total",
                "Deterministic chaos injections per hook.",
                "counter",
                [({"hook": name}, value) for name, value in sorted(injected.items())],
            ),
            Family(
                "repro_service_uptime_seconds",
                "Seconds since the daemon started.",
                "gauge",
                [({}, time.time() - self.started)],
            ),
        ]
        if limiter is not None:
            families.append(Family(
                "repro_overload_limit",
                "AIMD concurrency limit (within [min_limit, ceiling]).",
                "gauge",
                [({}, limiter["limit"])],
            ))
            families.append(Family(
                "repro_overload_events_total",
                "Adaptive-limiter control actions.",
                "counter",
                [
                    ({"event": name}, limiter[name])
                    for name in ("samples", "increases", "decreases",
                                 "timeouts")
                ],
            ))
        if brownout is not None:
            families.append(Family(
                "repro_brownout_level",
                "Current Monte-Carlo degradation level (0 = full fidelity).",
                "gauge",
                [({}, brownout["level"])],
            ))
            families.append(Family(
                "repro_brownout_events_total",
                "Brownout degradation counters.",
                "counter",
                [
                    ({"event": name}, brownout[name])
                    for name in ("degraded_requests", "samples_saved",
                                 "level_ups", "level_downs")
                ],
            ))
        return families

    # ------------------------------------------------------------------
    def note_pressure(self, forced: Optional[bool] = None) -> None:
        """Feed the brownout controller one pressure reading.

        ``forced=True`` records unambiguous pressure (a shed request);
        otherwise pressure is inferred from a non-empty wait queue.
        """
        if self.brownout is None:
            return
        pressure = (
            forced if forced is not None else self.admission.waiting() > 0
        )
        self.brownout.update(pressure)

    # ------------------------------------------------------------------
    # decoding helpers
    # ------------------------------------------------------------------
    def _decode_graph(self, payload: Dict[str, Any]) -> TimedSignalGraph:
        document = payload.get("graph")
        if not isinstance(document, dict):
            raise RequestError("request must carry a 'graph' document")
        try:
            return graph_from_dict(document)
        except SignalGraphError as error:
            raise RequestError(str(error), kind=type(error).__name__)

    @staticmethod
    def _int_field(payload, name, default, low, high) -> int:
        value = payload.get(name, default)
        if value is None:
            return default
        if not isinstance(value, int) or isinstance(value, bool):
            raise RequestError("'%s' must be an integer" % name)
        if not low <= value <= high:
            raise RequestError(
                "'%s' must be in [%d, %d], got %d" % (name, low, high, value)
            )
        return value

    def deadline_for(
        self, payload: Optional[Dict[str, Any]], header_ms: Optional[str]
    ) -> Deadline:
        """The request's time budget: field, header, or server default."""
        timeout_ms: Optional[float] = None
        if payload is not None and payload.get("timeout_ms") is not None:
            raw = payload["timeout_ms"]
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise RequestError("'timeout_ms' must be a number")
            timeout_ms = float(raw)
        elif header_ms is not None:
            try:
                timeout_ms = float(header_ms)
            except ValueError:
                raise RequestError("X-Request-Timeout-Ms must be a number")
        if timeout_ms is None:
            timeout_ms = self.config.request_timeout * 1000.0
        if timeout_ms <= 0:
            raise RequestError("'timeout_ms' must be positive")
        return Deadline.after_ms(timeout_ms)

    # ------------------------------------------------------------------
    # the result cache, shared by the four POST handlers
    # ------------------------------------------------------------------
    def _cached(self, key: str) -> Optional[Dict[str, Any]]:
        """``key``'s cached answer stamped ``cached: True``, or None.

        A hit names ``key`` as the answer's result key (see
        :meth:`answer`).
        """
        record = self._record
        if key == record.missed:
            # answer() looked this key up a moment ago and missed; a
            # second lookup would count that miss twice.
            return None
        cached = self.results.get(key)
        if cached is None:
            return None
        record.key = key
        return dict(cached, cached=True)

    def _store(self, key: str, response: Dict[str, Any]) -> Dict[str, Any]:
        """Cache a full-fidelity answer under ``key``; return it stamped
        ``cached: False``."""
        self.results.put(key, response)
        self._record.key = key
        return dict(response, cached=False)

    def answer(
        self, method, decode, deadline: Deadline, known: Optional[str] = None
    ) -> Tuple[Dict[str, Any], Optional[str]]:
        """Run one POST handler, trying the result key ``known`` first.

        ``known`` is the result key a byte-identical body was answered
        under before.  While the result cache still holds it, that
        answer comes back and ``decode`` never runs; otherwise
        ``method(decode(), deadline)`` runs as usual.  Returns the
        answer and the result key it came from or went into, or None
        for an answer that was not cached (a degraded Monte-Carlo run).
        """
        record = self._record
        record.key = record.missed = None
        try:
            if known is not None:
                cached = self._cached(known)
                if cached is not None:
                    return cached, known
                record.missed = known
            return method(decode(), deadline), record.key
        finally:
            record.key = record.missed = None

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def handle_analyze(
        self, payload: Dict[str, Any], deadline: Optional[Deadline] = None
    ) -> Dict[str, Any]:
        deadline = deadline or self.deadline_for(payload, None)
        graph = self._decode_graph(payload)
        periods = payload.get("periods")
        if periods is not None:
            periods = self._int_field(
                payload, "periods", None, 1, self.config.max_periods
            )
        kernel = payload.get("kernel", "auto")
        if kernel not in KERNELS:
            raise RequestError(
                "unknown kernel %r (choose from %s)" % (kernel, ", ".join(KERNELS))
            )
        backtrack = bool(payload.get("backtrack", True))
        key = analysis_key(
            graph, "analyze", periods=periods, kernel=kernel, backtrack=backtrack
        )
        cached = self._cached(key)
        if cached is not None:
            return cached
        deadline.check("pre-compile")
        result = compute_cycle_time(
            graph,
            periods=periods,
            kernel=kernel,
            backtrack=backtrack,
            keep_simulations=False,
        )
        response = {
            "graph": graph.name,
            "events": graph.num_events,
            "arcs": graph.num_arcs,
            "cycle_time": encode_number(result.cycle_time),
            "cycle_time_float": float(result.cycle_time),
            "critical_cycles": [
                {
                    "events": [event_label(e) for e in cycle.events],
                    "length": encode_number(cycle.length),
                    "tokens": cycle.tokens,
                }
                for cycle in result.critical_cycles
            ],
            "border_events": [event_label(e) for e in result.border_events],
            "periods": result.periods,
            "distances": len(result.distances),
        }
        return self._store(key, response)

    def handle_montecarlo(
        self, payload: Dict[str, Any], deadline: Optional[Deadline] = None
    ) -> Dict[str, Any]:
        deadline = deadline or self.deadline_for(payload, None)
        graph = self._decode_graph(payload)
        samples = self._int_field(
            payload, "samples", 1000, 1, self.config.max_samples
        )
        seed = self._int_field(payload, "seed", 0, -(2 ** 62), 2 ** 62)
        bins = self._int_field(payload, "bins", 0, 0, 1000)
        track = bool(payload.get("track_criticality", False))
        distribution = payload.get("distribution", "uniform")
        if distribution not in ("uniform", "normal"):
            raise RequestError(
                "unknown distribution %r (uniform or normal)" % (distribution,)
            )
        spread = payload.get("spread", 0.1)
        if isinstance(spread, bool) or not isinstance(spread, (int, float)):
            raise RequestError("'spread' must be a number")
        spread = float(spread)
        if not 0.0 <= spread < 1.0:
            raise RequestError("'spread' must be in [0, 1), got %r" % spread)
        key = analysis_key(
            graph,
            "montecarlo",
            samples=samples,
            seed=seed,
            spread=spread,
            distribution=distribution,
            track_criticality=track,
            bins=bins,
        )
        cached = self._cached(key)
        if cached is not None:
            # A cached full-fidelity answer always beats degrading.
            return cached
        requested = samples
        if self.brownout is not None:
            # Brownout: under sustained pressure serve a smaller,
            # honestly-labelled sweep instead of shedding or timing
            # out.  Never silent (`degraded` stamp) and never cached
            # under the full-fidelity key.
            samples = self.brownout.degrade(requested)
        degraded = samples < requested
        sampler = (
            uniform_spread(spread) if distribution == "uniform"
            else normal_spread(spread)
        )
        deadline.check("pre-compile")
        if track:
            # Criticality attribution backtracks per sample; no
            # cross-request batching to exploit.
            deadline.check("pre-dispatch")
            outcome = monte_carlo_cycle_time(
                graph, sampler, samples=samples, seed=seed,
                track_criticality=True,
            )
            values = outcome.samples
            criticality = [
                {
                    "source": event_label(pair[0]),
                    "target": event_label(pair[1]),
                    "probability": probability,
                }
                for pair, probability in outcome.top_critical_arcs(10)
            ]
        else:
            # λ-only distribution: sample here, let the coalescer merge
            # this sweep with concurrent same-topology requests.  The
            # deadline rides along so a lingering request is evicted
            # (504) instead of swept for a caller that gave up.
            rng = np.random.default_rng(seed)
            matrix = sample_delay_matrix(graph, sampler, samples, rng)
            deadline.check("pre-dispatch")
            try:
                values = self.coalescer.run(
                    graph, matrix,
                    deadline=deadline,
                    timeout=max(0.05, deadline.remaining()) + 1.0,
                )
            except FutureTimeoutError:
                raise DeadlineExceeded("kernel-sweep", deadline.timeout_s)
            criticality = None
        response = {
            "graph": graph.name,
            "count": int(len(values)),
            "seed": seed,
            "spread": spread,
            "distribution": distribution,
            "mean": float(np.mean(values)),
            "std": float(np.std(values)),
            "min": float(np.min(values)),
            "max": float(np.max(values)),
            "quantiles": {
                "p05": float(np.quantile(values, 0.05)),
                "p50": float(np.quantile(values, 0.50)),
                "p95": float(np.quantile(values, 0.95)),
            },
        }
        if criticality is not None:
            response["criticality"] = criticality
        if bins:
            counts, edges = np.histogram(values, bins=bins)
            response["histogram"] = [
                [float(edges[i]), float(edges[i + 1]), int(counts[i])]
                for i in range(len(counts))
            ]
        if degraded:
            response["degraded"] = {
                "requested": requested, "served": samples,
            }
            return dict(response, cached=False)
        return self._store(key, response)

    def _decode_ptime_graph(self, payload: Dict[str, Any]) -> PTimeSignalGraph:
        document = payload.get("graph")
        if not isinstance(document, dict):
            raise RequestError("request must carry a 'graph' document")
        try:
            return ptime_graph_from_dict(document)
        except SignalGraphError as error:
            raise RequestError(str(error), kind=type(error).__name__)

    @staticmethod
    def _violation_payload(violation) -> Dict[str, Any]:
        return {
            "alpha": violation.alpha,
            "beta": encode_number(violation.beta),
            "condition": violation.condition(),
            "edges": [
                {
                    "kind": edge.kind,
                    "source": event_label(edge.arc[0]),
                    "target": event_label(edge.arc[1]),
                    "alpha": edge.alpha,
                    "beta": encode_number(edge.beta),
                }
                for edge in violation.edges
            ],
        }

    def handle_ptime(
        self, payload: Dict[str, Any], deadline: Optional[Deadline] = None
    ) -> Dict[str, Any]:
        """P-time analysis: consistency / lambda-range / trajectory.

        ``mode`` selects the question; ``rate`` (trajectory mode,
        tagged number) picks a specific rate instead of the smallest
        feasible one, and ``horizon`` bounds the verification replay.
        Responses are memoised per content hash + parameters like
        ``/analyze``, and the P-time address splits topology from
        bounds so compiled topologies survive bound rebinds.
        """
        deadline = deadline or self.deadline_for(payload, None)
        mode = payload.get("mode", "check")
        if mode not in ("check", "lambda-range", "trajectory"):
            raise RequestError(
                "unknown mode %r (check, lambda-range or trajectory)" % (mode,)
            )
        ptg = self._decode_ptime_graph(payload)
        horizon = self._int_field(payload, "horizon", 8, 1, 10_000)
        rate = payload.get("rate")
        if rate is not None:
            try:
                rate = decode_number(rate)
            except SignalGraphError:
                raise RequestError("'rate' must be a tagged number")
        key = ptime_analysis_key(
            ptg,
            "ptime",
            mode=mode,
            horizon=horizon,
            rate=None if rate is None else bound_token(rate),
        )
        cached = self._cached(key)
        if cached is not None:
            return cached
        deadline.check("pre-analysis")
        response: Dict[str, Any] = {
            "graph": ptg.name,
            "mode": mode,
            "events": ptg.num_events,
            "arcs": ptg.num_arcs,
            "exact": ptg.is_exact,
        }
        if mode == "check":
            result = check_consistency(ptg)
            response["consistent"] = result.consistent
            response["iterations"] = result.iterations
            if result.consistent:
                response["rate"] = encode_number(result.rate)
                response["offsets"] = {
                    event_label(event): encode_number(value)
                    for event, value in result.offsets.items()
                }
            else:
                response["violation"] = self._violation_payload(result.violation)
        elif mode == "lambda-range":
            result = lambda_range(ptg)
            response["consistent"] = result.consistent
            response["iterations"] = result.iterations
            if result.consistent:
                response["lam_min"] = encode_number(result.lam_min)
                response["lam_max"] = (
                    None if result.lam_max is None
                    else encode_number(result.lam_max)
                )
                response["unbounded"] = result.unbounded
            else:
                response["violation"] = self._violation_payload(result.violation)
        else:
            window = lambda_range(ptg)
            if not window.consistent:
                response["consistent"] = False
                response["violation"] = self._violation_payload(window.violation)
            else:
                if rate is not None and not window.contains(rate):
                    raise RequestError(
                        "rate %s outside the feasible interval %s"
                        % (rate, window)
                    )
                deadline.check("pre-synthesis")
                trajectory = synthesize_trajectory(
                    ptg, rate=rate, validate=False
                )
                verdict = verify_trajectory(ptg, trajectory, horizon=horizon)
                response["consistent"] = True
                response["rate"] = encode_number(trajectory.rate)
                response["offsets"] = {
                    event_label(event): encode_number(value)
                    for event, value in trajectory.offsets.items()
                }
                response["verified"] = verdict.ok
                response["horizon"] = verdict.horizon
                response["induced_delays"] = [
                    {
                        "source": event_label(pair[0]),
                        "target": event_label(pair[1]),
                        "delay": encode_number(value),
                    }
                    for pair, value in trajectory.induced_delays(ptg).items()
                ]
        return self._store(key, response)

    @staticmethod
    def _netlist_delay_field(payload: Dict[str, Any], name: str, default):
        """A delay knob: tagged number, or ``[lo, hi]`` for sampling."""
        value = payload.get(name, default)
        if isinstance(value, list):
            if len(value) != 2:
                raise RequestError(
                    "'%s' interval must be a [lo, hi] pair" % name
                )
            try:
                return (decode_number(value[0]), decode_number(value[1]))
            except SignalGraphError:
                raise RequestError(
                    "'%s' interval endpoints must be numbers" % name
                )
        if isinstance(value, bool):
            raise RequestError("'%s' must be a number" % name)
        try:
            return decode_number(value)
        except SignalGraphError:
            raise RequestError(
                "'%s' must be a number, a {'fraction': [n, d]} tag or a "
                "[lo, hi] pair" % name
            )

    def handle_netlist(
        self, payload: Dict[str, Any], deadline: Optional[Deadline] = None
    ) -> Dict[str, Any]:
        """The real-circuit pipeline: parse -> wrap -> extract -> analyze."""
        from ..netlist.pipeline import (
            EXTRACTION_MODES,
            FORMATS,
            analyze_source,
        )

        deadline = deadline or self.deadline_for(payload, None)
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise RequestError("'source' must be non-empty circuit text")
        fmt = payload.get("format", "auto")
        if fmt not in FORMATS:
            raise RequestError(
                "unknown format %r (choose from %s)"
                % (fmt, ", ".join(FORMATS))
            )
        name = payload.get("name", "netlist")
        if not isinstance(name, str):
            raise RequestError("'name' must be a string")
        delay = self._netlist_delay_field(payload, "delay", 1)
        ack_delay = self._netlist_delay_field(payload, "ack_delay", 1)
        seed = self._int_field(payload, "seed", 0, -(2 ** 62), 2 ** 62)
        max_fanout = payload.get("max_fanout")
        if max_fanout is not None:
            max_fanout = self._int_field(payload, "max_fanout", None, 2, 10 ** 6)
        extraction = payload.get("extraction", "auto")
        if extraction not in EXTRACTION_MODES:
            raise RequestError(
                "unknown extraction mode %r (choose from %s)"
                % (extraction, ", ".join(EXTRACTION_MODES))
            )
        method = payload.get("method", "auto")

        def token(value):
            if isinstance(value, tuple):
                return "%s..%s" % (delay_token(value[0]), delay_token(value[1]))
            return delay_token(value)

        key = netlist_analysis_key(
            source,
            fmt=fmt,
            delay=token(delay),
            ack_delay=token(ack_delay),
            seed=seed,
            max_fanout=max_fanout,
            extraction=extraction,
            method=method,
        )
        cached = self._cached(key)
        if cached is not None:
            return cached
        deadline.check("pre-parse")
        _, report = analyze_source(
            source,
            fmt=fmt,
            name=name,
            delay=delay,
            ack_delay=ack_delay,
            seed=seed,
            max_fanout=max_fanout,
            extraction=extraction,
            method=method,
        )
        deadline.check("post-analyze")
        response = dict(
            report,
            cycle_time=encode_number(report["cycle_time"]),
            cycle_time_float=float(report["cycle_time"]),
            source_hash=netlist_source_hash(source),
        )
        return self._store(key, response)

    def handle_stats(self) -> Dict[str, Any]:
        # Every component snapshot re-acquires the shared RLock, so the
        # whole multi-component read happens at one instant: a scrape
        # during a storm can't pair a shed count from mid-storm with a
        # hit count from before it.
        with self.stats_lock:
            return self._stats_locked()

    def _stats_locked(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "uptime_s": time.time() - self.started,
            "worker_id": self.config.worker_id,
            "pid": os.getpid(),
            "draining": self.draining,
            "requests": self.counters.snapshot(),
            "cache": service_cache_stats(),
            "coalescer": self.coalescer.stats.snapshot(),
            "admission": self.admission.snapshot(),
            "overload": {
                "limiter": (
                    None if self.limiter is None else self.limiter.snapshot()
                ),
                "brownout": (
                    None if self.brownout is None
                    else self.brownout.snapshot()
                ),
            },
            "kernel": {"shm": shm_stats()},
            "faults": None if self.faults is None else self.faults.snapshot(),
            "config": {
                "request_timeout": self.config.request_timeout,
                "max_samples": self.config.max_samples,
                "linger_ms": self.config.linger_ms,
                "max_batch_samples": self.config.max_batch_samples,
                "max_inflight": self.config.max_inflight,
                "max_queue_depth": self.config.max_queue_depth,
                "drain_timeout": self.config.drain_timeout,
                "chaos": self.config.chaos,
                "adaptive": self.config.adaptive,
                "brownout": self.config.brownout,
                "brownout_floor": self.config.brownout_floor,
                "codel_target_ms": self.config.codel_target_ms,
                "codel_interval_ms": self.config.codel_interval_ms,
            },
        }

    def handle_readyz(self) -> Tuple[int, Dict[str, Any]]:
        if self.draining:
            return 503, {"status": "draining"}
        if self.admission.saturated():
            return 503, {"status": "saturated"}
        return 200, {"status": "ready"}

    def handle_metrics(self) -> str:
        """The Prometheus text exposition (native + bridged series)."""
        return _registry().render()


#: POST endpoint -> the AnalysisService handler behind it.
_POST_HANDLERS = {
    "/analyze": "handle_analyze",
    "/montecarlo": "handle_montecarlo",
    "/ptime": "handle_ptime",
    "/netlist": "handle_netlist",
}

#: The POST endpoints; the router forwards exactly this set.
POST_ENDPOINTS = frozenset(_POST_HANDLERS)

#: Endpoint label values with bounded cardinality: anything outside
#: this set is labelled "other" so scanned garbage paths cannot mint
#: unbounded metric series.
_KNOWN_ENDPOINTS = POST_ENDPOINTS | frozenset(
    ("/stats", "/healthz", "/readyz", "/metrics")
)

#: Payload fields the POST path reads before compute.  The digest step
#: keeps them, so a digest hit needs no decode.
_PRECOMPUTE_FIELDS = ("timeout_ms", "priority")


def _decode_payload(raw: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(raw)
    except (ValueError, UnicodeDecodeError):
        raise RequestError("request body is not valid JSON")
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    return payload


class KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 plumbing shared by the daemon and the router.

    * :meth:`send_whole` writes the status line, headers and body in
      one ``send()`` on a ``TCP_NODELAY`` socket.  Written in two
      pieces with Nagle's algorithm on, the body would wait for the
      peer's delayed ACK (~40 ms on Linux).  NODELAY also keeps the
      stdlib's own two-write ``send_error`` replies prompt.
    * A reply sent before the request body was read keeps the
      connection in step: a body with a valid Content-Length within
      :attr:`max_body_bytes` is drained first, any other body gets
      ``Connection: close``.  Its bytes are never parsed as the next
      request line.

    The server object supplies ``max_body_bytes``.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    _body_read = False

    @property
    def max_body_bytes(self) -> int:
        return self.server.max_body_bytes  # type: ignore[attr-defined]

    def parse_request(self) -> bool:
        self._body_read = False
        return super().parse_request()

    def _content_length(self) -> Optional[int]:
        try:
            length = int(self.headers.get("Content-Length"))
        except (TypeError, ValueError):
            return None
        return length if length >= 0 else None

    def read_body(self) -> bytes:
        """The request body: 411 without a valid Content-Length, 413
        past :attr:`max_body_bytes`."""
        length = self._content_length()
        if length is None:
            raise RequestError("Content-Length required", status=411,
                               kind="LengthRequired")
        if length > self.max_body_bytes:
            raise RequestError(
                "request body exceeds %d bytes" % self.max_body_bytes,
                status=413, kind="PayloadTooLarge",
            )
        self._body_read = True
        return self.rfile.read(length)

    def _settle_body(self) -> None:
        """Drain a body nobody read, or mark the connection to close."""
        if self._body_read or self.close_connection:
            return
        self._body_read = True
        framed = "Transfer-Encoding" in self.headers
        if not (framed or self.command == "POST"
                or "Content-Length" in self.headers):
            return  # no body
        length = self._content_length()
        if not framed and length is not None and length <= self.max_body_bytes:
            self.rfile.read(length)
        else:
            self.close_connection = True

    def send_whole(
        self,
        status: int,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
        content_type: str = "application/json",
    ) -> None:
        """One complete response, written in a single ``send()``."""
        self._settle_body()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        if self.request_version != "HTTP/0.9":
            # end_headers() would write the head on its own; joined
            # with the body it leaves in the same write.
            body = b"".join(self._headers_buffer) + b"\r\n" + body
            self._headers_buffer = []
        self.wfile.write(body)


class _Handler(KeepAliveHandler):
    server_version = "repro-service"

    _request_started: Optional[float] = None
    _endpoint: str = "other"

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        self.timeout = self.service.config.request_timeout
        super().setup()

    def _begin_request(self, path: str) -> None:
        self._request_started = time.perf_counter()
        self._endpoint = path if path in _KNOWN_ENDPOINTS else "other"

    def _observe_request(self, status: int) -> None:
        if self._request_started is None:
            return
        elapsed = time.perf_counter() - self._request_started
        self._request_started = None
        registry = _registry()
        labels = {"endpoint": self._endpoint, "status": str(status)}
        registry.counter(
            "repro_requests_total",
            "HTTP requests handled, by endpoint and status.",
            ("endpoint", "status"),
        ).inc(**labels)
        registry.histogram(
            "repro_request_seconds",
            "Request wall time from route to response written.",
            ("endpoint", "status"),
            buckets=DEFAULT_BUCKETS,
        ).observe(elapsed, **labels)

    # -- plumbing ------------------------------------------------------
    def _send_raw(
        self,
        status: int,
        body: bytes,
        extra_headers: Optional[Dict[str, str]] = None,
        content_type: str = "application/json",
    ) -> None:
        # Record before writing: once the client has the response it
        # must find this request in the very next /metrics scrape.
        if _obs.metrics:
            self._observe_request(status)
        headers: Dict[str, str] = {}
        worker_id = self.service.config.worker_id
        if worker_id is not None:
            # Which pool member answered — the router forwards this so
            # affinity and failover are observable end to end.
            headers["X-Worker-Id"] = str(worker_id)
        if _obs.tracing:
            traceparent = current_traceparent()
            if traceparent is not None:
                headers["traceparent"] = traceparent
        headers.update(extra_headers or {})
        if self.service.draining:
            # Stop keep-alive reuse so the drain can finish.
            self.close_connection = True
        self.send_whole(status, body, headers, content_type)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_raw(
            status, json.dumps(payload).encode("utf-8"), extra_headers
        )

    def _send_error_json(
        self,
        status: int,
        kind: str,
        message: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.service.counters.increment("errors")
        self._send_json(
            status, {"error": {"type": kind, "message": message}}, extra_headers
        )

    def _retry_after_header(self) -> Dict[str, str]:
        return {"Retry-After": "%g" % self.service.config.retry_after_s}

    def _dispatch(self, handler) -> None:
        service = self.service
        try:
            response = handler()
        except RequestError as error:
            self._send_error_json(error.status, error.kind, str(error))
        except Saturated as error:
            service.counters.increment("shed")
            self._send_error_json(
                429, "Saturated", str(error),
                extra_headers={"Retry-After": "%g" % error.retry_after},
            )
        except DeadlineExceeded as error:
            service.counters.increment("expired")
            self._send_error_json(504, "DeadlineExceeded", str(error))
        except faults.InjectedFault as error:
            service.counters.increment("faults_injected")
            headers = (
                self._retry_after_header() if error.status in (429, 503) else None
            )
            self._send_error_json(
                error.status, "InjectedFault", str(error), extra_headers=headers
            )
        except SignalGraphError as error:
            # Domain errors (non-live graph, no border events, ...) are
            # the client's problem: structured 422, never a traceback.
            self._send_error_json(422, type(error).__name__, str(error))
        except Exception as error:  # noqa: BLE001 — last-resort guard
            self._send_error_json(
                500, "InternalError", "%s: %s" % (type(error).__name__, error)
            )
        else:
            if isinstance(response, tuple):
                status, payload = response
                self._send_json(status, payload)
            else:
                self._send_json(200, response)

    def _dispatch_post(self, endpoint: str, method) -> None:
        """The full resilient POST path: digest-first lookup, deadline,
        admission, chaos, idempotent replay."""
        service = self.service

        def run() -> None:
            if service.draining:
                raise RequestError(
                    "server is draining", status=503, kind="Draining"
                )
            raw = self.read_body()
            # Digest-first: equal bytes decode to an equal payload, so
            # a body answered before names its result key without
            # being decoded or hashed again.
            digest = (endpoint, hashlib.sha256(raw).digest())
            known = service.digests.get(digest)
            if known is None:
                payload = fields = _decode_payload(raw)
                known_key = None
            else:
                payload = None
                known_key, fields = known

            def decoded() -> Dict[str, Any]:
                # Only a digest hit whose result was evicted decodes here.
                return _decode_payload(raw) if payload is None else payload

            deadline = service.deadline_for(
                fields, self.headers.get("X-Request-Timeout-Ms")
            )
            priority = fields.get("priority", "normal")
            if priority not in PRIORITIES:
                raise RequestError(
                    "'priority' must be one of %s, got %r"
                    % ("/".join(sorted(PRIORITIES)), priority)
                )
            idempotency_key = self.headers.get("X-Idempotency-Key")
            if idempotency_key:
                stored = service.idempotency.get(idempotency_key)
                if stored is not None:
                    service.counters.increment("idempotent_replays")
                    status, body = stored
                    self._send_raw(status, body)
                    return
            # The admission slot covers compute AND the response write,
            # so drain() waiting on inflight==0 guarantees no response
            # is cut mid-write by shutdown.
            with service.admission.admit(deadline, priority=priority):
                service.note_pressure()
                injector = service.faults
                if injector is not None:
                    injector.sleep_latency(site="handler")
                    injector.maybe_error(site="handler")
                deadline.check("admitted")
                # Post-admission service time feeds the AIMD limiter:
                # queueing delay is what the limiter *controls*, so it
                # must not pollute the congestion signal.
                started = time.monotonic()
                try:
                    response, result_key = service.answer(
                        method, decoded, deadline, known=known_key
                    )
                except DeadlineExceeded:
                    if service.limiter is not None:
                        service.limiter.observe(
                            time.monotonic() - started, "timeout"
                        )
                    raise
                if service.limiter is not None:
                    service.limiter.observe(time.monotonic() - started, "ok")
                body = json.dumps(response).encode("utf-8")
                if idempotency_key:
                    # Replayed retries must be byte-identical: store
                    # the serialised body, not the dict.
                    service.idempotency.put(idempotency_key, (200, body))
                if result_key is not None:
                    service.digests.put(digest, (result_key, {
                        name: fields[name]
                        for name in _PRECOMPUTE_FIELDS if name in fields
                    }))
                self._send_raw(200, body)

        try:
            run()
        except RequestError as error:
            headers = (
                self._retry_after_header() if error.status == 503 else None
            )
            self._send_error_json(
                error.status, error.kind, str(error), extra_headers=headers
            )
        except Saturated as error:
            service.counters.increment("shed")
            service.note_pressure(True)
            self._send_error_json(
                429, "Saturated", str(error),
                extra_headers={"Retry-After": "%g" % error.retry_after},
            )
        except DeadlineExceeded as error:
            service.counters.increment("expired")
            service.note_pressure(True)
            self._send_error_json(504, "DeadlineExceeded", str(error))
        except faults.InjectedFault as error:
            service.counters.increment("faults_injected")
            headers = (
                self._retry_after_header() if error.status in (429, 503) else None
            )
            self._send_error_json(
                error.status, "InjectedFault", str(error), extra_headers=headers
            )
        except SignalGraphError as error:
            self._send_error_json(422, type(error).__name__, str(error))
        except Exception as error:  # noqa: BLE001 — last-resort guard
            self._send_error_json(
                500, "InternalError", "%s: %s" % (type(error).__name__, error)
            )

    # -- routes --------------------------------------------------------
    def _server_span(self, endpoint: str):
        """A server-side span, parented to the client's traceparent."""
        parent = None
        if _obs.tracing:
            parent = parse_traceparent(self.headers.get("traceparent"))
        return _tracer().span(
            "server.handle", parent=parent, attributes={"endpoint": endpoint}
        )

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        path = self.path.split("?", 1)[0]
        self._begin_request(path)
        if path == "/healthz":
            self.service.counters.increment("healthz")
            self._dispatch(lambda: {"status": "ok"})
        elif path == "/readyz":
            self.service.counters.increment("readyz")
            self._dispatch(self.service.handle_readyz)
        elif path == "/stats":
            self.service.counters.increment("stats")
            self._dispatch(self.service.handle_stats)
        elif path == "/metrics":
            if not self.service.config.metrics:
                self._send_error_json(
                    404, "NotFound", "metrics are disabled (--no-metrics)"
                )
                return
            self.service.counters.increment("metrics")
            try:
                scrape = self.service.handle_metrics()
            except Exception as error:  # noqa: BLE001 — last-resort guard
                self._send_error_json(
                    500, "InternalError",
                    "%s: %s" % (type(error).__name__, error),
                )
                return
            self._send_raw(
                200,
                scrape.encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send_error_json(404, "NotFound", "no such endpoint: %s" % path)

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        path = self.path.split("?", 1)[0]
        self._begin_request(path)
        handler = _POST_HANDLERS.get(path)
        if handler is None:
            self._send_error_json(404, "NotFound", "no such endpoint: %s" % path)
            return
        self.service.counters.increment(path[1:])
        with self._server_span(path):
            self._dispatch_post(path, getattr(self.service, handler))

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.service.config.quiet:
            worker = self.service.config.worker_id
            prefix = (
                "repro.service" if worker is None
                else "repro.service w%d" % worker
            )
            sys.stderr.write(
                "[%s] %s - %s\n" % (prefix, self.address_string(),
                                    format % args)
            )


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the :class:`AnalysisService`.

    Two multi-worker entry paths besides the plain bind:

    * ``config.reuse_port`` sets ``SO_REUSEPORT`` before binding, so N
      sibling workers can each bind the same address and let the
      kernel load-balance accepted connections between them;
    * ``sock`` adopts an already-bound, already-listening socket (fd
      inheritance across ``fork`` — the fallback where SO_REUSEPORT
      does not exist), skipping bind/listen entirely.
    """

    daemon_threads = True

    def __init__(self, config: ServiceConfig, sock: Optional[socket.socket] = None):
        self.service = AnalysisService(config)
        super().__init__(
            (config.host, config.port), _Handler, bind_and_activate=False
        )
        if sock is not None:
            self.socket.close()
            self.socket = sock
            self.server_address = self.socket.getsockname()
            host, port = self.server_address[:2]
            self.server_name = host
            self.server_port = port
            return
        try:
            self.server_bind()
            self.server_activate()
        except BaseException:
            self.server_close()
            raise

    def server_bind(self) -> None:
        if self.service.config.reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise SignalGraphError(
                    "SO_REUSEPORT is not available on this platform"
                )
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return "http://%s:%d" % (host, port)

    @property
    def max_body_bytes(self) -> int:
        return self.service.config.max_body_bytes

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop taking new work and wait for in-flight requests.

        Marks the service as draining (new requests get 503, responses
        carry ``Connection: close``) and blocks until the admission
        queue reports zero in-flight requests or ``timeout`` (default
        ``--drain-timeout``) elapses.  Returns True when fully drained
        — meaning no response was cut mid-write.
        """
        if timeout is None:
            timeout = self.service.config.drain_timeout
        self.service.draining = True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if (
                self.service.admission.inflight() == 0
                and self.service.admission.waiting() == 0
            ):
                return True
            time.sleep(0.02)
        return (
            self.service.admission.inflight() == 0
            and self.service.admission.waiting() == 0
        )

    def close(self) -> None:
        self.server_close()
        self.service.close()


def make_server(
    host: str = DEFAULT_HOST, port: int = 0, **overrides
) -> ServiceServer:
    """Build a service server (``port=0`` picks an ephemeral port)."""
    return ServiceServer(ServiceConfig(host=host, port=port, **overrides))


def serve(config: Optional[ServiceConfig] = None) -> int:
    """Run the daemon until SIGINT/SIGTERM; returns 0 on clean exit."""
    server = ServiceServer(config or ServiceConfig())

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    print("repro service listening on %s" % server.url, flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        drained = server.drain()
        if not drained:
            print(
                "repro service: drain timeout — %d request(s) abandoned"
                % server.service.admission.inflight(),
                flush=True,
            )
        server.close()
    print("repro service: shut down cleanly", flush=True)
    return 0
