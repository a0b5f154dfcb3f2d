"""Request coalescing: merge concurrent sweeps over one topology.

The batched kernel (:func:`repro.core.kernel.run_border_simulations_batch`)
amortises its per-sweep fixed costs — program gathers, buffer setup,
Python-level period loop — over the sample axis, so one ``(S1+S2, m)``
sweep is strictly cheaper than a ``(S1, m)`` sweep followed by a
``(S2, m)`` sweep.  The :class:`RequestCoalescer` exploits that for a
serving workload: concurrent Monte-Carlo / what-if requests whose
graphs share a *topology hash* are collected for a short linger
window, their delay matrices are concatenated (with per-request column
permutations, since content-equal graphs may enumerate their arcs in
different insertion orders), and a single batched kernel call serves
the whole group.  λ rows are then split back and delivered through
per-request futures.

The coalescer is deliberately independent of HTTP: the daemon submits
into it, but so can any multi-threaded library user.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.kernel import BatchBindings, run_border_simulations_batch
from ..core.signal_graph import TimedSignalGraph
from ..obs import STATE as _obs
from ..obs.metrics import registry as _registry
from ..obs.tracing import SpanContext, current_span, tracer as _tracer
from . import faults
from .cache import CacheStats, shared_compiled_graph
from .hashing import topology_hash
from .resilience import Deadline, DeadlineExceeded

#: Batch-size buckets: 1, 2, 4, ... requests or samples per batch.
_SIZE_BUCKETS = tuple(float(2 ** exponent) for exponent in range(15))
#: Linger-wait buckets: 100µs .. ~1.6s.
_WAIT_BUCKETS = tuple(0.0001 * 2 ** exponent for exponent in range(15))


@dataclass
class _Pending:
    """One queued sweep request."""

    graph: TimedSignalGraph
    matrix: np.ndarray          # (S, m) in this graph's own arc order
    periods: Optional[int]
    deadline: Optional[Deadline] = None
    future: "Future[np.ndarray]" = field(default_factory=Future)
    #: ``time.monotonic()`` at submit, for the linger-wait histogram.
    queued_at: float = 0.0
    #: Trace context captured at submit — contextvars do not cross the
    #: worker-thread boundary, so the span parent rides the request.
    trace: Optional[SpanContext] = None


class RequestCoalescer:
    """Group pending delay sweeps by topology into batched kernel calls.

    Parameters
    ----------
    linger_s:
        How long a freshly queued request waits for companions before
        its group is dispatched.  Zero dispatches immediately (no
        coalescing across threads that do not overlap).
    max_batch_samples:
        Upper bound on the summed sample count of one dispatched batch;
        a group larger than this is split over several kernel calls.
    kernel_executor / kernel_workers / kernel_batch_size:
        Passed through to
        :func:`~repro.core.kernel.run_border_simulations_batch`:
        ``kernel_workers > 1`` fans each dispatched batch's chunks over
        a thread pool (``"thread"``) or the shared kernel process pool
        (``"process"`` — sweeps escape the GIL).

    ``stats`` counts ``requests``, ``batches``, ``coalesced_requests``
    (requests that shared their batch with at least one other) and
    tracks ``max_batch_requests``.
    """

    def __init__(
        self,
        linger_s: float = 0.002,
        max_batch_samples: int = 65536,
        kernel_executor: str = "thread",
        kernel_workers: int = 0,
        kernel_batch_size: Optional[int] = None,
    ) -> None:
        if max_batch_samples < 1:
            raise ValueError("max_batch_samples must be positive")
        self.linger_s = linger_s
        self.max_batch_samples = max_batch_samples
        self.kernel_executor = kernel_executor
        self.kernel_workers = kernel_workers
        self.kernel_batch_size = kernel_batch_size
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: "OrderedDict[str, List[_Pending]]" = OrderedDict()
        self._closed = False
        self._thread = threading.Thread(
            target=self._worker, name="repro-coalescer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        graph: TimedSignalGraph,
        matrix,
        periods: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> "Future[np.ndarray]":
        """Queue one sweep; resolves to the ``(S,)`` λ array.

        ``matrix`` is an ``(S, m)`` float64 delay matrix in ``graph``'s
        own arc insertion order, exactly as
        :func:`~repro.analysis.montecarlo.sample_delay_matrix` builds
        it; it is queued as given (no copy into C order), so its
        layout reaches :class:`~repro.core.kernel.BatchBindings`
        intact.  Requests with different ``periods`` never share a batch.
        A request whose ``deadline`` expires while lingering in the
        queue (or while earlier batch chunks compute) is evicted from
        its batch and fails with :exc:`DeadlineExceeded` instead of
        being swept for a caller that already gave up.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D (samples, arcs)")
        trace = None
        if _obs.tracing:
            active = current_span()
            if active is not None:
                trace = active.context
        request = _Pending(
            graph=graph, matrix=matrix, periods=periods, deadline=deadline,
            queued_at=time.monotonic(), trace=trace,
        )
        if deadline is not None and deadline.expired():
            self.stats.increment("requests")
            self._expire(request)
            return request.future
        key = "%s|p%r" % (topology_hash(graph), periods)
        with self._lock:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            self._pending.setdefault(key, []).append(request)
            self.stats.increment("requests")
            self._wakeup.notify()
        return request.future

    def run(self, graph, matrix, periods=None, timeout=None, deadline=None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(graph, matrix, periods, deadline=deadline).result(
            timeout=timeout
        )

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting work, drain queued requests, join the worker."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify()
        self._thread.join(timeout)

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wakeup.wait()
                if not self._pending and self._closed:
                    return
                closing = self._closed
            if self.linger_s > 0 and not closing:
                time.sleep(self.linger_s)
            with self._lock:
                if not self._pending:
                    continue
                key, group = self._pending.popitem(last=False)
            # Evict requests whose deadline lapsed while lingering: they
            # are answered (504 upstream), never silently swept.
            group = self._evict_expired(group)
            for batch in self._split(group):
                # Deadlines are re-checked between batch chunks — an
                # earlier chunk's kernel time may have consumed the
                # budget of requests queued for a later chunk.
                batch = self._evict_expired(batch)
                if batch:
                    self._dispatch(batch)

    def _evict_expired(self, group: List[_Pending]) -> List[_Pending]:
        fresh: List[_Pending] = []
        for request in group:
            if request.deadline is not None and request.deadline.expired():
                self._expire(request)
            else:
                fresh.append(request)
        return fresh

    def _expire(self, request: _Pending) -> None:
        self.stats.increment("expired")
        if request.future.set_running_or_notify_cancel():
            request.future.set_exception(
                DeadlineExceeded(
                    "coalescer-queue",
                    None if request.deadline is None
                    else request.deadline.timeout_s,
                )
            )

    def _split(self, group: List[_Pending]) -> List[List[_Pending]]:
        batches: List[List[_Pending]] = []
        current: List[_Pending] = []
        samples = 0
        for request in group:
            size = request.matrix.shape[0]
            if current and samples + size > self.max_batch_samples:
                batches.append(current)
                current, samples = [], 0
            current.append(request)
            samples += size
        if current:
            batches.append(current)
        return batches

    def _dispatch(self, batch: List[_Pending]) -> None:
        try:
            lambdas = self._sweep(batch)
        except BaseException as error:  # deliver, never kill the worker
            for request in batch:
                if not request.future.set_running_or_notify_cancel():
                    continue
                request.future.set_exception(error)
            return
        offset = 0
        for request in batch:
            size = request.matrix.shape[0]
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(lambdas[offset:offset + size])
            offset += size
        self.stats.increment("batches")
        if len(batch) > 1:
            self.stats.increment("coalesced_requests", len(batch))
        self.stats.maximum("max_batch_requests", len(batch))
        if _obs.metrics:
            self._observe_batch(batch)

    def _observe_batch(self, batch: List[_Pending]) -> None:
        registry = _registry()
        registry.histogram(
            "repro_coalescer_batch_requests",
            "Requests merged into one dispatched batch.",
            buckets=_SIZE_BUCKETS,
        ).observe(len(batch))
        registry.histogram(
            "repro_coalescer_batch_samples",
            "Summed sample rows of one dispatched batch.",
            buckets=_SIZE_BUCKETS,
        ).observe(sum(request.matrix.shape[0] for request in batch))
        linger = registry.histogram(
            "repro_coalescer_linger_seconds",
            "Time a request waited in the coalescer before dispatch.",
            buckets=_WAIT_BUCKETS,
        )
        now = time.monotonic()
        for request in batch:
            if request.queued_at:
                linger.observe(max(0.0, now - request.queued_at))

    def _sweep(self, batch: List[_Pending]) -> np.ndarray:
        with _tracer().span(
            "coalescer.sweep",
            parent=batch[0].trace,
            attributes={"batch_requests": len(batch)},
        ):
            injector = faults.active()
            if injector is not None:
                injector.sleep_kernel()
            host = batch[0].graph
            cg = shared_compiled_graph(host)
            host_pairs = [arc.pair for arc in host.arcs]
            blocks = []
            for request in batch:
                if request.graph is host:
                    blocks.append(request.matrix)
                    continue
                # Content-equal graphs may enumerate arcs in a
                # different insertion order; permute columns into the
                # host's order.
                columns: Dict[object, int] = {
                    arc.pair: index
                    for index, arc in enumerate(request.graph.arcs)
                }
                perm = [columns[pair] for pair in host_pairs]
                blocks.append(request.matrix[:, perm])
            combined = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
            with _tracer().span(
                "kernel.batch",
                attributes={"samples": int(combined.shape[0])},
            ):
                sweep = run_border_simulations_batch(
                    host,
                    BatchBindings(cg, combined),
                    periods=batch[0].periods,
                    batch_size=self.kernel_batch_size,
                    workers=self.kernel_workers or None,
                    executor=self.kernel_executor,
                )
                return sweep.cycle_times()
