"""Span recording around the public functions of each ``repro`` layer.

The benchmark times layers from outside: :func:`install` replaces each
function in :data:`LAYERS` (every module-level binding of it inside
``repro``, or the class attribute for a method) with a wrapper that
records one span per call.  Spans stay in memory and are read at the
end of the run; nothing is patched unless a traced run asks for it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

from stats import Span


def _events(counts: Counter, graph) -> None:
    counts["netlist.events"] += graph.num_events


def _iterations(counts: Counter, result) -> None:
    counts["ptime.iterations"] += result.iterations


#: (module, function or Class.method, span name, result counter).
LAYERS = [
    ("repro.core.kernel", "run_border_simulations_batch", "core.kernel.fused", None),
    ("repro.core.kernel", "BatchSweepResult.sample_result", "core.kernel.sample", None),
    ("repro.core.kernel", "run_border_simulations", "core.kernel.simulate", None),
    ("repro.core.cycle_time", "compute_cycle_time", "core.cycle_time", None),
    ("repro.core.validation", "validate", "core.validation", None),
    ("repro.service.cache", "shared_compiled_graph", "service.cache.compile", None),
    ("repro.analysis.montecarlo", "monte_carlo_cycle_time", "analysis.montecarlo", None),
    ("repro.analysis.montecarlo", "sample_delay_matrix", "analysis.montecarlo.draw", None),
    ("repro.netlist.pipeline", "analyze_source", "netlist.pipeline", None),
    ("repro.netlist.pipeline", "parse_source", "netlist.parse", None),
    ("repro.netlist.transforms", "ring_wrap", "netlist.transform", None),
    ("repro.netlist.transforms", "split_fanout", "netlist.transform", None),
    ("repro.netlist.extract", "structural_extract", "netlist.extract", _events),
    ("repro.circuits.extraction", "extract_signal_graph", "circuits.extraction", _events),
    ("repro.baselines.howard", "max_cycle_ratio_howard", "baselines.howard", None),
    ("repro.ptime.consistency", "check_consistency", "ptime.check", _iterations),
    ("repro.ptime.synthesis", "lambda_range", "ptime.lambda_range", _iterations),
    ("repro.ptime.consistency", "build_constraint_edges", "ptime.edges", None),
    ("repro.ptime.consistency", "minimum_rate", "ptime.min_rate", None),
    ("repro.ptime.consistency", "maximum_rate", "ptime.max_rate", None),
    ("repro.ptime.consistency", "weak_consistency", "ptime.weak", None),
    ("repro.io.json_io", "graph_from_dict", "io.json_io.decode", None),
    ("repro.io.json_io", "ptime_graph_from_dict", "io.json_io.decode", None),
    ("repro.service.hashing", "analysis_key", "service.hashing.key", None),
    ("repro.service.hashing", "ptime_analysis_key", "service.hashing.key", None),
    ("repro.service.hashing", "netlist_analysis_key", "service.hashing.key", None),
    ("repro.service.server", "AnalysisService.handle_analyze", "service.server.handle", None),
    ("repro.service.server", "AnalysisService.handle_montecarlo", "service.server.handle", None),
    ("repro.service.server", "AnalysisService.handle_ptime", "service.server.handle", None),
    ("repro.service.server", "AnalysisService.handle_netlist", "service.server.handle", None),
    ("repro.service.resilience", "AdmissionQueue.acquire", "service.admission.wait", None),
    ("repro.obs.metrics", "Histogram.observe", "obs.metrics", None),
    ("repro.obs.metrics", "Counter.inc", "obs.metrics", None),
    ("repro.service.client", "PooledTransport.request_ex", "service.client.request", None),
]

#: Per-layer metric -> span names whose self time it sums (in ms).
SELF_MS = {
    "core.kernel.fused_ms": ("core.kernel.fused",),
    "core.kernel.sample_ms": ("core.kernel.sample",),
    "core.kernel.simulate_ms": ("core.kernel.simulate",),
    "core.cycle_time.self_ms": ("core.cycle_time",),
    "core.validation.ms": ("core.validation",),
    "service.cache.compile_ms": ("service.cache.compile",),
    "analysis.montecarlo.draw_ms": ("analysis.montecarlo.draw",),
    "analysis.montecarlo.self_ms": ("analysis.montecarlo",),
    "netlist.parse_ms": ("netlist.parse",),
    "netlist.transform_ms": ("netlist.transform",),
    "netlist.extract_ms": ("netlist.extract",),
    "circuits.extraction_ms": ("circuits.extraction",),
    "baselines.howard_ms": ("baselines.howard",),
    "ptime.edges_ms": ("ptime.edges",),
    "ptime.min_rate_ms": ("ptime.min_rate",),
    "ptime.max_rate_ms": ("ptime.max_rate",),
    "ptime.weak_ms": ("ptime.weak",),
    "io.json_io.decode_ms": ("io.json_io.decode",),
    "service.hashing.key_ms": ("service.hashing.key",),
    "service.server.handle_ms": ("service.server.handle",),
    "service.admission.wait_ms": ("service.admission.wait",),
    "obs.metrics.ms": ("obs.metrics",),
}

#: Per-layer counters read off results.
COUNTS = ("netlist.events", "ptime.iterations")


class Recorder:
    """In-memory span store; thread-safe through the GIL's atomic append."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_op(self, op: Optional[int]) -> None:
        """Tag spans opened by this thread with ``op`` from now on."""
        self._local.op = op

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, name, start, end, parent, getattr(local, "op", None))
                )
            if count is not None:
                count(recorder.counts, result)
            return result

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every entry of :data:`LAYERS` in ``recorder`` spans."""
    for module_name, attribute, name, count in LAYERS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            setattr(owner, method, recorder.wrap(name, owner.__dict__[method], count))
            continue
        original = getattr(module, attribute)
        wrapper = recorder.wrap(name, original, count)
        # Rebind every module-level alias (``from .x import f`` copies).
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)


def layer_metrics(self_seconds: Dict[str, float], counts: Dict[str, int]) -> Dict[str, float]:
    """The span-derived per-layer metrics (ms and counts)."""
    metrics = {
        metric: 1000.0 * sum(self_seconds.get(name, 0.0) for name in names)
        for metric, names in SELF_MS.items()
    }
    for name in COUNTS:
        metrics[name] = float(counts.get(name, 0))
    return metrics


def cache_metrics(before: Dict, after: Dict) -> Dict[str, float]:
    """Compile/result cache deltas between two ``service_cache_stats()``."""

    def delta(tier: str, key: str) -> int:
        return after[tier].get(key, 0) - before[tier].get(key, 0)

    hits, misses = delta("result", "hits"), delta("result", "misses")
    return {
        "service.cache.compiled": float(delta("compile", "misses")),
        "service.cache.adopted": float(delta("compile", "adopted")),
        "service.cache.rebound": float(delta("compile", "rebound")),
        "service.cache.result_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
