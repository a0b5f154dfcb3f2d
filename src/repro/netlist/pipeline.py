"""The shared parse -> transform -> extract -> analyze pipeline.

``repro netlist`` (CLI) and ``POST /netlist`` (service) both run this
module: a circuit source (``.bench``, structural Verilog or a
``logic-network`` JSON document) is parsed, optionally fanout-split,
ring-wrapped into an autonomous self-timed workload, structurally
extracted into a Timed Signal Graph and analysed for its cycle time.

Cycle-time method selection: the paper's timing-simulation algorithm
is ``O(b^2 m)`` in the border-event count ``b``; ring-wrapped circuits
put a token on every DFF seam plus the completion stage, and the fold
marks every window-crossing cause, so ``b`` grows with the circuit —
hundreds of border events for a few hundred gates.  ``method="auto"``
therefore runs the paper algorithm only while ``b`` stays small and
switches to ratio-form Howard policy iteration on the sparse
repetitive core (near-linear in practice, same lambda) on bigger
instances.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

from ..baselines import METHODS, compute_cycle_time as compute_by_method
from ..circuits.extraction import extract_signal_graph
from ..core.errors import FormatError, StateSpaceLimitError
from ..core.signal_graph import TimedSignalGraph
from .bench import parse_bench
from .extract import structural_extract
from .model import LogicNetwork
from .transforms import ring_wrap, split_fanout
from .verilog import parse_verilog

FORMATS = ("auto", "bench", "verilog", "json")
EXTRACTION_MODES = ("auto", "structural", "oracle")

#: ``method="auto"``: run the paper's timing simulation up to this many
#: border events, Howard's policy iteration beyond.
AUTO_TIMING_BORDER_LIMIT = 48

#: ``extraction="auto"``: exhaustive oracle extraction (with its full
#: semi-modularity proof) up to this many wrapped-netlist signals.
AUTO_ORACLE_SIGNAL_LIMIT = 40

#: ``extraction="auto"``: the oracle's state budget.  A circuit with more
#: reachable configurations takes the structural path instead; signal
#: count alone is a poor proxy (wrapped c17, 24 signals, has 33,600
#: configurations; wrapped rca2, 34 signals, 1,369,984).  An exhausted
#: budget costs ~0.25 s on a 2-core x86 host.
AUTO_ORACLE_STATE_LIMIT = 100_000


def detect_format(source: str, path: Optional[str] = None) -> str:
    """Guess ``bench``/``verilog``/``json`` from a path or the text."""
    if path is not None:
        if path.endswith(".bench"):
            return "bench"
        if path.endswith((".v", ".sv")):
            return "verilog"
        if path.endswith(".json"):
            return "json"
    stripped = source.lstrip()
    if stripped.startswith("{"):
        return "json"
    for line in source.splitlines():
        line = line.split("//", 1)[0].strip()
        if not line or line.startswith("#") or line.startswith("/*"):
            continue
        if line.startswith("module"):
            return "verilog"
        break
    return "bench"


def parse_source(
    source: str,
    fmt: str = "auto",
    name: str = "netlist",
    path: Optional[str] = None,
) -> LogicNetwork:
    """Parse circuit text in any supported front-end format."""
    if fmt not in FORMATS:
        raise FormatError(
            "unknown format %r (choose from %s)" % (fmt, ", ".join(FORMATS))
        )
    if fmt == "auto":
        fmt = detect_format(source, path)
    if fmt == "bench":
        return parse_bench(source, name=name)
    if fmt == "verilog":
        return parse_verilog(source, name=None if name == "netlist" else name)
    from ..io import json_io

    loaded = json_io.loads(source)
    if not isinstance(loaded, LogicNetwork):
        raise FormatError(
            "JSON document is %r, expected kind 'logic-network'"
            % type(loaded).__name__
        )
    return loaded


def analyze_network(
    network: LogicNetwork,
    delay: Any = 1,
    ack_delay: Any = 1,
    infra_delay: Any = 1,
    seed: int = 0,
    max_fanout: Optional[int] = None,
    extraction: str = "auto",
    method: str = "auto",
) -> Tuple[TimedSignalGraph, Dict[str, Any]]:
    """transform -> extract -> analyze one parsed circuit.

    Returns the extracted Timed Signal Graph plus a report dict with
    raw (unencoded) numbers; callers encode for their wire format.

    ``delay`` follows :func:`~repro.netlist.transforms.make_delay_fn`:
    a number (fixed), a ``(lo, hi)`` pair (sampled per stage with
    ``seed``) or a mapping.  ``extraction="auto"`` uses the exhaustive
    oracle (full semi-modularity proof) on wrapped netlists of at most
    :data:`AUTO_ORACLE_SIGNAL_LIMIT` signals whose state space fits in
    :data:`AUTO_ORACLE_STATE_LIMIT` configurations, and the structural
    path otherwise; ``method="auto"`` picks the paper's timing
    algorithm or Howard's iteration by border-event count.
    """
    if extraction not in EXTRACTION_MODES:
        raise FormatError(
            "unknown extraction mode %r (choose from %s)"
            % (extraction, ", ".join(EXTRACTION_MODES))
        )
    if method != "auto" and method not in METHODS:
        raise FormatError(
            "unknown method %r (choose from auto, %s)"
            % (method, ", ".join(sorted(METHODS)))
        )
    timings: Dict[str, float] = {}

    start = time.perf_counter()
    if max_fanout is not None:
        network = split_fanout(network, max_fanout)
    wrapped = ring_wrap(
        network,
        delay=delay,
        ack_delay=ack_delay,
        infra_delay=infra_delay,
        seed=seed,
    )
    timings["transform_ms"] = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    wrapped_signals = len(wrapped.gates) + len(wrapped.inputs)
    graph = None
    if extraction == "oracle":
        graph = extract_signal_graph(wrapped)
    elif extraction == "auto" and wrapped_signals <= AUTO_ORACLE_SIGNAL_LIMIT:
        try:
            graph = extract_signal_graph(
                wrapped, max_states=AUTO_ORACLE_STATE_LIMIT
            )
            extraction = "oracle"
        except StateSpaceLimitError:
            pass
    if graph is None:
        graph = structural_extract(wrapped)
        extraction = "structural"
    timings["extract_ms"] = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    border = len(graph.border_events)
    if method == "auto":
        method = (
            "timing" if border <= AUTO_TIMING_BORDER_LIMIT else "howard-ratio"
        )
    if method == "timing":
        from ..core import compute_cycle_time

        result = compute_cycle_time(graph, keep_simulations=False)
    else:
        result = compute_by_method(graph, method=method)
    timings["analyze_ms"] = (time.perf_counter() - start) * 1000.0

    report = {
        "network": network.stats(),
        "wrapped": {
            "signals": wrapped_signals,
            "gates": len(wrapped.gates),
        },
        "graph": {
            "events": graph.num_events,
            "arcs": graph.num_arcs,
            "border_events": border,
        },
        "extraction": extraction,
        "method": method,
        "cycle_time": result.cycle_time,
        "critical_cycles": [
            [str(event) for event in cycle.events]
            for cycle in result.critical_cycles
        ],
        "timings_ms": timings,
    }
    return graph, report


def analyze_source(
    source: str,
    fmt: str = "auto",
    name: str = "netlist",
    path: Optional[str] = None,
    **options: Any,
) -> Tuple[TimedSignalGraph, Dict[str, Any]]:
    """Full pipeline from raw text; options go to :func:`analyze_network`."""
    start = time.perf_counter()
    network = parse_source(source, fmt=fmt, name=name, path=path)
    parse_ms = (time.perf_counter() - start) * 1000.0
    graph, report = analyze_network(network, **options)
    report["timings_ms"]["parse_ms"] = parse_ms
    return graph, report
