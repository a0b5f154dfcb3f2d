"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze FILE``
    Cycle time, critical cycle and border table of a Timed Signal
    Graph (``.g`` or ``.json``), with ``--method`` selecting any of
    the implemented algorithms and ``--report`` adding slacks.
``simulate FILE``
    Print a timing-simulation table over ``--periods`` periods,
    optionally ``--initiate EVENT`` for an event-initiated simulation.
``diagram FILE``
    ASCII timing diagram (Figure 1c/1d style).
``extract FILE``
    Extract the Timed Signal Graph from a netlist JSON file
    (TRASPEC-substitute flow) — or from a ``.bench`` / structural
    Verilog circuit, which is ring-wrapped and structurally
    extracted — and print it as ``.g`` text.
``netlist FILE``
    Full real-circuit pipeline: parse a ``.bench`` / Verilog /
    logic-network JSON circuit (or ``corpus:NAME``), ring-wrap it
    into an autonomous self-timed workload, extract the Timed Signal
    Graph and report its cycle time.  ``--list`` shows the shipped
    corpus.
``convert FILE``
    Convert between ``.g`` and ``.json`` (by output extension), or
    render Graphviz DOT with ``-o out.dot``.  Circuit inputs
    (``.bench``, ``.v``, logic-network JSON, ``corpus:NAME``)
    convert between the circuit formats instead.
``report FILE``
    Full performance report: slacks, critical subgraph, sensitivities.
``montecarlo FILE``
    Monte-Carlo λ distribution under random delay variation, with the
    per-arc criticality ranking (batched vectorized kernel).
``verify FILE``
    Cross-verify extraction of a netlist against the independent
    event-driven timed simulator.
``ptime ACTION FILE``
    P-time (interval-bound) analysis: strong-consistency check with
    certificate, feasible 1-periodic rate interval, or explicit
    trajectory synthesis verified against the token game.
``intervals FILE``
    Corner-sweep cycle-time bounds for interval delays (the monotone
    two-corner analysis of :mod:`repro.analysis.intervals`).
``demo NAME``
    Print one of the built-in paper graphs (``oscillator``, ``ring``,
    ``stack``).
``serve``
    Run the JSON-over-HTTP analysis daemon (:mod:`repro.service`):
    content-addressed compile/result caching plus request coalescing
    behind ``/analyze``, ``/montecarlo``, ``/stats``, ``/healthz`` and
    ``/readyz``, with per-request deadlines, bounded admission (429 +
    ``Retry-After``), graceful drain on SIGTERM and an optional
    ``--chaos`` fault-injection harness.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .analysis import analyze as analyze_performance
from .analysis import render_timing_diagram
from .baselines import METHODS, compute_cycle_time as compute_by_method
from .circuits.extraction import extract_signal_graph
from .circuits.library import async_stack_tsg, muller_ring_tsg, oscillator_tsg
from .circuits.netlist import Netlist
from .core import (
    KERNELS,
    EventInitiatedSimulation,
    SignalGraphError,
    TimedSignalGraph,
    TimingSimulation,
)
from .io import astg, dot, json_io

DEMOS = {
    "oscillator": oscillator_tsg,
    "ring": muller_ring_tsg,
    "stack": async_stack_tsg,
}


def _load_graph(path: str) -> TimedSignalGraph:
    if path in DEMOS:
        return DEMOS[path]()
    if path.endswith(".json"):
        loaded = json_io.load(path)
        if isinstance(loaded, Netlist):
            return extract_signal_graph(loaded)
        return loaded
    return astg.load(path)


def _cmd_analyze(args) -> int:
    graph = _load_graph(args.file)
    if args.method == "timing":
        from .core import compute_cycle_time

        profiler = None
        if getattr(args, "profile", False):
            from .obs.profile import PhaseProfiler, profile_phases

            profiler = PhaseProfiler()
            with profile_phases(profiler):
                result = compute_cycle_time(
                    graph, kernel=args.kernel, workers=args.workers,
                    cache="off" if args.no_cache else "auto",
                )
        else:
            result = compute_cycle_time(
                graph, kernel=args.kernel, workers=args.workers,
                cache="off" if args.no_cache else "auto",
            )
        if profiler is not None:
            print(profiler.table(), file=sys.stderr)
        print("graph: %s (%d events, %d arcs, %d border events)"
              % (graph.name, graph.num_events, graph.num_arcs,
                 len(result.border_events)))
        print("cycle time: %s" % result.cycle_time)
        for cycle in result.critical_cycles:
            print("critical cycle: %s" % cycle)
        if args.table:
            print(result.distance_table())
        if args.report:
            print()
            print(analyze_performance(graph, result).summary())
    else:
        outcome = compute_by_method(graph, args.method)
        print("graph: %s" % graph.name)
        print("cycle time (%s): %s" % (args.method, outcome.cycle_time))
        for cycle in outcome.critical_cycles:
            print("critical cycle: %s" % cycle)
    return 0


def _cmd_simulate(args) -> int:
    graph = _load_graph(args.file)
    if args.initiate:
        simulation = EventInitiatedSimulation(
            graph, args.initiate, args.periods, kernel=args.kernel
        )
        print("%s-initiated timing simulation (%d periods):"
              % (args.initiate, args.periods))
    else:
        simulation = TimingSimulation(graph, args.periods, kernel=args.kernel)
        print("timing simulation (%d periods):" % args.periods)
    for label, time in simulation.table():
        print("  t(%s) = %s" % (label, time))
    return 0


def _cmd_diagram(args) -> int:
    graph = _load_graph(args.file)
    if args.initiate:
        simulation = EventInitiatedSimulation(graph, args.initiate, args.periods)
    else:
        simulation = TimingSimulation(graph, args.periods)
    print(render_timing_diagram(simulation, width=args.width))
    return 0


#: Circuit-source file extensions handled by the netlist front ends.
_CIRCUIT_SUFFIXES = (".bench", ".v", ".sv")


def _read_circuit_source(spec: str):
    """Resolve a circuit argument to ``(source text, path, name)``.

    ``corpus:NAME`` reads a shipped corpus circuit; anything else is a
    file path.
    """
    from .netlist import corpus_path

    if spec.startswith("corpus:"):
        name = spec.split(":", 1)[1]
        path = corpus_path(name)
    else:
        name = spec.rsplit("/", 1)[-1].rsplit(".", 1)[0] or "netlist"
        path = spec
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read(), path, name


def _maybe_load_logic_network(spec: str):
    """A LogicNetwork when ``spec`` names a circuit source, else None."""
    from .netlist.model import LogicNetwork

    if spec.startswith("corpus:") or spec.endswith(_CIRCUIT_SUFFIXES):
        from .netlist import parse_source

        source, path, name = _read_circuit_source(spec)
        return parse_source(source, name=name, path=path)
    if spec.endswith(".json"):
        loaded = json_io.load(spec)
        if isinstance(loaded, LogicNetwork):
            return loaded
    return None


def _parse_delay_spec(text: str):
    """CLI delay syntax: ``D`` fixed or ``LO:HI`` sampled interval.

    Values parse exactly (``3``, ``3/2``, ``1.5`` all stay exact).
    """
    from fractions import Fraction

    def one(token: str):
        value = Fraction(token.strip())
        return int(value) if value.denominator == 1 else value

    if ":" in text:
        low, high = text.split(":", 1)
        return (one(low), one(high))
    return one(text)


def _cmd_extract(args) -> int:
    network = _maybe_load_logic_network(args.file)
    if network is not None:
        from .netlist import ring_wrap, structural_extract

        graph = structural_extract(ring_wrap(network))
        sys.stdout.write(astg.dumps(graph))
        return 0
    loaded = json_io.load(args.file)
    if not isinstance(loaded, Netlist):
        print("error: %s is not a netlist document" % args.file, file=sys.stderr)
        return 2
    graph = extract_signal_graph(loaded)
    sys.stdout.write(astg.dumps(graph))
    return 0


def _cmd_netlist(args) -> int:
    from .netlist import corpus_names
    from .netlist.pipeline import analyze_source, parse_source

    if args.list:
        for name in corpus_names():
            print(name)
        return 0
    if not args.file:
        print("error: FILE (or corpus:NAME, or --list) required",
              file=sys.stderr)
        return 2
    source, path, name = _read_circuit_source(args.file)
    if args.stats_only:
        network = parse_source(source, fmt=args.format, name=name, path=path)
        stats = network.stats()
        print("circuit: %s" % network.name)
        for key in sorted(stats):
            print("  %s: %s" % (key, stats[key]))
        return 0
    graph, report = analyze_source(
        source,
        fmt=args.format,
        name=name,
        path=path,
        delay=_parse_delay_spec(args.delay),
        ack_delay=_parse_delay_spec(args.ack_delay),
        seed=args.delay_seed,
        max_fanout=args.max_fanout,
        extraction=args.extraction,
        method=args.method,
    )
    stats = report["network"]
    print("circuit: %s (%d inputs, %d outputs, %d gates, depth %d)"
          % (name, stats["inputs"], stats["outputs"], stats["gates"],
             stats["depth"]))
    print("wrapped: %d signals -> graph: %d events, %d arcs, %d border "
          "events" % (report["wrapped"]["signals"], report["graph"]["events"],
                      report["graph"]["arcs"],
                      report["graph"]["border_events"]))
    print("extraction: %s   method: %s" % (report["extraction"],
                                           report["method"]))
    print("cycle time: %s" % report["cycle_time"])
    for cycle in report["critical_cycles"]:
        print("critical cycle: %s" % " -> ".join(cycle))
    timings = report["timings_ms"]
    print("timings: " + "  ".join(
        "%s=%.1fms" % (key.replace("_ms", ""), timings[key])
        for key in ("parse_ms", "transform_ms", "extract_ms", "analyze_ms")
        if key in timings
    ))
    if args.output:
        if args.output.endswith(".json"):
            json_io.dump(graph, args.output)
        else:
            astg.dump(graph, args.output)
        print("wrote %s" % args.output)
    return 0


def _convert_circuit(network, output: Optional[str]) -> int:
    from .netlist import write_bench, write_verilog

    if output is None or output == "-":
        sys.stdout.write(write_bench(network))
        return 0
    if output.endswith(".json"):
        json_io.dump(network, output)
    elif output.endswith(_CIRCUIT_SUFFIXES[1:]):  # .v / .sv
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(write_verilog(network))
    elif output.endswith(".bench"):
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(write_bench(network))
    else:
        print("error: circuit outputs must be .bench/.v/.sv/.json, got %r"
              % output, file=sys.stderr)
        return 2
    print("wrote %s" % output)
    return 0


def _cmd_convert(args) -> int:
    network = _maybe_load_logic_network(args.file)
    if network is not None:
        return _convert_circuit(network, args.output)
    graph = _load_graph(args.file)
    output: Optional[str] = args.output
    if output is None or output == "-":
        sys.stdout.write(astg.dumps(graph))
        return 0
    if output.endswith(".json"):
        json_io.dump(graph, output)
    elif output.endswith(".dot"):
        dot.write_dot(graph, output)
    elif output.endswith(".svg"):
        from .core import compute_cycle_time
        from .io.svg import graph_to_svg, write_svg

        critical = compute_cycle_time(graph).critical_cycles
        write_svg(graph_to_svg(graph, critical=critical), output)
    else:
        astg.dump(graph, output)
    print("wrote %s" % output)
    return 0


def _cmd_render(args) -> int:
    graph = _load_graph(args.file)
    from .io.svg import graph_to_svg, waveforms_to_svg, write_svg

    if args.waves:
        if args.initiate:
            simulation = EventInitiatedSimulation(graph, args.initiate, args.periods)
        else:
            simulation = TimingSimulation(graph, args.periods)
        svg_text = waveforms_to_svg(simulation, width=args.width)
    else:
        critical = None
        if args.critical:
            from .core import compute_cycle_time

            critical = compute_cycle_time(graph).critical_cycles
        svg_text = graph_to_svg(graph, critical=critical)
    if args.output and args.output != "-":
        write_svg(svg_text, args.output)
        print("wrote %s" % args.output)
    else:
        sys.stdout.write(svg_text)
    return 0


def _cmd_report(args) -> int:
    graph = _load_graph(args.file)
    if args.json or args.full:
        from .analysis import full_report

        report = full_report(graph, include_diagram=args.full)
        if args.json:
            import json

            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.to_text())
        return 0
    from .analysis import delay_sensitivities

    report = analyze_performance(graph)
    print(report.summary())
    print()
    print("delay sensitivities (dλ/dδ), most critical first:")
    for row in delay_sensitivities(graph, report)[: args.top]:
        print("  " + str(row))
    return 0


def _cmd_montecarlo(args) -> int:
    from .analysis import monte_carlo_cycle_time, normal_spread, uniform_spread

    graph = _load_graph(args.file)
    spreads = {"uniform": uniform_spread, "normal": normal_spread}
    sampler = spreads[args.distribution](args.spread)
    # "persample" is the reference scalar loop; "auto" is the fused sweep.
    method = "persample" if args.kernel == "persample" else "batch"
    result = monte_carlo_cycle_time(
        graph,
        sampler,
        samples=args.samples,
        seed=args.seed,
        track_criticality=not args.no_criticality,
        batch_size=args.batch_size,
        workers=args.workers,
        executor=args.executor,
        method=method,
    )
    print(
        "graph: %s (%d events, %d arcs, %d border events)"
        % (graph.name, graph.num_events, graph.num_arcs,
           len(graph.border_events))
    )
    print(
        "sampler: %s spread %.3f, %s kernel%s"
        % (
            args.distribution,
            args.spread,
            "persample" if method == "persample" else "fused",
            "" if args.batch_size is None else
            " (batch size %d)" % args.batch_size,
        )
    )
    print(result.summary())
    if args.bins:
        print("  histogram:")
        rows = result.histogram(bins=args.bins)
        widest = max(count for _, _, count in rows)
        for low, high, count in rows:
            bar = "#" * (0 if widest == 0 else round(40 * count / widest))
            print("    [%8.4f, %8.4f) %6d %s" % (low, high, count, bar))
    return 0


def _cmd_verify(args) -> int:
    from .circuits.verification import verify_extraction

    loaded = json_io.load(args.file)
    if not isinstance(loaded, Netlist):
        print("error: %s is not a netlist document" % args.file, file=sys.stderr)
        return 2
    report = verify_extraction(loaded, periods=args.periods)
    print(report)
    return 0 if report.ok else 1


def _cmd_methods(args) -> int:
    import time

    graph = _load_graph(args.file)
    print(
        "graph: %s (%d events, %d arcs, %d border events)"
        % (graph.name, graph.num_events, graph.num_arcs,
           len(graph.border_events))
    )
    chosen = args.only.split(",") if args.only else sorted(METHODS)
    for method in chosen:
        start = time.perf_counter()
        outcome = compute_by_method(graph, method)
        elapsed = (time.perf_counter() - start) * 1000
        print(
            "  %-11s lambda = %-14s %9.2f ms"
            % (method, outcome.cycle_time, elapsed)
        )
    return 0


def _cmd_compare(args) -> int:
    from .analysis import compare_designs

    before = _load_graph(args.before)
    after = _load_graph(args.after)
    comparison = compare_designs(before, after)
    if args.json:
        import json

        print(json.dumps(comparison.to_dict(), indent=2))
    else:
        print(comparison.summary())
    return 0


def _load_ptime_graph(args):
    """A P-time graph for ``repro ptime``: a ``ptime-signal-graph``
    JSON document directly, or any fixed-delay graph widened by
    ``--margin``.  Without a margin, delays embed as ``[d, oo)`` — the
    ASAP-faithful reading where a delay is a *minimum* sojourn (rigid
    ``[d, d]`` wraps of multi-circuit graphs are inconsistent unless
    every circuit ratio coincides)."""
    from fractions import Fraction

    from .ptime import PTimeSignalGraph, from_timed_graph

    if args.file.endswith(".json"):
        loaded = json_io.load(args.file)
        if isinstance(loaded, PTimeSignalGraph):
            return loaded
    graph = _load_graph(args.file)
    margin = getattr(args, "margin", None)
    if not margin:
        return from_timed_graph(
            graph, bounds={arc.pair: (arc.delay, None) for arc in graph.arcs}
        )
    if margin < 0 or margin >= 1:
        raise SignalGraphError("--margin must be in [0, 1)")
    factor = (
        Fraction(str(margin)) if graph.is_exact else float(margin)
    )
    bounds = {
        arc.pair: (arc.delay * (1 - factor), arc.delay * (1 + factor))
        for arc in graph.arcs
    }
    return from_timed_graph(graph, bounds=bounds)


def _print_violation(violation) -> None:
    print("  " + violation.condition())
    for edge in violation.edges:
        print("    " + edge.describe())


def _cmd_ptime(args) -> int:
    from .ptime import (
        check_consistency,
        lambda_range,
        synthesize_trajectory,
        verify_trajectory,
    )

    ptg = _load_ptime_graph(args)
    print(
        "graph: %s (%d events, %d arcs, %s)"
        % (
            ptg.name,
            ptg.num_events,
            ptg.num_arcs,
            "exact" if ptg.is_exact else "float",
        )
    )
    if args.action == "check":
        result = check_consistency(ptg)
        print("consistency: %s" % result)
        if result.consistent:
            for event, value in sorted(
                result.offsets.items(), key=lambda item: str(item[0])
            ):
                print("  x0(%s) = %s" % (event, value))
        else:
            _print_violation(result.violation)
        return 0 if result.consistent else 1
    if args.action == "lambda-range":
        window = lambda_range(ptg)
        print("rate interval: %s" % window)
        if not window.consistent:
            _print_violation(window.violation)
            return 1
        return 0
    # trajectory
    window = lambda_range(ptg)
    if not window.consistent:
        print("rate interval: %s" % window)
        _print_violation(window.violation)
        return 1
    rate = args.rate
    if rate is not None:
        from fractions import Fraction

        rate = Fraction(rate) if ptg.is_exact else float(rate)
        if not window.contains(rate):
            print(
                "error: rate %s outside the feasible interval %s"
                % (rate, window),
                file=sys.stderr,
            )
            return 1
    trajectory = synthesize_trajectory(ptg, rate=rate, validate=False)
    verdict = verify_trajectory(ptg, trajectory, horizon=args.horizon)
    print("rate interval: %s" % window)
    print("trajectory rate: %s" % trajectory.rate)
    for event, value in sorted(
        trajectory.offsets.items(), key=lambda item: str(item[0])
    ):
        print("  x0(%s) = %s" % (event, value))
    print("induced in-bounds delays:")
    for (source, target), value in trajectory.induced_delays(ptg).items():
        print("  %s -> %s : %s" % (source, target, value))
    print(str(verdict))
    return 0 if verdict.ok else 1


def _cmd_intervals(args) -> int:
    from .analysis import interval_cycle_time, uniform_interval_cycle_time
    from .ptime import PTimeSignalGraph

    loaded = None
    if args.file.endswith(".json"):
        loaded = json_io.load(args.file)
    if isinstance(loaded, PTimeSignalGraph):
        # Corner sweep over the finite sub-box of a P-time document.
        graph = loaded.graph
        result = interval_cycle_time(graph, loaded.interval_bounds_dict())
        source = "ptime bounds"
    else:
        graph = _load_graph(args.file)
        result = uniform_interval_cycle_time(graph, args.margin)
        source = "uniform +/-%g margin" % args.margin
    print(
        "graph: %s (%d events, %d arcs)"
        % (graph.name, graph.num_events, graph.num_arcs)
    )
    print("interval source: %s" % source)
    print(str(result))
    print("spread: %s" % result.spread)
    robust = result.robust_critical_events()
    print(
        "robust critical events (%d): %s"
        % (len(robust), ", ".join(sorted(str(e) for e in robust)))
    )
    return 0


def _cmd_serve(args) -> int:
    from .service.cache import configure
    from .service.server import ServiceConfig, serve

    if args.chaos:
        # Validate the spec before binding the port.
        from .service.faults import FaultInjector

        try:
            FaultInjector.parse(args.chaos)
        except ValueError as error:
            print("error: bad --chaos spec: %s" % error, file=sys.stderr)
            return 2
    cache_config = dict(
        compile_entries=args.compile_entries,
        result_entries=args.result_entries,
        disk=args.disk_cache,
        disk_dir=args.cache_dir,
    )
    configure(**cache_config)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        request_timeout=args.request_timeout,
        linger_ms=args.linger_ms,
        max_inflight=args.max_inflight,
        max_queue_depth=args.max_queue_depth,
        drain_timeout=args.drain_timeout,
        chaos=args.chaos,
        quiet=args.quiet,
        metrics=not args.no_metrics,
        trace_export=args.trace_export,
        kernel_executor=args.kernel_executor,
        kernel_workers=args.kernel_workers,
        adaptive=not args.no_adaptive,
        brownout=args.brownout,
        brownout_floor=args.brownout_floor,
        hedge_ms=args.hedge_ms,
    )
    if args.workers and args.workers > 1:
        from .service.pool import serve_pool

        # Workers reconfigure their own caches after the fork; the
        # knobs travel in cache_config so spawn platforms work too.
        return serve_pool(
            config,
            workers=args.workers,
            router=args.router,
            cache_config=cache_config,
        )
    if args.router:
        print("error: --router requires --workers > 1", file=sys.stderr)
        return 2
    return serve(config)


def _cmd_demo(args) -> int:
    try:
        graph = DEMOS[args.name]()
    except KeyError:
        print("unknown demo %r (have: %s)" % (args.name, ", ".join(DEMOS)),
              file=sys.stderr)
        return 2
    sys.stdout.write(astg.dumps(graph))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro-tsg",
        description="Cycle-time analysis of Timed Signal Graphs "
        "(Nielsen & Kishinevsky, DAC 1994)",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="cycle time and critical cycle")
    analyze.add_argument("file", help=".g/.json file or demo name")
    analyze.add_argument(
        "--method", choices=sorted(METHODS), default="timing",
        help="algorithm to use (default: the paper's timing simulation)",
    )
    analyze.add_argument("--table", action="store_true",
                         help="print the border-distance table")
    analyze.add_argument("--report", action="store_true",
                         help="print slacks and the critical subgraph")
    analyze.add_argument(
        "--kernel", choices=KERNELS, default="auto",
        help="simulation engine (default auto: exact arithmetic for "
        "int/Fraction delays, float64 fast path otherwise)",
    )
    analyze.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run the border simulations on a thread pool of N workers",
    )
    analyze.add_argument(
        "--no-cache", action="store_true",
        help="bypass the content-addressed compile cache",
    )
    analyze.add_argument(
        "--profile", action="store_true",
        help="print a per-phase timing table (toposort/codegen/run/"
        "backtrack + per-period timings) on stderr",
    )
    analyze.set_defaults(func=_cmd_analyze)

    simulate = commands.add_parser("simulate", help="print a timing simulation")
    simulate.add_argument("file")
    simulate.add_argument("--periods", type=int, default=2)
    simulate.add_argument("--initiate", metavar="EVENT",
                          help="run an event-initiated simulation from EVENT")
    simulate.add_argument(
        "--kernel", choices=KERNELS, default="auto",
        help="simulation engine (see 'analyze --kernel')",
    )
    simulate.set_defaults(func=_cmd_simulate)

    diagram = commands.add_parser("diagram", help="ASCII timing diagram")
    diagram.add_argument("file")
    diagram.add_argument("--periods", type=int, default=2)
    diagram.add_argument("--initiate", metavar="EVENT")
    diagram.add_argument("--width", type=int, default=72)
    diagram.set_defaults(func=_cmd_diagram)

    extract = commands.add_parser(
        "extract", help="netlist JSON or .bench/.v circuit -> .g"
    )
    extract.add_argument("file", help="netlist JSON, .bench/.v circuit, "
                         "or corpus:NAME")
    extract.set_defaults(func=_cmd_extract)

    netlist = commands.add_parser(
        "netlist",
        help="real-circuit pipeline: parse, ring-wrap, extract, analyze",
    )
    netlist.add_argument(
        "file", nargs="?", default=None,
        help=".bench / structural Verilog / logic-network JSON file, "
        "or corpus:NAME",
    )
    netlist.add_argument("--list", action="store_true",
                         help="list the shipped corpus circuits and exit")
    netlist.add_argument(
        "--format", choices=("auto", "bench", "verilog", "json"),
        default="auto", help="input format (default: sniff)",
    )
    netlist.add_argument(
        "--stats-only", action="store_true",
        help="parse and print circuit statistics, skip the analysis",
    )
    netlist.add_argument(
        "--delay", default="1", metavar="D",
        help="per-stage gate delay: fixed (e.g. 2, 3/2) or a LO:HI "
        "interval sampled per stage (default 1)",
    )
    netlist.add_argument(
        "--ack-delay", default="1", metavar="D",
        help="completion/acknowledge stage delay (same syntax)",
    )
    netlist.add_argument(
        "--delay-seed", type=int, default=0, metavar="N",
        help="PRNG seed for interval delay sampling",
    )
    netlist.add_argument(
        "--max-fanout", type=int, default=None, metavar="K",
        help="split gates driving more than K loads before wrapping",
    )
    netlist.add_argument(
        "--extraction", choices=("auto", "structural", "oracle"),
        default="auto",
        help="TSG extraction path (auto: oracle on small circuits)",
    )
    netlist.add_argument(
        "--method", default="auto",
        choices=("auto",) + tuple(sorted(METHODS)),
        help="cycle-time algorithm (auto: paper timing simulation "
        "while the border stays small, ratio-form Howard beyond)",
    )
    netlist.add_argument(
        "-o", "--output", metavar="PATH",
        help="also write the extracted graph (.json or .g)",
    )
    netlist.set_defaults(func=_cmd_netlist)

    convert = commands.add_parser(
        "convert", help="convert graph or circuit formats"
    )
    convert.add_argument("file", help="graph (.g/.json/demo) or circuit "
                         "(.bench/.v/logic-network JSON/corpus:NAME)")
    convert.add_argument(
        "-o", "--output",
        help="output path (graphs: .g/.json/.dot/.svg; circuits: "
        ".bench/.v/.json)",
    )
    convert.set_defaults(func=_cmd_convert)

    render = commands.add_parser("render", help="render SVG (graph or waves)")
    render.add_argument("file")
    render.add_argument("-o", "--output", help="output .svg path (default stdout)")
    render.add_argument("--waves", action="store_true",
                        help="render the timing diagram instead of the graph")
    render.add_argument("--critical", action="store_true",
                        help="highlight the critical cycle (graph mode)")
    render.add_argument("--initiate", metavar="EVENT")
    render.add_argument("--periods", type=int, default=2)
    render.add_argument("--width", type=int, default=640)
    render.set_defaults(func=_cmd_render)

    report = commands.add_parser(
        "report", help="full performance report (slacks, sensitivities)"
    )
    report.add_argument("file")
    report.add_argument("--top", type=int, default=10,
                        help="how many sensitivities to list")
    report.add_argument("--full", action="store_true",
                        help="include the timing diagram and all rows")
    report.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    report.set_defaults(func=_cmd_report)

    montecarlo = commands.add_parser(
        "montecarlo",
        help="Monte-Carlo λ distribution under random delay variation",
    )
    montecarlo.add_argument("file", help=".g/.json file or demo name")
    montecarlo.add_argument("--samples", type=int, default=1000,
                            help="number of sampled delay bindings")
    montecarlo.add_argument("--seed", type=int, default=0)
    montecarlo.add_argument(
        "--spread", type=float, default=0.1,
        help="relative delay spread (default 0.1 = ±10%%)",
    )
    montecarlo.add_argument(
        "--distribution", choices=("uniform", "normal"), default="uniform",
        help="per-arc delay distribution around the nominal value",
    )
    montecarlo.add_argument(
        "--batch-size", type=int, default=None, metavar="S",
        help="chunk the samples to bound memory (default: one batch)",
    )
    montecarlo.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="sweep chunks on a pool of N workers",
    )
    montecarlo.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="chunk executor for --workers: thread pool (default) or "
        "the kernel process pool (GIL-bound sweeps scale with cores)",
    )
    montecarlo.add_argument(
        "--kernel", choices=("auto", "persample"), default="auto",
        help="sweep kernel: auto (the fused vectorized sweep, default) "
        "or persample (scalar reference loop)",
    )
    montecarlo.add_argument(
        "--no-criticality", action="store_true",
        help="skip critical-cycle backtracking (λ distribution only)",
    )
    montecarlo.add_argument(
        "--bins", type=int, default=0, metavar="B",
        help="also print a B-bin ASCII histogram of λ",
    )
    montecarlo.set_defaults(func=_cmd_montecarlo)

    verify = commands.add_parser(
        "verify", help="cross-verify extraction of a netlist JSON"
    )
    verify.add_argument("file")
    verify.add_argument("--periods", type=int, default=4)
    verify.set_defaults(func=_cmd_verify)

    methods = commands.add_parser(
        "methods", help="race all algorithms on one graph"
    )
    methods.add_argument("file")
    methods.add_argument("--only", help="comma-separated method subset")
    methods.set_defaults(func=_cmd_methods)

    compare = commands.add_parser(
        "compare", help="diff two design revisions (cycle time, criticality)"
    )
    compare.add_argument("before")
    compare.add_argument("after")
    compare.add_argument("--json", action="store_true")
    compare.set_defaults(func=_cmd_compare)

    ptime = commands.add_parser(
        "ptime",
        help="P-time (interval-bound) analysis: consistency, feasible "
        "rate interval, periodic trajectory synthesis",
    )
    ptime.add_argument(
        "action", choices=("check", "lambda-range", "trajectory"),
        help="question to answer: strong consistency (with certificate), "
        "the feasible 1-periodic rate interval, or an explicit verified "
        "trajectory",
    )
    ptime.add_argument(
        "file",
        help="ptime-signal-graph JSON, or any .g/.json/demo graph "
        "(wrapped rigid, or widened with --margin)",
    )
    ptime.add_argument(
        "--margin", type=float, default=None, metavar="M",
        help="for fixed-delay inputs: widen every delay d to "
        "[d*(1-M), d*(1+M)]",
    )
    ptime.add_argument(
        "--rate", default=None, metavar="LAM",
        help="trajectory action: synthesize at this rate instead of the "
        "smallest feasible one",
    )
    ptime.add_argument(
        "--horizon", type=int, default=8, metavar="K",
        help="verification replay depth (occurrences per event)",
    )
    ptime.set_defaults(func=_cmd_ptime)

    intervals = commands.add_parser(
        "intervals",
        help="corner-sweep cycle-time bounds for interval delays "
        "(monotone two-corner analysis)",
    )
    intervals.add_argument(
        "file",
        help="ptime-signal-graph JSON (uses its bounds) or any graph "
        "(uniform --margin sweep)",
    )
    intervals.add_argument(
        "--margin", type=float, default=0.1, metavar="M",
        help="relative margin for fixed-delay inputs (default 0.1)",
    )
    intervals.set_defaults(func=_cmd_intervals)

    serve = commands.add_parser(
        "serve", help="run the JSON-over-HTTP analysis daemon"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8177,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="pre-fork N worker processes sharing the listening port "
        "(SO_REUSEPORT where available, fd inheritance otherwise)",
    )
    serve.add_argument(
        "--router", action="store_true",
        help="with --workers: run a front-door router that shards "
        "requests by topology hash so same-topology traffic hits the "
        "worker whose caches are already warm",
    )
    serve.add_argument(
        "--kernel-executor", choices=("thread", "process"),
        default="thread", metavar="E",
        help="batch-sweep chunk executor inside each worker: thread "
        "(default) or process (Monte-Carlo chunks escape the GIL)",
    )
    serve.add_argument(
        "--kernel-workers", type=int, default=0, metavar="N",
        help="fan each batched sweep over N kernel executors "
        "(0 disables chunk fan-out)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="S",
        help="per-request socket timeout and default server-side "
        "deadline in seconds (requests may override with timeout_ms)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="admission control: how many requests compute concurrently",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=32, metavar="N",
        help="admission control: bounded wait queue; beyond it requests "
        "are shed with 429 + Retry-After",
    )
    serve.add_argument(
        "--no-adaptive", action="store_true",
        help="disable the AIMD adaptive concurrency limiter and run "
        "with the static --max-inflight cap only",
    )
    serve.add_argument(
        "--brownout", action="store_true",
        help="under sustained overload, shrink Monte-Carlo sample "
        "counts toward --brownout-floor; degraded responses carry a "
        "{'degraded': {...}} stamp, never silent",
    )
    serve.add_argument(
        "--brownout-floor", type=int, default=64, metavar="N",
        help="minimum Monte-Carlo samples brownout will degrade to",
    )
    serve.add_argument(
        "--hedge-ms", type=float, default=0.0, metavar="MS",
        help="router only: hedge idempotent requests to a second "
        "worker after MS milliseconds without a reply (0 disables)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="on SIGTERM/SIGINT, wait up to S seconds for in-flight "
        "responses to finish before closing sockets",
    )
    serve.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="arm deterministic fault injection, e.g. "
        "'latency:p=0.3,ms=100;error:p=0.1;corrupt:p=0.5;seed=7' "
        "(kinds: latency, error, corrupt, slowkernel)",
    )
    serve.add_argument(
        "--linger-ms", type=float, default=2.0, metavar="MS",
        help="coalescing window: how long a Monte-Carlo request waits "
        "for same-topology companions before dispatch",
    )
    serve.add_argument(
        "--disk-cache", action="store_true",
        help="persist compiled topologies and results under "
        "~/.cache/repro (or $REPRO_CACHE_DIR)",
    )
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="override the on-disk cache root")
    serve.add_argument("--compile-entries", type=int, default=128,
                       help="compile-cache entry bound")
    serve.add_argument("--result-entries", type=int, default=1024,
                       help="result-cache entry bound")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")
    serve.add_argument(
        "--trace-export", default=None, metavar="PATH",
        help="enable tracing and write a Chrome trace_event JSON file "
        "on shutdown (loadable in chrome://tracing or ui.perfetto.dev)",
    )
    serve.add_argument(
        "--no-metrics", action="store_true",
        help="disable the /metrics Prometheus endpoint and request "
        "latency instrumentation",
    )
    serve.set_defaults(func=_cmd_serve)

    demo = commands.add_parser("demo", help="print a built-in paper graph")
    demo.add_argument("name", choices=sorted(DEMOS))
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SignalGraphError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
