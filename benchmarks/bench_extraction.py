"""E12-support — the TRASPEC-substitute extraction pipeline.

Section VIII-B describes extracting Signal Graphs from net-lists with
TRASPEC before analysis.  This bench times our substitute's three
stages on the paper's circuits: state-space verification, untimed
trace simulation + folding, and the end-to-end netlist-to-lambda flow.
"""

from fractions import Fraction

import pytest

from conftest import emit
from repro.circuits.extraction import extract_signal_graph, simulate_untimed
from repro.circuits.library import muller_ring_netlist, oscillator_netlist
from repro.circuits.state_space import explore
from repro.core import compute_cycle_time


def test_extraction_oscillator(benchmark, oscillator_circuit):
    graph = benchmark(extract_signal_graph, oscillator_circuit)
    assert graph.num_events == 8 and graph.num_arcs == 11
    emit(
        "Extraction: Figure 1a netlist -> Figure 1b graph",
        "8 events, 11 arcs reproduced exactly",
    )


def test_state_space_muller_ring(benchmark):
    netlist = muller_ring_netlist()
    space = benchmark(explore, netlist)
    emit(
        "State space: Figure 5 ring semi-modularity check",
        "%d reachable states, %d moves"
        % (space.num_states, space.num_moves),
    )


def test_untimed_trace_muller_ring(benchmark):
    netlist = muller_ring_netlist()
    trace = benchmark(simulate_untimed, netlist)
    assert trace.is_periodic
    assert trace.window == 20  # all 20 events once per period
    emit(
        "Untimed trace: Figure 5 periodic regime",
        "prefix %d transitions, window %d" % (trace.prefix_end, trace.window),
    )


def test_end_to_end_netlist_to_lambda(benchmark):
    def flow():
        graph = extract_signal_graph(muller_ring_netlist())
        return compute_cycle_time(graph)

    result = benchmark(flow)
    assert result.cycle_time == Fraction(20, 3)
    emit(
        "End-to-end: netlist -> extraction -> lambda (paper flow)",
        "lambda = %s" % result.cycle_time,
    )


@pytest.mark.parametrize("stages", [5, 7, 9])
def test_extraction_scaling(benchmark, stages):
    netlist = muller_ring_netlist(stages=stages)
    graph = benchmark(extract_signal_graph, netlist)
    assert graph.num_events == 4 * stages
    emit(
        "Extraction scaling: %d-stage ring" % stages,
        "%d events, mean %.2f ms"
        % (graph.num_events, benchmark.stats.stats.mean * 1e3),
    )
