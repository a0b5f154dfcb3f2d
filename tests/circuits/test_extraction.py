"""Unit tests for Signal Graph extraction (the TRASPEC substitute)."""

import pytest

from repro.circuits.extraction import (
    extract_signal_graph,
    fold_trace,
    simulate_untimed,
)
from repro.circuits.library import (
    muller_ring_netlist,
    oscillator_netlist,
    oscillator_tsg,
)
from repro.circuits.netlist import Netlist
from repro.core import Transition, validate
from repro.core.errors import DistributivityError, ExtractionError
from repro.netlist import structural_extract


class TestOscillatorExtraction:
    def test_reproduces_figure_1b_exactly(self, oscillator_circuit):
        extracted = extract_signal_graph(oscillator_circuit)
        assert extracted.structurally_equal(oscillator_tsg())

    def test_extracted_graph_validates(self, oscillator_circuit):
        validate(extract_signal_graph(oscillator_circuit))

    def test_border_events(self, oscillator_circuit):
        extracted = extract_signal_graph(oscillator_circuit)
        assert {str(e) for e in extracted.border_events} == {"a+", "b+"}

    def test_disengageable_prefix(self, oscillator_circuit):
        extracted = extract_signal_graph(oscillator_circuit)
        disengageable = {
            (str(a.source), str(a.target))
            for a in extracted.arcs
            if a.disengageable
        }
        assert disengageable == {("e-", "f-"), ("e-", "a+"), ("f-", "b+")}


class TestTraceMachinery:
    def test_trace_is_periodic(self, oscillator_circuit):
        trace = simulate_untimed(oscillator_circuit)
        assert trace.is_periodic
        assert trace.window == 6  # a,b,c each rise and fall once
        # the prefix holds the one-shot events (e-, f-) plus whatever
        # part of the first oscillation precedes the recurring snapshot
        prefix_signals = {r.signal for r in trace.fired[: trace.prefix_end]}
        assert {"e", "f"} <= prefix_signals

    def test_window_slices_align(self, oscillator_circuit):
        trace = simulate_untimed(oscillator_circuit)
        first = [(r.signal, r.direction) for r in trace.window_slice(0)]
        second = [(r.signal, r.direction) for r in trace.window_slice(1)]
        assert first == second

    def test_quiescent_circuit(self):
        n = Netlist("once")
        n.add_input("x", initial=0)
        n.add_gate("y", "BUF", ["x"], delays=4, initial=0)
        n.add_stimulus("x")
        trace = simulate_untimed(n)
        assert not trace.is_periodic
        assert [str(r) for r in trace.fired] == ["x+[0]", "y+[0]"]
        graph = fold_trace(trace)
        assert graph.num_events == 2
        assert graph.arc("x+", "y+").delay == 4
        assert graph.arc("x+", "y+").disengageable

    def test_fold_of_quiescent_graph_has_no_cycles(self):
        n = Netlist("once")
        n.add_input("x", initial=0)
        n.add_gate("y", "BUF", ["x"], delays=4, initial=0)
        n.add_stimulus("x")
        graph = fold_trace(simulate_untimed(n))
        validate(graph, require_cycles=False)
        assert not graph.repetitive_events


class TestCauseSemantics:
    def test_and_causality_of_c_element(self):
        # both inputs of a C-element are necessary causes
        ring = muller_ring_netlist()
        graph = extract_signal_graph(ring)
        s0_up = Transition.parse("s0+")
        causes = {str(a.source) for a in graph.in_arcs(s0_up)}
        assert causes == {"s4+", "n0+"}

    def test_single_cause_of_inverter(self):
        ring = muller_ring_netlist()
        graph = extract_signal_graph(ring)
        n0_down = Transition.parse("n0-")
        causes = {str(a.source) for a in graph.in_arcs(n0_down)}
        assert causes == {"s1+"}

    def test_or_causality_rejected(self):
        # z = OR(x, y): with both x and y rising concurrently, z's rise
        # has two sufficient causes -> OR-causality -> rejected.
        n = Netlist("or-race")
        n.add_input("x", initial=0)
        n.add_input("y", initial=0)
        n.add_gate("z", "OR", ["x", "y"], initial=0)
        n.add_stimulus("x")
        n.add_stimulus("y")
        with pytest.raises(DistributivityError):
            structural_extract(n)


class TestExtractionOptions:
    def test_semi_modularity_checked_by_default(self):
        n = Netlist("race")
        n.add_input("set", initial=1)
        n.add_input("reset", initial=1)
        n.add_gate("q", "NOR", ["reset", "qb"], initial=0)
        n.add_gate("qb", "NOR", ["set", "q"], initial=0)
        n.add_stimulus("set")
        n.add_stimulus("reset")
        from repro.core.errors import NotSemiModularError

        with pytest.raises(NotSemiModularError):
            extract_signal_graph(n)

    def test_max_transitions_guard(self, oscillator_circuit):
        with pytest.raises(ExtractionError):
            simulate_untimed(oscillator_circuit, max_transitions=3)

    def test_timing_agreement_with_event_driven_sim(self, oscillator_circuit):
        """The extracted graph's global timing simulation must equal the
        independent event-driven circuit simulation, transition by
        transition."""
        from repro.circuits.simulator import EventDrivenSimulator
        from repro.core import TimingSimulation

        graph = extract_signal_graph(oscillator_circuit)
        periods = 4
        tsg_sim = TimingSimulation(graph, periods=periods)
        circuit_sim = EventDrivenSimulator(oscillator_circuit)
        circuit_sim.run(max_transitions=200)
        for (event, index), time in tsg_sim.times.items():
            occurrences = circuit_sim.signal_times(event.signal, event.direction)
            assert occurrences[index] == time, (event, index)
