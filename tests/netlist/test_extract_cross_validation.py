"""Structural extraction must be bit-identical to the oracle.

The acceptance bar for the scalable path: on every circuit small
enough for ``circuits.extraction`` (exhaustive exploration, then the
serialised simulation), ``structural_extract`` must produce the *same*
Timed Signal Graph — same events, same arcs, same delays, same
markings.
"""

from __future__ import annotations

import pytest

from repro.circuits.extraction import extract_signal_graph, simulate_untimed
from repro.circuits.library import (
    c_element_synchronizer_netlist,
    inverter_ring_netlist,
    muller_ring_netlist,
    oscillator_netlist,
)
from repro.circuits.netlist import Netlist
from repro.core.errors import ExtractionError, NotSemiModularError
from repro.netlist import load_corpus, ring_wrap, structural_extract
from tests.reference_extraction import reference_simulate_untimed
from tests.reference_state_space import glitching_and, racing_latch

ORACLE_CIRCUITS = {
    "oscillator": oscillator_netlist,
    "muller3": lambda: muller_ring_netlist(3),
    "muller5": lambda: muller_ring_netlist(5),
    "inverter3": lambda: inverter_ring_netlist(3),
    "inverter5": lambda: inverter_ring_netlist(5),
    "c_sync": c_element_synchronizer_netlist,
    "c17_wrapped": lambda: ring_wrap(load_corpus("c17")),
}


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(ORACLE_CIRCUITS))
    def test_structural_equals_oracle(self, name):
        netlist = ORACLE_CIRCUITS[name]()
        oracle = extract_signal_graph(netlist)
        structural = structural_extract(netlist)
        assert structural.structurally_equal(oracle)

    @pytest.mark.parametrize("name", sorted(ORACLE_CIRCUITS))
    def test_same_trace_and_window(self, name):
        netlist = ORACLE_CIRCUITS[name]()
        reference = reference_simulate_untimed(netlist)
        trace = simulate_untimed(netlist, max_transitions=1_000_000)
        assert trace.prefix_end == reference.prefix_end
        assert trace.window == reference.window
        assert trace.fired == reference.fired


class TestSemiModularity:
    def test_trace_check_catches_the_hazard(self):
        # After a+ both b (NOT) and c (AND) are excited; the serialised
        # rule fires b first, which disables c — a visible hazard.
        with pytest.raises(NotSemiModularError) as info:
            structural_extract(glitching_and())
        assert info.value.signal == "c"
        assert info.value.state == {"a": 1, "b": 0, "c": 0}

    def test_explore_check_catches_the_race(self):
        # The latch race hides from the serialised interleaving (reset
        # fires before set), but exhaustive exploration still finds it.
        structural_extract(racing_latch())
        with pytest.raises(NotSemiModularError):
            extract_signal_graph(racing_latch())


class TestDetectorLimits:
    def test_transition_budget_raises(self):
        with pytest.raises(ExtractionError):
            structural_extract(oscillator_netlist(), max_transitions=3)

    def test_quiescent_circuit_folds_empty_window(self):
        n = Netlist("quiet")
        n.add_input("a", initial=0)
        n.add_gate("b", "BUF", ["a"], initial=0)
        trace = simulate_untimed(n)
        assert trace.window == 0
        assert trace.fired == []
        assert structural_extract(n).num_events == 0


class TestScale:
    @pytest.mark.parametrize("name", ["rca8", "sreg16"])
    def test_corpus_extracts(self, name):
        graph = structural_extract(ring_wrap(load_corpus(name)))
        assert graph.num_events > 100

    def test_thousand_gate_circuit_extracts(self):
        """The tentpole scale requirement: >=1000 gates end to end."""
        network = load_corpus("mult16")
        assert network.num_gates >= 1000
        graph = structural_extract(ring_wrap(network))
        assert graph.num_events == 2 * (
            len(ring_wrap(network).gates)
        )
