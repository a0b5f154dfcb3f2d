"""Unit tests for structural validation."""

import pytest

from repro.core import TimedSignalGraph, compiled_graph, validate
from repro.core.errors import (
    AcyclicGraphError,
    NotConnectedError,
    NotLiveError,
    NotWellFormedError,
)
from repro.core.validation import (
    check_connected_core,
    check_has_cycles,
    check_live,
    check_switchover_correct,
    check_well_formed,
    find_unmarked_cycle,
    live_order,
    unmarked_subgraph,
)


def live_ring():
    g = TimedSignalGraph()
    g.add_arc("a+", "b+", 1)
    g.add_arc("b+", "a+", 1, marked=True)
    return g


class TestLiveness:
    def test_live_ring_passes(self):
        validate(live_ring())

    def test_unmarked_cycle_detected(self):
        g = TimedSignalGraph()
        g.add_arc("a+", "b+", 1)
        g.add_arc("b+", "a+", 1)  # no token anywhere
        assert not check_live(g)
        cycle = find_unmarked_cycle(g)
        assert cycle is not None and len(cycle) == 2
        with pytest.raises(NotLiveError) as info:
            validate(g)
        assert info.value.cycle is not None

    def test_partial_marking_not_enough(self):
        g = live_ring()
        g.add_arc("a+", "c+", 1)
        g.add_arc("c+", "a+", 1)  # second, unmarked cycle
        assert not check_live(g)

    @staticmethod
    def _token_free_ring():
        g = live_ring()
        g.add_arc("b+", "c+", 2)
        g.add_arc("c+", "b+", 3)  # token-free cycle beside a live one
        return g

    def test_every_entry_point_reports_the_same_witness(self):
        g = self._token_free_ring()
        witness = find_unmarked_cycle(g)
        assert witness is not None
        assert live_order(g) is None
        assert not check_live(g)
        errors = []
        for entry in (validate, compiled_graph):
            with pytest.raises(NotLiveError) as info:
                entry(g)
            errors.append(info.value)
        assert [error.cycle for error in errors] == [witness, witness]
        assert str(errors[0]) == "cycle without initial token: b+ -> c+"
        assert str(errors[1]) == (
            "cannot unfold a non-live graph (token-free cycle exists)"
        )

    def test_live_order_is_the_compiled_order(self, oscillator):
        order = live_order(oscillator)
        assert order is not None
        assert compiled_graph(oscillator).order == list(order)

    def test_mutation_drops_the_cached_order(self):
        g = live_ring()
        validate(g)
        assert check_live(g)
        compiled_graph(g)
        g.add_arc("b+", "c+", 1)
        g.add_arc("c+", "b+", 1)  # now a token-free cycle
        assert not check_live(g)
        with pytest.raises(NotLiveError):
            validate(g)
        with pytest.raises(NotLiveError):
            compiled_graph(g)

    def test_unmarked_subgraph_shape(self, oscillator):
        sub = unmarked_subgraph(oscillator)
        assert sub.number_of_nodes() == oscillator.num_events
        # the two marked arcs are absent
        assert sub.number_of_edges() == oscillator.num_arcs - 2


class TestConnectedness:
    def test_single_core_passes(self, oscillator):
        assert check_connected_core(oscillator)

    def test_two_disjoint_rings_fail(self):
        g = live_ring()
        g.add_arc("x+", "y+", 1)
        g.add_arc("y+", "x+", 1, marked=True)
        assert not check_connected_core(g)
        with pytest.raises(NotConnectedError):
            validate(g)

    def test_two_rings_joined_one_way_fail(self):
        # reachable but not strongly connected repetitive cores
        g = live_ring()
        g.add_arc("x+", "y+", 1)
        g.add_arc("y+", "x+", 1, marked=True)
        g.add_arc("a+", "x+", 1)
        assert not check_connected_core(g)

    def test_acyclic_graph_trivially_connected(self):
        g = TimedSignalGraph()
        g.add_arc("a+", "b+", 1)
        assert check_connected_core(g)


class TestWellFormedness:
    def test_disengageable_from_nonrepetitive_ok(self, oscillator):
        assert check_well_formed(oscillator)

    def test_disengageable_from_repetitive_rejected(self):
        g = live_ring()
        g.add_arc("a+", "c+", 1, disengageable=True)
        assert not check_well_formed(g)
        with pytest.raises(NotWellFormedError):
            validate(g)


class TestCycleRequirement:
    def test_acyclic_raises_by_default(self):
        g = TimedSignalGraph()
        g.add_arc("a+", "b+", 1)
        assert not check_has_cycles(g)
        with pytest.raises(AcyclicGraphError):
            validate(g)

    def test_acyclic_allowed_when_requested(self):
        g = TimedSignalGraph()
        g.add_arc("a+", "b+", 1)
        validate(g, require_cycles=False)


class TestSwitchoverCheck:
    def test_balanced_oscillator(self, oscillator):
        ok, message = check_switchover_correct(oscillator)
        assert ok, message

    def test_unbalanced_signal_flagged(self):
        g = TimedSignalGraph()
        g.add_arc("a+", "b+", 1)
        g.add_arc("b+", "a+", 1, marked=True)  # a+ recurs, a- never
        ok, message = check_switchover_correct(g)
        assert not ok
        assert "rising" in message and "falling" in message

    def test_non_transition_events_vacuous(self):
        g = TimedSignalGraph()
        g.add_arc("n1", "n2", 1)
        g.add_arc("n2", "n1", 1, marked=True)
        ok, _ = check_switchover_correct(g)
        assert ok
