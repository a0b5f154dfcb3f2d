"""Unit tests for performance reports (potentials, slacks)."""

from fractions import Fraction

import pytest

from repro.analysis import analyze, steady_state_potentials
from repro.core import TimedSignalGraph, Transition
from repro.core.errors import SignalGraphError
from repro.generators import ptime_wrap, ring_with_chords
from repro.ptime import check_consistency


def T(text):
    return Transition.parse(text)


class TestPotentials:
    def test_constraints_hold(self, oscillator):
        report = analyze(oscillator)
        p = report.potentials
        lam = report.cycle_time
        repetitive = oscillator.repetitive_events
        for arc in oscillator.arcs:
            if arc.source in repetitive and arc.target in repetitive:
                assert p[arc.target] >= p[arc.source] + arc.delay - lam * arc.tokens

    def test_wrong_lambda_rejected(self, oscillator):
        with pytest.raises(SignalGraphError):
            steady_state_potentials(oscillator, 5)  # below the true λ

    def test_larger_lambda_accepted(self, oscillator):
        # a feasible (loose) period also admits a schedule
        potentials = steady_state_potentials(oscillator, 12)
        assert len(potentials) == 6

    def test_exact_arithmetic(self, muller_ring_graph):
        report = analyze(muller_ring_graph)
        assert all(
            isinstance(value, (int, Fraction))
            for value in report.potentials.values()
        )


class TestFloatDelays:
    """Float λ rounded below the exact cycle time of the float delays
    must not read as a positive cycle."""

    @staticmethod
    def scaled(seed):
        graph = ring_with_chords(12, 3, 4, seed=seed)
        for arc in graph.arcs:
            graph.set_delay(arc.source, arc.target, arc.delay * 1.1)
        assert not graph.is_exact
        return graph

    @pytest.mark.parametrize("seed", range(20))
    def test_analyze(self, seed):
        graph = self.scaled(seed)
        report = analyze(graph)
        assert all(isinstance(p, float) for p in report.potentials.values())
        for slack in report.slacks.values():
            assert slack >= -1e-9
        assert report.critical_arcs

    @pytest.mark.parametrize("seed", range(20))
    def test_ptime_wrap_is_consistent(self, seed):
        wrapped = ptime_wrap(self.scaled(seed), seed=seed)
        assert check_consistency(wrapped).consistent


class TestSlacks:
    def test_nonnegative(self, oscillator):
        report = analyze(oscillator)
        assert all(slack >= 0 for slack in report.slacks.values())

    def test_known_values(self, oscillator):
        report = analyze(oscillator)
        assert report.slack_of("b+", "c+") == 2
        assert report.slack_of("b-", "c-") == 2
        assert report.slack_of("a+", "c+") == 0

    def test_critical_arcs(self, oscillator):
        report = analyze(oscillator)
        critical = {(str(a.source), str(a.target)) for a in report.critical_arcs}
        assert ("a+", "c+") in critical
        assert ("b+", "c+") not in critical

    def test_all_critical_cycles_exhaustive(self, oscillator):
        report = analyze(oscillator)
        cycles = report.all_critical_cycles()
        assert len(cycles) == 1
        assert cycles[0].length == 10

    def test_tied_cycles_all_found(self):
        g = TimedSignalGraph()
        g.add_arc("h+", "x+", 5)
        g.add_arc("x+", "h+", 5, marked=True)
        g.add_arc("h+", "y+", 6)
        g.add_arc("y+", "h+", 4, marked=True)
        report = analyze(g)
        assert len(report.all_critical_cycles()) == 2

    def test_muller_ring_critical_subgraph(self, muller_ring_graph):
        # The critical cycle threads all 20 events via the inverters;
        # the 10 direct stage-to-stage data arcs are the non-critical
        # ones, each carrying slack 1/3.
        report = analyze(muller_ring_graph)
        assert len(report.critical_arcs) == 20
        slack_values = {
            slack for slack in report.slacks.values() if slack != 0
        }
        assert slack_values == {Fraction(1, 3)}


class TestSchedule:
    def test_schedule_rows(self, oscillator):
        report = analyze(oscillator)
        rows = report.schedule(periods=2)
        assert len(rows) == 12  # 6 repetitive events x 2 periods
        times = [float(t) for t, _ in rows]
        assert times == sorted(times)

    def test_schedule_respects_cycle_time(self, oscillator):
        report = analyze(oscillator)
        one = dict((label, time) for time, label in report.schedule(periods=1))
        two = report.schedule(periods=2)
        for time, label in two:
            base = one[label]
            assert time == base or time == base + report.cycle_time

    def test_summary_text(self, oscillator):
        text = analyze(oscillator).summary()
        assert "cycle time: 10" in text
        assert "critical" in text
