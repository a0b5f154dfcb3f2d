"""Unit tests for Burns' LP formulation."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import repro
from repro.baselines.burns_lp import cycle_time_lp
from repro.core import TimedSignalGraph
from repro.core.errors import AcyclicGraphError


class TestLP:
    def test_oscillator(self, oscillator):
        solution = cycle_time_lp(oscillator)
        assert solution.cycle_time == pytest.approx(10.0)

    def test_muller_ring(self, muller_ring_graph):
        solution = cycle_time_lp(muller_ring_graph)
        assert solution.cycle_time == pytest.approx(20 / 3)

    def test_acyclic_rejected(self):
        g = TimedSignalGraph()
        g.add_arc("a+", "b+", 1)
        with pytest.raises(AcyclicGraphError):
            cycle_time_lp(g)

    def test_potentials_satisfy_constraints(self, oscillator):
        solution = cycle_time_lp(oscillator)
        p = solution.potentials
        lam = solution.cycle_time
        repetitive = oscillator.repetitive_events
        for arc in oscillator.arcs:
            if arc.source in repetitive and arc.target in repetitive:
                assert (
                    p[arc.target] + 1e-7
                    >= p[arc.source] + float(arc.delay) - lam * arc.tokens
                )

    def test_slack_nonnegative_and_critical_zero(self, oscillator):
        solution = cycle_time_lp(oscillator)
        assert solution.slack(oscillator, "a+", "c+") == pytest.approx(0.0, abs=1e-7)
        assert solution.slack(oscillator, "b+", "c+") >= -1e-7

    def test_float_delays(self):
        g = TimedSignalGraph()
        g.add_arc("a+", "b+", 1.5)
        g.add_arc("b+", "a+", 2.25, marked=True)
        assert cycle_time_lp(g).cycle_time == pytest.approx(3.75)

    def test_agrees_with_exhaustive_on_random(self):
        from repro.baselines.exhaustive import max_cycle_ratio_exhaustive
        from repro.generators import random_live_tsg

        for seed in range(15):
            g = random_live_tsg(events=8, extra_arcs=8, seed=100 + seed)
            expected, _ = max_cycle_ratio_exhaustive(g)
            assert cycle_time_lp(g).cycle_time == pytest.approx(
                float(expected), abs=1e-6
            ), seed


def test_scipy_is_imported_only_by_the_lp_method():
    """The CLI (and the daemon it starts) and the netlist pipeline do not
    pay scipy's import time until a caller asks for ``lp``."""
    script = (
        "import sys\n"
        "import repro.cli, repro.netlist.pipeline\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"
