"""Unit tests for per-firing jitter analysis."""

import networkx as nx
import numpy as np
import pytest

from repro.analysis import (
    normal_spread,
    stochastic_cycle_time,
    uniform_spread,
)
from repro.analysis.montecarlo import draw_delays
from repro.circuits.library import (
    async_stack_tsg,
    linear_pipeline_tsg,
    muller_ring_tsg,
    oscillator_tsg,
)
from repro.core.errors import SignalGraphError
from repro.core.validation import unmarked_subgraph
from repro.generators import ring_with_chords


def reference_jitter(graph, sampler, periods, warmup, seed, replications):
    """Per-arc max-plus global simulation with per-period delay draws.

    Follows the unfolding rules of :mod:`repro.core.kernel`: period 0
    relaxes the token-free arcs (events with none start at 0), period
    1 the marked arcs from period 0 plus token-free arcs from
    repetitive sources, later periods the arcs from repetitive sources.
    Draws one ``(R, m)`` matrix per period from the same stream as
    :func:`stochastic_cycle_time`.  Returns the per-replication average
    occurrence distances of the first border event.
    """
    rng = np.random.default_rng(seed)
    arcs = graph.arcs
    column = {arc.pair: index for index, arc in enumerate(arcs)}
    nominal = np.asarray([float(arc.delay) for arc in arcs])
    order = list(nx.topological_sort(unmarked_subgraph(graph)))
    repetitive = graph.repetitive_events
    witness = graph.border_events[0]
    averages = []
    draws = [
        draw_delays(rng, sampler, nominal, (replications, len(arcs)))
        for _ in range(periods + 1)
    ]
    for r in range(replications):
        times = {}
        for period in range(periods + 1):
            delays = draws[period][r]
            for event in order:
                if period and event not in repetitive:
                    continue
                best = None
                for arc in graph.in_arcs(event):
                    source_period = period - arc.tokens
                    if source_period < 0:
                        continue
                    if source_period and arc.source not in repetitive:
                        continue
                    value = (
                        times[(arc.source, source_period)]
                        + float(delays[column[arc.pair]])
                    )
                    if best is None or value > best:
                        best = value
                times[(event, period)] = 0.0 if best is None else best
        averages.append(
            (times[(witness, periods)] - times[(witness, warmup)])
            / (periods - warmup)
        )
    return np.asarray(averages)


class TestStochasticCycleTime:
    def test_zero_jitter_recovers_deterministic(self, oscillator):
        result = stochastic_cycle_time(
            oscillator, uniform_spread(0.0), periods=150, seed=1
        )
        assert result.average_distance == pytest.approx(result.deterministic)
        assert result.penalty == pytest.approx(0.0)

    def test_jensen_penalty_nonnegative(self, oscillator, muller_ring_graph):
        for graph in (oscillator, muller_ring_graph):
            result = stochastic_cycle_time(
                graph, uniform_spread(0.3), periods=500, seed=3
            )
            assert result.penalty > -0.05  # sampling noise tolerance
            # symmetric zero-mean jitter cannot *help* on average
            assert result.average_distance >= result.deterministic - 0.05

    def test_fully_critical_graph_pays_more(self, oscillator, muller_ring_graph):
        """The ring (no slack anywhere) suffers a larger relative
        penalty than the slack-rich oscillator."""
        osc = stochastic_cycle_time(
            oscillator, uniform_spread(0.3), periods=800, seed=5
        )
        ring = stochastic_cycle_time(
            muller_ring_graph, uniform_spread(0.3), periods=800, seed=5
        )
        assert ring.relative_penalty > osc.relative_penalty

    def test_reproducible_by_seed(self, oscillator):
        a = stochastic_cycle_time(oscillator, normal_spread(0.2), 200, seed=9)
        b = stochastic_cycle_time(oscillator, normal_spread(0.2), 200, seed=9)
        assert a.average_distance == b.average_distance

    def test_explicit_witness(self, oscillator):
        result = stochastic_cycle_time(
            oscillator, uniform_spread(0.1), periods=200, seed=1, witness="b-"
        )
        assert result.average_distance == pytest.approx(10, rel=0.05)

    def test_periods_must_exceed_warmup(self, oscillator):
        with pytest.raises(SignalGraphError):
            stochastic_cycle_time(
                oscillator, uniform_spread(0.1), periods=10, warmup=50
            )

    def test_str(self, oscillator):
        result = stochastic_cycle_time(
            oscillator, uniform_spread(0.1), periods=120, seed=0
        )
        assert "penalty" in str(result)

    def test_jitter_penalty_wrapper(self, oscillator):
        from repro.analysis import jitter_penalty

        penalty = jitter_penalty(oscillator, uniform_spread(0.0), periods=120)
        assert penalty == pytest.approx(0.0)


class TestReplications:
    def test_replications_tighten_the_estimate(self, oscillator):
        result = stochastic_cycle_time(
            oscillator, uniform_spread(0.3), periods=300, seed=2,
            replications=8,
        )
        assert result.replications == 8
        assert result.spread >= 0.0
        assert result.average_distance == pytest.approx(
            result.deterministic, rel=0.25
        )

    def test_zero_jitter_has_zero_spread(self, oscillator):
        result = stochastic_cycle_time(
            oscillator, uniform_spread(0.0), periods=120, seed=0,
            replications=4,
        )
        assert result.spread == pytest.approx(0.0)
        assert result.penalty == pytest.approx(0.0)

    def test_rejects_bad_witness_and_replications(self, oscillator):
        with pytest.raises(SignalGraphError):
            stochastic_cycle_time(
                oscillator, uniform_spread(0.1), periods=100, replications=0
            )
        with pytest.raises(SignalGraphError):
            stochastic_cycle_time(
                oscillator, uniform_spread(0.1), periods=100, witness="e-"
            )


class TestReferenceLoop:
    """Jitter values pinned bit for bit against a plain per-arc loop."""

    @pytest.mark.parametrize(
        "factory",
        [
            oscillator_tsg,
            lambda: muller_ring_tsg(stages=5),
            async_stack_tsg,                       # b=22
            lambda: linear_pipeline_tsg(stages=7),
            lambda: ring_with_chords(stages=24, tokens=4, chords=6, seed=3),
        ],
        ids=["oscillator", "muller5", "stack", "pipeline7", "chords24"],
    )
    @pytest.mark.parametrize("replications", [1, 4])
    @pytest.mark.parametrize("warmup", [0, 50])
    def test_matches_reference_loop(self, factory, replications, warmup):
        graph = factory()
        for sampler, seed in ((uniform_spread(0.3), 11), (normal_spread(0.2), 12)):
            result = stochastic_cycle_time(
                graph, sampler, periods=90, warmup=warmup, seed=seed,
                replications=replications,
            )
            averages = reference_jitter(
                graph, sampler, 90, warmup, seed, replications
            )
            assert result.average_distance == float(np.mean(averages))
            assert result.spread == float(np.std(averages))
