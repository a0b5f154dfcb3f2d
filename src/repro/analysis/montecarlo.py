"""Monte-Carlo cycle-time analysis under random delay variation.

Interval analysis (:mod:`repro.analysis.intervals`) bounds the cycle
time exactly but says nothing about the *distribution* inside the
bounds.  This module samples per-arc delays from user-supplied
distributions, re-analyses each sample, and aggregates:

* the empirical λ distribution (mean, std, quantiles, histogram);
* per-arc *criticality probability* — how often each arc lies on a
  critical cycle across samples, the probabilistic generalisation of
  the deterministic sensitivity ranking.

Since the batched kernel rework the S sampled bindings advance
through one compiled arc program in lockstep
(:func:`~repro.core.kernel.run_border_simulations_batch`): the sampled
delays form one ``(S, m)`` matrix, λ per sample falls out of a
vectorized max, and critical cycles are backtracked only when
``track_criticality`` is on — for every sample in one call
(:meth:`~repro.core.kernel.BatchSweepResult.critical_cycles`), which
re-sweeps the samples once with their slot times recorded and follows
each sample's winning walks back through them.  ``method="persample"``
keeps the original rebind-per-trial loop as the executable reference;
both methods consume the same sampled matrix and produce bit-identical
λ samples and critical cycles.

Sampling uses ``numpy.random.Generator`` with an explicit seed for
reproducibility.  One sampler call draws a whole sweep as a
``(k, S)`` block for the ``k`` repetitive arcs (one stream of ``S``
values per arc, arc-major), and the ``(S, m)`` matrix the kernel reads
is a transposed view of that block; a plain scalar
``(rng, nominal) -> float`` callable still works through an
element-wise fallback that keeps the same arc-major order.
"""

from __future__ import annotations

import inspect
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.cycle_time import compute_cycle_time
from ..core.cycles import cycle_pairs
from ..core.errors import GraphConstructionError, SignalGraphError
from ..core.kernel import (
    BatchBindings,
    compiled_graph,
    rebind_compiled,
    run_border_simulations_batch,
)
from ..core.signal_graph import Event, TimedSignalGraph

#: A delay sampler: ``(rng, nominal) -> float`` — or, vectorized,
#: ``(rng, nominal, size=...) -> ndarray``, where ``nominal`` is an
#: array broadcast against ``size``: :func:`sample_delay_matrix` passes
#: one ``(k, 1)`` column of nominal delays with ``size=(k, S)``, and
#: numpy fills that block in C order, so every arc gets its own stream
#: of ``S`` values, arc by arc.
DelaySampler = Callable[..., float]


def normal_spread(sigma_fraction: float) -> DelaySampler:
    """Gaussian variation: delay ~ N(nominal, (sigma_fraction*nominal)^2),
    truncated at zero."""

    def sample(rng: np.random.Generator, nominal, size=None):
        if size is None:
            return max(0.0, rng.normal(nominal, sigma_fraction * nominal))
        loc = np.asarray(nominal, dtype=np.float64)
        return np.maximum(0.0, rng.normal(loc, sigma_fraction * loc, size=size))

    return sample


def uniform_spread(fraction: float) -> DelaySampler:
    """Uniform variation on [nominal*(1-f), nominal*(1+f)]."""

    def sample(rng: np.random.Generator, nominal, size=None):
        if size is None:
            return rng.uniform(nominal * (1 - fraction), nominal * (1 + fraction))
        loc = np.asarray(nominal, dtype=np.float64)
        return rng.uniform(loc * (1 - fraction), loc * (1 + fraction), size=size)

    return sample


def _accepts_size(sampler: DelaySampler) -> bool:
    """Whether ``sampler`` takes a ``size`` argument (vector-aware)."""
    try:
        parameters = inspect.signature(sampler).parameters
    except (TypeError, ValueError):
        return False
    if "size" in parameters:
        return True
    return any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def draw_delays(
    rng: np.random.Generator, sampler: DelaySampler, nominal, size
):
    """Draw sampled delays, falling back to element-wise calls.

    Vector-aware samplers (the built-in spreads — detected by a
    ``size`` parameter or ``**kwargs`` in their signature) receive
    ``nominal`` unchanged with ``size`` and return the whole block in
    one RNG call; ``nominal`` must broadcast against ``size``.  Scalar
    ``(rng, nominal)`` samplers are applied element-wise in C order
    over the block, each call getting the broadcast nominal of its
    cell — the order a vector-aware sampler fills the block in.
    Exceptions raised inside a sampler propagate unchanged — a
    ``TypeError`` bug in a vector-aware sampler is not mistaken for
    scalar-ness.
    """
    shape = (size,) if isinstance(size, int) else tuple(size)
    if _accepts_size(sampler):
        values = np.asarray(sampler(rng, nominal, size=size), dtype=np.float64)
        if values.shape != shape:
            raise SignalGraphError(
                "sampler returned shape %r, expected %r" % (values.shape, shape)
            )
        return values
    nominals = np.broadcast_to(np.asarray(nominal, dtype=np.float64), shape)
    out = np.empty(shape, dtype=np.float64)
    flat = out.reshape(-1)
    for index, value in enumerate(nominals.ravel().tolist()):
        flat[index] = sampler(rng, value)
    return out


def sample_delay_matrix(
    graph: TimedSignalGraph,
    sampler: DelaySampler,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """An ``(S, m)`` sampled delay matrix in graph arc order.

    Only arcs of the repetitive core are resampled (prefix arcs cannot
    affect λ); other columns carry the nominal delay.  The sampler is
    called once, with ``nominal`` shaped ``(k, 1)`` for the ``k``
    repetitive arcs and ``size=(k, S)``, so the stream is one run of
    ``S`` values per repetitive arc in arc order.  The result is the
    transposed (F-ordered) view of an arc-major ``(m, S)`` block —
    the sampler's own block when every arc is repetitive — which is
    the layout the batch kernel gathers its delay rows from.
    """
    repetitive = graph.repetitive_events
    arcs = graph.arcs
    nominal = np.asarray([float(arc.delay) for arc in arcs], dtype=np.float64)
    columns = [
        column
        for column, arc in enumerate(arcs)
        if arc.source in repetitive and arc.target in repetitive
    ]
    block = draw_delays(
        rng, sampler, nominal[columns, None], (len(columns), samples)
    )
    if len(columns) == len(arcs):
        return block.T
    matrix_t = np.empty((len(arcs), samples), dtype=np.float64)
    matrix_t[:] = nominal[:, None]
    matrix_t[columns] = block
    return matrix_t.T


@dataclass
class MonteCarloResult:
    """Aggregated outcome of a sampling run."""

    samples: np.ndarray                       # λ per sample
    criticality: Dict[Tuple[Event, Event], float]  # P(arc critical)
    seed: int

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        return float(np.std(self.samples))

    def quantile(self, q) -> float:
        return float(np.quantile(self.samples, q))

    def histogram(self, bins: int = 10) -> List[Tuple[float, float, int]]:
        """``(low, high, count)`` rows of the λ histogram."""
        counts, edges = np.histogram(self.samples, bins=bins)
        return [
            (float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(len(counts))
        ]

    def top_critical_arcs(self, count: int = 5) -> List[Tuple[Tuple[Event, Event], float]]:
        """Arcs most likely to be on a critical cycle."""
        ranked = sorted(
            self.criticality.items(), key=lambda item: (-item[1], str(item[0]))
        )
        return ranked[:count]

    def summary(self) -> str:
        lines = [
            "Monte-Carlo cycle time over %d samples (seed %d):"
            % (self.count, self.seed),
            "  mean %.4f, std %.4f" % (self.mean, self.std),
            "  quantiles: p05 %.4f, p50 %.4f, p95 %.4f"
            % (self.quantile(0.05), self.quantile(0.5), self.quantile(0.95)),
        ]
        if self.criticality:
            lines.append("  most probable bottleneck arcs:")
            for (source, target), probability in self.top_critical_arcs():
                lines.append(
                    "    %s -> %s : critical in %.0f%% of samples"
                    % (source, target, 100 * probability)
                )
        else:
            lines.append("  (criticality tracking disabled)")
        return "\n".join(lines)


def monte_carlo_cycle_time(
    graph: TimedSignalGraph,
    sampler: DelaySampler,
    samples: int = 1000,
    seed: int = 0,
    track_criticality: bool = True,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    method: str = "batch",
    cache: bool = True,
) -> MonteCarloResult:
    """Sample delays, re-analyse, aggregate.

    Delay sampling applies to every arc of the repetitive core (prefix
    arcs cannot affect λ).  Criticality is attributed through each
    sample's backtracked critical cycles; pass
    ``track_criticality=False`` when only the λ distribution matters —
    no backtracking runs at all then, which is the fast path for
    histograms and quantiles.

    ``method="batch"`` (default) sweeps all samples through the fused
    vectorized kernel, with ``batch_size`` bounding per-chunk memory
    and ``workers`` overlapping chunks on a thread pool — or, with
    ``executor="process"``, fanning them over the shared kernel process
    pool so GIL-bound sweeps scale with cores.  ``method="persample"``
    keeps the original rebind-per-trial loop (the executable reference
    — bit-identical λ samples).
    ``cache=True`` (default) resolves the compiled topology through the
    process-wide content-addressed compile cache
    (:func:`repro.service.cache.shared_compiled_graph`), so repeated
    runs over content-equal graphs skip recompilation.
    """
    if samples < 1:
        raise GraphConstructionError("need at least one sample")
    if method not in ("batch", "persample"):
        raise SignalGraphError(
            "unknown Monte-Carlo method %r (choose batch or persample)" % method
        )
    rng = np.random.default_rng(seed)
    if cache:
        from ..service.cache import shared_compiled_graph

        base = shared_compiled_graph(graph)
    else:
        base = compiled_graph(graph)
    matrix = sample_delay_matrix(graph, sampler, samples, rng)
    repetitive = graph.repetitive_events
    hits: Dict[Tuple[Event, Event], int] = {
        arc.pair: 0
        for arc in graph.arcs
        if arc.source in repetitive and arc.target in repetitive
    }
    # Samples count per distinct critical-cycle set, so each set is
    # mapped to its arc pairs once, however many samples share it.
    cycle_sets: Counter = Counter()

    def attribute(critical_cycles) -> None:
        cycle_sets[tuple(cycle.events for cycle in critical_cycles)] += 1

    if method == "batch":
        sweep = run_border_simulations_batch(
            graph,
            BatchBindings(base, matrix),
            batch_size=batch_size,
            workers=workers,
            executor=executor,
        )
        values = sweep.cycle_times()
        if track_criticality:
            for cycles in sweep.critical_cycles():
                attribute(cycles)
    else:
        pairs = [arc.pair for arc in graph.arcs]
        values = np.empty(samples)
        for index in range(samples):
            trial = graph.copy()
            for pair, value in zip(pairs, matrix[index]):
                trial.set_delay(pair[0], pair[1], float(value))
            rebind_compiled(trial, base)
            result = compute_cycle_time(
                trial,
                check=False,
                kernel="float",
                keep_simulations=False,
                backtrack=track_criticality,
            )
            values[index] = float(result.cycle_time)
            if track_criticality:
                attribute(result.critical_cycles)
    for cycle_set, count in cycle_sets.items():
        seen = set()
        for events in cycle_set:
            seen.update(cycle_pairs(events))
        for pair in seen:
            if pair in hits:
                hits[pair] += count
    criticality = (
        {pair: count / samples for pair, count in hits.items()}
        if track_criticality
        else {}
    )
    return MonteCarloResult(samples=values, criticality=criticality, seed=seed)
