"""Per-firing delay jitter and its throughput penalty.

The paper's model fixes each arc's delay; real gates jitter from
firing to firing.  Two different questions follow:

* :mod:`repro.analysis.montecarlo` — delays random but *frozen* per
  sample (process variation): λ is a random variable, its mean close
  to λ(nominal);
* this module — delays re-sampled **at every firing** (dynamic
  jitter): the long-run average occurrence distance λ̄ satisfies::

      λ̄  >=  λ(mean delays)

  because MAX-causality makes occurrence times ``E[max] >= max E``
  (Jensen's inequality applied to the max-plus recursion).  The gap is
  the *jitter penalty*: zero-slack systems pay for variance even when
  the mean delays are unchanged.

:func:`stochastic_cycle_time` estimates λ̄ by replaying the fused
period programs of :mod:`repro.core.kernel` with a freshly sampled
``(R, m)`` delay matrix per period — ``R`` independent *replications*
advance in lockstep through the same vectorized max-plus sweep, so
tightening the estimate costs one wider NumPy array, not another full
simulation.  :func:`jitter_penalty` reports
the penalty against the deterministic mean-delay analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..core.arithmetic import Number
from ..core.cycle_time import compute_cycle_time
from ..core.errors import SignalGraphError
from ..core.events import as_event, event_label
from ..core.kernel import _batch_structure_of, _run_fused_level, compiled_graph
from ..core.signal_graph import TimedSignalGraph
from .montecarlo import DelaySampler, draw_delays


@dataclass
class JitterResult:
    """Estimated long-run behaviour under per-firing jitter."""

    average_distance: float     # λ̄ estimate (mean over replications)
    deterministic: float        # λ at the nominal delays
    periods: int
    seed: int
    replications: int = 1
    spread: float = 0.0         # std of the estimate across replications

    @property
    def penalty(self) -> float:
        """λ̄ − λ(nominal): the throughput cost of jitter."""
        return self.average_distance - self.deterministic

    @property
    def relative_penalty(self) -> float:
        if self.deterministic == 0:
            return 0.0
        return self.penalty / self.deterministic

    def __str__(self) -> str:
        return (
            "jittered λ̄ ≈ %.4f vs deterministic λ = %.4f "
            "(penalty %.4f, %+.1f%%)"
            % (
                self.average_distance,
                self.deterministic,
                self.penalty,
                100 * self.relative_penalty,
            )
        )


def stochastic_cycle_time(
    graph: TimedSignalGraph,
    sampler: DelaySampler,
    periods: int = 400,
    warmup: int = 50,
    seed: int = 0,
    witness=None,
    replications: int = 1,
) -> JitterResult:
    """Estimate λ̄ by timing simulation with per-firing random delays.

    Runs the global timing-simulation recursion over ``periods``
    unfolding periods, drawing a fresh delay for every arc instance,
    and returns the average occurrence distance of ``witness``
    (default: the first border event; must be a repetitive event) over
    the post-``warmup`` stretch.  ``replications`` independent runs
    share each vectorized period sweep; ``average_distance`` is their
    mean and ``spread`` their standard deviation.
    """
    if periods <= warmup:
        raise SignalGraphError("periods must exceed warmup")
    if warmup < 0:
        raise SignalGraphError("warmup must be non-negative")
    if replications < 1:
        raise SignalGraphError("need at least one replication")
    rng = np.random.default_rng(seed)
    cg = compiled_graph(graph)
    plan = _batch_structure_of(cg).fused_plan(1)
    n, frames = plan.n, plan.frames
    if witness is None:
        border = graph.border_events
        if not border:
            raise SignalGraphError("graph has no border events")
        witness = border[0]
    else:
        witness = as_event(witness)
    if witness not in graph.repetitive_events:
        raise SignalGraphError(
            "witness %s must be a repetitive event" % event_label(witness)
        )
    witness_id = cg.id_of[witness]

    nominal = np.asarray(
        [float(arc.delay) for arc in graph.arcs], dtype=np.float64
    )
    shape = (replications, len(nominal))
    # Slot-major frame ring: period p lives in frame p % frames.
    buffer = np.empty((frames * n, replications))
    workspace = np.empty((max(plan.max_level_arcs, 1), replications))

    def sweep(program) -> None:
        dmat_t = draw_delays(rng, sampler, nominal, shape).T[program.cols]
        for level in program.levels:
            _run_fused_level(level, dmat_t, buffer, workspace, 1)
            if level.empty is not None:
                # The global simulation starts events without a
                # predecessor at time 0; the plan leaves them at -inf,
                # the border-initiated convention.
                buffer[level.empty] = 0.0

    def witness_times(period: int) -> np.ndarray:
        return buffer[(period % frames) * n + witness_id]

    sweep(plan.p0)
    start = witness_times(0).copy() if warmup == 0 else None
    for period in range(1, periods + 1):
        sweep(plan.p1 if period == 1 else plan.steady[(period - 1) % frames])
        if period == warmup:
            start = witness_times(period).copy()
    averages = (witness_times(periods) - start) / (periods - warmup)
    deterministic = float(compute_cycle_time(graph).cycle_time)
    return JitterResult(
        average_distance=float(np.mean(averages)),
        deterministic=deterministic,
        periods=periods,
        seed=seed,
        replications=replications,
        spread=float(np.std(averages)),
    )


def jitter_penalty(
    graph: TimedSignalGraph,
    sampler: DelaySampler,
    periods: int = 400,
    seed: int = 0,
) -> float:
    """Convenience wrapper returning only λ̄ − λ(nominal)."""
    return stochastic_cycle_time(graph, sampler, periods=periods, seed=seed).penalty
