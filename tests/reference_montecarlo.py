"""Reference delay draw: one sampler call per repetitive arc.

:func:`repro.analysis.montecarlo.sample_delay_matrix` draws a whole
sweep with one sampler call into an arc-major ``(k, S)`` block and
returns the transposed view.  This module keeps the per-column version
it replaced — one ``draw_delays`` call per repetitive arc, each
writing one column of a C-ordered ``(S, m)`` matrix — so the
equivalence tests can hold the package to it bit for bit: same
stream, same values, same nominal columns for prefix arcs.

It is deliberately slow and is not part of the package.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.core.errors import SignalGraphError


def accepts_size(sampler) -> bool:
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


def draw_column(rng: np.random.Generator, sampler, nominal: float, samples: int):
    """``samples`` draws around one scalar ``nominal`` delay."""
    if accepts_size(sampler):
        values = np.asarray(sampler(rng, nominal, size=samples), dtype=np.float64)
        if values.shape != (samples,):
            raise SignalGraphError(
                "sampler returned shape %r, expected %r"
                % (values.shape, (samples,))
            )
        return values
    out = np.empty(samples, dtype=np.float64)
    for index in range(samples):
        out[index] = sampler(rng, float(nominal))
    return out


def reference_delay_matrix(graph, sampler, samples: int, rng) -> np.ndarray:
    """The C-ordered ``(S, m)`` matrix, drawn one arc column at a time."""
    repetitive = graph.repetitive_events
    arcs = graph.arcs
    nominal = np.asarray([float(arc.delay) for arc in arcs], dtype=np.float64)
    matrix = np.tile(nominal, (samples, 1))
    for column, arc in enumerate(arcs):
        if arc.source in repetitive and arc.target in repetitive:
            matrix[:, column] = draw_column(
                rng, sampler, float(arc.delay), samples
            )
    return matrix
