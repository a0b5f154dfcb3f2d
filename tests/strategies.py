"""Hypothesis strategies shared across property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.circuits.netlist import Netlist
from repro.generators import random_live_tsg, token_ring


def live_tsgs(max_events: int = 10, max_extra: int = 12, max_delay: int = 8):
    """Strategy producing random live strongly-connected TSGs."""
    return st.builds(
        random_live_tsg,
        events=st.integers(min_value=2, max_value=max_events),
        extra_arcs=st.integers(min_value=0, max_value=max_extra),
        max_delay=st.integers(min_value=0, max_value=max_delay),
        seed=st.integers(min_value=0, max_value=10_000),
    )


def _build_ring(stages, tokens, forward, backward):
    tokens = max(1, min(tokens, stages - 1))
    return (token_ring(stages, tokens, forward, backward), stages, tokens, forward, backward)


def token_rings():
    """Strategy producing full/empty token rings with a known λ."""
    return st.builds(
        _build_ring,
        stages=st.integers(min_value=2, max_value=12),
        tokens=st.integers(min_value=1, max_value=11),
        forward=st.integers(min_value=0, max_value=9),
        backward=st.integers(min_value=0, max_value=9),
    )


#: (gate type, fewest inputs, most inputs) drawn by the strategy.
FIXED_TYPES = (
    ("BUF", 1, 1), ("NOT", 1, 1), ("AND", 2, 3), ("OR", 2, 3),
    ("NAND", 2, 3), ("NOR", 2, 3), ("XOR", 2, 3), ("XNOR", 2, 2),
    ("C", 2, 3), ("NC", 2, 3), ("MAJ", 3, 3), ("SR", 2, 2),
)


@st.composite
def closed_netlists(draw) -> Netlist:
    """Closed netlists of at most 8 signals.

    Gates may read any signal, themselves and later gates included, so
    feedback loops are common; inputs may carry one-shot stimuli; the
    gate mix covers the state-holding C, NC, SR and ``GC:`` cells and
    ``LUT:`` truth tables.  Initial values are free, so many draws are
    not semi-modular.
    """
    n_inputs = draw(st.integers(0, 2))
    n_gates = draw(st.integers(1, 8 - n_inputs))
    inputs = ["x%d" % i for i in range(n_inputs)]
    outputs = ["g%d" % i for i in range(n_gates)]
    signals = inputs + outputs
    netlist = Netlist("random")
    for name in inputs:
        netlist.add_input(name, initial=draw(st.integers(0, 1)))
        if draw(st.booleans()):
            netlist.add_stimulus(name)
    for name in outputs:
        kind = draw(st.sampled_from(("fixed", "fixed", "LUT", "GC")))
        if kind == "fixed":
            gate_type, low, high = draw(st.sampled_from(
                [entry for entry in FIXED_TYPES if entry[1] <= len(signals)]
            ))
        else:
            gate_type, low, high = kind, 1, 3
        arity = draw(st.integers(low, min(high, len(signals))))
        pins = draw(st.permutations(signals))[:arity]
        combos = 1 << (1 << arity)
        if gate_type == "LUT":
            gate_type = "LUT:%x" % draw(st.integers(0, combos - 1))
        elif gate_type == "GC":
            set_mask = draw(st.integers(0, combos - 1))
            reset_mask = draw(st.integers(0, combos - 1)) & ~set_mask
            gate_type = "GC:%x:%x" % (set_mask, reset_mask)
        netlist.add_gate(name, gate_type, pins, initial=draw(st.integers(0, 1)))
    return netlist
