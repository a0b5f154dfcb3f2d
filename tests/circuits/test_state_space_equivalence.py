"""The compact exploration engine against the dict-based reference.

:func:`repro.circuits.state_space.explore` must visit exactly the
configurations and moves the reference walk visits and reach the same
semi-modularity verdict.  When both reject a circuit, the compact
engine's witness must be a real violation: a reachable configuration
in which the witness signal is excited and the named move disables it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro.circuits.library import (
    c_element_synchronizer_netlist,
    inverter_ring_netlist,
    muller_ring_netlist,
    oscillator_netlist,
)
from repro.circuits.netlist import Netlist
from repro.circuits.state_space import explore
from repro.core.errors import NotSemiModularError
from repro.netlist import corpus, load_corpus, ring_wrap
from tests.reference_state_space import (
    assert_real_violation,
    glitching_and,
    racing_latch,
    reference_explore,
    tapped_ring,
)


LIBRARY = {
    "oscillator": oscillator_netlist,
    "muller3": lambda: muller_ring_netlist(3),
    "muller5": lambda: muller_ring_netlist(5),
    "inverter3": lambda: inverter_ring_netlist(3),
    "inverter5": lambda: inverter_ring_netlist(5),
    "c_sync": c_element_synchronizer_netlist,
    "racing_latch": racing_latch,
    "glitching_and": glitching_and,
    "tapped_ring": tapped_ring,
}

WRAPPED = {
    "c17": lambda: ring_wrap(load_corpus("c17")),
    "rca1": lambda: ring_wrap(corpus.ripple_carry_adder(1)),
}
WRAPPED.update(
    ("sreg%d" % width, lambda width=width: ring_wrap(corpus.shift_register(width)))
    for width in range(2, 9)
)


def assert_equivalent(netlist: Netlist) -> None:
    try:
        expected = reference_explore(netlist)
    except NotSemiModularError:
        with pytest.raises(NotSemiModularError) as info:
            explore(netlist)
        assert_real_violation(netlist, info.value)
        return
    space = explore(netlist)
    assert space.num_states == expected.num_states
    assert space.states == expected.states
    assert space.num_moves == len(expected.transitions)
    assert len(space.transitions) == space.num_moves
    assert set(space.transitions) == set(expected.transitions)


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_circuit_matches_reference(name):
    assert_equivalent(LIBRARY[name]())


@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_wrapped_circuit_matches_reference(name):
    assert_equivalent(WRAPPED[name]())


# ----------------------------------------------------------------------
# random closed netlists
# ----------------------------------------------------------------------

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


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(closed_netlists())
def test_random_netlist_matches_reference(netlist):
    assert_equivalent(netlist)


def _semi_modular(netlist: Netlist) -> bool:
    try:
        reference_explore(netlist)
    except NotSemiModularError:
        return False
    return True


def _has_feedback(netlist: Netlist) -> bool:
    """Some gate reads itself or a gate added after it."""
    position = {gate.output: k for k, gate in enumerate(netlist.gates)}
    return any(
        position.get(name, -1) >= position[gate.output]
        for gate in netlist.gates
        for name in gate.inputs
    )


@pytest.mark.parametrize("verdict", [True, False])
def test_strategy_covers_both_verdicts(verdict):
    """The random suite meets semi-modular and violating circuits with
    stimuli, feedback and state-holding cells alike."""

    def wanted(netlist: Netlist) -> bool:
        return bool(
            netlist.stimuli
            and _has_feedback(netlist)
            and any(gate.state_holding for gate in netlist.gates)
            and reference_explore(netlist, check_semi_modular=False).num_states > 2
            and _semi_modular(netlist) is verdict
        )

    find(closed_netlists(), wanted,
         settings=settings(max_examples=5000, database=None, phases=[Phase.generate]))
