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
from tests.strategies import closed_netlists


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
