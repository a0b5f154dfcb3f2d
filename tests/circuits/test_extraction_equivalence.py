"""The serialised simulator against the quadratic reference loop.

:func:`repro.circuits.extraction.simulate_untimed` keeps the excited
set incrementally and decides periodicity by checking each hash hit
against an exact configuration rebuilt by replay.  It must record the
trace that the loop in ``tests/reference_extraction.py`` records (same
firings, same causes, same ``(prefix_end, window)``) and fail where
that loop fails, with the same error.  One difference is allowed: the
package checks semi-modularity on the trace, so it may raise
:class:`~repro.core.errors.NotSemiModularError` where the reference
goes on, and then exhaustive exploration must reject the netlist too.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.circuits import extraction
from repro.circuits.extraction import simulate_untimed
from repro.circuits.library import (
    c_element_synchronizer_netlist,
    inverter_ring_netlist,
    muller_ring_netlist,
    oscillator_netlist,
)
from repro.circuits.netlist import Netlist
from repro.circuits.state_space import explore
from repro.core.errors import CircuitError, NotSemiModularError
from repro.netlist import corpus, load_corpus, ring_wrap
from tests.reference_extraction import reference_simulate_untimed
from tests.strategies import closed_netlists

LIBRARY = {
    "oscillator": oscillator_netlist,
    "muller3": lambda: muller_ring_netlist(3),
    "muller5": lambda: muller_ring_netlist(5),
    "inverter3": lambda: inverter_ring_netlist(3),
    "inverter5": lambda: inverter_ring_netlist(5),
    "c_sync": c_element_synchronizer_netlist,
}

WRAPPED = {"c17": lambda: ring_wrap(load_corpus("c17"))}
WRAPPED.update(
    ("rca%d" % width, lambda width=width: ring_wrap(corpus.ripple_carry_adder(width)))
    for width in range(1, 5)
)
WRAPPED.update(
    ("sreg%d" % width, lambda width=width: ring_wrap(corpus.shift_register(width)))
    for width in range(2, 9)
)
WRAPPED.update(
    ("mult%d" % width, lambda width=width: ring_wrap(corpus.array_multiplier(width)))
    for width in range(2, 4)
)


def outcome(simulate, netlist: Netlist):
    """``(prefix_end, window, fired)``, or the error's type and message."""
    try:
        trace = simulate(netlist)
    except CircuitError as error:
        return type(error), str(error)
    return trace.prefix_end, trace.window, trace.fired


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_trace_matches_reference(name):
    netlist = LIBRARY[name]()
    assert outcome(simulate_untimed, netlist) == outcome(
        reference_simulate_untimed, netlist
    )


@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_wrapped_trace_matches_reference(name):
    netlist = WRAPPED[name]()
    expected = outcome(reference_simulate_untimed, netlist)
    assert expected[1] > 0  # a periodic trace, not an error
    assert outcome(simulate_untimed, netlist) == expected


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(closed_netlists())
def test_random_netlist_matches_reference(netlist):
    actual = outcome(simulate_untimed, netlist)
    if actual[0] is NotSemiModularError:
        with pytest.raises(NotSemiModularError):
            explore(netlist)
        return
    assert actual == outcome(reference_simulate_untimed, netlist)


@pytest.mark.parametrize("name", ["oscillator", "muller3"])
def test_exact_when_every_step_is_a_hit(name, monkeypatch):
    """With every hash token 0 every configuration hashes alike, so each
    step proposes a repeat with every earlier position; only the exact
    check can tell them apart."""
    monkeypatch.setattr(extraction, "_hash_tokens", lambda count: [0] * count)
    checks = []
    repeat_of = extraction._repeat_of

    def counted(sim, earlier):
        checks.append(len(earlier))
        return repeat_of(sim, earlier)

    monkeypatch.setattr(extraction, "_repeat_of", counted)
    netlist = LIBRARY[name]()
    trace = simulate_untimed(netlist)
    assert checks == list(range(1, trace.prefix_end + trace.window + 1))
    expected = reference_simulate_untimed(netlist)
    assert (trace.prefix_end, trace.window, trace.fired) == (
        expected.prefix_end, expected.window, expected.fired,
    )
