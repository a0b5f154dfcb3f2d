"""Reference exploration: the original dict-based state-space walk.

:func:`repro.circuits.state_space.explore` stores each configuration as
one int and re-evaluates only the gates a firing can affect.  This
module keeps the straightforward version it replaced — dict states,
every gate re-evaluated in every state, every move stored and checked
once exploration ends — so the equivalence tests can hold the compact
engine to it configuration for configuration and move for move.  It
also holds the violating circuits those tests share and the check that
a reported witness is a real violation.

It is deliberately slow and is not part of the package.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.circuits.netlist import Netlist
from repro.core.errors import NotSemiModularError

MOVE = re.compile(r"transition of '(.+?)' disables excited signal '(.+?)' in state")

State = Tuple[int, ...]
Config = Tuple[State, FrozenSet[str]]


# Circuits that are not semi-modular, shared by the state-space tests.
def racing_latch() -> Netlist:
    n = Netlist("race")
    n.add_input("set", initial=1)
    n.add_input("reset", initial=1)
    n.add_gate("q", "NOR", ["reset", "qb"], initial=0)
    n.add_gate("qb", "NOR", ["set", "q"], initial=0)
    n.add_stimulus("set")
    n.add_stimulus("reset")
    return n


def glitching_and() -> Netlist:
    n = Netlist("glitch")
    n.add_input("a", initial=0)
    n.add_gate("b", "NOT", ["a"], initial=1)
    n.add_gate("c", "AND", ["a", "b"], initial=0)
    n.add_stimulus("a")
    return n


def tapped_ring() -> Netlist:
    n = Netlist("tapped-ring")
    n.add_gate("i0", "NOT", ["i2"], initial=0)
    n.add_gate("i1", "NOT", ["i0"], initial=1)
    n.add_gate("i2", "NOT", ["i1"], initial=0)
    n.add_gate("q", "BUF", ["i0"], initial=0)
    return n


class ReferenceSpace:
    def __init__(self, signal_order, states, transitions):
        self.signal_order = signal_order
        self.states: Dict[Config, FrozenSet[str]] = states
        self.transitions: List[Tuple[Config, str, Config]] = transitions

    @property
    def num_states(self) -> int:
        return len(self.states)

    def state_dict(self, state: State) -> Dict[str, int]:
        return dict(zip(self.signal_order, state))


def _excited_signals(
    netlist: Netlist, values: Dict[str, int], pending_stimuli: Iterable[str]
) -> Set[str]:
    excited = {
        gate.output
        for gate in netlist.gates
        if gate.evaluate(values) != values[gate.output]
    }
    excited.update(pending_stimuli)
    return excited


def reference_explore(
    netlist: Netlist, check_semi_modular: bool = True
) -> ReferenceSpace:
    """Every reachable configuration and move; raises on a violation."""
    netlist.validate()
    order = tuple(netlist.signals)
    index = {signal: position for position, signal in enumerate(order)}
    initial_values = netlist.initial_state()
    initial_state = tuple(initial_values[s] for s in order)
    all_stimuli = frozenset(stim.signal for stim in netlist.stimuli)

    start = (initial_state, frozenset())
    states: Dict[Config, FrozenSet[str]] = {}
    moves: List[Tuple[Config, str, Config]] = []
    frontier = [start]
    while frontier:
        config = frontier.pop()
        if config in states:
            continue
        state, fired_stimuli = config
        values = dict(zip(order, state))
        pending = all_stimuli - fired_stimuli
        excited = frozenset(_excited_signals(netlist, values, pending))
        states[config] = excited
        for signal in excited:
            next_state = list(state)
            next_state[index[signal]] = 1 - state[index[signal]]
            next_fired = (
                fired_stimuli | {signal} if signal in pending else fired_stimuli
            )
            successor = (tuple(next_state), next_fired)
            moves.append((config, signal, successor))
            if successor not in states:
                frontier.append(successor)

    space = ReferenceSpace(order, states, moves)
    if check_semi_modular:
        for config, signal, successor in moves:
            lost = (states[config] - {signal}) - states[successor]
            if lost:
                witness = sorted(lost)[0]
                raise NotSemiModularError(
                    "transition of %r disables excited signal %r in state %s"
                    % (signal, witness, space.state_dict(config[0])),
                    state=space.state_dict(config[0]),
                    signal=witness,
                )
    return space


def assert_real_violation(netlist: Netlist, error: NotSemiModularError) -> None:
    """The witness is a reachable move that disables an excited signal.

    ``error.state`` must be the signal values of a reachable
    configuration in which the move named in the message is possible,
    ``error.signal`` is excited, and the move leaves it unexcited.
    """
    fired, signal = MOVE.match(str(error)).groups()
    assert signal == error.signal
    space = reference_explore(netlist, check_semi_modular=False)
    state = tuple(error.state[name] for name in space.signal_order)
    witnessed = [
        (config, successor)
        for config, moved, successor in space.transitions
        if config[0] == state and moved == fired
    ]
    assert witnessed, "the named move is not reachable"
    assert any(
        signal in space.states[config] and signal not in space.states[successor]
        for config, successor in witnessed
    ), "the named move does not disable the witness"
