"""Explicit state-space analysis of closed gate-level circuits.

The extractor (and the paper's distributivity requirement) rests on the
circuit being *semi-modular*: once a gate is excited it stays excited
until it fires — no transition of another signal may disable it.
Semi-modularity implies speed-independence for the circuit class at
hand (Section VIII-A); we verify it by exhaustive exploration of every
interleaving from the initial state, which is exact.

A configuration is one int: bit ``i`` is the value of
``netlist.signals[i]``, and bit ``n + k`` marks stimulus ``k`` as
consumed (one-shot input stimuli fire exactly once, mirroring the
paper's treatment of the circuit input ``e``).  Per configuration the
exploration stores only its excitation mask, bit ``i`` set when signal
``i`` is excited.  Each gate is compiled once into the mask of its
pins and a table from ``config & mask`` to its excitation bit, filled
on demand through :meth:`~repro.circuits.netlist.Gate.evaluate`, so
the gate semantics stay in :mod:`repro.circuits.gates`.  Firing signal
``i`` re-evaluates only the gates that read ``i`` and the gate that
drives it; every other excitation bit carries over from the parent.

Semi-modularity is checked on every move as it is made: the move
``X --s--> Y`` disables a signal when ``exc[X] & ~bit(s) & ~exc[Y]``
is non-zero, and the first such move is the witness.  No move list is
kept.  Measured costs (2-core x86 container, CPython 3.11): wrapped
c17 (24 signals, 33,600 configurations, 170,384 moves) explores in
~0.2 s; wrapped rca2 (34 signals, 1,369,984 configurations, 9,729,088
moves) in ~10 s at ~220 MB peak RSS.  The state count grows with the
circuit's concurrency, not its signal count, so large netlists belong
on the structural extraction path.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.errors import NotSemiModularError, StateSpaceLimitError
from .netlist import Gate, Netlist

State = Tuple[int, ...]
Config = Tuple[State, FrozenSet[str]]


class _ExcitationTable(dict):
    """One gate's ``config & pin mask -> excitation bit``, filled on demand."""

    __slots__ = ("gate", "pins", "out_bit")

    def __init__(self, gate: Gate, pins: Sequence[Tuple[str, int]], out_bit: int):
        super().__init__()
        self.gate = gate
        self.pins = tuple(pins)
        self.out_bit = out_bit

    def __missing__(self, key: int) -> int:
        values = {name: 1 if key & bit else 0 for name, bit in self.pins}
        excited = self.gate.evaluate(values) != values[self.gate.output]
        self[key] = bit = self.out_bit if excited else 0
        return bit


class StateSpace:
    """Reachability analysis result.

    ``num_states`` reachable configurations and ``num_moves`` moves
    were explored.  ``states`` (each configuration — signal values
    plus the set of stimuli already consumed — mapped to the set of
    signals excited there) and ``transitions`` (every move) are views
    built from the compact configuration map on first access.
    """

    def __init__(
        self,
        netlist: Netlist,
        signal_order: Tuple[str, ...],
        excitation: Dict[int, int],
        flips: Tuple[int, ...],
        num_moves: int,
    ):
        self.netlist = netlist
        self.signal_order = signal_order
        self.num_moves = num_moves
        self._excitation = excitation
        self._flips = flips
        self._stimuli = tuple(stim.signal for stim in netlist.stimuli)

    @property
    def num_states(self) -> int:
        return len(self._excitation)

    def state_dict(self, state: State) -> Dict[str, int]:
        """A ``{signal: value}`` view of a state tuple."""
        return dict(zip(self.signal_order, state))

    def _config(self, config: int) -> Config:
        width = len(self.signal_order)
        state = tuple((config >> i) & 1 for i in range(width))
        consumed = frozenset(
            signal for k, signal in enumerate(self._stimuli)
            if config >> (width + k) & 1
        )
        return state, consumed

    def _signals(self, mask: int) -> List[int]:
        return [i for i in range(len(self.signal_order)) if mask >> i & 1]

    @cached_property
    def states(self) -> Dict[Config, FrozenSet[str]]:
        order = self.signal_order
        return {
            self._config(config): frozenset(order[i] for i in self._signals(mask))
            for config, mask in self._excitation.items()
        }

    @cached_property
    def transitions(self) -> List[Tuple[Config, str, Config]]:
        moves = []
        for config, mask in self._excitation.items():
            source = self._config(config)
            for i in self._signals(mask):
                moves.append((
                    source, self.signal_order[i],
                    self._config(config ^ self._flips[i]),
                ))
        return moves


def explore(
    netlist: Netlist,
    max_states: Optional[int] = None,
    check_semi_modular: bool = True,
    max_steps: Optional[int] = None,
) -> StateSpace:
    """Exhaustively explore all interleavings from the initial state.

    Raises :class:`~repro.core.errors.NotSemiModularError` at the first
    move that disables another excited gate, if ``check_semi_modular``
    is set.  Excited signals fire in signal-index order, so the
    witness (the move's source ``state`` and the lowest-index disabled
    ``signal``) does not depend on hashing.

    Exploration is budgeted: at most ``max_states`` reachable
    configurations and (when given) ``max_steps`` explored moves.  The
    default ``max_states`` bounds the configuration bits held rather
    than the count: 2,000,000 configurations up to 64 bits wide (signals
    plus stimuli), ``2_000_000 * 64 // width`` beyond.  An exhausted
    budget raises a structured
    :class:`~repro.core.errors.StateSpaceLimitError`; a violation met
    before then is the verdict.  The state space of a wide circuit
    grows exponentially in its concurrency, so such a netlist should
    go through the structural extraction path instead of a bigger
    budget.
    """
    netlist.validate()
    order = tuple(netlist.signals)
    width = len(order)
    index = {signal: i for i, signal in enumerate(order)}
    if max_states is None:
        max_states = 2_000_000 * 64 // max(64, width + len(netlist.stimuli))

    # Firing signal i flips its value bit; a stimulus also sets its
    # consumed bit, which keeps the input from firing again.
    flips = [1 << i for i in range(width)]
    start_mask = 0
    for k, stim in enumerate(netlist.stimuli):
        flips[index[stim.signal]] |= 1 << (width + k)
        start_mask |= 1 << index[stim.signal]

    # affected[i]: the gates whose excitation a firing of i can change,
    # i.e. its readers and the gate that drives it, each as (pin mask,
    # table).
    initial = netlist.initial_state()
    start = sum(1 << i for i, signal in enumerate(order) if initial[signal])
    affected: List[List[Tuple[int, _ExcitationTable]]] = [[] for _ in order]
    for gate in netlist.gates:
        pins = [index[name] for name in dict.fromkeys(gate.inputs + (gate.output,))]
        gate_mask = sum(1 << i for i in pins)
        table = _ExcitationTable(
            gate, [(order[i], 1 << i) for i in pins], 1 << index[gate.output]
        )
        start_mask |= table[start & gate_mask]
        for i in pins:
            affected[i].append((gate_mask, table))
    # One step per signal, keyed by its bit (the firing loop peels
    # excited bits off lowest first): the flip, the mask that clears
    # the fired bit and the affected outputs, and the affected gates.
    steps = {}
    for i in range(width):
        cleared = 1 << i
        for _, table in affected[i]:
            cleared |= table.out_bit
        steps[1 << i] = (flips[i], ~cleared, tuple(affected[i]))

    step_limit = max_steps if max_steps is not None else float("inf")
    excitation = {start: start_mask}
    stack = [start]
    moves = 0
    while stack:
        if len(excitation) > max_states or moves > step_limit:
            raise _budget_error(len(excitation), moves, max_states, max_steps)
        config = stack.pop()
        mask = excitation[config]
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            flip, kept, gates = steps[low]
            successor = config ^ flip
            after = excitation.get(successor)
            if after is None:
                after = mask & kept
                for gate_mask, table in gates:
                    after |= table[successor & gate_mask]
                excitation[successor] = after
                stack.append(successor)
            moves += 1
            if (mask ^ low) & ~after and check_semi_modular:
                raise _violation(order, config, low, (mask ^ low) & ~after)
    if moves > step_limit:
        raise _budget_error(len(excitation), moves, max_states, max_steps)
    return StateSpace(netlist, order, excitation, tuple(flips), moves)


def _budget_error(states: int, moves: int, max_states: int,
                  max_steps: Optional[int]) -> StateSpaceLimitError:
    if states > max_states:
        message = (
            "state space exceeded %d states after %d moves; exploration "
            "abandoned (use the structural extraction path for large "
            "netlists)" % (max_states, moves)
        )
    else:
        message = "exploration exceeded %d moves across %d states; abandoned" % (
            max_steps, states,
        )
    return StateSpaceLimitError(
        message, states=states, steps=moves,
        max_states=max_states, max_steps=max_steps,
    )


def _violation(order: Tuple[str, ...], config: int, fired: int,
               lost: int) -> NotSemiModularError:
    """The witness of a violating move: its source state and the
    lowest-index signal it disables."""
    state = {signal: (config >> i) & 1 for i, signal in enumerate(order)}
    signal = order[(lost & -lost).bit_length() - 1]
    return NotSemiModularError(
        "transition of %r disables excited signal %r in state %s"
        % (order[fired.bit_length() - 1], signal, state),
        state=state,
        signal=signal,
    )


def is_semi_modular(netlist: Netlist, max_states: Optional[int] = None) -> bool:
    """Boolean wrapper around :func:`explore`'s semi-modularity check.

    A :class:`~repro.core.errors.StateSpaceLimitError` propagates: an
    abandoned exploration is neither a yes nor a no.
    """
    try:
        explore(netlist, max_states=max_states, check_semi_modular=True)
    except NotSemiModularError:
        return False
    return True
