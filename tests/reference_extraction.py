"""Reference serialised simulation: the original quadratic loop.

:func:`repro.circuits.extraction.simulate_untimed` tracks the excited
set incrementally and proposes repeats with a 64-bit hash, checking
each proposal exactly.  This module keeps the straightforward version
it replaced — every gate re-evaluated at every step, one full
configuration snapshot stored per step — so the equivalence tests can
hold the package to it transition for transition: same firing order,
same causes, same ``(prefix_end, window)``.

It is deliberately slow and is not part of the package.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.circuits.extraction import FiredTransition, Trace, compute_cause_set
from repro.circuits.netlist import Netlist
from repro.core.errors import ExtractionError
from repro.core.events import FALL, RISE


class ReferenceSimulator:
    """Serialised untimed simulation with cause recording."""

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self.values: Dict[str, int] = netlist.initial_state()
        self.pending_stimuli: Set[str] = {s.signal for s in netlist.stimuli}
        # For each gate output: the trace index of the last transition of
        # each input that happened since the gate last fired.
        self.news: Dict[str, Dict[str, int]] = {
            gate.output: {} for gate in netlist.gates
        }
        self.occurrences: Dict[Tuple[str, str], int] = {}
        self.trace: List[FiredTransition] = []

    def excited(self) -> List[str]:
        excited = [
            gate.output
            for gate in self.netlist.gates
            if gate.evaluate(self.values) != self.values[gate.output]
        ]
        excited.extend(self.pending_stimuli)
        return sorted(excited)

    def snapshot(self):
        """Configuration determining all future behaviour."""
        news = tuple(
            (output, frozenset(changed))
            for output, changed in sorted(self.news.items())
        )
        return (
            tuple(sorted(self.values.items())),
            frozenset(self.pending_stimuli),
            news,
        )

    def fire(self, signal: str) -> FiredTransition:
        new = 1 - self.values[signal]
        if self.netlist.is_input(signal):
            causes: Tuple[int, ...] = ()
            self.pending_stimuli.discard(signal)
        else:
            causes = compute_cause_set(
                self.netlist.gate(signal), new, self.values, self.news[signal]
            )
            self.news[signal] = {}
        self.values[signal] = new
        direction = RISE if new == 1 else FALL
        occurrence = self.occurrences.get((signal, direction), 0)
        self.occurrences[(signal, direction)] = occurrence + 1
        record = FiredTransition(
            signal=signal,
            rising=(new == 1),
            occurrence=occurrence,
            causes=causes,
            position=len(self.trace),
        )
        self.trace.append(record)
        for gate in self.netlist.fanout(signal):
            self.news[gate.output][signal] = record.position
        return record


def reference_simulate_untimed(
    netlist: Netlist, max_transitions: int = 100_000
) -> Trace:
    """Run the serialised simulation until the regime repeats twice."""
    sim = ReferenceSimulator(netlist)
    seen: Dict[object, int] = {}
    prefix_end: Optional[int] = None
    window = 0
    while len(sim.trace) <= max_transitions:
        snap = sim.snapshot()
        if snap in seen:
            prefix_end = seen[snap]
            window = len(sim.trace) - prefix_end
            break
        seen[snap] = len(sim.trace)
        excited = sim.excited()
        if not excited:
            return Trace(netlist, sim.trace, len(sim.trace), 0)
        sim.fire(excited[0])
    if prefix_end is None:
        raise ExtractionError(
            "no periodic regime within %d transitions" % max_transitions
        )
    target = prefix_end + 3 * window
    while len(sim.trace) < target:
        excited = sim.excited()
        if not excited:
            raise ExtractionError("circuit went quiescent inside periodic regime")
        sim.fire(excited[0])
    return Trace(netlist, sim.trace, prefix_end, window)
