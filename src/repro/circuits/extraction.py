"""Signal Graph extraction from a gate-level netlist.

This is the reproduction's substitute for the TRASPEC tool of
FORCAGE 3.0 (reference [9] of the paper): given a circuit and an
initial state it

1. verifies the circuit is semi-modular (speed-independent) by
   exhaustive state-space exploration;
2. simulates one (deterministic, serialised) behaviour, recording for
   every fired transition its **AND-cause set**: the input transitions
   that are *necessary* (flipping them would disable the new output
   value — the controlling-value test) and *new* (occurred since the
   gate's previous output transition);
3. detects the quasi-periodic regime — the first configuration
   (signal values, pending stimuli, per-gate news) that repeats, found
   through a hash and decided by exact comparison;
4. folds the trace into a Timed Signal Graph: causes inside the
   periodic window become arcs (marked when they cross a window
   boundary), causes out of the non-repetitive prefix become
   disengageable arcs;
5. verifies the fold: every recorded firing, prefix included, must be
   exactly explained by the folded graph's in-arcs.

OR-causality (a transition with an empty necessary-and-new cause set
while inputs did change) is reported as a
:class:`~repro.core.errors.DistributivityError`, matching TRASPEC's
contract of rejecting non-distributive circuits.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.errors import DistributivityError, ExtractionError, NotSemiModularError
from ..core.events import FALL, RISE, Transition
from ..core.signal_graph import TimedSignalGraph
from .gates import evaluate
from .netlist import Gate, Netlist
from .state_space import explore


@dataclass
class FiredTransition:
    """One transition of the recorded behaviour."""

    signal: str
    rising: bool
    occurrence: int          # k-th transition of (signal, direction), from 0
    causes: Tuple[int, ...]  # indices into the trace
    position: int            # index of this record in the trace

    @property
    def direction(self) -> str:
        return RISE if self.rising else FALL

    @property
    def key(self) -> Tuple[str, str]:
        return (self.signal, self.direction)

    def event(self) -> Transition:
        return Transition(self.signal, self.direction)

    def __str__(self) -> str:
        return "%s%s[%d]" % (self.signal, self.direction, self.occurrence)


@dataclass
class Trace:
    """A serialised behaviour with periodicity markers.

    ``prefix_end`` and ``window`` delimit the detected periodic regime:
    transitions ``[prefix_end, prefix_end + window)`` repeat forever.
    A quiescent circuit has ``window == 0``.
    """

    netlist: Netlist
    fired: List[FiredTransition]
    prefix_end: int
    window: int

    @property
    def is_periodic(self) -> bool:
        return self.window > 0

    def window_slice(self, copy: int = 0) -> List[FiredTransition]:
        """The transitions of periodic-window copy ``copy`` (0-based)."""
        start = self.prefix_end + copy * self.window
        return self.fired[start : start + self.window]


def _hash_tokens(count: int) -> List[int]:
    """``count`` fixed 64-bit Zobrist tokens.

    A hash hit only proposes a repeat and every proposal is checked
    exactly, so the tokens need no property beyond being fixed.
    """
    rng = random.Random(0)
    return [rng.getrandbits(64) for _ in range(count)]


class _Simulator:
    """Serialised untimed simulation with cause recording.

    Always fires the lexicographically smallest excited signal.  The
    excited set is kept incrementally (a lazy heap and a fanout map),
    so a firing costs O(fanout) rather than O(gates), and so is a
    64-bit Zobrist ``hash`` of the :meth:`snapshot`: which signals are
    1, which stimuli are pending and which (gate, input) news entries
    exist.  A firing that disables another excited gate raises
    :class:`~repro.core.errors.NotSemiModularError`.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self.values: Dict[str, int] = netlist.initial_state()
        self.pending_stimuli: Set[str] = {s.signal for s in netlist.stimuli}
        self.gate_of: Dict[str, Gate] = {gate.output: gate for gate in netlist.gates}
        # For each gate output: the trace index of the last transition of
        # each input that happened since the gate last fired.
        self.news: Dict[str, Dict[str, int]] = {output: {} for output in self.gate_of}
        self.occurrences: Dict[Tuple[str, str], int] = {}
        self.trace: List[FiredTransition] = []

        self.fanout: Dict[str, List[Gate]] = {}
        pins = []
        for gate in self.gate_of.values():
            for name in dict.fromkeys(gate.inputs):
                self.fanout.setdefault(name, []).append(gate)
                pins.append((gate.output, name))
        tokens = _hash_tokens(2 * len(self.values) + len(pins))
        self._value_token = dict(zip(self.values, tokens))
        self._stimulus_token = dict(zip(self.values, tokens[len(self.values):]))
        self._news_token = dict(zip(pins, tokens[2 * len(self.values):]))
        self.hash = 0
        for signal, value in self.values.items():
            if value:
                self.hash ^= self._value_token[signal]
        for signal in self.pending_stimuli:
            self.hash ^= self._stimulus_token[signal]

        self.excited: Set[str] = {
            output for output, gate in self.gate_of.items()
            if gate.evaluate(self.values) != self.values[output]
        } | self.pending_stimuli
        self._heap: List[str] = sorted(self.excited)

    def min_excited(self) -> Optional[str]:
        """The lexicographically smallest excited signal: the next to fire."""
        heap = self._heap
        while heap and heap[0] not in self.excited:
            heapq.heappop(heap)  # stale entry: the signal already fired
        return heap[0] if heap else None

    def snapshot(self):
        """The configuration that determines all future behaviour."""
        return (
            tuple(self.values.values()),
            frozenset(self.pending_stimuli),
            tuple(frozenset(news) for news in self.news.values()),
        )

    def fire(self, signal: str) -> FiredTransition:
        new = 1 - self.values[signal]
        gate = self.gate_of.get(signal)
        if gate is None:  # a stimulated input
            causes: Tuple[int, ...] = ()
            self.pending_stimuli.discard(signal)
            self.hash ^= self._stimulus_token[signal]
        else:
            causes = compute_cause_set(gate, new, self.values, self.news[signal])
            for name in self.news[signal]:
                self.hash ^= self._news_token[(signal, name)]
            self.news[signal] = {}
        self.values[signal] = new
        self.hash ^= self._value_token[signal]
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

        self.excited.discard(signal)
        for reader in self.fanout.get(signal, ()):
            news = self.news[reader.output]
            if signal not in news:
                self.hash ^= self._news_token[(reader.output, signal)]
            news[signal] = record.position
            self._update(reader, signal)
        if gate is not None:
            # The driving gate's excitation depends on its own output
            # value too (state-holding cells, free-running oscillators).
            self._update(gate, signal)
        return record

    def _update(self, gate: Gate, fired: str) -> None:
        output = gate.output
        if gate.evaluate(self.values) != self.values[output]:
            if output not in self.excited:
                self.excited.add(output)
                heapq.heappush(self._heap, output)
        elif output in self.excited:
            raise NotSemiModularError(
                "firing %s%s disabled excited gate %s: the circuit is "
                "not semi-modular on the serialised trace"
                % (fired, RISE if self.values[fired] else FALL, output),
                state=dict(self.values),
                signal=output,
            )


def compute_cause_set(
    gate: Gate,
    new_value: int,
    values: Dict[str, int],
    news: Dict[str, int],
) -> Tuple[int, ...]:
    """Necessary-and-new input transitions for an output change."""
    input_values = [values[name] for name in gate.inputs]
    necessary = []
    for pin, name in enumerate(gate.inputs):
        flipped = list(input_values)
        flipped[pin] = 1 - flipped[pin]
        still = evaluate(gate.gate_type, flipped, values[gate.output])
        if still != new_value:
            necessary.append(name)
    causes = tuple(
        sorted(news[name] for name in necessary if name in news)
    )
    if not causes and news:
        raise DistributivityError(
            "transition %s%s has no necessary-and-new cause: OR-causality "
            "or hazard (necessary inputs: %s, new inputs: %s)"
            % (
                gate.output,
                RISE if new_value else FALL,
                necessary,
                sorted(news),
            ),
            transition=(gate.output, new_value),
        )
    return causes


def _repeat_of(sim: _Simulator, earlier: List[int]) -> Optional[int]:
    """The position in ``earlier`` whose configuration equals ``sim``'s.

    Each earlier configuration is rebuilt by replaying the recorded
    firings on a fresh simulator, so no snapshot is stored per step.
    """
    current = sim.snapshot()
    replay = _Simulator(sim.netlist)
    for position in earlier:
        for record in sim.trace[len(replay.trace):position]:
            replay.fire(record.signal)
        if replay.snapshot() == current:
            return position
    return None


def simulate_untimed(netlist: Netlist, max_transitions: int = 100_000) -> Trace:
    """Run the serialised simulation until its configuration repeats.

    ``prefix_end`` is the first position whose configuration recurs,
    ``window`` the distance to its recurrence, and the returned trace
    holds the prefix plus three copies of the window (so folding can
    read settled arcs and verification can cross-check two window
    boundaries).  A hash hit only proposes a repeat: it is checked
    against the exact configuration of every earlier position with the
    same hash, so a collision costs a replay, never a wrong window.

    Raises :class:`~repro.core.errors.NotSemiModularError` when a
    firing disables another excited gate (never, on a circuit
    :func:`~repro.circuits.state_space.explore` has proved), and
    :class:`~repro.core.errors.ExtractionError` when no configuration
    repeats within ``max_transitions`` firings.
    """
    sim = _Simulator(netlist)
    seen: Dict[int, List[int]] = {}
    while len(sim.trace) <= max_transitions:
        earlier = seen.setdefault(sim.hash, [])
        prefix_end = _repeat_of(sim, earlier) if earlier else None
        if prefix_end is not None:
            window = len(sim.trace) - prefix_end
            # The configuration determines every later firing, so the
            # window repeats: two more copies cannot stall or fail.
            for _ in range(2 * window):
                sim.fire(sim.min_excited())
            return Trace(netlist, sim.trace, prefix_end, window)
        earlier.append(len(sim.trace))
        signal = sim.min_excited()
        if signal is None:
            return Trace(netlist, sim.trace, len(sim.trace), 0)
        sim.fire(signal)
    raise ExtractionError(
        "no periodic regime within %d transitions" % max_transitions
    )


# ----------------------------------------------------------------------
# Folding the trace into a Timed Signal Graph
# ----------------------------------------------------------------------
class TaggedView:
    """Assignment of trace positions to tagged events and instances.

    A transition that fires ``c > 1`` times per periodic window becomes
    ``c`` distinct *tagged* events (the paper's multiple events ``a1+,
    a2+, ...``); tags cycle with the window, counted from the first
    occurrence inside the periodic part and extended backwards over the
    prefix.  Each tagged event's occurrences are then numbered 0, 1,
    2, ... — its unfolding instance indices.  Non-repetitive
    transitions firing several times each become distinct single-shot
    events.
    """

    def __init__(self, trace: Trace):
        self.counts: Dict[Tuple[str, str], int] = {}
        for record in trace.window_slice(0):
            self.counts[record.key] = self.counts.get(record.key, 0) + 1

        positions: Dict[Tuple[str, str], List[int]] = {}
        for record in trace.fired:
            positions.setdefault(record.key, []).append(record.position)

        self.event_of: Dict[int, Transition] = {}
        self.instance_of: Dict[int, int] = {}
        self.position_of: Dict[Tuple[Transition, int], int] = {}
        self.repetitive_events: set = set()

        for key, key_positions in positions.items():
            signal, direction = key
            count = self.counts.get(key)
            if count is None:
                # Non-repetitive: each occurrence is its own event.
                many = len(key_positions) > 1
                for ordinal, position in enumerate(key_positions):
                    tag = ordinal + 1 if many else 0
                    self._assign(position, Transition(signal, direction, tag), 0)
                continue
            first_in_window = next(
                ordinal
                for ordinal, position in enumerate(key_positions)
                if position >= trace.prefix_end
            )
            assigned = []
            preperiodic = 0
            for ordinal, position in enumerate(key_positions):
                relative = ordinal - first_in_window
                if count > 1 and relative < 0:
                    # A partial burst before the periodic alignment is
                    # *initial behaviour*: with several events per
                    # window its phase cannot be reconciled with the
                    # repetitive instances, so it becomes its own
                    # one-shot event (tags beyond the periodic range).
                    preperiodic += 1
                    self._assign(
                        position,
                        Transition(signal, direction, count + preperiodic),
                        0,
                    )
                    continue
                tag = (relative % count) + 1 if count > 1 else 0
                quotient = relative // count  # floor; negative in prefix
                assigned.append((position, tag, quotient))
            base = {}
            for _, tag, quotient in assigned:
                base[tag] = min(base.get(tag, quotient), quotient)
            for position, tag, quotient in assigned:
                event = Transition(signal, direction, tag)
                self.repetitive_events.add(event)
                self._assign(position, event, quotient - base[tag])

    def _assign(self, position: int, event: Transition, instance: int) -> None:
        self.event_of[position] = event
        self.instance_of[position] = instance
        self.position_of[(event, instance)] = position

    def is_repetitive(self, position: int) -> bool:
        return self.event_of[position] in self.repetitive_events


def fold_trace(trace: Trace) -> TimedSignalGraph:
    """Fold a (quasi-)periodic trace into a Timed Signal Graph.

    Transitions firing more than once per window fold into tagged
    multiple events (``a+/1``, ``a+/2`` — the paper's ``a1+, a2+``).
    """
    netlist = trace.netlist
    graph = TimedSignalGraph(name=netlist.name)
    view = TaggedView(trace)

    def delay_of(cause: FiredTransition, effect: FiredTransition):
        return netlist.gate(effect.signal).delay_from(cause.signal)

    # Arcs among repetitive events, read off a settled window (copy 1:
    # its causes may reach back into copy 0, never into the prefix).
    for record in trace.window_slice(1):
        for cause_index in record.causes:
            cause = trace.fired[cause_index]
            if not view.is_repetitive(cause_index):
                raise ExtractionError(
                    "periodic transition %s caused by non-repetitive %s"
                    % (record, cause)
                )
            marking = (
                view.instance_of[record.position] - view.instance_of[cause_index]
            )
            if marking not in (0, 1):
                raise ExtractionError(
                    "fold needs marking %d on %s -> %s; not initially-safe"
                    % (marking, view.event_of[cause_index],
                       view.event_of[record.position])
                )
            graph.add_arc(
                view.event_of[cause_index],
                view.event_of[record.position],
                delay_of(cause, record),
                marked=bool(marking),
            )

    # Prefix causes: arcs out of non-repetitive events are
    # disengageable; arcs among repetitive events must match the ones
    # already found (verified below, not re-added).  A repetitive event
    # may also cause a one-shot (pre-periodic) event: that arc applies
    # once structurally because the target has a single instance.
    for record in trace.fired[: trace.prefix_end]:
        record_repetitive = view.is_repetitive(record.position)
        for cause_index in record.causes:
            cause = trace.fired[cause_index]
            cause_repetitive = view.is_repetitive(cause_index)
            if cause_repetitive and record_repetitive:
                continue  # covered by the settled-window fold
            if cause_repetitive:
                if view.instance_of[cause_index] != 0:
                    raise ExtractionError(
                        "one-shot event %s depends on instance %d of %s"
                        % (
                            view.event_of[record.position],
                            view.instance_of[cause_index],
                            view.event_of[cause_index],
                        )
                    )
                graph.add_arc(
                    view.event_of[cause_index],
                    view.event_of[record.position],
                    delay_of(cause, record),
                    marked=False,
                )
                continue
            marking = view.instance_of[record.position]
            if marking not in (0, 1):
                raise ExtractionError(
                    "disengageable arc %s -> %s would need marking %d"
                    % (view.event_of[cause_index],
                       view.event_of[record.position], marking)
                )
            graph.add_arc(
                view.event_of[cause_index],
                view.event_of[record.position],
                delay_of(cause, record),
                marked=bool(marking),
                disengageable=True,
            )
        if not record_repetitive:
            graph.add_event(view.event_of[record.position])

    _verify_fold(trace, graph, view)
    return graph


def _verify_fold(trace: Trace, graph: TimedSignalGraph, view: TaggedView) -> None:
    """Every recorded firing must match the folded graph's in-arcs.

    For firing ``X_k`` the predicted cause set is ``{(Y, k - m) | arc
    Y->X with marking m, instance (Y, k - m) exists}``; it must equal
    the recorded causes exactly.  This catches every way a trace could
    fail to be quasi-periodic in its *cause structure* even though its
    state snapshots repeat.
    """
    for record in trace.fired:
        event = view.event_of[record.position]
        if not graph.has_event(event):
            raise ExtractionError("folded graph lost event %s" % event)
        instance = view.instance_of[record.position]
        predicted: Set[int] = set()
        for arc in graph.in_arcs(event):
            source_instance = instance - arc.tokens
            if source_instance < 0:
                continue
            position = view.position_of.get((arc.source, source_instance))
            if position is not None:
                predicted.add(position)
        if predicted != set(record.causes):
            raise ExtractionError(
                "fold mismatch at %s: trace causes %s, graph predicts %s"
                % (
                    record,
                    sorted(record.causes),
                    sorted(predicted),
                )
            )


def extract_signal_graph(
    netlist: Netlist,
    max_transitions: int = 100_000,
    max_states: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> TimedSignalGraph:
    """Netlist + initial state -> Timed Signal Graph (TRASPEC substitute).

    Proves semi-modularity by exhaustive exploration (``max_states``
    and ``max_steps`` budget it, see
    :func:`~repro.circuits.state_space.explore`), then simulates and
    folds one serialised behaviour.

    Raises
    ------
    NotSemiModularError
        If the circuit is not speed-independent.
    DistributivityError
        If the behaviour exhibits OR-causality.
    ExtractionError
        If the behaviour cannot be folded into an initially-safe graph,
        or (:class:`~repro.core.errors.StateSpaceLimitError`) the
        exhaustive exploration budget ran out — large netlists should
        use :func:`repro.netlist.extract.structural_extract` instead.
    """
    explore(netlist, max_states=max_states, max_steps=max_steps)
    trace = simulate_untimed(netlist, max_transitions=max_transitions)
    return fold_trace(trace)
