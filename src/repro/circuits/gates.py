"""Gate models for the asynchronous-circuit substrate.

Every gate computes its next output from the current input values and
(for state-holding elements like the Muller C-element) its current
output.  Evaluation is purely boolean; delays live on the netlist's
input pins, matching the paper's per-input propagation delays
("delays associated with different in-arcs of the same event can
differ", Section VIII-A).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Sequence, Tuple

from ..core.errors import NetlistError

GateFunction = Callable[[Sequence[int], int], int]


def _c_element(inputs: Sequence[int], current: int) -> int:
    """Muller C-element: switches only when all inputs agree."""
    if all(value == 1 for value in inputs):
        return 1
    if all(value == 0 for value in inputs):
        return 0
    return current


def _nc_element(inputs: Sequence[int], current: int) -> int:
    """Inverted-output C-element."""
    return 1 - _c_element(inputs, 1 - current)


def _majority(inputs: Sequence[int], current: int) -> int:
    ones = sum(inputs)
    return 1 if 2 * ones > len(inputs) else 0


def _combinational(function: Callable[[Sequence[int]], int]) -> GateFunction:
    def evaluate(inputs: Sequence[int], current: int) -> int:
        return function(inputs)

    return evaluate


def _sr_latch(inputs: Sequence[int], current: int) -> int:
    """Set/reset primitive: (set, reset) -> q.

    ``set`` wins-nothing semantics: both inputs high holds the output
    (the glitch-free convention for speed-independent analysis; a
    circuit that actually drives both high will usually fail the
    semi-modularity check anyway).
    """
    set_input, reset_input = inputs[0], inputs[1]
    if set_input and not reset_input:
        return 1
    if reset_input and not set_input:
        return 0
    return current


#: Registry of supported gate types.  Each entry:
#: (evaluate, min_inputs, max_inputs or None for unbounded).
GATE_TYPES: Dict[str, Tuple[GateFunction, int, int]] = {
    "BUF": (_combinational(lambda v: v[0]), 1, 1),
    # A D-flop in the self-timed reading: the clock is abstracted away
    # and the output follows D after the pin delay, like a buffer.  Its
    # real role is *structural* — netlist front ends keep DFFs distinct
    # from BUFs so the ring-wrap transform can treat each flop as a
    # token-holding pipeline seam (see repro.netlist.transforms).
    "DFF": (_combinational(lambda v: v[0]), 1, 1),
    "NOT": (_combinational(lambda v: 1 - v[0]), 1, 1),
    "AND": (_combinational(lambda v: int(all(v))), 2, 0),
    "OR": (_combinational(lambda v: int(any(v))), 2, 0),
    "NAND": (_combinational(lambda v: 1 - int(all(v))), 2, 0),
    "NOR": (_combinational(lambda v: 1 - int(any(v))), 2, 0),
    "XOR": (_combinational(lambda v: sum(v) % 2), 2, 0),
    "XNOR": (_combinational(lambda v: 1 - sum(v) % 2), 2, 0),
    "C": (_c_element, 2, 0),
    "NC": (_nc_element, 2, 0),
    "MAJ": (_majority, 3, 0),
    "SR": (_sr_latch, 2, 2),
}

#: Gate types whose next output depends on the current output.
STATE_HOLDING = frozenset({"C", "NC", "SR"})


def _parse_mask(text: str, context: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise NetlistError("bad %s mask %r (hex expected)" % (context, text)) from None


def _input_index(inputs: Sequence[int]) -> int:
    index = 0
    for position, value in enumerate(inputs):
        if value:
            index |= 1 << position
    return index


def _lut(mask: int) -> GateFunction:
    """Arbitrary combinational function from a truth-table mask.

    Bit ``i`` of ``mask`` is the output for the input combination with
    value ``i`` (input 0 is the least significant bit).
    """

    def evaluate(inputs: Sequence[int], current: int) -> int:
        return (mask >> _input_index(inputs)) & 1

    return evaluate


def _generalized_c(set_mask: int, reset_mask: int) -> GateFunction:
    """Generalised C-element: out -> 1 on ``set`` combinations,
    -> 0 on ``reset`` combinations, holds otherwise.

    The plain C-element over two inputs is ``GC:8:1`` (set on ``11``,
    reset on ``00``); an SR latch is ``GC:2:4`` over (set, reset)...
    any monotone state-holding cell fits.
    """

    def evaluate(inputs: Sequence[int], current: int) -> int:
        index = _input_index(inputs)
        if (set_mask >> index) & 1:
            return 1
        if (reset_mask >> index) & 1:
            return 0
        return current

    return evaluate


@lru_cache(maxsize=256)  # every gate evaluation resolves its type
def _resolve(gate_type: str) -> Tuple[GateFunction, int, int, bool]:
    """Look up a gate type, including parametric LUT/GC forms.

    Returns ``(function, min_inputs, max_inputs, state_holding)``.
    Parametric syntax (case-insensitive):

    * ``LUT:<hexmask>`` — combinational truth table;
    * ``GC:<set_hexmask>:<reset_hexmask>`` — generalised C-element.
    """
    upper = gate_type.upper()
    if upper.startswith("LUT:"):
        mask = _parse_mask(upper[4:], "LUT")
        return _lut(mask), 1, 0, False
    if upper.startswith("GC:"):
        parts = upper.split(":")
        if len(parts) != 3:
            raise NetlistError("GC gate needs GC:<set>:<reset>, got %r" % gate_type)
        set_mask = _parse_mask(parts[1], "GC set")
        reset_mask = _parse_mask(parts[2], "GC reset")
        if set_mask & reset_mask:
            raise NetlistError(
                "GC set/reset masks overlap in %r (combination both sets "
                "and resets)" % gate_type
            )
        return _generalized_c(set_mask, reset_mask), 1, 0, True
    try:
        function, minimum, maximum = GATE_TYPES[upper]
    except KeyError:
        raise NetlistError(
            "unknown gate type %r (known: %s, LUT:<mask>, GC:<set>:<reset>)"
            % (gate_type, ", ".join(sorted(GATE_TYPES)))
        ) from None
    return function, minimum, maximum, upper in STATE_HOLDING


def gate_function(gate_type: str) -> GateFunction:
    """The evaluation function for ``gate_type`` (case-insensitive)."""
    return _resolve(gate_type)[0]


def check_arity(gate_type: str, fan_in: int) -> None:
    """Validate the number of inputs for a gate type."""
    _, minimum, maximum, _ = _resolve(gate_type)
    if fan_in < minimum:
        raise NetlistError(
            "%s needs at least %d inputs, got %d" % (gate_type, minimum, fan_in)
        )
    if maximum and fan_in > maximum:
        raise NetlistError(
            "%s takes at most %d inputs, got %d" % (gate_type, maximum, fan_in)
        )


def evaluate(gate_type: str, inputs: Sequence[int], current: int) -> int:
    """Next output value of a gate.

    ``current`` is ignored for combinational gates.
    """
    return gate_function(gate_type)(inputs, current)


def is_state_holding(gate_type: str) -> bool:
    """Does the gate's next output depend on its present output?"""
    return _resolve(gate_type)[3]
