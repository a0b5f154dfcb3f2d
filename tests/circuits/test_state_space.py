"""Unit tests for reachability and semi-modularity checking."""

import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.circuits.library import inverter_ring_netlist, muller_ring_netlist
from repro.circuits.netlist import Netlist
from repro.circuits.state_space import explore, is_semi_modular
from repro.core.errors import (
    ExtractionError,
    NotSemiModularError,
    StateSpaceLimitError,
)
from repro.netlist import corpus, load_corpus, ring_wrap
from tests.reference_state_space import assert_real_violation, racing_latch


class TestExploration:
    def test_oscillator_state_count(self, oscillator_circuit):
        space = explore(oscillator_circuit)
        # 5 binary signals + stimulus flag: the reachable set is small
        assert 0 < space.num_states <= 2 ** 6
        assert space.transitions

    def test_stable_circuit_single_state(self):
        n = Netlist()
        n.add_input("a", initial=0)
        n.add_gate("b", "BUF", ["a"], initial=0)
        space = explore(n)
        assert space.num_states == 1
        assert space.states[next(iter(space.states))] == frozenset()

    def test_stimulus_expands_space(self):
        n = Netlist()
        n.add_input("a", initial=0)
        n.add_gate("b", "BUF", ["a"], initial=0)
        n.add_stimulus("a")
        space = explore(n)
        assert space.num_states == 3  # initial, a toggled, b caught up

    def test_state_dict(self, oscillator_circuit):
        space = explore(oscillator_circuit)
        config = next(iter(space.states))
        view = space.state_dict(config[0])
        assert set(view) == {"a", "b", "c", "e", "f"}

    def test_max_states_guard(self, oscillator_circuit):
        with pytest.raises(StateSpaceLimitError) as info:
            explore(oscillator_circuit, max_states=2)
        error = info.value
        assert error.max_states == 2
        assert error.states is not None and error.states > 2
        # A blown budget is an abandoned analysis, not a semi-modularity
        # verdict: the structured error derives from ExtractionError.
        assert isinstance(error, ExtractionError)
        assert not isinstance(error, NotSemiModularError)

    def test_max_steps_guard(self, oscillator_circuit):
        with pytest.raises(StateSpaceLimitError) as info:
            explore(oscillator_circuit, max_steps=3)
        error = info.value
        assert error.max_steps == 3
        assert error.steps is not None and error.steps > 3

    def test_budgets_do_not_fire_when_sufficient(self, oscillator_circuit):
        space = explore(oscillator_circuit, max_steps=10_000)
        assert space.num_states > 0

    def test_default_budget_bounds_configuration_bits(self):
        # Wrapped mult16 has 2946 signals and no stimuli: the default
        # budget is 2,000,000 * 64 // 2946 configurations.
        started = time.perf_counter()
        with pytest.raises(StateSpaceLimitError) as info:
            explore(ring_wrap(load_corpus("mult16")))
        assert time.perf_counter() - started < 2
        assert info.value.max_states == 43_448

    def test_narrow_circuits_keep_the_full_default_budget(self):
        # Wrapped c17 is 24 bits wide, under 64.
        with pytest.raises(StateSpaceLimitError) as info:
            explore(ring_wrap(load_corpus("c17")), max_steps=10)
        assert info.value.max_states == 2_000_000

    def test_step_budget_is_exact(self, oscillator_circuit):
        moves = explore(oscillator_circuit).num_moves
        assert explore(oscillator_circuit, max_steps=moves).num_moves == moves
        with pytest.raises(StateSpaceLimitError):
            explore(oscillator_circuit, max_steps=moves - 1)

    @pytest.mark.parametrize(
        "build, states, moves",
        [
            (lambda: ring_wrap(load_corpus("c17")), 33_600, 170_384),
            (lambda: ring_wrap(corpus.ripple_carry_adder(1)), 4_544, 18_056),
            (lambda: ring_wrap(corpus.shift_register(4)), 272, 496),
            (lambda: muller_ring_netlist(5), 160, 360),
        ],
        ids=["c17", "rca1", "sreg4", "muller5"],
    )
    def test_every_configuration_and_move_visited(self, build, states, moves):
        space = explore(build())
        assert (space.num_states, space.num_moves) == (states, moves)


class TestSemiModularity:
    def test_oscillator_is_semi_modular(self, oscillator_circuit):
        assert is_semi_modular(oscillator_circuit)

    def test_muller_ring_is_semi_modular(self):
        from repro.circuits.library import muller_ring_netlist

        assert is_semi_modular(muller_ring_netlist())

    def test_hazardous_circuit_detected(self):
        # A NOR-gate SR-latch-style race: two cross-coupled NOR gates
        # with both inputs released simultaneously is the classic
        # non-semi-modular structure.  After both fall, q and qb are
        # both excited; firing one disables the other.
        assert not is_semi_modular(racing_latch())

    def test_witness_reported(self):
        with pytest.raises(NotSemiModularError) as info:
            explore(racing_latch())
        assert info.value.signal in {"q", "qb"}
        assert info.value.state is not None
        assert_real_violation(racing_latch(), info.value)

    def test_witness_is_lowest_index_lost_signal(self):
        # Firing ns disables both ANDs at once; z1 comes first in
        # signal order, y2 first alphabetically.
        n = Netlist("double-loss")
        n.add_input("a", initial=0)
        n.add_gate("z1", "AND", ["a", "ns"], initial=0)
        n.add_gate("y2", "AND", ["a", "ns"], initial=0)
        n.add_gate("s", "BUF", ["a"], initial=0)
        n.add_gate("ns", "NOT", ["s"], initial=1)
        n.add_stimulus("a")
        with pytest.raises(NotSemiModularError) as info:
            explore(n)
        assert str(info.value).startswith("transition of 'ns'")
        assert info.value.signal == "z1"
        assert_real_violation(n, info.value)

    def test_witness_independent_of_hash_seed(self):
        """Signals fire in index order, so every interpreter reports the
        same witness whatever its string hashing."""
        script = (
            "import json\n"
            "from repro.circuits.state_space import explore\n"
            "from repro.core.errors import NotSemiModularError\n"
            "from tests.reference_state_space import racing_latch\n"
            "try:\n"
            "    explore(racing_latch())\n"
            "except NotSemiModularError as error:\n"
            "    print(json.dumps([str(error), error.state, error.signal]))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        witnesses = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, root]))
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=root,
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout
            witnesses.add(out)
        assert len(witnesses) == 1
        message, state, signal = json.loads(witnesses.pop())
        assert_real_violation(
            racing_latch(), NotSemiModularError(message, state=state, signal=signal)
        )

    def test_violation_before_budget_is_the_verdict(self):
        # A glitching AND beside an independent 9-stage inverter ring:
        # the product has 90 configurations, but the hazard is met
        # within the first 40.
        n = inverter_ring_netlist(9)
        n.add_input("a", initial=0)
        n.add_gate("b", "NOT", ["a"], initial=1)
        n.add_gate("c", "AND", ["a", "b"], initial=0)
        n.add_stimulus("a")
        assert explore(n, check_semi_modular=False).num_states == 90
        with pytest.raises(StateSpaceLimitError):
            explore(n, max_states=40, check_semi_modular=False)
        with pytest.raises(NotSemiModularError) as info:
            explore(n, max_states=40)
        assert info.value.signal == "c"
        assert_real_violation(n, info.value)

    def test_free_running_inverter_ring_is_semi_modular(self):
        # a 3-inverter ring oscillator is the smallest autonomous
        # semi-modular oscillator
        n = Netlist("ring3")
        n.add_gate("i0", "NOT", ["i2"], initial=0)
        n.add_gate("i1", "NOT", ["i0"], initial=1)
        n.add_gate("i2", "NOT", ["i1"], initial=0)
        assert is_semi_modular(n)
