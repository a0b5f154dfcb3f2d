"""``solve``: one-shot analyses, mostly in exact int/Fraction arithmetic.

Three job classes, weighted so each layer's share of the run is large
enough for a speed-up of that layer to show:

* ``netlist``: ``analyze_source`` on ``.bench`` and structural-Verilog
  text (c17, generated ripple-carry adders, shift registers and array
  multipliers), unit and interval delays.  The list falls on both sides
  of both auto switches in ``netlist/pipeline.py``: oracle extraction at
  <= 40 wrapped signals (c17, sreg2-8, rca1), structural beyond; the
  paper algorithm at <= 48 border events, ``howard-ratio`` beyond.
* ``cycle``: the paper algorithm ``compute_cycle_time`` with
  backtracking on ring graphs with b = 4-16.
* ``ptime``: ``check_consistency`` and ``lambda_range`` on
  ``ptime_wrap`` instances of 8-20 events and ``weak_consistency`` on
  8-12 events, a quarter of them ``plant_inconsistency`` plants and a
  fifth with float bounds.

Every list holds c17, rca8 and sreg16 at unit delay, whose answers are
corpus goldens.  mult16 (5 s, over half a round on its own) runs once
per run as a golden check outside the timed phase instead.
"""

from __future__ import annotations

import random
from typing import Dict, List

from stats import strata

LANES = 1

#: Unit-delay corpus goldens (cycle time of the ring-wrapped circuit).
GOLDENS = {"c17": 8, "rca8": 22, "sreg16": 132, "mult16": 91}

#: One block's netlist jobs: (generator, width, delay kind).  Interval
#: delays are Fractions, which make the paper algorithm's exact kernel
#: far dearer, so each circuit keeps one delay kind and every list
#: holds the same multiset of jobs; only their parameters vary by seed.
#: The three unit-delay rca1 jobs (oracle extraction, ~0.4 s each, the
#: same work at every seed) join mult6 and sreg8 just below c17, so p95
#: falls inside that cluster instead of in a gap between job classes.
CIRCUITS = (
    ("sreg", 2, "interval"), ("sreg", 4, "interval"), ("sreg", 8, "interval"),
    ("rca", 1, "unit"), ("rca", 1, "unit"), ("rca", 1, "unit"),  # oracle side
    ("rca", 4, "unit"), ("mult", 3, "unit"), ("rca", 6, "unit"),
    ("rca", 16, "interval"), ("sreg", 32, "unit"),
    ("mult", 4, "interval"), ("mult", 6, "unit"),            # howard side
)

#: Jobs per block besides the netlist ones.
CYCLE_JOBS, PTIME_JOBS = 30, 26

#: Seconds per block and for the fixed c17/rca8/sreg16 head on the
#: reference host (2-core x86 container); they size the list.
BLOCK_S, FIXED_S = 3.6, 3.7


def _netlist_spec(rng: random.Random, circuit: str, width: int, kind: str) -> Dict:
    return {
        "kind": "netlist", "circuit": circuit, "width": width,
        "format": rng.choice(("bench", "verilog")),
        "delay": 1 if kind == "unit" else [1, 3],
        "seed": rng.randrange(2 ** 31),
    }


def specs(seed: int, blocks: int) -> List[Dict]:
    """The seeded op list: plain data, built into inputs at set-up."""
    rng = random.Random(seed)
    ops = [
        _netlist_spec(rng, "c17", 0, "unit"),
        _netlist_spec(rng, "rca", 8, "unit"),
        _netlist_spec(rng, "sreg", 16, "unit"),
    ]
    for circuit, width, kind in CIRCUITS * blocks:
        ops.append(_netlist_spec(rng, circuit, width, kind))
    for index, n in enumerate(strata(rng, CYCLE_JOBS * blocks, 40, 300)):
        ops.append({
            "kind": "cycle", "n": int(n), "b": 4 + index % 13,
            "topo": rng.randrange(2 ** 31),
        })
    for index, n in enumerate(strata(rng, PTIME_JOBS * blocks, 8, 20)):
        mode = ("check", "range", "weak")[index % 3]
        if mode == "weak":
            # the unfolded graph makes planted weak checks dear: 8-12
            # events keep them below the netlist cluster that holds p95
            n = 8 + (n - 8) / 3
        ops.append({
            "kind": "ptime", "n": int(n), "b": 2 + index % 4,
            "topo": rng.randrange(2 ** 31),
            "mode": mode,
            "planted": index % 4 == 3,
            "float": index % 5 == 4,
            "tightness": (0.0, 0.25, 0.5, 0.75, 1.0)[index % 5],
        })
    rng.shuffle(ops)
    return ops


def network_of(circuit: str, width: int):
    from repro.netlist import corpus

    if circuit == "c17":
        return corpus.load_corpus("c17")
    factory = {
        "rca": corpus.ripple_carry_adder,
        "sreg": corpus.shift_register,
        "mult": corpus.array_multiplier,
    }[circuit]
    return factory(width)


def circuit_name(spec: Dict) -> str:
    return spec["circuit"] + (str(spec["width"]) if spec["width"] else "")


def _source(spec: Dict) -> str:
    from repro.netlist.bench import write_bench
    from repro.netlist.verilog import write_verilog

    network = network_of(spec["circuit"], spec["width"])
    return write_bench(network) if spec["format"] == "bench" else write_verilog(network)


def _ring(spec: Dict, chords_per: int):
    from repro.generators import ring_with_chords

    return ring_with_chords(
        spec["n"], spec["b"], chords=spec["n"] // chords_per, seed=spec["topo"]
    )


def _ptime_instance(spec: Dict):
    """(P-time graph, construction rate) of one ``ptime`` op.

    Float instances take the exact wrap's bounds as floats, widened by
    a relative 1e-9 so rounding cannot make a consistent wrap rigidly
    infeasible.
    """
    from repro.core import compute_cycle_time
    from repro.generators import plant_inconsistency, ptime_wrap
    from repro.ptime.model import from_timed_graph

    base = _ring(spec, 4)
    rate = compute_cycle_time(
        base, check=False, keep_simulations=False, backtrack=False
    ).cycle_time
    ptg = ptime_wrap(base, tightness=spec["tightness"], seed=spec["topo"])
    if spec["float"]:
        bounds = {
            arc.pair: (
                float(interval.lower) * (1 - 1e-9),
                None if interval.upper is None else float(interval.upper) * (1 + 1e-9),
            )
            for arc, interval in ptg.arc_bounds()
        }
        ptg = from_timed_graph(ptg.graph, bounds=bounds, name=ptg.name + "-float")
    if spec["planted"]:
        ptg = plant_inconsistency(ptg, seed=spec["topo"])
    return ptg, rate


class Workload:
    def __init__(self, ops: List[Dict]) -> None:
        self.ops = ops
        self.inputs = []
        for spec in ops:
            if spec["kind"] == "netlist":
                self.inputs.append(_source(spec))
            elif spec["kind"] == "cycle":
                self.inputs.append(_ring(spec, 5))
            else:
                self.inputs.append(_ptime_instance(spec))

    def warm_up(self) -> None:
        from repro.core import compute_cycle_time
        from repro.netlist.pipeline import analyze_source
        from repro.ptime import check_consistency

        warm = {"kind": "ptime", "n": 9, "b": 3, "topo": 5, "float": False,
                "tightness": 0.5, "planted": False}
        check_consistency(_ptime_instance(warm)[0])
        compute_cycle_time(_ring({"n": 30, "b": 5, "topo": 3}, 5))
        # Widths outside the list: oracle + paper (sreg3), structural
        # + paper (rca3), structural + howard-ratio (rca10).
        for circuit, width in (("sreg", 3), ("rca", 3), ("rca", 10)):
            analyze_source(_source({"circuit": circuit, "width": width, "format": "bench"}))

    def run(self, index: int):
        spec, data = self.ops[index], self.inputs[index]
        if spec["kind"] == "netlist":
            from repro.netlist.pipeline import analyze_source

            return analyze_source(data, delay=_delay(spec["delay"]), seed=spec["seed"])[1]
        if spec["kind"] == "cycle":
            from repro.core import compute_cycle_time

            return compute_cycle_time(data)
        from repro.ptime import check_consistency, lambda_range, weak_consistency

        analysis = {
            "check": check_consistency, "range": lambda_range, "weak": weak_consistency,
        }[spec["mode"]]
        return analysis(data[0])

    def check(self, outputs) -> List[bool]:
        verdicts = []
        for spec, data, result in zip(self.ops, self.inputs, outputs):
            if isinstance(result, BaseException):
                verdicts.append(False)
            elif spec["kind"] == "netlist":
                golden = GOLDENS.get(circuit_name(spec))
                verdicts.append(
                    result["cycle_time"] > 0
                    and (golden is None or spec["delay"] != 1
                         or result["cycle_time"] == golden)
                )
            elif spec["kind"] == "cycle":
                verdicts.append(result.cycle_time > 0 and bool(result.critical_cycles))
            else:
                verdicts.append(_ptime_ok(spec, data[1], result))
        return verdicts

    def global_checks(self, outputs, final: bool) -> List[str]:
        """Paper algorithm == howard-ratio at small b; mult16 golden."""
        from repro.baselines import compute_cycle_time as compute_by_method

        problems = []
        for index, (spec, data, result) in enumerate(zip(self.ops, self.inputs, outputs)):
            if spec["kind"] != "cycle" or spec["b"] > 8 or isinstance(result, BaseException):
                continue
            howard = compute_by_method(data, method="howard-ratio").cycle_time
            if howard != result.cycle_time:
                problems.append(
                    "op %d: paper algorithm %s != howard-ratio %s"
                    % (index, result.cycle_time, howard)
                )
        if final:
            from repro.netlist.pipeline import analyze_source

            report = analyze_source(_source(
                {"circuit": "mult", "width": 16, "format": "verilog"}
            ))[1]
            if report["cycle_time"] != GOLDENS["mult16"]:
                problems.append("mult16 cycle time %s != 91" % report["cycle_time"])
        return problems


def _delay(value):
    return tuple(value) if isinstance(value, list) else value


def _ptime_ok(spec: Dict, rate, result) -> bool:
    """Wraps are consistent with their construction rate in range;
    plants are rejected with a violating circuit."""
    if spec["mode"] == "weak":
        return result.feasible if not spec["planted"] else (
            not result.feasible and bool(result.violation.edges)
        )
    if spec["planted"]:
        return not result.consistent and bool(result.violation.edges)
    if not result.consistent:
        return False
    if spec["mode"] == "range":
        return result.contains(rate)
    if spec["float"]:
        return result.rate <= float(rate) * (1 + 1e-6)
    return result.rate <= rate
