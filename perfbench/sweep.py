"""``sweep``: Monte-Carlo λ distributions through ``monte_carlo_cycle_time``.

Seeded ``ring_with_chords`` graphs (n = 100-800, b = 4-8) with the
default batch kernel and executor.  Most jobs are λ-only sweeps of
100-500 samples, one in eight a large one of 900-1000 samples at
n = 700-800; a sixth track criticality at 2-12 samples (fewer on larger
graphs), which backtracks every sample and costs far more per sample,
so both uses of ``core.kernel`` (fused batch sweep, per-sample
backtracking) get a share.  Topologies are fresh (cold compile),
repeated with equal content (compile-cache adopt) or repeated with new
delays (rebind); the (S, m) delay matrices run from ~0.1 MB to ~10 MB,
inside and well beyond a 2 MB L2.
"""

from __future__ import annotations

import random
from typing import Dict, List

from stats import strata

LANES = 1

#: One block: 16 λ-only jobs of 100-500 samples (2 fresh topologies, 7
#: equal-content repeats, 7 delay variants of the topology pool), 3
#: large λ-only jobs (n = 700-800, 900-1000 samples, fresh topologies)
#: and 4 criticality jobs on fresh topologies.  Every list holds the
#: same multiset of roles; sizes are Latin-hypercube draws, so lists of
#: different seeds cost about the same.
ROLES = (("fresh",) * 2 + ("adopt",) * 7 + ("rebind",) * 7 + ("large",) * 3
         + ("crit",) * 4)

#: A criticality job at size n takes about CRIT_WORK / n samples (at
#: least 2), so the class costs about the same at every size and stays
#: below the large sweeps.  p95 then falls inside the narrow class of
#: large sweeps, not on the few dearest draws of a broad one.
CRIT_WORK = 1200

#: Topologies in the repeated pool.
POOL = 8

#: Seconds per block on the reference host (2-core x86 container).
BLOCK_S, FIXED_S = 2.2, 0.0


def specs(seed: int, blocks: int) -> List[Dict]:
    """The seeded op list: plain data, built into graphs at set-up."""
    rng = random.Random(seed)
    roles = list(ROLES * blocks)
    pool = [
        {"n": int(n), "b": 4 + index % 5, "topo": rng.randrange(2 ** 31)}
        for index, n in enumerate(strata(rng, POOL, 100, 800))
    ]
    sizes = {
        "fresh": iter(strata(rng, roles.count("fresh"), 100, 800)),
        "crit": iter(strata(rng, roles.count("crit"), 100, 800)),
        "large": iter(strata(rng, roles.count("large"), 700, 800)),
    }
    large_samples = iter(strata(rng, roles.count("large"), 900, 1000))
    sweep_samples = iter(strata(rng, roles.count("adopt") + roles.count("rebind")
                                + roles.count("fresh"), 2, 2.7))
    ops = []
    repeats = 0
    for role in roles:
        if role in sizes:
            n = next(sizes[role])
            topology = {"n": int(n), "b": 4 + len(ops) % 5, "topo": rng.randrange(2 ** 31)}
        else:
            topology = pool[repeats % POOL]
            repeats += 1
        if role == "crit":
            samples = max(2, int(round(CRIT_WORK / n)))
        elif role == "large":
            samples = int(next(large_samples))
        else:
            samples = int(round(10 ** next(sweep_samples)))
        ops.append(dict(
            topology,
            delays=rng.randrange(1, 2 ** 31) if role == "rebind" else 0,
            crit=role == "crit",
            samples=samples,
            spread=rng.choice((0.05, 0.1, 0.2)),
            seed=rng.randrange(2 ** 31),
        ))
    rng.shuffle(ops)
    return ops


def build_graph(spec: Dict):
    from repro.generators import ring_with_chords

    graph = ring_with_chords(
        spec["n"], spec["b"], chords=spec["n"] // 4, seed=spec["topo"]
    )
    if spec["delays"]:
        rng = random.Random(spec["delays"])
        for arc in list(graph.arcs):
            graph.set_delay(arc.source, arc.target, rng.randint(1, 10))
    return graph


class Workload:
    def __init__(self, ops: List[Dict]) -> None:
        from repro.analysis.montecarlo import uniform_spread

        self.ops = ops
        # One graph object per op: equal content adopts, new delays
        # rebind, unseen topologies compile cold.
        self.graphs = [build_graph(spec) for spec in ops]
        self.samplers = [uniform_spread(spec["spread"]) for spec in ops]

    def warm_up(self) -> None:
        from repro.analysis.montecarlo import monte_carlo_cycle_time, uniform_spread

        # n = 99 lies outside the list's range, so no listed topology
        # is compiled before timing.
        for crit, samples in ((False, 300), (True, 4)):
            graph = build_graph({"n": 99, "b": 6, "topo": 7, "delays": 0})
            monte_carlo_cycle_time(
                graph, uniform_spread(0.1), samples=samples, seed=1,
                track_criticality=crit,
            )

    def run(self, index: int):
        from repro.analysis.montecarlo import monte_carlo_cycle_time

        spec = self.ops[index]
        return monte_carlo_cycle_time(
            self.graphs[index], self.samplers[index], samples=spec["samples"],
            seed=spec["seed"], track_criticality=spec["crit"],
        )

    def check(self, outputs) -> List[bool]:
        """Each sampled λ lies in [(1-f)λ0, (1+f)λ0] for spread f."""
        from repro.core import compute_cycle_time

        nominals: Dict = {}
        verdicts = []
        for spec, graph, result in zip(self.ops, self.graphs, outputs):
            if isinstance(result, BaseException):
                verdicts.append(False)
                continue
            key = (spec["n"], spec["b"], spec["topo"], spec["delays"])
            if key not in nominals:
                nominals[key] = float(compute_cycle_time(
                    graph, check=False, keep_simulations=False, backtrack=False
                ).cycle_time)
            nominal = nominals[key]
            low = nominal * (1 - spec["spread"]) * (1 - 1e-9)
            high = nominal * (1 + spec["spread"]) * (1 + 1e-9)
            verdicts.append(
                len(result.samples) == spec["samples"]
                and bool(((result.samples >= low) & (result.samples <= high)).all())
                and (bool(result.criticality) == spec["crit"])
            )
        return verdicts

    def global_checks(self, outputs, final: bool) -> List[str]:
        """A few small jobs are bit-identical to ``method="persample"``."""
        import numpy as np
        from repro.analysis.montecarlo import monte_carlo_cycle_time

        problems = []
        smallest = sorted(
            range(len(self.ops)),
            key=lambda i: self.ops[i]["n"] * self.ops[i]["samples"],
        )[:3]
        for index in smallest:
            spec, result = self.ops[index], outputs[index]
            if isinstance(result, BaseException):
                continue
            reference = monte_carlo_cycle_time(
                build_graph(spec), self.samplers[index], samples=spec["samples"],
                seed=spec["seed"], track_criticality=spec["crit"], method="persample",
            )
            if not (np.array_equal(reference.samples, result.samples)
                    and reference.criticality == result.criticality):
                problems.append("op %d differs from method='persample'" % index)
        return problems
