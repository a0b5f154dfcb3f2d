#!/usr/bin/env python
"""Empirically fit the paper's O(b^2 * m) complexity bound.

The cycle-time algorithm runs one event-initiated simulation per
border event (``b`` of them), each over ``b`` unfolding periods, each
period relaxing every one of the ``m`` arcs once — ``O(b^2 * m)``
total simulation work.  This script measures the *simulation phase
only* (the ``run`` phase of :mod:`repro.obs.profile`, excluding
validation, toposort, codegen and backtracking) on the
``ring_with_chords`` generator family, which controls ``b`` (tokens)
and ``m`` (stages + chords) independently, and fits

    log(run_time) = alpha * log(b^2 * m) + c

by least squares.  ``alpha ~= 1`` confirms the bound; the script also
reports per-axis exponents (``m`` with ``b`` fixed, ``b`` with ``m``
fixed).  Exit status is non-zero when the joint exponent falls
outside ``[--min-exponent, --max-exponent]``.

Usage::

    PYTHONPATH=src python scripts/complexity_check.py
    PYTHONPATH=src python scripts/complexity_check.py --repeats 5 --json out.json
"""

import argparse
import json
import math
import sys

import numpy as np

from repro.core import compute_cycle_time, run_border_simulations_batch
from repro.generators.random_graphs import ring_with_chords
from repro.obs.profile import PhaseProfiler, profile_phases

#: kernels the fit can target: the scalar per-analysis path and the
#: fused batch sweep.  The fused sweep runs BATCH_SAMPLES bindings and
#: divides the run time by it, so the fitted exponent measures
#: per-sample work.  S must be large enough that vector arithmetic
#: dominates numpy dispatch — small S dilutes the b exponent (the fused
#: kernel stacks the b origins along the sample axis, so dispatch-bound
#: ops scale like b, not b^2, until the vectors are wide enough to cost
#: real time).
KERNEL_CHOICES = ("scalar", "fused")

BATCH_SAMPLES = 64

#: m sweep: arcs grow ~8x, border count pinned at 4.
M_SWEEP = [(120, 4), (240, 4), (480, 4), (960, 4)]
#: b sweep: border count grows 16x on a fixed ring size.
B_SWEEP = [(480, 4), (480, 8), (480, 16), (480, 32), (480, 64)]

WARMUP_ANALYSES = 3  # settle the codegen tier before timing


def measure(stages, tokens, repeats, kernel="scalar", seed=7):
    """Best-of-``repeats`` run-phase seconds for one configuration."""
    graph = ring_with_chords(
        stages, tokens, chords=stages // 4, max_delay=10, seed=seed
    )
    # Float delays exercise the production codegen kernel; perturb one
    # delay so kernel="auto" resolves to float.
    first = graph.arcs[0]
    graph.set_delay(first.source, first.target, float(first.delay))

    if kernel == "scalar":
        def analyse():
            compute_cycle_time(
                graph, backtrack=False, keep_simulations=False, cache="off"
            )
    else:
        rng = np.random.default_rng(seed)
        nominal = np.asarray([float(arc.delay) for arc in graph.arcs])
        matrix = nominal * rng.uniform(
            0.8, 1.2, size=(BATCH_SAMPLES, nominal.size)
        )

        def analyse():
            run_border_simulations_batch(graph, matrix)

    for _ in range(WARMUP_ANALYSES):
        analyse()
    best = None
    for _ in range(repeats):
        profiler = PhaseProfiler()
        with profile_phases(profiler):
            analyse()
        run_s = profiler.total("run")
        if kernel != "scalar":
            run_s /= BATCH_SAMPLES
        if best is None or run_s < best:
            best = run_s
    return {
        "stages": stages,
        "tokens": tokens,
        "events": graph.num_events,
        "arcs": graph.num_arcs,
        "b": tokens,
        "m": graph.num_arcs,
        "work": tokens * tokens * graph.num_arcs,
        "run_s": best,
    }


def fit_exponent(points, x_key, y_key="run_s"):
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(point[x_key]) for point in points]
    ys = [math.log(point[y_key]) for point in points]
    count = len(points)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    return numerator / denominator


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per configuration (best-of)")
    parser.add_argument("--min-exponent", type=float, default=0.6,
                        help="lower acceptance bound on the joint exponent")
    parser.add_argument("--max-exponent", type=float, default=1.4,
                        help="upper acceptance bound on the joint exponent")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the measurements as JSON")
    parser.add_argument("--kernel", choices=KERNEL_CHOICES,
                        default="scalar",
                        help="fit the scalar per-analysis path "
                        "(default) or the fused batch sweep")
    args = parser.parse_args(argv)

    points = []
    print("kernel: %s" % args.kernel)
    print("%8s %8s %8s %10s %12s" % ("b", "m", "events", "b^2*m", "run_s"))
    for stages, tokens in M_SWEEP + B_SWEEP:
        point = measure(stages, tokens, args.repeats, kernel=args.kernel)
        points.append(point)
        print("%8d %8d %8d %10d %12.6f"
              % (point["b"], point["m"], point["events"],
                 point["work"], point["run_s"]))

    m_points = points[:len(M_SWEEP)]
    b_points = points[len(M_SWEEP):]
    exponent_m = fit_exponent(m_points, "m")
    exponent_b = fit_exponent(b_points, "b")
    joint = fit_exponent(points, "work")

    print()
    print("exponent on m  (b fixed at %d): %.3f  (expected ~1)"
          % (m_points[0]["b"], exponent_m))
    print("exponent on b  (ring fixed at %d stages): %.3f  (expected ~2)"
          % (b_points[0]["stages"], exponent_b))
    print("joint exponent on b^2*m: %.3f  (expected ~1)" % joint)

    ok = args.min_exponent <= joint <= args.max_exponent
    verdict = "CONSISTENT" if ok else "INCONSISTENT"
    print("verdict: %s with O(b^2*m) (accept [%g, %g])"
          % (verdict, args.min_exponent, args.max_exponent))

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(
                {
                    "kernel": args.kernel,
                    "points": points,
                    "exponent_m": exponent_m,
                    "exponent_b": exponent_b,
                    "joint_exponent": joint,
                    "consistent": ok,
                },
                handle,
                indent=2,
            )
        print("wrote %s" % args.json)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
