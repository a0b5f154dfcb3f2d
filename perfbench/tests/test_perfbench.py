"""Tests of the benchmark's own code (no ``repro`` import needed).

    python3 -m pytest perfbench/tests -q
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

import serve  # noqa: E402
import solve  # noqa: E402
import stats  # noqa: E402
import sweep  # noqa: E402


# -- percentiles --------------------------------------------------------
def test_percentile_needs_ten_ops_beyond_it():
    # p95 of n values ranks at 0.95 * (n - 1); 199 values leave 10 above
    # rank 188.1, 180 values leave only 9 above rank 170.05.
    assert stats.percentile(list(range(199)), 95) is not None
    assert stats.percentile(list(range(180)), 95) is None
    # p50 needs 10 beyond the middle: 20 values suffice (10 rank above
    # 9.5), 19 do not (9 rank above 9).
    assert stats.percentile(list(range(20)), 50) == 9.5
    assert stats.percentile(list(range(19)), 50) is None
    assert stats.percentile([], 50) is None


def test_percentile_interpolates_and_ignores_order():
    values = list(range(1, 101))
    random.Random(3).shuffle(values)
    assert stats.percentile(values, 50) == 50.5
    assert abs(stats.percentile(values, 80) - 80.2) < 1e-9


# -- span arithmetic ----------------------------------------------------
SPANS = [
    # id, name, start, end, parent, op
    (1, "outer", 0.0, 10.0, None, 0),
    (2, "child", 1.0, 4.0, 1, 0),
    (3, "child", 3.0, 6.0, 1, 0),     # overlaps span 2: covered once
    (4, "leaf", 1.5, 2.0, 2, 0),
    (5, "outer", 12.0, 14.0, None, 1),
    (6, "child", 13.0, 15.0, 5, 1),   # runs past its parent: clipped
]


def test_self_time_subtracts_covered_child_time():
    own = stats.self_times(SPANS)
    assert own["outer"] == (10.0 - 5.0) + (2.0 - 1.0)
    assert own["child"] == (3.0 - 0.5) + 3.0 + 2.0
    assert own["leaf"] == 0.5


def test_total_time_is_inclusive():
    assert stats.total_times(SPANS)["outer"] == 12.0


def test_unattributed_is_wall_outside_top_level_spans():
    # top-level spans cover 10 + 2 = 12 of 16 s on one lane
    assert stats.unattributed_pct(SPANS, 16.0) == 25.0
    # two lanes of 16 s: 20 of 32 s outside top-level spans
    assert stats.unattributed_pct(SPANS, 16.0, lanes=2) == 62.5
    assert stats.unattributed_pct([], 0.0) == 0.0


# -- op lists -----------------------------------------------------------
def test_op_lists_are_deterministic_per_seed():
    for module in (sweep, solve, serve):
        first = stats.digest(module.specs(11, 2))
        assert first == stats.digest(module.specs(11, 2))
        assert first != stats.digest(module.specs(12, 2))


def test_parts_of_a_run_are_distinct_lists_of_distinct_seeds():
    seeds = {stats.list_seed(seed, part) for seed in range(-3, 40) for part in range(16)}
    assert len(seeds) == 43 * 16
    for module in (sweep, solve, serve):
        parts = {stats.digest(module.specs(stats.list_seed(11, part), 2)) for part in range(3)}
        assert len(parts) == 3


def test_op_lists_hold_the_same_job_mix_for_every_seed():
    def mix(ops):
        return sorted(
            (op["kind"], op.get("mode"), op.get("planted"), op.get("circuit"))
            for op in ops
        )

    assert mix(solve.specs(1, 2)) == mix(solve.specs(2, 2))
    assert mix(serve.specs(1, 2)) == mix(serve.specs(2, 2))

    def roles(ops):
        return sorted((op["crit"], bool(op["delays"]), op["samples"] >= 900) for op in ops)

    assert roles(sweep.specs(1, 2)) == roles(sweep.specs(2, 2))


def test_strata_cover_every_stratum_once():
    values = stats.strata(random.Random(5), 10, 0.0, 100.0)
    assert sorted(int(value // 10) for value in values) == list(range(10))


# -- verdicts -----------------------------------------------------------
def test_failure_classification():
    assert stats.op_passes(200, 200)
    assert stats.op_passes(400, 400)                      # expected 4xx passes
    assert not stats.op_passes(200, 200, answer_ok=False)  # wrong answer
    assert not stats.op_passes(200, 500)                  # 5xx
    assert not stats.op_passes(500, 500)                  # a 5xx never passes
    assert not stats.op_passes(200, None, transport_error=True)
    assert not stats.op_passes(400, 404)                  # unexpected status
    assert not stats.op_passes(200, 429)
