"""Pure helpers of the benchmark: percentiles, span arithmetic, verdicts.

Nothing here imports ``repro``, so ``run.py`` and the benchmark's own
tests use these without the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many ops lie beyond it.
MIN_TAIL = 10

#: One recorded span: (id, name, start_s, end_s, parent_id or None, op id).
Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (linear interpolation between ranks).

    Returns None unless at least :data:`MIN_TAIL` values rank strictly
    above the interpolation point, so a tail figure always rests on
    ten or more ops.
    """
    count = len(values)
    if count == 0:
        return None
    ordered = sorted(values)
    rank = q / 100.0 * (count - 1)
    low = int(math.floor(rank))
    if count - 1 - low < MIN_TAIL:
        return None
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def strata(rng, count: int, low: float, high: float) -> List[float]:
    """``count`` values over [low, high), one per equal stratum, in
    stratum order; only the position inside each stratum is random.

    Op lists pair such sequences by position and shuffle only at the
    end, so their cost hardly depends on the seed.
    """
    width = (high - low) / count
    return [low + (stratum + rng.random()) * width for stratum in range(count)]


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the part of that interval
    its child spans cover (children clipped to the parent, overlaps
    between children counted once).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for span_id, name, start, end, _, _ in spans:
        inner = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(span_id, ())
            if child_end > start and child_start < end
        ]
        own = (end - start) - _covered(inner)
        totals[name] = totals.get(name, 0.0) + max(0.0, own)
    return totals


def total_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds of inclusive (wall) time per span name."""
    totals: Dict[str, float] = {}
    for _, name, start, end, _, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def unattributed_pct(spans: Sequence[Span], wall_s: float, lanes: int = 1) -> float:
    """Share of the timing threads' time outside every top-level span, in %.

    ``lanes`` timing threads each had ``wall_s`` seconds; top-level
    spans (no parent) of one lane never overlap, so their durations add.
    """
    budget = wall_s * lanes
    if budget <= 0:
        return 0.0
    covered = sum(end - start for _, _, start, end, parent, _ in spans if parent is None)
    return 100.0 * max(0.0, budget - covered) / budget


def op_passes(
    expected_status: int,
    status: Optional[int],
    transport_error: bool = False,
    answer_ok: bool = True,
) -> bool:
    """Verdict on one op.

    A transport error, a 5xx, any status other than the expected one
    (an expected 4xx included) and a wrong answer are failures.
    """
    if transport_error or status is None:
        return False
    if status >= 500 or status != expected_status:
        return False
    return answer_ok


def list_seed(seed: int, part: int) -> int:
    """Seed of part ``part`` (0-15) of the op list of run seed ``seed``.

    A run's list is cut into parts, one per round; distinct
    ``(seed, part)`` pairs give distinct list seeds.
    """
    return seed * 16 + part


def digest(specs) -> str:
    """A stable fingerprint of an op list."""
    blob = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def host_reference_ms(repeats: int = 5, loops: int = 200_000) -> float:
    """Best-of-``repeats`` time of a fixed pure-Python loop, in ms.

    A host-speed diagnostic recorded around each measured phase; it is
    reported beside the results, never used to scale them.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        accumulator = 0
        for index in range(loops):
            accumulator += (index * index) % 7
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open("/proc/%s/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line for process %s" % pid)

