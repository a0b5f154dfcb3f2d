"""Compiled simulation kernel: dense-index unfolding fast paths.

The legacy simulation loops (:mod:`repro.core.simulation`, kernel
``"legacy"``) pay a tuple construction plus a dict lookup keyed by
``(event, index)`` for every unfolding arc.  This module removes both
costs by *compiling* a :class:`~repro.core.signal_graph.TimedSignalGraph`
once into dense integer indices:

* every event gets an integer id equal to its position in the
  topological order of the unmarked subgraph (the paper's intra-period
  firing order), so instance ``(event, k)`` lives in *slot*
  ``id + k * n`` of a flat list;
* all in-arcs are flattened into per-event programs of
  ``(source_offset, delay)`` pairs addressing a rolling two-period
  buffer — adding nothing at run time: the offsets are final.

Because the model is initially safe (``tokens`` is 0 or 1), the set of
unfolding in-arcs of an instance depends only on which of three period
classes it is in, never on the period index itself:

* **period 0** — arcs with ``tokens == 0`` (the source instance 0
  always exists);
* **period 1** — arcs with ``tokens == 1`` (source instance 0) plus
  token-free arcs from repetitive sources (source instance 1);
* **periods >= 2** (steady state) — arcs whose source is repetitive.

Each class is precompiled into one program.  A period is simulated
inside a buffer of ``2n`` slots — previous period in the lower half,
current period in the upper half — and flushed to the flat result by a
C-speed slice copy, so the inner loop performs no index arithmetic at
all.  Period-over-period the structure is identical, which is what
makes the driver :func:`run_border_simulations` able to run all ``b``
border simulations of the cycle-time algorithm against one compiled
structure.

Two interchangeable kernels run over the same programs:

* the **exact** kernel keeps the original delay objects, so ``int`` /
  :class:`fractions.Fraction` arithmetic is preserved bit-for-bit;
* the **float** kernel replays the programs over ``float64`` copies of
  the delays — the fast path for Monte-Carlo and scaling sweeps.  Once
  a compiled structure has been exercised a few times
  (:data:`CODEGEN_THRESHOLD` kernel runs), its float programs are
  additionally *specialised to straight-line Python source* — one
  statement per unfolding arc, delays inlined as literals — compiled
  with :func:`compile` and cached, removing even the interpreter's loop
  and unpacking overhead.  One-shot analyses never pay the codegen
  cost; benchmarks and repeated sweeps amortise it after the first
  call.

Both kernels are branch-free in the inner loop: undefined instances are
the sentinel ``-inf`` (comparisons and additions with ``-inf`` behave
like the paper's "neglected" arcs under MAX semantics, for exact
operands too), and the argmax predecessor needed for critical-path
backtracking is *not* tracked in the loop — it is recovered on demand
by re-scanning the (tiny) in-arc program of the queried instance, which
reproduces the legacy first-maximum tie-breaking exactly.

The compiled structure is cached on the graph itself (see
:meth:`TimedSignalGraph.cached`) and is invalidated automatically by
any mutation.  Delay-only sweeps can skip recompilation entirely with
:func:`rebind_compiled`.

Statistical workloads go one dimension further: a **batch axis**.
:class:`BatchBindings` holds an ``(S, m)`` float64 delay matrix — S
delay bindings over one compiled topology — and
:func:`run_border_simulations_batch` advances all S bindings through
*fused period programs*: flat gather index arrays spanning a whole
period, precomputed once per topology, so one period is a handful of
large vectorized ops instead of S Python-level sweeps.  The fused
sweep additionally

* stacks all ``b`` border origins along the sample axis (one buffer of
  ``b * S`` columns), so the ``b`` per-origin period loops of the
  cycle-time algorithm run as one;
* works slot-major (``(frames * n, b * S)`` buffers) with a frame ring
  of precomputed index-array *variants* instead of rolling the buffer,
  so no period-over-period copy is paid;
* unrolls 2-4 periods into one program when ``b`` is small, amortising
  dispatch overhead across periods;
* groups each period's rows into dependency levels, degree-sorted so
  the j-th-arc maxima of a level are contiguous-slice ``np.maximum``
  calls.

λ per binding falls out of one vectorized max over the collected
border distances.  Critical cycles are backtracked only for the
bindings that ask (:meth:`BatchSweepResult.critical_cycles`): one
re-sweep of those bindings records every period's slot times, each
recorded instance gets its argmax predecessor in a few vector ops, and
the winning walks are followed through that plane for all of them at
once.  The sweep is bit-identical to S independent
:func:`rebind_compiled` + single-kernel float runs (same IEEE additions
and maxima, different loop order only), so the recovered cycles are
the per-sample path's.

Fused programs are compiled once per topology, cached on the
:class:`_BatchStructure` (itself carried across the service layer's
O(1) ``adopt`` path when the arc order matches).
``executor="process"`` ships ``(S, m)`` delay matrices to pool workers
through one :mod:`multiprocessing.shared_memory` block per sweep
(attached child-side by name, unlinked by the parent when the sweep
ends) so chunk dispatch never pickles the matrix.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import sys
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NotLiveError, SignalGraphError
from .signal_graph import Event, TimedSignalGraph
from .validation import find_unmarked_cycle, live_order
from ..obs.profile import active_profiler, phase as _phase

#: Sentinel for "instance has no simulated time" in flat time arrays.
NEG_INF = float("-inf")

#: Kernel names accepted by the public entry points.
KERNELS = ("auto", "exact", "float", "legacy")

#: Float-kernel runs of one compiled structure before its programs are
#: specialised to straight-line code.  Small enough that benchmarks and
#: sweeps hit the fast tier almost immediately, large enough that a
#: single analysis (``b`` runs for typical small ``b``) stays on the
#: no-setup interpreted tier.
CODEGEN_THRESHOLD = 6

_CACHE_KEY = "compiled-kernel"

#: One compiled in-arc program row:
#: (buffer_index_of_target, [(buffer_index_of_source, delay), ...]).
Row = Tuple[int, List[Tuple[int, object]]]


class CompiledGraph:
    """Dense-index view of a live Timed Signal Graph.

    Attributes
    ----------
    order:
        Events in unmarked-subgraph topological order; the id of an
        event is its position here, so ids themselves are topologically
        sorted and slot ``id + k*n`` layouts are period-major.
    id_of:
        Event -> dense id.
    repetitive:
        Per-id booleans (is the event on a cycle?).
    rep_ids / nonrep_ids:
        Ids of the (non-)repetitive events, ascending (= topo order).
    in_compact:
        Per-event ``(source, tokens, delay, source_is_repetitive)``
        tuples, shared with :class:`~repro.core.unfolding.Unfolding`.

    Program rows address the rolling two-period buffer: the current
    period occupies indices ``n .. 2n-1``, the previous period
    ``0 .. n-1``, so a source reached over ``tokens`` marked arcs sits
    at buffer index ``n + source_id - tokens * n``.
    """

    def __init__(self, graph: TimedSignalGraph):
        # The *lexicographical* topological sort makes the compiled
        # structure canonical: two content-equal graphs compile to the
        # same order (and hence the same slot layout and programs) no
        # matter what order their events and arcs were inserted in —
        # the property that makes content-hash -> compiled-program
        # reuse in repro.service sound.  The same (cached) sort decides
        # liveness: it fails exactly when a token-free cycle exists.
        with _phase("toposort"):
            live = live_order(graph)
        if live is None:
            raise NotLiveError(
                "cannot unfold a non-live graph (token-free cycle exists)",
                cycle=find_unmarked_cycle(graph),
            )
        self.graph = graph
        self.order = order = list(live)
        self.n = n = len(order)
        self.id_of: Dict[Event, int] = {event: i for i, event in enumerate(order)}
        repetitive_set = graph.repetitive_events
        self.repetitive: List[bool] = [event in repetitive_set for event in order]
        self.rep_ids: List[int] = [i for i in range(n) if self.repetitive[i]]
        self.nonrep_ids: List[int] = [i for i in range(n) if not self.repetitive[i]]
        self.topo_repetitive: List[Event] = [order[i] for i in self.rep_ids]
        # position of an id inside rep_ids, -1 for non-repetitive events
        self.rep_index: List[int] = [-1] * n
        for position, tid in enumerate(self.rep_ids):
            self.rep_index[tid] = position
        self._build_programs(graph, repetitive_set)

    def _build_programs(self, graph: TimedSignalGraph, repetitive_set) -> None:
        """(Re)build the per-period-class arc programs from the graph.

        Factored out so :meth:`rebound` can refresh delays on an
        existing topology without re-running the liveness check and the
        topological sort.
        """
        n = self.n
        order = self.order
        id_of = self.id_of
        self.in_compact = {
            event: tuple(
                (arc.source, arc.tokens, arc.delay, arc.source in repetitive_set)
                for arc in graph.in_arcs(event)
            )
            for event in order
        }
        # In-arc order per event is preserved from the graph, which
        # fixes argmax tie-breaking to match the legacy loops.
        p0: List[Row] = []
        p1: List[Row] = []
        ps: List[Row] = []
        for tid, event in enumerate(order):
            p0.append(
                (
                    n + tid,
                    [
                        (n + id_of[source], delay)
                        for source, tokens, delay, _ in self.in_compact[event]
                        if tokens == 0
                    ],
                )
            )
        for tid in self.rep_ids:
            arcs_one: List[Tuple[int, object]] = []
            arcs_steady: List[Tuple[int, object]] = []
            for source, tokens, delay, source_rep in self.in_compact[order[tid]]:
                offset = n + id_of[source] - tokens * n
                if tokens or source_rep:
                    arcs_one.append((offset, delay))
                if source_rep:
                    arcs_steady.append((offset, delay))
            p1.append((n + tid, arcs_one))
            ps.append((n + tid, arcs_steady))
        self.p0, self.p1, self.ps = p0, p1, ps
        self._float_programs: Optional[tuple] = None
        self._float_fns: Optional[tuple] = None
        self._float_runs = 0
        self._allow_codegen = True
        self._batch_structure: Optional["_BatchStructure"] = None
        self._batch_donor: Optional["_BatchStructure"] = None

    @classmethod
    def rebound(
        cls,
        base: "CompiledGraph",
        graph: TimedSignalGraph,
        allow_codegen: bool = False,
    ) -> "CompiledGraph":
        """A compiled view of ``graph`` reusing ``base``'s topology.

        ``graph`` must have exactly ``base.graph``'s events and arcs
        (equal values, e.g. via :meth:`TimedSignalGraph.copy` or a
        content-hash match) and may differ only in delays — the
        contract of delay sweeps.  Skips the liveness check and
        topological sort, so a rebind is O(m).

        ``allow_codegen`` defaults to False because a rebound structure
        typically carries trial-specific delays and lives for one
        analysis, where specialising code can never pay off; the
        service compile cache passes True for long-lived client graphs.
        """
        new = cls.__new__(cls)
        new.graph = graph
        new.order = base.order
        new.n = base.n
        new.id_of = base.id_of
        new.repetitive = base.repetitive
        new.rep_ids = base.rep_ids
        new.nonrep_ids = base.nonrep_ids
        new.topo_repetitive = base.topo_repetitive
        new.rep_index = base.rep_index
        new._build_programs(graph, frozenset(base.topo_repetitive))
        new._allow_codegen = allow_codegen
        # Delay-only rebinds can reuse the (delay-free) batch/fused
        # index programs, provided the new graph's arc insertion order
        # matches; validated lazily in _batch_structure_of.
        new._batch_donor = base._batch_structure or base._batch_donor
        return new

    @classmethod
    def adopt(cls, base: "CompiledGraph", graph: TimedSignalGraph) -> "CompiledGraph":
        """A compiled view of ``graph`` sharing ``base``'s programs.

        Requires ``graph`` to be *content-equal* to the graph ``base``
        was compiled from — same events, arcs, markings, disengageable
        sets **and delays** (equal values; the service layer guarantees
        this via the full content hash).  Everything expensive — the
        topology, the arc programs, already-converted float programs
        and generated straight-line kernels — is shared by reference;
        only the per-graph lazy state (the batch structure, whose
        column order follows ``graph``'s own arc insertion order) is
        reset.  Adoption is O(1): the warm path of the compile cache.
        """
        new = cls.__new__(cls)
        new.graph = graph
        new.order = base.order
        new.n = base.n
        new.id_of = base.id_of
        new.repetitive = base.repetitive
        new.rep_ids = base.rep_ids
        new.nonrep_ids = base.nonrep_ids
        new.topo_repetitive = base.topo_repetitive
        new.rep_index = base.rep_index
        new.in_compact = base.in_compact
        new.p0, new.p1, new.ps = base.p0, base.p1, base.ps
        new._float_programs = base._float_programs
        new._float_fns = base._float_fns
        new._float_runs = base._float_runs
        new._allow_codegen = base._allow_codegen
        new._batch_structure = None
        # Keep adoption O(1): the base's batch structure (with its
        # compiled fused plans) is recorded as a *donor* and validated
        # against this graph's own arc order only on first batch use.
        new._batch_donor = base._batch_structure or base._batch_donor
        return new

    def __getstate__(self) -> dict:
        # Generated straight-line kernels are exec-compiled functions
        # and cannot be pickled; the batch structure holds NumPy index
        # arrays cheap to rebuild.  Both regenerate lazily after a
        # round-trip (e.g. through the service disk cache).  The
        # process-pool shipping token/blob are parent-local and must
        # never nest inside another pickle of this object.
        state = dict(self.__dict__)
        state["_float_fns"] = None
        state["_float_runs"] = 0
        state["_batch_structure"] = None
        state["_batch_donor"] = None
        state.pop("_pool_token", None)
        state.pop("_pool_blob", None)
        return state

    # ------------------------------------------------------------------
    def programs(self, float_mode: bool) -> tuple:
        """The (period-0, period-1, steady) programs for one kernel."""
        if not float_mode:
            return self.p0, self.p1, self.ps
        if self._float_programs is None:

            def convert(program: List[Row]) -> List[Row]:
                return [
                    (tid, [(offset, float(delay)) for offset, delay in arcs])
                    for tid, arcs in program
                ]

            self._float_programs = (
                convert(self.p0),
                convert(self.p1),
                convert(self.ps),
            )
        return self._float_programs

    def float_kernels(self) -> Optional[tuple]:
        """Straight-line compiled float programs, once warmed up.

        Returns ``None`` until :data:`CODEGEN_THRESHOLD` float runs
        have been counted, then a ``(period0, period1, steady)`` triple
        of generated functions ``f(buffer, empty)``.
        """
        if not self._allow_codegen:
            return None
        self._float_runs += 1
        if self._float_fns is None:
            if self._float_runs <= CODEGEN_THRESHOLD:
                return None
            with _phase("codegen"):
                self._float_fns = tuple(
                    _generate(program) for program in self.programs(True)
                )
        return self._float_fns

    def arcs_for(self, tid: int, period: int, float_mode: bool):
        """The in-arc program row of instance ``(order[tid], period)``."""
        p0, p1, ps = self.programs(float_mode)
        if period == 0:
            return p0[tid][1]
        position = self.rep_index[tid]
        if position < 0:
            return ()
        return (p1 if period == 1 else ps)[position][1]

    def slot(self, event: Event, index: int, periods: int) -> int:
        """Flat slot of ``(event, index)``, or -1 if outside the prefix."""
        tid = self.id_of.get(event, -1)
        if tid < 0 or index < 0 or index > periods:
            return -1
        if index and not self.repetitive[tid]:
            return -1
        return tid + index * self.n

    def instance_of(self, slot: int) -> Tuple[Event, int]:
        """Inverse of :meth:`slot` for valid slots."""
        index, tid = divmod(slot, self.n)
        return (self.order[tid], index)


def compiled_graph(graph: TimedSignalGraph) -> CompiledGraph:
    """The compiled structure of ``graph``, cached until mutation."""
    return graph.cached(_CACHE_KEY, lambda: CompiledGraph(graph))


def peek_compiled(graph: TimedSignalGraph) -> Optional[CompiledGraph]:
    """The already-installed compiled structure of ``graph``, if any.

    Never compiles; the service cache uses this to skip content
    hashing entirely when the graph object was compiled (or rebound)
    before and has not been mutated since.
    """
    return graph._cache.get(_CACHE_KEY)


def install_compiled(graph: TimedSignalGraph, cg: CompiledGraph) -> CompiledGraph:
    """Install ``cg`` as ``graph``'s compiled structure.

    Also installs the repetitive classification derived from the
    compiled topology, so no networkx pass runs on ``graph`` at all;
    border/initial events then derive from it with one cheap linear
    scan.  ``cg`` must have been built for (or rebound/adopted onto)
    ``graph``.
    """
    repetitive = frozenset(cg.topo_repetitive)
    graph.cached("repetitive", lambda: repetitive)
    return graph.cached(_CACHE_KEY, lambda: cg)


def rebind_compiled(graph: TimedSignalGraph, base: CompiledGraph) -> CompiledGraph:
    """Install a delay-rebound compiled structure on ``graph``.

    For bulk delay sweeps (Monte-Carlo sampling, interval corners,
    bottleneck shaving): ``graph`` must be structurally identical to
    ``base.graph`` — same events and arcs, only delays changed — which
    holds for any :meth:`TimedSignalGraph.copy` mutated exclusively via
    :meth:`set_delay`.  The structural classifications (repetitive,
    border, initial events) and the compiled topology are carried over,
    so re-analysis costs O(m) instead of a full recompilation; callers
    then pass ``check=False`` to :func:`~repro.core.compute_cycle_time`.
    """
    donor = base.graph
    graph.cached("repetitive", lambda: donor.repetitive_events)
    graph.cached("border", lambda: donor.border_events)
    graph.cached("initial", lambda: donor.initial_events)
    rebound = CompiledGraph.rebound(base, graph)
    return graph.cached(_CACHE_KEY, lambda: rebound)


def resolve_kernel(graph: TimedSignalGraph, kernel: Optional[str]) -> str:
    """Normalise a kernel selector to ``exact``/``float``/``legacy``.

    ``auto`` (the default everywhere) keeps exact arithmetic whenever
    every delay is an ``int`` or :class:`~fractions.Fraction` — so
    auto-selected results are bit-identical to the legacy path — and
    takes the float64 fast path when float delays are present (where
    the legacy path computed floats anyway).
    """
    if kernel is None or kernel == "auto":
        return "exact" if graph.is_exact else "float"
    if kernel not in ("exact", "float", "legacy"):
        raise SignalGraphError(
            "unknown kernel %r (choose from %s)" % (kernel, ", ".join(KERNELS))
        )
    return kernel


# ----------------------------------------------------------------------
# the kernels
# ----------------------------------------------------------------------
def _sweep(buffer: list, rows: Sequence[Row], init) -> None:
    """Relax one period's program inside the rolling buffer.

    ``init`` is the MAX identity for the simulation kind: ``0`` for the
    global simulation (instances with no predecessors occur at time 0;
    all candidates are non-negative, so pre-seeding 0 never changes a
    maximum) and ``-inf`` for event-initiated simulations (no defined
    predecessor leaves the instance undefined).  ``-inf`` operands flow
    through additions and comparisons exactly like the paper's
    neglected arcs, so the loop needs no definedness branch.
    """
    for target, arcs in rows:
        best = init
        for offset, delay in arcs:
            candidate = buffer[offset] + delay
            if candidate > best:
                best = candidate
        buffer[target] = best


def _generate(rows: Sequence[Row]):
    """Specialise one float program to a straight-line Python function.

    Emits one assignment per event — loop, unpacking and delay-lookup
    overhead all disappear; float delays are inlined as repr literals
    (repr round-trips float64 exactly).  ``empty`` supplies the value
    of no-predecessor rows: 0.0 for global simulations, -inf for
    event-initiated ones, so one generated function serves both kinds.
    """
    lines = ["def _kernel(b, empty):"]
    for target, arcs in rows:
        if not arcs:
            lines.append("    b[%d] = empty" % target)
        elif len(arcs) == 1:
            offset, delay = arcs[0]
            lines.append("    b[%d] = b[%d] + %r" % (target, offset, delay))
        else:
            offset, delay = arcs[0]
            lines.append("    _a = b[%d] + %r" % (offset, delay))
            for offset, delay in arcs[1:]:
                lines.append("    _c = b[%d] + %r" % (offset, delay))
                lines.append("    if _c > _a: _a = _c")
            lines.append("    b[%d] = _a" % target)
    namespace: dict = {}
    exec(compile("\n".join(lines), "<repro-kernel>", "exec"), namespace)
    return namespace["_kernel"]


def _run_periods(
    cg: CompiledGraph, times: list, buffer: list, periods: int, float_mode: bool, init
) -> None:
    """Replay periods 1..periods and flush each into ``times``."""
    n = cg.n
    _, p1, ps = cg.programs(float_mode)
    fns = cg.float_kernels() if float_mode else None
    nonrep = cg.nonrep_ids
    profiler = active_profiler()
    for period in range(1, periods + 1):
        started = time.perf_counter() if profiler is not None else 0.0
        buffer[:n] = buffer[n:]
        if fns is not None:
            (fns[1] if period == 1 else fns[2])(buffer, init)
        else:
            _sweep(buffer, p1 if period == 1 else ps, init)
        kn = period * n
        times[kn:kn + n] = buffer[n:]
        # Non-repetitive events have no instance beyond period 0; their
        # buffer slots carry stale period-0 values (never read by the
        # repetitive-only programs) which must not leak into the result.
        for tid in nonrep:
            times[kn + tid] = NEG_INF
        if profiler is not None:
            profiler.record_period(time.perf_counter() - started)


def run_global(cg: CompiledGraph, periods: int, float_mode: bool) -> list:
    """Flat times of the global timing simulation ``t(f)``."""
    n = cg.n
    zero = 0.0 if float_mode else 0
    with _phase("run"):
        times = [NEG_INF] * ((periods + 1) * n)
        buffer = [NEG_INF] * (2 * n)
        fns = cg.float_kernels() if float_mode else None
        if fns is not None:
            fns[0](buffer, zero)
        else:
            _sweep(buffer, cg.programs(float_mode)[0], zero)
        times[0:n] = buffer[n:]
        _run_periods(cg, times, buffer, periods, float_mode, zero)
    return times


def run_initiated(
    cg: CompiledGraph, origin_id: int, periods: int, float_mode: bool
) -> list:
    """Flat times of the event-initiated simulation ``t_g(f)``.

    Instances topologically before the origin stay at the ``-inf``
    sentinel (the paper assigns them "the past"); later instances
    maximise over *defined* predecessors only, which the sentinel
    arithmetic handles without branching.  The period-0 prefix depends
    on the origin, so that one period is always interpreted; periods
    1.. replay the shared (possibly code-generated) programs.
    """
    n = cg.n
    with _phase("run"):
        p0 = cg.programs(float_mode)[0]
        times = [NEG_INF] * ((periods + 1) * n)
        buffer = [NEG_INF] * (2 * n)
        buffer[n + origin_id] = 0.0 if float_mode else 0
        # Ids equal topological positions, so the period-0 instances
        # after the origin are exactly the rows origin_id+1 .. n-1.
        _sweep(buffer, p0[origin_id + 1:], NEG_INF)
        times[0:n] = buffer[n:]
        _run_periods(cg, times, buffer, periods, float_mode, NEG_INF)
    return times


def argmax_slot(
    cg: CompiledGraph, times: list, slot: int, float_mode: bool
) -> Optional[int]:
    """Recover the argmax predecessor slot of a defined instance.

    The kernels do not track argmax in the hot loop; re-scanning the
    queried instance's in-arc program and taking the *first* candidate
    that equals its time reproduces the legacy strict-``>`` tie-break
    (the first maximal predecessor in graph in-arc order).  Undefined
    predecessors re-evaluate to ``-inf`` and can never match a defined
    time, so they are skipped for free.
    """
    target = times[slot]
    if target == NEG_INF:
        return None
    n = cg.n
    period, tid = divmod(slot, n)
    # Program offsets address the rolling buffer (current period at
    # n..2n-1); shift them back to absolute slots of this period.
    shift = (period - 1) * n
    for offset, delay in cg.arcs_for(tid, period, float_mode):
        if times[offset + shift] + delay == target:
            return offset + shift
    return None


# ----------------------------------------------------------------------
# batched border-event driver
# ----------------------------------------------------------------------
def run_border_simulations(
    graph: TimedSignalGraph,
    periods: Optional[int] = None,
    kernel: str = "auto",
    workers: Optional[int] = None,
    border: Optional[Sequence[Event]] = None,
):
    """Run all border-initiated simulations against one compiled graph.

    Returns ``{border_event: EventInitiatedSimulation}`` in border
    order — the input of the cycle-time algorithm's distance collection.
    ``workers`` > 1 fans the ``b`` simulations out over a thread pool;
    the compiled structure is built once up front and shared read-only,
    so the workers are safe (the pure-Python kernels still serialise on
    the GIL, so this mainly helps when delays trigger non-trivial
    arithmetic such as large Fractions).
    """
    from .simulation import EventInitiatedSimulation

    if border is None:
        border = graph.border_events
    else:
        border = tuple(border)
    if periods is None:
        periods = len(border)
    kernel = resolve_kernel(graph, kernel)
    if kernel != "legacy":
        # Build (and cache) the shared structures before any fan-out.
        cg = compiled_graph(graph)
        cg.programs(kernel == "float")

    def simulate(event):
        return EventInitiatedSimulation(graph, event, periods, kernel=kernel)

    if workers is not None and workers > 1 and len(border) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            simulations = list(pool.map(simulate, border))
    else:
        simulations = [simulate(event) for event in border]
    return dict(zip(border, simulations))


# ----------------------------------------------------------------------
# process-pool chunk executor
# ----------------------------------------------------------------------
#: Executor names accepted by the batch entry points.  ``thread`` fans
#: chunks over a thread pool (NumPy releases the GIL inside its large
#: vector ops, but the Python-level period loop still serialises);
#: ``process`` ships chunks to a pool of worker *processes*, so
#: GIL-bound sweeps — many small vector ops per period on big graphs —
#: scale with cores.
EXECUTORS = ("thread", "process")

_pool_lock = threading.Lock()
_pool = None
_pool_workers = 0
_pool_method: Optional[str] = None
_pool_tokens = itertools.count(1)

#: Per-process memo of shipped compiled graphs, keyed by the parent's
#: shipping token (unique per CompiledGraph object, never reused).
_CHILD_COMPILED: "OrderedDict[Tuple[int, int], CompiledGraph]" = OrderedDict()
_CHILD_COMPILED_LIMIT = 8


def _chunk_child_init() -> None:
    """Tie each chunk-executor child to its parent's lifetime.

    A SIGKILLed parent (worker crash, chaos test) cannot shut its
    executor down, and orphaned children would otherwise block forever
    on the call queue — keeping inherited pipes open.  On Linux,
    ``PR_SET_PDEATHSIG`` makes the kernel deliver SIGKILL to the child
    the moment the parent dies; elsewhere this is a silent no-op.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        import ctypes
        import signal as _signal

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, _signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() == 1:
            # The parent died in the window before prctl took effect.
            os._exit(0)
    except Exception:
        pass


def process_pool(workers: Optional[int] = None):
    """The shared chunk-executor process pool (created on first use).

    Grows (never shrinks) to ``workers``; the pool is process-wide so
    repeated sweeps reuse warm workers instead of paying a fork per
    call.  Prefers the ``fork`` start method — children inherit the
    imported library instead of re-importing it — falling back to the
    platform default elsewhere.
    """
    global _pool, _pool_workers, _pool_method
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    want = workers or max(1, (os.cpu_count() or 2) - 0)
    with _pool_lock:
        if _pool is not None and _pool_workers >= want:
            return _pool
        previous = _pool
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        _pool = ProcessPoolExecutor(
            max_workers=want, mp_context=context,
            initializer=_chunk_child_init,
        )
        _pool_workers = want
        _pool_method = context.get_start_method()
    if previous is not None:
        previous.shutdown(wait=False)
    return _pool


def shutdown_process_pool() -> None:
    """Tear the shared chunk-executor pool down (tests, atexit)."""
    global _pool, _pool_workers
    with _pool_lock:
        pool, _pool, _pool_workers = _pool, None, 0
    if pool is not None:
        pool.shutdown(wait=True)


def _pool_payload(cg: CompiledGraph) -> Tuple[Tuple[int, int], bytes]:
    """A stable shipping token and pickled blob for one compiled graph.

    The token is ``(parent pid, counter)`` so a forked pool worker that
    outlives several parents can never confuse two graphs; the blob is
    pickled once per CompiledGraph object and cached on it
    (:meth:`CompiledGraph.__getstate__` strips both attributes, so the
    blob never nests inside itself through the disk cache).
    """
    token = getattr(cg, "_pool_token", None)
    if token is None:
        token = (os.getpid(), next(_pool_tokens))
        cg._pool_blob = pickle.dumps(cg, protocol=pickle.HIGHEST_PROTOCOL)
        cg._pool_token = token
    return token, cg._pool_blob


#: Parent-side registry of live shared-memory sweep blocks, so a
#: crashed/interrupted sweep still unlinks its segments at interpreter
#: exit instead of leaking them in /dev/shm.
_SHM_LOCK = threading.Lock()
_SHM_LIVE: Dict[str, object] = {}
_SHM_STATS = {"created": 0, "unlinked": 0, "fallback": 0}


def shm_stats() -> Dict[str, int]:
    """Shared-memory segment counters (created/unlinked/fallback)."""
    return dict(_SHM_STATS)


class _SharedMatrix:
    """One sweep's ``(S, m)`` delay matrix in a shared-memory block.

    Created once per process-executor sweep; chunks ship only the
    block *name* plus a ``(lo, hi)`` row range, so chunk dispatch never
    pickles the matrix.  The block is F-ordered, the arc-major layout
    :func:`~repro.analysis.montecarlo.sample_delay_matrix` draws: the
    drawn matrix is copied in without a transpose, and a child's row
    range ``full[lo:hi]`` keeps a unit-stride sample axis, which
    :class:`BatchBindings` reads in place.  The parent closes + unlinks
    the block in the sweep's ``finally`` (and, crash-safe, at
    interpreter exit via the module registry).
    """

    def __init__(self, matrix: np.ndarray):
        from multiprocessing import shared_memory

        if os.environ.get("REPRO_DISABLE_SHM"):
            # Chaos hook: pretend /dev/shm is unavailable so the
            # pickled-fallback path (and its counter) is exercised.
            raise OSError("shared memory disabled by REPRO_DISABLE_SHM")
        self._shm = shared_memory.SharedMemory(
            create=True, size=matrix.nbytes
        )
        self.name = self._shm.name
        self.shape = matrix.shape
        view = np.ndarray(matrix.shape, dtype=np.float64,
                          buffer=self._shm.buf, order="F")
        view[:] = matrix
        del view
        with _SHM_LOCK:
            _SHM_LIVE[self.name] = self._shm
        _SHM_STATS["created"] += 1

    def close(self) -> None:
        with _SHM_LOCK:
            shm = _SHM_LIVE.pop(self.name, None)
        if shm is None:
            return
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        _SHM_STATS["unlinked"] += 1


def _cleanup_shared_matrices() -> None:
    """Unlink any sweep blocks still alive (crash-safe atexit hook)."""
    with _SHM_LOCK:
        leaked = list(_SHM_LIVE.items())
        _SHM_LIVE.clear()
    for _, shm in leaked:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        _SHM_STATS["unlinked"] += 1


# The pool must drain before segments vanish; atexit runs LIFO, so the
# segment sweep is registered first and the pool shutdown second.
atexit.register(_cleanup_shared_matrices)
atexit.register(shutdown_process_pool)


def _child_attach_matrix(name: str, shape: Tuple[int, int], untrack: bool):
    """Attach a parent sweep block inside a pool worker.

    ``untrack`` applies the spawn/forkserver workaround: those workers
    own a *separate* resource tracker which would unlink the segment a
    second time when the worker exits (the parent owns the lifecycle),
    so the attach-side registration is withdrawn.  Fork workers share
    the parent's tracker — there the attach-side registration collapses
    into the parent's own and must be left alone.  Returns
    ``(array, shm)``, the array F-ordered like the parent's block; the
    caller must drop every view before closing ``shm``.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    if untrack:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    full = np.ndarray(shape, dtype=np.float64, buffer=shm.buf, order="F")
    return full, shm


def _pool_run_chunk(
    token: Tuple[int, int],
    blob: Optional[bytes],
    shm_name: Optional[str],
    shm_shape: Optional[Tuple[int, int]],
    shm_untrack: bool,
    lo: int,
    hi: int,
    origin_ids: Sequence[int],
    periods: int,
    unroll: Optional[int],
    matrix: Optional[np.ndarray],
) -> List[np.ndarray]:
    """Run one chunk's border simulations inside a pool worker.

    Executed in the child process.  The compiled graph is unpickled at
    most once per (worker, token) and memoised, so a sweep split into
    many chunks pays the rebuild cost once per worker, not per chunk.
    The delay rows come from the parent's shared-memory sweep block
    (``shm_name``; a zero-copy row slice with a unit-stride sample
    axis) — ``matrix`` is only populated on the pickling fallback path
    for platforms without working shared memory.
    """
    cg = _CHILD_COMPILED.get(token)
    if cg is None:
        cg = pickle.loads(blob)
        _CHILD_COMPILED[token] = cg
        while len(_CHILD_COMPILED) > _CHILD_COMPILED_LIMIT:
            _CHILD_COMPILED.popitem(last=False)
    else:
        _CHILD_COMPILED.move_to_end(token)
    if shm_name is not None:
        full, shm = _child_attach_matrix(shm_name, shm_shape, shm_untrack)
        bindings = None
        try:
            bindings = BatchBindings(cg, full[lo:hi])
            tables = run_border_sweep_fused(
                bindings, origin_ids, periods, unroll
            )
        finally:
            # every view of the mapping must be gone before close()
            # releases the exported buffer
            del bindings
            del full
            shm.close()
        return tables
    return run_border_sweep_fused(
        BatchBindings(cg, matrix), origin_ids, periods, unroll
    )


def _submit_chunk(
    pool,
    token: Tuple[int, int],
    blob: bytes,
    shared: Optional[_SharedMatrix],
    matrix: np.ndarray,
    lo: int,
    hi: int,
    origin_ids: Sequence[int],
    periods: int,
    unroll: Optional[int],
):
    """Submit one chunk to the process pool.

    The single submission boundary of the process executor — tests
    interpose here to assert exactly what crosses the pickle fence:
    with a live shared block the payload is the block name plus a row
    range, never the matrix.
    """
    if shared is not None:
        return pool.submit(
            _pool_run_chunk, token, blob, shared.name, shared.shape,
            _pool_method != "fork", lo, hi, origin_ids, periods,
            unroll, None,
        )
    return pool.submit(
        _pool_run_chunk, token, blob, None, None, False, 0, hi - lo,
        origin_ids, periods, unroll,
        np.ascontiguousarray(matrix[lo:hi]),
    )


# ----------------------------------------------------------------------
# vectorized multi-binding batch sweep
# ----------------------------------------------------------------------
class _BatchStructure:
    """The batch-compiled view of one topology: the arc column order,
    the three period classes' rows with delay-matrix columns in place
    of delays, and the fused plans compiled from them."""

    def __init__(self, cg: CompiledGraph):
        graph = cg.graph
        self.pairs: List[Tuple[Event, Event]] = [arc.pair for arc in graph.arcs]
        col_of = {pair: index for index, pair in enumerate(self.pairs)}
        n = cg.n
        id_of = cg.id_of
        order = cg.order
        self._p0_rows: List[Tuple[int, List[Tuple[int, int]]]] = []
        for tid, event in enumerate(order):
            self._p0_rows.append(
                (
                    n + tid,
                    [
                        (n + id_of[source], col_of[(source, event)])
                        for source, tokens, _, _ in cg.in_compact[event]
                        if tokens == 0
                    ],
                )
            )
        p1_rows: List[Tuple[int, List[Tuple[int, int]]]] = []
        ps_rows: List[Tuple[int, List[Tuple[int, int]]]] = []
        for tid in cg.rep_ids:
            event = order[tid]
            arcs_one: List[Tuple[int, int]] = []
            arcs_steady: List[Tuple[int, int]] = []
            for source, tokens, _, source_rep in cg.in_compact[event]:
                offset = n + id_of[source] - tokens * n
                col = col_of[(source, event)]
                if tokens or source_rep:
                    arcs_one.append((offset, col))
                if source_rep:
                    arcs_steady.append((offset, col))
            p1_rows.append((n + tid, arcs_one))
            ps_rows.append((n + tid, arcs_steady))
        self.n = n
        self.col_of = col_of
        self._p1_rows = p1_rows
        self._ps_rows = ps_rows
        self._fused_plans: Dict[int, "_FusedPlan"] = {}
        self._walk_tables: Optional[Tuple["_WalkTable", ...]] = None
        self._lock = threading.Lock()

    def fused_plan(self, span: int) -> "_FusedPlan":
        """The fused whole-period plan unrolled over ``span`` periods
        (compiled once per (topology, span), cached)."""
        plan = self._fused_plans.get(span)
        if plan is None:
            with self._lock:
                plan = self._fused_plans.get(span)
                if plan is None:
                    with _phase("codegen"):
                        plan = _FusedPlan(self, span)
                    self._fused_plans[span] = plan
        return plan

    def walk_tables(self) -> Tuple["_WalkTable", ...]:
        """The (period 0, period 1, steady) argmax tables (built once)."""
        if self._walk_tables is None:
            self._walk_tables = tuple(
                _WalkTable(rows, self.n)
                for rows in (self._p0_rows, self._p1_rows, self._ps_rows)
            )
        return self._walk_tables


def _batch_structure_of(cg: CompiledGraph) -> _BatchStructure:
    """The (lazily built, cached) batch structure of a compiled graph.

    Adopted/rebound graphs carry the originating structure as a
    *donor*; it is reused — fused plans and all — iff
    this graph's own arc insertion order matches the donor's column
    order (the matrix-column contract of :class:`BatchBindings`).
    """
    if cg._batch_structure is None:
        donor = getattr(cg, "_batch_donor", None)
        if donor is not None and donor.pairs == [
            arc.pair for arc in cg.graph.arcs
        ]:
            cg._batch_structure = donor
        else:
            cg._batch_structure = _BatchStructure(cg)
    return cg._batch_structure


class BatchBindings:
    """S delay bindings over one compiled topology.

    ``matrix`` is an ``(S, m)`` float64 matrix whose columns follow
    the graph's arc insertion order (``base.graph.arcs``; the order is
    exposed as :attr:`pairs`).  Row ``s`` is one complete delay
    binding — the batched equivalent of ``graph.copy()`` + S
    ``set_delay`` calls + :func:`rebind_compiled`, at a fraction of
    the cost.  A float64 matrix that is C-contiguous, or whose sample
    axis is unit-stride (an F-ordered matrix, or a row range of one),
    is kept as given (no copy); the F-ordered transposed view that
    :func:`~repro.analysis.montecarlo.sample_delay_matrix` returns makes
    every per-program delay gather a contiguous row gather.  Other
    layouts are copied to C order.
    """

    def __init__(self, base: CompiledGraph, matrix):
        self.base = base
        self.structure = _batch_structure_of(base)
        matrix = np.asarray(matrix, dtype=np.float64)
        if not (
            matrix.flags.c_contiguous
            or (matrix.ndim == 2 and matrix.strides[0] == matrix.itemsize)
        ):
            matrix = np.ascontiguousarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.structure.pairs):
            raise SignalGraphError(
                "delay matrix must have shape (S, %d) for %r, got %r"
                % (len(self.structure.pairs), base.graph.name, matrix.shape)
            )
        if matrix.shape[0] < 1:
            raise SignalGraphError("need at least one delay binding")
        self.matrix = matrix
        self._dmats_t: Dict[int, np.ndarray] = {}

    @classmethod
    def nominal(cls, base: CompiledGraph, samples: int = 1) -> "BatchBindings":
        """``samples`` copies of the graph's own (floatified) delays."""
        row = np.asarray(
            [float(arc.delay) for arc in base.graph.arcs], dtype=np.float64
        )
        return cls(base, np.tile(row, (samples, 1)))

    @property
    def pairs(self) -> List[Tuple[Event, Event]]:
        """Arc ``(source, target)`` pairs, one per matrix column."""
        return self.structure.pairs

    @property
    def samples(self) -> int:
        return self.matrix.shape[0]

    def subset(self, lo: int, hi: int) -> "BatchBindings":
        """Bindings ``lo .. hi-1`` as a view (no matrix copy)."""
        clone = object.__new__(BatchBindings)
        clone.base = self.base
        clone.structure = self.structure
        clone.matrix = self.matrix[lo:hi]
        clone._dmats_t = {}
        return clone

    def delays_t_for(self, program: "_FusedProgram") -> np.ndarray:
        """The transposed ``(arcs, S)`` delay block of one fused
        program.  Keyed by the program's ``cols`` array so the frame
        variants of one span program (which share ``cols`` by
        reference) share a single cached block."""
        key = id(program.cols)
        if key not in self._dmats_t:
            self._dmats_t[key] = self.matrix.T[program.cols]
        return self._dmats_t[key]


# ----------------------------------------------------------------------
# fused period programs
# ----------------------------------------------------------------------
class _FusedLevel:
    """One dependency level of a fused program, degree-sorted.

    Rows are sorted by in-degree descending and their arcs laid out
    *j-major* in ``offsets`` (all first arcs of the level, then all
    second arcs of rows with >= 2, ...), so the rows still having a
    j-th arc are exactly rows ``0 .. k-1`` and each reduction step is
    one contiguous-slice ``np.maximum`` — no segment index arrays, no
    axis-0 ``reduceat``.

    ``offsets``/``targets``/``empty`` address the slot-major frame-ring
    buffer (rows = slots, columns = stacked bindings); ``dlo`` is the
    level's start inside the program's flat ``cols`` array.
    """

    __slots__ = ("targets", "offsets", "empty", "nrows", "steps", "dlo")

    def __init__(self, targets, offsets, empty, nrows, steps, dlo):
        self.targets = targets
        self.offsets = offsets
        self.empty = empty
        self.nrows = nrows
        self.steps = steps
        self.dlo = dlo


class _FusedProgram:
    """A whole span of periods as one list of fused levels.

    ``cols`` maps every flattened arc (level-major, j-major within a
    level) to its delay-matrix column; frame-ring variants of one span
    share it by reference (see :meth:`shifted`), so one transposed
    delay block serves every variant.
    """

    __slots__ = ("levels", "cols", "span", "max_level_arcs")

    def __init__(self, levels, cols, span, max_level_arcs, size):
        self.levels = levels
        self.cols = cols
        self.span = span
        self.max_level_arcs = max_level_arcs
        # The level gathers run with mode="clip" (unbuffered), which
        # would clamp a bad index silently: check every index once here.
        indices = [level.offsets for level in levels]
        indices += [level.targets for level in levels]
        indices += [level.empty for level in levels if level.empty is not None]
        flat = np.concatenate(indices) if indices else np.empty(0, np.intp)
        if flat.size and (flat.min() < 0 or flat.max() >= size):
            raise SignalGraphError(
                "fused program indexes a slot outside its %d-slot ring" % size
            )

    def shifted(self, shift: int, size: int) -> "_FusedProgram":
        """The same program relocated ``shift`` slots down the ring."""
        if shift == 0:
            return self
        levels = [
            _FusedLevel(
                targets=(level.targets + shift) % size,
                offsets=(level.offsets + shift) % size,
                empty=(
                    None if level.empty is None
                    else (level.empty + shift) % size
                ),
                nrows=level.nrows,
                steps=level.steps,
                dlo=level.dlo,
            )
            for level in self.levels
        ]
        return _FusedProgram(
            levels, self.cols, self.span, self.max_level_arcs, size
        )


def _build_fused_levels(rows):
    """Level-schedule span-relative ``(target, [(slot, col), ...])``
    rows into degree-sorted fused levels.

    Rows arrive in execution order (periods ascending, topological ids
    within a period), so every source that *is* written by this program
    appears in ``level_of`` before any row reads it; sources absent
    from ``level_of`` are external (the span's previous frame) and have
    depth -1.  Empty rows land at level 0 and are written (to ``-inf``)
    there, before any same-span consumer reads them — ring frames hold
    stale values from ``frames`` periods ago, so they must not leak.

    Returns ``(levels, cols, max_level_arcs, level_of_target)``.
    """
    level_of: Dict[int, int] = {}
    row_levels: List[int] = []
    for target, arcs in rows:
        level = 0
        for slot, _ in arcs:
            depth = level_of.get(slot, -1) + 1
            if depth > level:
                level = depth
        level_of[target] = level
        row_levels.append(level)
    buckets: List[list] = [[] for _ in range(max(row_levels, default=-1) + 1)]
    for row, level in zip(rows, row_levels):
        buckets[level].append(row)
    levels: List[_FusedLevel] = []
    cols_flat: List[int] = []
    max_arcs = 0
    for members in buckets:
        full = [(t, a) for t, a in members if a]
        empty = [t for t, a in members if not a]
        full.sort(key=lambda row: -len(row[1]))
        offsets: List[int] = []
        steps: List[Tuple[int, int, int]] = []
        dlo = len(cols_flat)
        if full:
            for j in range(len(full[0][1])):
                start = len(offsets)
                count = 0
                for _, arcs in full:
                    if len(arcs) <= j:
                        break
                    offsets.append(arcs[j][0])
                    cols_flat.append(arcs[j][1])
                    count += 1
                if j:
                    steps.append((count, start, start + count))
        max_arcs = max(max_arcs, len(offsets))
        levels.append(
            _FusedLevel(
                targets=np.asarray([t for t, _ in full], dtype=np.intp),
                offsets=np.asarray(offsets, dtype=np.intp),
                empty=np.asarray(empty, dtype=np.intp) if empty else None,
                nrows=len(full),
                steps=tuple(steps),
                dlo=dlo,
            )
        )
    return levels, np.asarray(cols_flat, dtype=np.intp), max_arcs, level_of


def _expand_span_rows(rows, n: int, span: int):
    """Unroll per-period rows over ``span`` periods in ring-relative
    slots: frame 0 is the span's previous period, frames ``1..span``
    are the periods it computes.  Rolling-buffer offsets translate as
    ``offset < n`` -> previous period (frame ``u``), ``offset >= n`` ->
    same period (frame ``u + 1``)."""
    expanded = []
    for u in range(span):
        for target, arcs in rows:
            expanded.append(
                (
                    (u + 1) * n + (target - n),
                    [
                        (
                            u * n + offset if offset < n
                            else (u + 1) * n + (offset - n),
                            col,
                        )
                        for offset, col in arcs
                    ],
                )
            )
    return expanded


class _FusedPlan:
    """Everything needed to sweep whole periods in large fused ops.

    * ``p0`` — the full period-0 program in frame 0 (all origins run
      it *stacked*: every row computes ``-inf`` until the per-origin
      pin, see :func:`run_border_sweep_fused`);
    * ``p1`` — period 1 (always frame 0 -> frame 1);
    * ``steady[f]`` — the steady program spanning ``span`` periods,
      one variant per start frame ``f`` of the ring;
    * ``tail[f]`` — single-period steady variants finishing off period
      counts not divisible by ``span`` (aliases ``steady`` when
      ``span == 1``).

    The ring has ``frames = span + 1`` frames so a span never
    overwrites the frame it reads; period ``p`` always lives at frame
    ``p % frames``.
    """

    __slots__ = ("n", "span", "frames", "p0", "p0_level_of", "p1",
                 "steady", "tail", "max_level_arcs")

    def __init__(self, structure: "_BatchStructure", span: int):
        n = structure.n
        self.n = n
        self.span = span
        self.frames = span + 1
        size = self.frames * n
        p0_rows = [
            (target - n, [(offset - n, col) for offset, col in arcs])
            for target, arcs in structure._p0_rows
        ]
        levels, cols, max_arcs, level_of = _build_fused_levels(p0_rows)
        self.p0 = _FusedProgram(levels, cols, 1, max_arcs, size)
        self.p0_level_of = level_of
        levels, cols, arcs1, _ = _build_fused_levels(
            _expand_span_rows(structure._p1_rows, n, 1)
        )
        self.p1 = _FusedProgram(levels, cols, 1, arcs1, size)
        max_arcs = max(max_arcs, arcs1)
        levels, cols, arcs_s, _ = _build_fused_levels(
            _expand_span_rows(structure._ps_rows, n, span)
        )
        steady = _FusedProgram(levels, cols, span, arcs_s, size)
        max_arcs = max(max_arcs, arcs_s)
        self.steady = [steady.shifted(f * n, size) for f in range(self.frames)]
        if span == 1:
            self.tail = self.steady
        else:
            levels, cols, arcs_t, _ = _build_fused_levels(
                _expand_span_rows(structure._ps_rows, n, 1)
            )
            tail = _FusedProgram(levels, cols, 1, arcs_t, size)
            max_arcs = max(max_arcs, arcs_t)
            self.tail = [tail.shifted(f * n, size) for f in range(self.frames)]
        self.max_level_arcs = max_arcs


def _resolve_unroll(unroll: Optional[int], stack: int, periods: int) -> int:
    """The period-unroll span for ``stack`` stacked origins.

    Unrolling trades program size for fewer, larger vector ops; its
    win shrinks as the stacked width ``b * S`` grows, so the automatic
    policy unrolls aggressively only for small ``b``.  Always clamped
    so a span never exceeds the steady periods available."""
    if unroll is not None:
        if unroll < 1 or unroll > 8:
            raise SignalGraphError(
                "unroll must be between 1 and 8, got %r" % (unroll,)
            )
        limit = unroll
    elif stack <= 1:
        limit = 4
    elif stack == 2:
        limit = 2
    else:
        limit = 1
    return max(1, min(limit, periods - 1))


_FUSED_SCRATCH = threading.local()


def _fused_scratch(rows: int, arcs: int, width: int):
    """Reusable ``(buffer, workspace)`` scratch for fused sweeps.

    The fused execution order writes every slot before any read (p0
    covers all of frame 0, including ``-inf`` no-predecessor rows;
    p1/steady write every repetitive row of their target frames before
    a later level or a collect reads it), so the scratch needs no
    initialisation — which also makes it safe to reuse across sweeps.
    Reuse is thread-local and sized to the largest sweep seen, so the
    hot path of repeated sweeps pays neither the ~``frames * n * b * S``
    fill nor the page faults of a fresh allocation.
    """
    cached = getattr(_FUSED_SCRATCH, "arrays", None)
    if (
        cached is not None
        and cached[0].shape[1] == width
        and cached[0].shape[0] >= rows
        and cached[1].shape[0] >= arcs
    ):
        buffer, workspace = cached
    else:
        buffer = np.empty((rows, width))
        workspace = np.empty((max(arcs, 1), width))
        _FUSED_SCRATCH.arrays = (buffer, workspace)
    return buffer[:rows], workspace


def _run_fused_level(level: _FusedLevel, dmat_t: np.ndarray,
                     buffer: np.ndarray, workspace: np.ndarray,
                     stack: int) -> None:
    """Relax one fused level for all stacked bindings at once."""
    arcs = level.offsets.shape[0]
    if arcs:
        values = workspace[:arcs]
        # mode="clip" lets take write straight into ``out``; "raise"
        # always buffers it.  Indices were range-checked when the
        # program was built (_FusedProgram).
        np.take(buffer, level.offsets, axis=0, out=values, mode="clip")
        block = dmat_t[level.dlo:level.dlo + arcs]
        if stack > 1:
            # one delay column per *sample*: broadcast over the
            # stacked-origin axis without materialising b copies
            values.reshape(arcs, stack, -1)[...] += block[:, None, :]
        else:
            values += block
        out = values[:level.nrows]
        for count, lo, hi in level.steps:
            np.maximum(out[:count], values[lo:hi], out=out[:count])
        buffer[level.targets] = out
    if level.empty is not None:
        buffer[level.empty] = NEG_INF


def run_border_sweep_fused(
    bindings: BatchBindings,
    origin_ids: Sequence[int],
    periods: int,
    unroll: Optional[int] = None,
    record: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """All border-initiated batch simulations as one fused sweep.

    Returns one ``(S, periods)`` initiator-times table per origin —
    row ``s``, column ``i-1`` is ``t_{g_0}(g_i)`` under binding ``s``
    (``-inf`` where the initiator does not re-occur), bit-identical to
    S scalar :func:`run_initiated` runs — computed in a single
    slot-major ``(frames * n, b * S)`` buffer: the ``b`` origins are stacked along the sample axis, every
    level of every period is a handful of large vector ops, and the
    frame ring replaces the period-over-period buffer roll with
    precomputed index-array variants.

    Period 0 runs the *full* p0 program stacked: with only ``-inf``
    seeds every row evaluates to ``-inf``, after which each origin's
    own row is pinned to 0 in its column block — immediately after the
    level that wrote it, before any later level reads it — which
    reproduces the per-origin suffix semantics of the scalar kernel
    exactly.  Origins must be repetitive (border) events.

    ``record``, when given, is a ``(periods + 1, n, b * S)`` array that
    receives every period's frame once the period is computed (frame 0
    after the period-0 levels and pins): the slot times critical-cycle
    backtracking reads.  Non-repetitive rows of periods >= 1 hold
    stale values there, as in the ring.
    """
    structure = bindings.structure
    n = structure.n
    stack = len(origin_ids)
    samples = bindings.samples
    span = _resolve_unroll(unroll, stack, periods)
    plan = structure.fused_plan(span)
    frames = plan.frames
    width = stack * samples
    profiler = active_profiler()
    with _phase("run"):
        buffer, workspace = _fused_scratch(
            frames * n, plan.max_level_arcs, width
        )
        # every cell is assigned by a collect below, so no -inf fill
        out = np.empty((stack, samples, periods))

        pins: Dict[int, List[Tuple[int, int]]] = {}
        for gi, origin_id in enumerate(origin_ids):
            pins.setdefault(plan.p0_level_of[origin_id], []).append(
                (gi, origin_id)
            )
        dmat_t = bindings.delays_t_for(plan.p0)
        for index, level in enumerate(plan.p0.levels):
            _run_fused_level(level, dmat_t, buffer, workspace, stack)
            for gi, origin_id in pins.get(index, ()):
                buffer[origin_id, gi * samples:(gi + 1) * samples] = 0.0
        if record is not None:
            record[0] = buffer[:n]

        def collect(period: int) -> None:
            base = (period % frames) * n
            for gi, origin_id in enumerate(origin_ids):
                out[gi, :, period - 1] = buffer[
                    base + origin_id, gi * samples:(gi + 1) * samples
                ]
            if record is not None:
                record[period] = buffer[base:base + n]

        def run_span(program: _FusedProgram, first_period: int) -> None:
            started = time.perf_counter() if profiler is not None else 0.0
            dmat = bindings.delays_t_for(program)
            for level in program.levels:
                _run_fused_level(level, dmat, buffer, workspace, stack)
            for u in range(program.span):
                collect(first_period + u)
            if profiler is not None:
                share = (time.perf_counter() - started) / program.span
                for _ in range(program.span):
                    profiler.record_period(share)

        period = 1
        if periods >= 1:
            run_span(plan.p1, 1)
            period = 2
        while period + span - 1 <= periods:
            run_span(plan.steady[(period - 1) % frames], period)
            period += span
        while period <= periods:
            run_span(plan.tail[(period - 1) % frames], period)
            period += 1
    return [out[gi] for gi in range(stack)]


#: Bytes of recorded slot times (float64) one critical-cycle
#: backtracking chunk may hold; its int32 argmax plane takes half as
#: much again.  Criticality over more bindings than fit re-sweeps them
#: chunk by chunk, so its memory does not grow with the sample count.
RECORD_BUDGET = 32 << 20


class _WalkTable:
    """One period class's in-arc rows, laid out for argmax recovery.

    Rows with a single in-arc need no comparison: a defined instance
    equals its only candidate.  Rows with more are degree-sorted with
    their arcs laid out j-major, as in a fused level, so the rows
    still having a j-th arc are rows ``0 .. count-1``.  Offsets are
    rolling-buffer offsets: in period ``p`` they address slot
    ``offset + (p - 1) * n``.  Rows without in-arcs, and ids outside
    the class, have no predecessor.
    """

    __slots__ = ("single_ids", "single_offsets", "multi_ids", "steps")

    def __init__(self, rows, n: int):
        single = [(target - n, arcs[0][0]) for target, arcs in rows
                  if len(arcs) == 1]
        multi = sorted(
            (row for row in rows if len(row[1]) > 1),
            key=lambda row: -len(row[1]),
        )
        self.single_ids = np.asarray([tid for tid, _ in single], np.intp)
        self.single_offsets = np.asarray(
            [offset for _, offset in single], np.intp
        )
        self.multi_ids = np.asarray([target - n for target, _ in multi],
                                    np.intp)
        self.steps: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for j in range(len(multi[0][1]) if multi else 0):
            arcs = [row_arcs[j] for _, row_arcs in multi if len(row_arcs) > j]
            self.steps.append((
                len(arcs),
                np.asarray([offset for offset, _ in arcs], np.intp),
                np.asarray([col for _, col in arcs], np.intp),
            ))


def _argmax_plane(
    tables: Sequence[_WalkTable],
    record: np.ndarray,
    dmat_t: np.ndarray,
    groups: int,
) -> np.ndarray:
    """The argmax predecessor of every recorded instance.

    ``record`` holds a recording sweep's ``(frames, n, groups * c)``
    slot times and ``dmat_t`` the ``(m, c)`` transposed delays of its
    ``c`` bindings.  A row's predecessor is its *first* in-arc whose
    recorded source time plus delay equals the recorded target time —
    :func:`argmax_slot`'s rule, on the sweep's own IEEE sums, so it
    picks the arc the per-sample kernel picks.

    Returns an int32 ``(frames * n + 1, width)`` plane whose cell
    ``(slot, column)`` holds the flat index ``pred * width + column``
    of its predecessor's cell, or ``-1``; the extra last row is all
    ``-1``, so the flat index ``-1`` leads back to ``-1``.
    """
    frames, n, width = record.shape
    times = record.reshape(frames * n, width)
    plane = np.full((frames * n + 1, width), -1, dtype=np.int32)
    lanes = np.arange(width, dtype=np.intp)
    for period in range(frames):
        table = tables[min(period, 2)]
        shift = (period - 1) * n
        base = period * n
        if table.single_ids.size:
            plane[table.single_ids + base] = (
                (table.single_offsets + shift) * width
            )[:, None] + lanes
        if not table.steps:
            continue
        targets = times[table.multi_ids + base]
        found = np.full(targets.shape, -1, dtype=np.int32)
        for j, (count, offsets, cols) in enumerate(table.steps):
            sources = offsets + shift
            candidates = times[sources]
            candidates.reshape(count, groups, -1)[...] += (
                dmat_t[cols][:, None, :]
            )
            hit = candidates == targets[:count]
            if j:
                hit &= found[:count] < 0
            np.copyto(found[:count], (sources * width)[:, None] + lanes,
                      where=hit)
        plane[table.multi_ids + base] = found
    return plane


def _chase(plane: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Follow ``plane`` from every start cell (flat index) at once.

    Returns a ``(k, steps)`` int32 array: row ``i`` lists the flat
    cell indices of walk ``i`` from its start back to its origin, then
    ``-1`` padding.
    """
    flat = plane.reshape(-1)
    current = starts.astype(np.int32)
    trail = [current]
    while True:
        # a finished walk sits on -1, which maps to itself, so the
        # end check can run every few steps
        for _ in range(8):
            current = flat[current]
            trail.append(current)
        if current.max() < 0:
            break
    return np.stack(trail, axis=1)


class _Cycles:
    """The walks and simple loops one backtracking call has met.

    A walk is keyed by its slot sequence, so a walk repeated by many
    bindings is decomposed once per chunk (the keys are dropped between
    chunks, so they do not pile up with the sample count); a loop is
    keyed by its id sequence rotated to its smallest id, so the
    rotations that walks from different borders produce share one
    entry, which holds the loop's canonical events, token count and
    matrix columns.
    """

    def __init__(self, graph: TimedSignalGraph, cg: CompiledGraph,
                 col_of: Dict[Tuple[Event, Event], int]):
        self.graph = graph
        self.order = cg.order
        self.n = cg.n
        self.col_of = col_of
        self.walks: Dict[bytes, List[int]] = {}
        self._loops: Dict[tuple, int] = {}
        self.events: List[Tuple[Event, ...]] = []
        self.tokens: List[int] = []
        self.cols: List[np.ndarray] = []

    def loops_of(self, path: np.ndarray) -> List[int]:
        """Loop ids of one walk (slots from its end back to the origin)."""
        key = path.tobytes()
        loops = self.walks.get(key)
        if loops is None:
            from .cycle_time import _simple_loops

            loops = [
                self._loop_id(loop)
                for loop in _simple_loops((path[::-1] % self.n).tolist())
            ]
            self.walks[key] = loops
        return loops

    def _loop_id(self, loop: list) -> int:
        start = loop.index(min(loop))
        key = tuple(loop[start:] + loop[:start])
        found = self._loops.get(key)
        if found is None:
            from .cycles import cycle_arcs

            events, arcs = cycle_arcs(
                self.graph, [self.order[tid] for tid in key]
            )
            found = self._loops[key] = len(self.events)
            self.events.append(events)
            tokens = 0
            for arc in arcs:
                tokens += arc.tokens
            self.tokens.append(tokens)
            self.cols.append(np.asarray(
                [self.col_of[arc.pair] for arc in arcs], np.intp
            ))
        return found


class BatchSweepResult:
    """Outcome of a batched border sweep over S delay bindings.

    ``initiator_times[g]`` is the ``(S, periods)`` table of collected
    ``t_{g_0}(g_i)`` values; everything else — λ per binding, δ
    records, critical cycles — is derived on request, so bindings whose
    details are never inspected cost nothing beyond the sweep itself.
    ``unroll`` is the sweep's unroll override, so backtracking re-sweeps
    with the plan the sweep compiled.
    """

    def __init__(self, graph, cg, bindings, border, periods, initiator_times,
                 unroll=None):
        self.graph = graph
        self.cg = cg
        self.bindings = bindings
        self.border = border
        self.periods = periods
        self.initiator_times = initiator_times
        self.unroll = unroll

    @property
    def samples(self) -> int:
        return self.bindings.samples

    def cycle_times(self) -> np.ndarray:
        """λ per binding: the vectorized max over all collected δ."""
        return self._best(self._distances(slice(None)))

    def _distances(self, rows) -> List[np.ndarray]:
        """Each border's ``(k, periods)`` δ table over the bindings
        ``rows`` (``-inf`` where its initiator does not re-occur)."""
        divisors = np.arange(1, self.periods + 1, dtype=np.float64)
        return [
            self.initiator_times[event][rows] / divisors
            for event in self.border
        ]

    def _best(self, distances: List[np.ndarray]) -> np.ndarray:
        """λ per binding: the max over every border's δ table."""
        from .errors import AcyclicGraphError

        best = distances[0].max(axis=1)
        for table in distances[1:]:
            np.maximum(best, table.max(axis=1), out=best)
        if np.isneginf(best).any():
            raise AcyclicGraphError(
                "no border event of %r re-occurs within %d periods"
                % (self.graph.name, self.periods)
            )
        return best

    def sample_records(self, sample: int) -> list:
        """All ``BorderDistance`` records of one binding, in the same
        order the per-sample algorithm collects them."""
        from .cycle_time import BorderDistance

        records = []
        for event in self.border:
            row = self.initiator_times[event][sample]
            for index in range(self.periods):
                time = row[index]
                if time == NEG_INF:
                    continue
                time = float(time)
                records.append(
                    BorderDistance(event, index + 1, time, time / (index + 1))
                )
        return records

    def sample_result(self, sample: int):
        """The full :class:`~repro.core.cycle_time.CycleTimeResult` of
        one binding — λ, δ table and backtracked critical cycles —
        bit-identical to the per-sample float64 path (which also keeps
        no simulations)."""
        from .cycle_time import CycleTimeResult

        (cycles,) = self.critical_cycles([sample])
        records = self.sample_records(sample)
        return CycleTimeResult(
            cycle_time=max(record.distance for record in records),
            critical_cycles=cycles,
            border_events=self.border,
            distances=records,
            periods=self.periods,
        )

    def _winning_periods(self, rows: np.ndarray):
        """λ of each binding in ``rows`` and each border's first winning
        period (0 for none), as ``(best (k,), won (b, k))``.

        A record wins when its distance is ``numbers_close`` to λ, the
        per-sample rule, here as the same IEEE operations on arrays.
        """
        from .arithmetic import FLOAT_TOLERANCE

        distances = self._distances(rows)
        best = self._best(distances)
        column = best[:, None]
        floor = np.maximum(1.0, np.abs(column))
        won = np.zeros((len(self.border), len(rows)), dtype=np.intp)
        positions = np.arange(len(rows))
        for gi, table in enumerate(distances):
            scale = np.maximum(floor, np.abs(table))
            close = np.isfinite(table) & (
                np.abs(table - column) <= FLOAT_TOLERANCE * scale
            )
            first = close.argmax(axis=1)
            won[gi] = np.where(close[positions, first], first + 1, 0)
        return best, won

    def critical_cycles(
        self, samples: Optional[Sequence[int]] = None
    ) -> List[list]:
        """The backtracked critical cycles of each requested binding
        (default: all), one list of :class:`~repro.core.cycles.Cycle`
        per binding, equal to the per-sample float path's in events,
        length, tokens and order.

        The winners are the per-sample algorithm's: every record within
        ``numbers_close`` of λ, and one walk per border — its first
        winning period — in record order.  The requested bindings are
        re-swept through the fused plan with the winning origins only,
        recording every period's slot times (chunked so a record stays
        within :data:`RECORD_BUDGET` bytes).  The argmax plane of the
        record is a few vector ops per period, and all winning walks
        are followed through it at once.  A walk met before is not
        decomposed again, and each distinct simple loop gets its
        rotation, columns and token count once; its length for one
        binding is the float sum ``0 + d1 + d2 + ...`` of that
        binding's delays in rotated order, which is what
        :func:`~repro.core.cycles.make_cycle` adds up on a graph copy.
        """
        rows = (
            np.arange(self.samples) if samples is None
            else np.asarray(samples, dtype=np.intp).reshape(-1)
        )
        per_sample = (self.periods + 1) * self.cg.n * len(self.border) * 8
        chunk = max(1, RECORD_BUDGET // per_sample)
        cycles = _Cycles(self.graph, self.cg, self.bindings.structure.col_of)
        out: List[list] = []
        for lo in range(0, len(rows), chunk):
            cycles.walks.clear()
            out.extend(self._backtrack(rows[lo:lo + chunk], cycles))
        return out

    def _backtrack(self, rows: np.ndarray, cycles: _Cycles) -> List[list]:
        """:meth:`critical_cycles` for one chunk of bindings."""
        from .arithmetic import numbers_close
        from .cycles import Cycle

        best, won = self._winning_periods(rows)
        cg = self.cg
        n = cg.n
        count = len(rows)
        active = [gi for gi in range(len(self.border)) if won[gi].any()]
        won = won[active]
        origins = np.asarray(
            [cg.id_of[self.border[gi]] for gi in active], np.intp
        )
        lo = int(rows[0])
        if np.array_equal(rows, np.arange(lo, lo + count)):
            bindings = self.bindings.subset(lo, lo + count)
        else:
            matrix = np.asfortranarray(self.bindings.matrix[rows])
            bindings = BatchBindings(self.bindings.base, matrix)
        record = np.empty((self.periods + 1, n, len(active) * count))
        run_border_sweep_fused(
            bindings, origins.tolist(), self.periods,
            _resolve_unroll(self.unroll, len(self.border), self.periods),
            record=record,
        )
        dmat_t = bindings.matrix.T
        plane = _argmax_plane(
            bindings.structure.walk_tables(), record, dmat_t, len(active)
        )
        del record
        for group, origin in enumerate(origins):
            # each walk ends at its own origin, pinned at time 0
            plane[origin, group * count:(group + 1) * count] = -1
        # winning walks, binding-major and in border order within one
        position, group = np.nonzero(won.T)
        period = won[group, position]
        width = plane.shape[1]
        cells = _chase(
            plane,
            (origins[group] + period * n) * width + group * count + position,
        )
        del plane
        lengths = (cells >= 0).sum(axis=1)
        paths = cells // width

        loops_of: List[List[int]] = [[] for _ in range(count)]
        users: Dict[int, List[int]] = {}
        for walk, owner in enumerate(position.tolist()):
            mine = loops_of[owner]
            for loop in cycles.loops_of(paths[walk, :lengths[walk]]):
                if loop not in mine:
                    mine.append(loop)
                    users.setdefault(loop, []).append(owner)
        length_of: Dict[Tuple[int, int], float] = {}
        for loop, owners in users.items():
            terms = np.zeros((len(cycles.cols[loop]) + 1, len(owners)))
            terms[1:] = dmat_t[cycles.cols[loop]][:, owners]
            sums = np.add.accumulate(terms, axis=0)[-1].tolist()
            for owner, total in zip(owners, sums):
                length_of[loop, owner] = total

        out = []
        for owner, (loops, cycle_time) in enumerate(
            zip(loops_of, best.tolist())
        ):
            found = []
            for loop in loops:
                cycle = Cycle(cycles.events[loop], length_of[loop, owner],
                              cycles.tokens[loop])
                if numbers_close(cycle.effective_length, cycle_time):
                    found.append(cycle)
            out.append(found)
        return out


def run_border_simulations_batch(
    graph: TimedSignalGraph,
    delays,
    periods: Optional[int] = None,
    border: Optional[Sequence[Event]] = None,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    unroll: Optional[int] = None,
) -> BatchSweepResult:
    """Sweep all S delay bindings through every border simulation.

    ``delays`` is a :class:`BatchBindings` or an ``(S, m)`` matrix in
    graph arc order; every chunk runs the fused sweep
    (:func:`run_border_sweep_fused`).  ``unroll`` forces the fused
    period-unroll span (default: automatic by border count).
    ``batch_size`` bounds memory by splitting the S
    bindings into chunks; ``workers`` fans the chunks out, either over
    a thread pool (``executor="thread"``, the default — NumPy releases
    the GIL inside the large vector ops, so chunked sweeps overlap) or
    over the shared :func:`process_pool` (``executor="process"`` —
    chunks escape the GIL entirely; the compiled graph ships once per
    pool worker via pickle, the delay matrix once per sweep via one
    shared-memory block that chunks reference by name and row range,
    and results concatenate bit-identically to the single-process
    sweep).  Always float64; int/Fraction callers that need exact
    results use the per-sample exact path instead.
    """
    from .errors import AcyclicGraphError

    if executor is None:
        executor = "thread"
    if executor not in EXECUTORS:
        raise SignalGraphError(
            "unknown executor %r (expected one of %s)"
            % (executor, ", ".join(EXECUTORS))
        )

    cg = compiled_graph(graph)
    if isinstance(delays, BatchBindings):
        bindings = delays
    else:
        bindings = BatchBindings(cg, delays)
    if border is None:
        border = graph.border_events
    else:
        border = tuple(border)
    if not border:
        raise AcyclicGraphError(
            "graph %r has no border events (no marked arcs on cycles)"
            % graph.name
        )
    if periods is None:
        periods = len(border)
    origin_ids = [cg.id_of[event] for event in border]
    # Compile the shared plan before any fan-out so worker threads
    # never race on the lazily-built cache.
    bindings.structure.fused_plan(
        _resolve_unroll(unroll, len(origin_ids), periods)
    )
    samples = bindings.samples
    if batch_size is None and executor == "process" and workers and workers > 1:
        # default to one chunk per pool worker so the sweep actually
        # fans out instead of landing on a single child
        batch_size = max(1, -(-samples // workers))
    if batch_size is not None and batch_size < 1:
        raise SignalGraphError("batch_size must be positive")
    if batch_size is None or batch_size >= samples:
        ranges = [(0, samples)]
    else:
        ranges = [
            (lo, min(lo + batch_size, samples))
            for lo in range(0, samples, batch_size)
        ]

    def run_chunk(span: Tuple[int, int]):
        lo, hi = span
        chunk = bindings if (lo, hi) == (0, samples) else bindings.subset(lo, hi)
        return run_border_sweep_fused(chunk, origin_ids, periods, unroll)

    if executor == "process" and workers is not None and workers > 1:
        token, blob = _pool_payload(bindings.base)
        pool = process_pool(workers)
        shared = None
        try:
            try:
                shared = _SharedMatrix(bindings.matrix)
            except Exception:
                # no usable shared memory on this platform: fall back
                # to pickling per-chunk row slices (correct, slower)
                _SHM_STATS["fallback"] += 1
                shared = None
            futures = [
                _submit_chunk(
                    pool, token, blob, shared, bindings.matrix,
                    lo, hi, origin_ids, periods, unroll,
                )
                for lo, hi in ranges
            ]
            parts = [future.result() for future in futures]
        finally:
            if shared is not None:
                shared.close()
    elif workers is not None and workers > 1 and len(ranges) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, ranges))
    else:
        parts = [run_chunk(span) for span in ranges]
    initiator_times = {}
    for position, event in enumerate(border):
        if len(parts) == 1:
            initiator_times[event] = parts[0][position]
        else:
            initiator_times[event] = np.concatenate(
                [part[position] for part in parts], axis=0
            )
    return BatchSweepResult(
        graph, cg, bindings, border, periods, initiator_times, unroll
    )
