"""The process-pool chunk executor: bit-identity and pickling."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro.core.kernel as kernel_mod
from repro.analysis.montecarlo import (
    monte_carlo_cycle_time,
    sample_delay_matrix,
    uniform_spread,
)
from repro.circuits.library import async_stack_tsg, oscillator_tsg
from repro.core.cycle_time import compute_cycle_time
from repro.core.errors import SignalGraphError
from repro.core.kernel import (
    BatchBindings,
    compiled_graph,
    rebind_compiled,
    run_border_simulations_batch,
    run_border_sweep_fused,
    shutdown_process_pool,
)


@pytest.fixture(autouse=True)
def _pool_teardown():
    yield
    shutdown_process_pool()


def _matrix(graph, samples, seed=11):
    rng = np.random.default_rng(seed)
    base = np.asarray([float(arc.delay) for arc in graph.arcs])
    return base * rng.uniform(0.8, 1.2, size=(samples, len(base)))


class TestProcessExecutor:
    def test_bit_identical_to_single_process(self, stack):
        matrix = _matrix(stack, 48)
        single = run_border_simulations_batch(stack, matrix)
        threaded = run_border_simulations_batch(
            stack, matrix.copy(), workers=2, batch_size=12, executor="thread"
        )
        pooled = run_border_simulations_batch(
            stack, matrix.copy(), workers=2, executor="process"
        )
        for event, table in single.initiator_times.items():
            assert np.array_equal(table, threaded.initiator_times[event])
            assert np.array_equal(table, pooled.initiator_times[event])
        assert np.array_equal(single.cycle_times(), pooled.cycle_times())

    def test_process_default_chunking_covers_all_samples(self, oscillator):
        # samples not divisible by workers: the default per-worker
        # chunking must still return every row, in order.
        matrix = _matrix(oscillator, 17)
        single = run_border_simulations_batch(oscillator, matrix)
        pooled = run_border_simulations_batch(
            oscillator, matrix.copy(), workers=4, executor="process"
        )
        assert np.array_equal(single.cycle_times(), pooled.cycle_times())

    def test_montecarlo_executor_passthrough(self, oscillator):
        threaded = monte_carlo_cycle_time(
            oscillator, uniform_spread(0.1), samples=64, seed=5,
            track_criticality=False, workers=2, executor="thread",
            batch_size=16,
        )
        pooled = monte_carlo_cycle_time(
            oscillator.copy(), uniform_spread(0.1), samples=64, seed=5,
            track_criticality=False, workers=2, executor="process",
        )
        assert np.array_equal(threaded.samples, pooled.samples)

    def test_unknown_executor_rejected(self, oscillator):
        with pytest.raises(SignalGraphError):
            run_border_simulations_batch(
                oscillator, _matrix(oscillator, 4), executor="gpu"
            )

    def test_shutdown_is_idempotent(self):
        shutdown_process_pool()
        shutdown_process_pool()


class TestCompiledGraphShipping:
    def test_pool_attributes_never_nest_in_pickles(self):
        graph = oscillator_tsg()
        cg = compiled_graph(graph)
        run_border_simulations_batch(
            graph, _matrix(graph, 8), workers=2, executor="process"
        )
        # The parent-local shipping token/blob must not survive a
        # pickle round trip (they would otherwise nest a pickle blob
        # inside every disk-cache entry of this compiled graph).
        assert hasattr(cg, "_pool_token")
        clone = pickle.loads(pickle.dumps(cg))
        assert not hasattr(clone, "_pool_token")
        assert not hasattr(clone, "_pool_blob")

    def test_unpickled_graph_sweeps_identically(self):
        graph = async_stack_tsg()
        cg = compiled_graph(graph)
        clone = pickle.loads(pickle.dumps(cg))
        matrix = _matrix(graph, 12)
        origins = [cg.id_of[event] for event in graph.border_events]
        original = run_border_sweep_fused(
            BatchBindings(cg, matrix), origins, 3
        )
        shipped = run_border_sweep_fused(
            BatchBindings(clone, matrix), origins, 3
        )
        for want, got in zip(original, shipped):
            assert np.array_equal(want, got)

    def test_chunk_dispatch_never_pickles_delay_matrix(self, stack,
                                                       monkeypatch):
        # Interpose on the single submission boundary and record the
        # exact argument tuples crossing the pickle fence: with a live
        # shared block every chunk ships the block *name* plus a row
        # range — never an ndarray, never the (S, m) matrix.
        matrix = _matrix(stack, 64)
        real_submit_chunk = kernel_mod._submit_chunk
        shipped = []

        def spy(pool, token, blob, shared, mat, lo, hi, *rest):
            real_submit = pool.submit

            def submit(fn, *args):
                shipped.append(args)
                return real_submit(fn, *args)

            pool.submit = submit
            try:
                return real_submit_chunk(
                    pool, token, blob, shared, mat, lo, hi, *rest
                )
            finally:
                pool.submit = real_submit

        monkeypatch.setattr(kernel_mod, "_submit_chunk", spy)
        single = run_border_simulations_batch(stack, matrix)
        pooled = run_border_simulations_batch(
            stack, matrix.copy(), workers=2, executor="process"
        )
        assert np.array_equal(single.cycle_times(), pooled.cycle_times())
        assert shipped
        for args in shipped:
            # (token, blob, shm_name, shm_shape, untrack, lo, hi,
            #  origin_ids, periods, unroll, matrix=None)
            assert not any(isinstance(arg, np.ndarray) for arg in args)
            assert args[-1] is None           # the matrix slot
            assert isinstance(args[2], str)   # the shared-block name
            beyond_blob = pickle.dumps(args[2:])
            assert len(beyond_blob) < 2048
            assert matrix.nbytes > 4 * len(beyond_blob)

    def test_child_bindings_read_the_attached_block_in_place(self, stack):
        # The block is F-ordered like the drawn matrix, so a child's row
        # range keeps a unit-stride sample axis and BatchBindings reads
        # it without a copy, giving the tables of a C-ordered copy.
        matrix = sample_delay_matrix(
            stack, uniform_spread(0.1), 40, np.random.default_rng(3)
        )
        cg = compiled_graph(stack)
        origins = [cg.id_of[event] for event in stack.border_events]
        want = run_border_sweep_fused(
            BatchBindings(cg, np.ascontiguousarray(matrix[8:29])), origins, 3
        )
        shared = kernel_mod._SharedMatrix(matrix)
        try:
            full, shm = kernel_mod._child_attach_matrix(
                shared.name, shared.shape, False
            )
            try:
                assert full.flags.f_contiguous
                bindings = BatchBindings(cg, full[8:29])
                assert np.shares_memory(bindings.matrix, full)
                got = run_border_sweep_fused(bindings, origins, 3)
            finally:
                bindings = None
                full = None
                shm.close()
        finally:
            shared.close()
        for want_table, got_table in zip(want, got):
            assert np.array_equal(want_table, got_table)

    def test_shared_blocks_balanced_and_unlinked(self, stack):
        before = dict(kernel_mod._SHM_STATS)
        run_border_simulations_batch(
            stack, _matrix(stack, 32), workers=2, executor="process"
        )
        assert kernel_mod._SHM_STATS["created"] == before["created"] + 1
        assert kernel_mod._SHM_STATS["unlinked"] == before["unlinked"] + 1
        assert not kernel_mod._SHM_LIVE

    def test_fallback_without_shared_memory_bit_identical(
            self, oscillator, monkeypatch):
        def unavailable(matrix):
            raise OSError("shared memory unavailable")

        matrix = _matrix(oscillator, 20)
        single = run_border_simulations_batch(oscillator, matrix)
        before = kernel_mod._SHM_STATS["fallback"]
        monkeypatch.setattr(kernel_mod, "_SharedMatrix", unavailable)
        pooled = run_border_simulations_batch(
            oscillator, matrix.copy(), workers=2, executor="process"
        )
        assert kernel_mod._SHM_STATS["fallback"] == before + 1
        assert np.array_equal(single.cycle_times(), pooled.cycle_times())

    def test_all_kernels_bit_identical_through_process_pool(self, stack):
        # The per-sample float kernel is the reference: the fused sweep
        # must reproduce its cycle times bit for bit through the pool
        # at automatic and forced unroll spans, with one chunk per
        # worker and with several chunks per worker.
        matrix = _matrix(stack, 24)
        base = compiled_graph(stack)
        want = []
        for row in matrix:
            trial = stack.copy()
            for arc, value in zip(stack.arcs, row):
                trial.set_delay(arc.source, arc.target, float(value))
            rebind_compiled(trial, base)
            want.append(compute_cycle_time(
                trial, check=False, kernel="float", keep_simulations=False,
            ).cycle_time)
        want = np.asarray(want)
        for unroll in (None, 1, 2, 4):
            for batch_size in (None, 5):
                got = run_border_simulations_batch(
                    stack, matrix.copy(), workers=2, executor="process",
                    unroll=unroll, batch_size=batch_size,
                ).cycle_times()
                assert np.array_equal(want, got)

    def test_cleanup_hook_unlinks_leaked_blocks(self):
        # The atexit sweep must reap blocks a crashed sweep left
        # behind, and a later close() of the same block is a no-op.
        shared = kernel_mod._SharedMatrix(np.ones((4, 3)))
        assert shared.name in kernel_mod._SHM_LIVE
        kernel_mod._cleanup_shared_matrices()
        assert not kernel_mod._SHM_LIVE
        shared.close()
        kernel_mod._cleanup_shared_matrices()


class TestPoolLifecycle:
    def test_pool_respawns_after_teardown_twice(self, oscillator):
        # Regression: tear the pool down and spin it up again, twice —
        # the second sweep must get a fresh working pool, not a dead
        # executor or leaked semaphores.
        matrix = _matrix(oscillator, 8)
        reference = run_border_simulations_batch(oscillator, matrix)
        for _ in range(2):
            sweep = run_border_simulations_batch(
                oscillator, matrix.copy(), workers=2, executor="process"
            )
            assert np.array_equal(
                reference.cycle_times(), sweep.cycle_times()
            )
            shutdown_process_pool()

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="POSIX shm mount required"
    )
    def test_interpreter_exit_reaps_pool_and_segments(self):
        # A worst-case client: runs a pooled sweep, then leaks a live
        # shared block and exits without closing anything.  The atexit
        # hooks must drain the pool (clean exit code) and unlink the
        # leaked segment from /dev/shm.
        code = textwrap.dedent(
            """
            import numpy as np
            from repro.circuits.library import oscillator_tsg
            import repro.core.kernel as kernel

            graph = oscillator_tsg()
            rng = np.random.default_rng(0)
            base = np.asarray([float(a.delay) for a in graph.arcs])
            matrix = base * rng.uniform(0.8, 1.2, size=(12, base.size))
            kernel.run_border_simulations_batch(
                graph, matrix, workers=2, executor="process"
            )
            leaked = kernel._SharedMatrix(matrix)
            print(leaked.name)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
            cwd=os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))),
        )
        assert proc.returncode == 0, proc.stderr
        name = proc.stdout.strip().splitlines()[-1].lstrip("/")
        assert name
        assert not os.path.exists(os.path.join("/dev/shm", name))
