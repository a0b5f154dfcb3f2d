"""Request coalescer: correctness of merged sweeps, splitting, errors."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.analysis.montecarlo import sample_delay_matrix, uniform_spread
from repro.circuits.library import muller_ring_tsg, oscillator_tsg
from repro.core.kernel import BatchBindings, compiled_graph, run_border_simulations_batch
from repro.service.queue import RequestCoalescer
from repro.service.resilience import Deadline, DeadlineExceeded
from .test_hashing import shuffled_copy


def reference_lambdas(graph, matrix):
    sweep = run_border_simulations_batch(
        graph, BatchBindings(compiled_graph(graph), matrix)
    )
    return sweep.cycle_times()


@pytest.fixture
def coalescer():
    with RequestCoalescer(linger_s=0.01) as instance:
        yield instance


class TestCorrectness:
    def test_single_request_matches_direct_sweep(self, coalescer, oscillator):
        rng = np.random.default_rng(0)
        matrix = sample_delay_matrix(oscillator, uniform_spread(0.2), 64, rng)
        values = coalescer.run(oscillator, matrix, timeout=30)
        np.testing.assert_array_equal(
            values, reference_lambdas(oscillator.copy(), matrix)
        )

    def test_drawn_layout_reaches_the_kernel_uncopied(
        self, coalescer, oscillator, monkeypatch
    ):
        import repro.service.queue as queue_module

        seen = []

        def spy(graph, bindings, **options):
            seen.append(bindings.matrix)
            return run_border_simulations_batch(graph, bindings, **options)

        monkeypatch.setattr(queue_module, "run_border_simulations_batch", spy)
        rng = np.random.default_rng(3)
        matrix = sample_delay_matrix(oscillator, uniform_spread(0.2), 16, rng)
        assert matrix.flags.f_contiguous
        values = coalescer.run(oscillator, matrix, timeout=30)
        assert len(seen) == 1 and np.shares_memory(seen[0], matrix)
        np.testing.assert_array_equal(
            values,
            reference_lambdas(oscillator.copy(), np.ascontiguousarray(matrix)),
        )

    def test_coalesced_requests_split_correctly(self, coalescer):
        ring = muller_ring_tsg(3)
        rng = np.random.default_rng(1)
        sampler = uniform_spread(0.3)
        matrices = [
            sample_delay_matrix(ring, sampler, samples, rng)
            for samples in (17, 33, 8)
        ]
        futures = [coalescer.submit(ring, matrix) for matrix in matrices]
        for matrix, future in zip(matrices, futures):
            values = future.result(timeout=30)
            assert values.shape == (matrix.shape[0],)
            np.testing.assert_array_equal(
                values, reference_lambdas(ring.copy(), matrix)
            )
        assert coalescer.stats.get("coalesced_requests") >= 2

    def test_insertion_order_variants_share_a_batch(self, coalescer, oscillator):
        """Content-equal graphs with different arc insertion orders
        coalesce, and each gets rows in its *own* arc order."""
        twin = shuffled_copy(oscillator, seed=9)
        rng = np.random.default_rng(2)
        sampler = uniform_spread(0.25)
        matrix_a = sample_delay_matrix(oscillator, sampler, 21, rng)
        matrix_b = sample_delay_matrix(twin, sampler, 13, rng)
        future_a = coalescer.submit(oscillator, matrix_a)
        future_b = coalescer.submit(twin, matrix_b)
        np.testing.assert_array_equal(
            future_a.result(30), reference_lambdas(oscillator.copy(), matrix_a)
        )
        np.testing.assert_array_equal(
            future_b.result(30), reference_lambdas(twin.copy(), matrix_b)
        )

    def test_different_topologies_never_share(self, coalescer):
        small, big = muller_ring_tsg(3), muller_ring_tsg(5)
        rng = np.random.default_rng(3)
        sampler = uniform_spread(0.1)
        fa = coalescer.submit(small, sample_delay_matrix(small, sampler, 5, rng))
        fb = coalescer.submit(big, sample_delay_matrix(big, sampler, 5, rng))
        assert fa.result(30).shape == (5,) and fb.result(30).shape == (5,)
        assert coalescer.stats.get("coalesced_requests") == 0


class TestBatching:
    def test_max_batch_samples_splits_groups(self, oscillator):
        with RequestCoalescer(linger_s=0.02, max_batch_samples=40) as coalescer:
            rng = np.random.default_rng(4)
            sampler = uniform_spread(0.2)
            futures = [
                coalescer.submit(
                    oscillator, sample_delay_matrix(oscillator, sampler, 25, rng)
                )
                for _ in range(4)
            ]
            for future in futures:
                assert future.result(30).shape == (25,)
            assert coalescer.stats.get("batches") >= 2

    def test_many_threads_coalesce(self):
        ring = muller_ring_tsg(3)
        sampler = uniform_spread(0.2)
        with RequestCoalescer(linger_s=0.05) as coalescer:
            results = [None] * 8

            def worker(index):
                rng = np.random.default_rng(index)
                matrix = sample_delay_matrix(ring, sampler, 10, rng)
                results[index] = (
                    coalescer.run(ring, matrix, timeout=30),
                    reference_lambdas(ring.copy(), matrix),
                )

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for got, want in results:
                np.testing.assert_array_equal(got, want)
            assert coalescer.stats.get("requests") == 8
            assert coalescer.stats.get("coalesced_requests") >= 2


class TestDeadlines:
    def test_expired_lingering_request_is_evicted_not_swept(self, oscillator):
        """Regression: a request whose deadline lapses during the linger
        window must fail with DeadlineExceeded, not be swept with the
        batch for a caller that already gave up."""
        with RequestCoalescer(linger_s=0.15) as coalescer:
            rng = np.random.default_rng(7)
            sampler = uniform_spread(0.2)
            doomed = sample_delay_matrix(oscillator, sampler, 6, rng)
            alive = sample_delay_matrix(oscillator, sampler, 9, rng)
            doomed_future = coalescer.submit(
                oscillator, doomed, deadline=Deadline.after_ms(20)
            )
            live_future = coalescer.submit(
                oscillator, alive, deadline=Deadline.after_ms(30000)
            )
            time.sleep(0.05)  # doomed expires while the group lingers
            with pytest.raises(DeadlineExceeded):
                doomed_future.result(timeout=30)
            values = live_future.result(timeout=30)
            np.testing.assert_array_equal(
                values, reference_lambdas(oscillator.copy(), alive)
            )
            assert coalescer.stats.get("expired") == 1
            # The survivor's batch must not include the evicted rows.
            assert coalescer.stats.get("coalesced_requests") == 0

    def test_already_expired_submit_fails_immediately(self, oscillator):
        with RequestCoalescer(linger_s=0.01) as coalescer:
            rng = np.random.default_rng(8)
            matrix = sample_delay_matrix(
                oscillator, uniform_spread(0.1), 4, rng
            )
            deadline = Deadline.after_ms(0.001)
            time.sleep(0.002)
            future = coalescer.submit(oscillator, matrix, deadline=deadline)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=5)
            assert coalescer.stats.get("expired") == 1

    def test_no_deadline_means_no_eviction(self, oscillator):
        with RequestCoalescer(linger_s=0.05) as coalescer:
            rng = np.random.default_rng(9)
            matrix = sample_delay_matrix(
                oscillator, uniform_spread(0.1), 5, rng
            )
            values = coalescer.run(oscillator, matrix, timeout=30)
            assert values.shape == (5,)
            assert coalescer.stats.get("expired") == 0


class TestLifecycle:
    def test_errors_are_delivered_not_fatal(self, coalescer, oscillator):
        bad = np.ones((4, oscillator.num_arcs + 1))  # wrong column count
        with pytest.raises(Exception):
            coalescer.run(oscillator, bad, timeout=30)
        # The worker survived: a good request still completes.
        rng = np.random.default_rng(5)
        matrix = sample_delay_matrix(oscillator, uniform_spread(0.1), 4, rng)
        assert coalescer.run(oscillator, matrix, timeout=30).shape == (4,)

    def test_close_drains_pending(self, oscillator):
        coalescer = RequestCoalescer(linger_s=0.05)
        rng = np.random.default_rng(6)
        matrix = sample_delay_matrix(oscillator, uniform_spread(0.1), 6, rng)
        future = coalescer.submit(oscillator, matrix)
        coalescer.close()
        assert future.result(timeout=1).shape == (6,)
        with pytest.raises(RuntimeError):
            coalescer.submit(oscillator, matrix)

    def test_rejects_bad_matrix_shape(self, coalescer, oscillator):
        with pytest.raises(ValueError):
            coalescer.submit(oscillator, np.ones(5))
