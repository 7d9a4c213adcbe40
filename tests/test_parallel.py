"""Tests for the parallel execution layer.

Four pillars:

* **Executor contract** -- serial, thread and process backends map in
  task order, ship ``shared`` payloads, and degrade gracefully; the
  executor registry resolves ``--executor`` / ``REPRO_EXECUTOR`` / auto
  with friendly errors.
* **Pickle boundaries** -- every F0 sketch (and the cell-search engine's
  inputs) survives a pickle round-trip with identical behaviour, and
  lazily built scratch state (the ``LinearHash`` packed layout) stays
  out of the payload *and* builds safely under concurrent cold-cache
  hits (thread executors share hash objects by reference).
* **Parallel == serial** -- for fixed seeds, ``workers=1`` and
  ``workers=4`` produce identical estimates and identical
  per-repetition results across all sketches and counters, including
  odd/duplicate/empty chunks.
* **Executor matrix** -- all four counter strategies plus sharded
  ingestion are bit-identical (estimates, per-repetition sketches,
  oracle-call totals) across serial/thread/process, on every available
  compute kernel.
"""

import os
import pickle
import random
import threading

import pytest

from repro.common.errors import InvalidParameterError
from repro.core.approxmc import approx_mc
from repro.core.cell_search import cell_search_for
from repro.core.est_count import approx_model_count_est
from repro.core.fm_count import flajolet_martin_count
from repro.core.min_count import approx_model_count_min
from repro.formulas.generators import fixed_count_dnf, random_k_cnf
from repro.hashing.kwise import KWiseHashFamily
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.kernels import kernel_info, kernel_names
from repro.parallel import (
    DEFAULT_EXECUTOR,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_workers,
    executor_for,
    executor_names,
    get_executor,
    ingest_stream_parallel,
    resolve_executor_name,
    resolve_workers,
    set_default_executor,
    split_seeds,
)
from repro.parallel.registry import ENV_VAR as EXECUTOR_ENV_VAR
from repro.sat.oracle import NpOracle
from repro.streaming.base import SketchParams, chunked, compute_f0
from repro.streaming.bucketing import BucketingF0
from repro.streaming.estimation import EstimationF0
from repro.streaming.exact import ExactF0
from repro.streaming.flajolet_martin import FlajoletMartinF0
from repro.streaming.minimum import MinimumF0
from repro.streaming.sharded import ShardedF0
from repro.streaming.streams import shuffled_stream_with_f0

SMALL = SketchParams(eps=0.7, delta=0.3,
                     thresh_constant=10.0, repetitions_constant=3.0)
COUNT_PARAMS = SketchParams(eps=0.8, delta=0.3,
                            thresh_constant=12.0, repetitions_constant=4.0)

UNIVERSE_BITS = 11

SKETCHES = ["minimum", "estimation", "bucketing", "fm", "exact"]


def make_sketch(kind, seed, universe_bits=UNIVERSE_BITS):
    rng = random.Random(seed)
    if kind == "minimum":
        return MinimumF0(universe_bits, SMALL, rng)
    if kind == "estimation":
        return EstimationF0(universe_bits, SMALL, rng, independence=3)
    if kind == "bucketing":
        return BucketingF0(universe_bits, SMALL, rng)
    if kind == "fm":
        return FlajoletMartinF0(universe_bits, rng, repetitions=5)
    if kind == "exact":
        return ExactF0()
    raise AssertionError(kind)


@pytest.fixture(scope="module")
def pool():
    """One process pool for the whole module (spawned once)."""
    executor = ProcessExecutor(4)
    yield executor
    executor.close()


def _double(task, shared):
    return task * 2 + (shared or 0)


def _ident(task, shared):
    return task


class TestExecutorContract:
    def test_serial_map_order_and_shared(self):
        ex = SerialExecutor()
        assert ex.is_serial
        assert ex.map(_double, [1, 2, 3], shared=10) == [12, 14, 16]
        assert ex.map(_double, []) == []

    def test_process_map_order_and_shared(self, pool):
        assert not pool.is_serial
        tasks = list(range(23))
        assert pool.map(_double, tasks, shared=100) \
            == [t * 2 + 100 for t in tasks]
        # Repeated maps reuse the same pool.
        assert pool.map(_ident, tasks) == tasks

    def test_single_task_skips_pool(self, pool):
        assert pool.map(_double, [5], shared=1) == [11]

    def test_get_executor_serial_paths(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(None), SerialExecutor)
        ex = get_executor(3)
        try:
            assert ex.workers == 3
        finally:
            ex.close()

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(0) == available_workers()
        assert resolve_workers(0) >= 1
        with pytest.raises(InvalidParameterError):
            resolve_workers(-2)

    def test_process_executor_rejects_serial_width(self):
        with pytest.raises(InvalidParameterError):
            ProcessExecutor(1)

    def test_executor_for_leaves_external_pool_open(self, pool):
        with executor_for(None, pool) as ex:
            assert ex is pool
        # Still usable after the with-block: not closed.
        assert pool.map(_ident, [1, 2]) == [1, 2]

    def test_split_seeds_deterministic_and_independent(self):
        a = split_seeds(random.Random(7), 5)
        b = split_seeds(random.Random(7), 5)
        assert a == b
        assert len(set(a)) == 5
        with pytest.raises(InvalidParameterError):
            split_seeds(random.Random(7), -1)


class TestPickleRoundTrip:
    @pytest.mark.parametrize("kind", SKETCHES)
    def test_sketch_round_trip_preserves_behaviour(self, kind):
        stream = shuffled_stream_with_f0(random.Random(5), UNIVERSE_BITS,
                                         200, 500)
        control = make_sketch(kind, 9)
        control.process_batch(stream[:300])
        restored = pickle.loads(pickle.dumps(control))
        assert restored.estimate() == control.estimate()
        # Ingestion continues identically after the round-trip.
        control.process_batch(stream[300:])
        restored.process_batch(stream[300:])
        assert restored.estimate() == control.estimate()
        # And the round-tripped sketch still merges with the original's
        # lineage (same seeds).
        other = make_sketch(kind, 9)
        other.process_batch(stream[:50])
        restored.merge(other)

    def test_sharded_round_trip(self):
        sharded = ShardedF0(make_sketch("minimum", 3), 3)
        sharded.process_batch(list(range(400)))
        restored = pickle.loads(pickle.dumps(sharded))
        assert restored.estimate() == sharded.estimate()

    def test_linear_hash_cache_excluded_from_pickle(self):
        h = ToeplitzHashFamily(16, 48).sample(random.Random(1))
        cold = len(pickle.dumps(h))
        h.values_batch_words(list(range(64)))  # Warm the packed layout.
        assert h._pack is not None
        warm = len(pickle.dumps(h))
        assert warm == cold
        restored = pickle.loads(pickle.dumps(h))
        assert restored._pack is None
        assert restored.value(12345) == h.value(12345)
        assert [int(v) for v in restored.values_batch(range(10))] \
            == [h.value(x) for x in range(10)]

    def test_kwise_hash_round_trip(self):
        h = KWiseHashFamily(12, 4).sample(random.Random(2))
        restored = pickle.loads(pickle.dumps(h))
        xs = list(range(50))
        assert [restored.value(x) for x in xs] == [h.value(x) for x in xs]

    def test_cell_search_inputs_round_trip(self):
        """A worker rebuilds a CellSearchEngine from pickled (formula,
        hash, thresh) and must reach identical cell counts."""
        formula = random_k_cnf(random.Random(4), 8, 20, 3)
        h = ToeplitzHashFamily(8, 8).sample(random.Random(5))
        formula2, h2 = pickle.loads(pickle.dumps((formula, h)))
        a = cell_search_for(formula, h, 6, oracle=NpOracle(formula))
        b = cell_search_for(formula2, h2, 6, oracle=NpOracle(formula2))
        for m in range(formula.num_vars + 1):
            assert a.cell_count(m) == b.cell_count(m)


class TestShardedChunkScatter:
    def test_whole_chunks_routed_round_robin(self):
        """process_batch hands entire chunks to one shard in rotation --
        no per-element re-slicing (small tails stay batched)."""
        sharded = ShardedF0(ExactF0(), 3)
        sharded.process_batch(list(range(0, 10)))
        sharded.process_batch(list(range(10, 15)))
        sharded.process_batch(list(range(15, 16)))
        assert [s.distinct() for s in sharded.shards] == [10, 5, 1]
        assert sharded.estimate() == 16.0

    def test_empty_chunk_does_not_advance_cursor(self):
        sharded = ShardedF0(ExactF0(), 2)
        sharded.process_batch([])
        sharded.process_batch([1, 2])
        assert sharded.shards[0].distinct() == 2

    def test_ingest_stream_parallel_waves(self, pool):
        """Multiple dispatch waves (wave=1) still produce the exact
        union across shards."""
        chunks = list(chunked(list(range(300)), 17)) + [[]]
        sketches = [ExactF0() for _ in range(3)]
        sketches = ingest_stream_parallel(pool, sketches, chunks, wave=1)
        assert sum(s.distinct() for s in sketches) == 300
        merged = ExactF0()
        for s in sketches:
            merged.merge(s)
        assert merged.distinct() == 300


class TestParallelStreamingEquivalence:
    @pytest.mark.parametrize("kind", SKETCHES)
    def test_compute_f0_workers_identical(self, kind, pool):
        # Duplicate-heavy stream, odd chunk size exercising tail chunks.
        stream = shuffled_stream_with_f0(random.Random(11), UNIVERSE_BITS,
                                         300, 1000)
        serial = compute_f0(stream, make_sketch(kind, 21), chunk_size=97)
        parallel = compute_f0(stream, make_sketch(kind, 21), chunk_size=97,
                              executor=pool)
        assert parallel == serial

    @pytest.mark.parametrize("kind", SKETCHES)
    def test_sharded_process_stream_workers_identical(self, kind, pool):
        stream = shuffled_stream_with_f0(random.Random(12), UNIVERSE_BITS,
                                         250, 900)
        serial = ShardedF0(make_sketch(kind, 22), 4)
        serial.process_stream(stream, chunk_size=64)
        parallel = ShardedF0(make_sketch(kind, 22), 4)
        parallel.process_stream(stream, chunk_size=64, executor=pool)
        assert parallel.estimate() == serial.estimate()

    def test_compute_f0_generator_stream_parallel(self, pool):
        stream = shuffled_stream_with_f0(random.Random(13), UNIVERSE_BITS,
                                         200, 700)
        serial = compute_f0(iter(stream), make_sketch("minimum", 23),
                            chunk_size=53)
        parallel = compute_f0(iter(stream), make_sketch("minimum", 23),
                              chunk_size=53, executor=pool)
        assert parallel == serial

    def test_compute_f0_workers_one_is_serial_executor(self):
        # workers=1 must not build a pool at all.
        with executor_for(1, None) as ex:
            assert isinstance(ex, SerialExecutor)

    def test_minimum_rows_identical_not_just_estimates(self, pool):
        stream = shuffled_stream_with_f0(random.Random(14), UNIVERSE_BITS,
                                         220, 800)
        serial = make_sketch("minimum", 24)
        for chunk in chunked(stream, 41):
            serial.process_batch(chunk)
        parallel = make_sketch("minimum", 24)
        compute_f0(stream, parallel, chunk_size=41, executor=pool)
        assert [r.values() for r in parallel.rows] \
            == [r.values() for r in serial.rows]


CNF = random_k_cnf(random.Random(2), 10, 25, 3)
DNF = fixed_count_dnf(10, 6)


class TestParallelCounterEquivalence:
    @pytest.mark.parametrize("formula", [CNF, DNF], ids=["cnf", "dnf"])
    @pytest.mark.parametrize("search", ["linear", "galloping"])
    def test_approx_mc(self, formula, search, pool):
        a = approx_mc(formula, COUNT_PARAMS, random.Random(7),
                      search=search)
        b = approx_mc(formula, COUNT_PARAMS, random.Random(7),
                      search=search, executor=pool)
        assert (a.estimate, a.raw_estimates, a.iteration_sketches,
                a.oracle_calls) \
            == (b.estimate, b.raw_estimates, b.iteration_sketches,
                b.oracle_calls)

    @pytest.mark.parametrize("formula", [CNF, DNF], ids=["cnf", "dnf"])
    def test_min_count(self, formula, pool):
        a = approx_model_count_min(formula, COUNT_PARAMS, random.Random(7))
        b = approx_model_count_min(formula, COUNT_PARAMS, random.Random(7),
                                   executor=pool)
        assert (a.estimate, a.raw_estimates, a.iteration_sketches,
                a.oracle_calls) \
            == (b.estimate, b.raw_estimates, b.iteration_sketches,
                b.oracle_calls)

    @pytest.mark.parametrize("formula", [CNF, DNF], ids=["cnf", "dnf"])
    def test_est_count(self, formula, pool):
        a = approx_model_count_est(formula, COUNT_PARAMS, random.Random(7))
        b = approx_model_count_est(formula, COUNT_PARAMS, random.Random(7),
                                   executor=pool)
        assert (a.estimate, a.raw_estimates, a.iteration_sketches,
                a.oracle_calls) \
            == (b.estimate, b.raw_estimates, b.iteration_sketches,
                b.oracle_calls)

    @pytest.mark.parametrize("formula", [CNF, DNF], ids=["cnf", "dnf"])
    def test_fm_count(self, formula, pool):
        a = flajolet_martin_count(formula, random.Random(9), repetitions=5)
        b = flajolet_martin_count(formula, random.Random(9), repetitions=5,
                                  executor=pool)
        assert (a.estimate, a.oracle_calls, a.max_levels) \
            == (b.estimate, b.oracle_calls, b.max_levels)

    def test_workers_kwarg_spawns_and_matches(self):
        """End-to-end workers= knob (own short-lived pool)."""
        a = approx_mc(DNF, COUNT_PARAMS, random.Random(3))
        b = approx_mc(DNF, COUNT_PARAMS, random.Random(3), workers=2)
        assert a.estimate == b.estimate
        assert a.iteration_sketches == b.iteration_sketches


@pytest.fixture(scope="module")
def thread_pool():
    """One thread pool for the whole module."""
    executor = ThreadExecutor(4)
    yield executor
    executor.close()


class TestThreadExecutor:
    def test_map_order_and_shared(self, thread_pool):
        assert not thread_pool.is_serial
        assert thread_pool.in_process
        tasks = list(range(37))
        assert thread_pool.map(_double, tasks, shared=100) \
            == [t * 2 + 100 for t in tasks]
        assert thread_pool.map(_ident, tasks) == tasks
        assert thread_pool.map(_double, []) == []
        assert thread_pool.map(_double, [5], shared=1) == [11]

    def test_shared_crosses_by_reference(self, thread_pool):
        """In-process executors hand tasks the very same shared object
        (no pickling) -- the property the scatter plumbing's
        ``in_process`` checks rely on."""
        marker = object()
        ids = thread_pool.map(lambda _t, shared: id(shared),
                              list(range(8)), shared=marker)
        assert set(ids) == {id(marker)}

    def test_rejects_serial_width(self):
        with pytest.raises(InvalidParameterError):
            ThreadExecutor(1)

    def test_close_is_idempotent(self):
        ex = ThreadExecutor(2)
        assert ex.map(_double, [1, 2]) == [2, 4]
        ex.close()
        ex.close()
        # A closed pool still maps (inline), matching ProcessExecutor.
        assert ex.map(_double, [1, 2]) == [2, 4]

    def test_in_process_flags(self, pool):
        assert SerialExecutor().in_process
        assert not pool.in_process


class TestExecutorRegistry:
    def test_names_and_default(self):
        names = executor_names()
        assert names[0] == DEFAULT_EXECUTOR == "auto"
        assert {"auto", "serial", "thread", "process"} <= set(names)

    def test_make_executor_explicit_names(self):
        ex = get_executor(3, "thread")
        try:
            assert isinstance(ex, ThreadExecutor) and ex.workers == 3
        finally:
            ex.close()
        assert isinstance(get_executor(4, "serial"), SerialExecutor)

    def test_workers_one_short_circuits_any_backend(self):
        for name in ("auto", "serial", "thread", "process"):
            assert isinstance(get_executor(1, name), SerialExecutor)
            assert isinstance(get_executor(None, name), SerialExecutor)

    def test_unknown_name_is_friendly(self):
        with pytest.raises(InvalidParameterError, match="registered:"):
            get_executor(4, "gpu")

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "thread")
        assert resolve_executor_name(None) == "thread"
        ex = get_executor(2)
        try:
            assert isinstance(ex, ThreadExecutor)
        finally:
            ex.close()

    def test_bogus_env_var_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "gpu")
        with pytest.raises(InvalidParameterError,
                           match=EXECUTOR_ENV_VAR):
            resolve_executor_name(None)

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
        set_default_executor("thread")
        try:
            assert resolve_executor_name(None) == "thread"
        finally:
            set_default_executor(None)
        assert resolve_executor_name(None) == "process"

    def test_override_validates_eagerly(self):
        with pytest.raises(InvalidParameterError):
            set_default_executor("gpu")

    def test_auto_with_gil_holding_kernel_is_process(self):
        # The default (python) kernel holds the GIL, so the heuristic
        # must keep the historical process-pool behaviour.
        ex = get_executor(2)
        try:
            assert isinstance(ex, ProcessExecutor)
        finally:
            ex.close()

    def test_autopick_calibration_and_cache(self):
        from repro.kernels import autopick

        autopick.clear_cache()
        try:
            decision = autopick.pick(workers=2, calibrate=True)
            assert decision.calibrated
            assert decision.kernel in kernel_names()
            assert decision.executor in ("serial", "thread", "process")
            assert decision.timings  # one entry per probed pair
            assert all(seconds > 0 for _, _, seconds in decision.timings)
            # The calibrated decision is cached and a later heuristic
            # request must not displace it.
            again = autopick.pick(workers=2)
            assert again is decision
        finally:
            autopick.clear_cache()

    def test_autopick_serial_below_two_workers(self):
        from repro.kernels.autopick import pick

        decision = pick(workers=1)
        assert decision.executor == "serial"
        assert not decision.calibrated

    def test_releases_gil_capability_flags(self):
        assert not kernel_info("python").releases_gil
        assert kernel_info("numba").releases_gil
        if os.environ.get("REQUIRE_NUMBA"):
            assert kernel_info("numba").available, \
                "REQUIRE_NUMBA=1 but the numba kernel is unavailable"


class TestPackedCacheConcurrency:
    """The ``LinearHash._packed`` cold-cache race fix: concurrent first
    uses must all see a fully built layout and identical hash values."""

    HAMMER_THREADS = 8

    def _hammer(self, hash_fn, xs):
        barrier = threading.Barrier(self.HAMMER_THREADS)
        results, errors = [None] * self.HAMMER_THREADS, []

        def worker(slot):
            try:
                barrier.wait(timeout=10)
                values = hash_fn.values_batch_words(xs)
                results[slot] = [hash_fn.words_to_int(row)
                                 for row in values]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.HAMMER_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors[:1]
        return results

    def test_concurrent_cold_cache_is_consistent(self):
        xs = list(range(256))
        for trial in range(20):
            h = ToeplitzHashFamily(16, 48).sample(random.Random(trial))
            assert h._pack is None  # Cold: every thread races the build.
            results = self._hammer(h, xs)
            reference = [h.value(x) for x in xs]
            for result in results:
                assert result == reference
            # Exactly one pack object won the publish: a complete dict.
            assert set(h._pack) == {"rows", "shifts", "cols", "words",
                                    "offset_words"}

    def test_publish_is_single_assignment(self):
        """Readers may race the builder but must only ever observe None
        (build locally) or the finished dict -- verified by hammering a
        hash whose pack is concurrently cleared, so cold hits interleave
        with warm ones."""
        xs = list(range(128))
        h = ToeplitzHashFamily(16, 80).sample(random.Random(99))
        reference = [h.value(x) for x in xs]
        stop = threading.Event()

        def clearer():
            while not stop.is_set():
                h._pack = None  # Force repeated cold builds mid-flight.

        t = threading.Thread(target=clearer)
        t.start()
        try:
            for _ in range(50):
                values = h.values_batch_words(xs)
                assert [h.words_to_int(row) for row in values] == reference
        finally:
            stop.set()
            t.join(timeout=10)


# ---------------------------------------------------------------------------
# Executor matrix: counters and sharded ingestion bit-identical across
# serial/thread/process on every available kernel.

AVAILABLE_KERNELS = [n for n in kernel_names() if kernel_info(n).available]

COUNTER_RUNNERS = {
    "approxmc": lambda formula, kernel, **kw: approx_mc(
        formula, COUNT_PARAMS, random.Random(7), kernel=kernel, **kw),
    "min": lambda formula, kernel, **kw: approx_model_count_min(
        formula, COUNT_PARAMS, random.Random(7), kernel=kernel, **kw),
    "est": lambda formula, kernel, **kw: approx_model_count_est(
        formula, COUNT_PARAMS, random.Random(7), kernel=kernel, **kw),
    "fm": lambda formula, kernel, **kw: flajolet_martin_count(
        formula, random.Random(9), repetitions=5, kernel=kernel, **kw),
}


def _result_tuple(result):
    if hasattr(result, "max_levels"):  # FmCountResult
        return (result.estimate, result.oracle_calls,
                tuple(result.max_levels))
    return (result.estimate, tuple(result.raw_estimates),
            tuple(result.iteration_sketches), result.oracle_calls)


class TestExecutorMatrixParity:
    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    @pytest.mark.parametrize("counter", sorted(COUNTER_RUNNERS))
    def test_counters_identical_across_executors(self, counter, kernel,
                                                 pool, thread_pool):
        run = COUNTER_RUNNERS[counter]
        reference = _result_tuple(run(CNF, kernel))  # workers=1 serial.
        for name, ex in (("thread", thread_pool), ("process", pool)):
            outcome = _result_tuple(run(CNF, kernel, executor=ex))
            assert outcome == reference, (
                f"{counter} under kernel={kernel} executor={name} "
                f"diverged from serial")

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_sharded_ingestion_identical_across_executors(
            self, kernel, pool, thread_pool):
        stream = shuffled_stream_with_f0(random.Random(31), UNIVERSE_BITS,
                                         260, 900)

        def ingest(executor):
            sharded = ShardedF0(
                MinimumF0(UNIVERSE_BITS, SMALL, random.Random(41),
                          kernel=kernel), 4)
            sharded.process_stream(stream, chunk_size=64,
                                   executor=executor)
            return (sharded.estimate(),
                    [r.values() for shard in sharded.shards
                     for r in shard.rows])

        reference = ingest(None)  # Serial.
        assert ingest(thread_pool) == reference
        assert ingest(pool) == reference

    def test_counter_thread_via_registry_env(self, monkeypatch):
        """workers=4 + REPRO_EXECUTOR=thread exercises the registry
        resolution end to end (no explicit executor object)."""
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "thread")
        a = approx_mc(DNF, COUNT_PARAMS, random.Random(3))
        b = approx_mc(DNF, COUNT_PARAMS, random.Random(3), workers=4)
        assert _result_tuple(a) == _result_tuple(b)
