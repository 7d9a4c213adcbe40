"""Property tests for the unified batch-ingestion + mergeable-sketch
pipeline: for fixed seeds, scalar ``process``, chunked ``process_batch``
(odd chunk sizes, duplicate-heavy chunks, empty chunks) and a merge of
replicas that each ingested part of the stream must produce
bit-identical estimates on every sketch -- the F0Sketch contract of
``repro.streaming.base``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidParameterError
from repro.hashing.kwise import KWiseHashFamily
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.streaming.base import (
    F0Sketch,
    SketchParams,
    chunked,
    compute_f0,
)
from repro.streaming.bucketing import BucketingF0, BucketingRow
from repro.streaming.estimation import EstimationF0, EstimationRow
from repro.streaming.exact import ExactF0
from repro.streaming.flajolet_martin import FlajoletMartinF0
from repro.streaming.minimum import MinimumF0, MinimumRow
from repro.streaming.streams import (
    iter_shuffled_stream_with_f0,
    iter_zipf_like_stream,
    shuffled_stream_with_f0,
    zipf_like_stream,
)

# Tiny parameters: small sketches, full estimator structure.
SMALL = SketchParams(eps=0.7, delta=0.3,
                     thresh_constant=10.0, repetitions_constant=3.0)

UNIVERSE_BITS = 11

SKETCHES = ["minimum", "estimation", "bucketing", "fm", "exact"]

#: Input widths around the byte-table boundaries (one partial byte,
#: whole bytes, one bit over, the full uint64 lane).
TABLE_IN_BITS = [1, 7, 8, 9, 16, 24, 40, 64]


def make_sketch(kind: str, seed: int,
                universe_bits: int = UNIVERSE_BITS):
    """A freshly seeded sketch; same (kind, seed) => same hash seeds."""
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


def merged_replicas(kind: str, seed: int, chunks, k: int):
    """Deal ``chunks`` round-robin over ``k`` replicas built from one
    seed, then merge the replicas (the Section 4 coordinator combine)."""
    replicas = [make_sketch(kind, seed) for _ in range(k)]
    for j, chunk in enumerate(chunks):
        replicas[j % k].process_batch(chunk)
    merged = replicas[0]
    for replica in replicas[1:]:
        merged.merge(replica)
    return merged


def scalar_reference(kind: str, seed: int, stream):
    sketch = make_sketch(kind, seed)
    for x in stream:
        sketch.process(x)
    return sketch


duplicate_heavy_streams = st.lists(
    st.integers(0, (1 << UNIVERSE_BITS) - 1), min_size=0, max_size=250)


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("kind", SKETCHES)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_batch_scalar_sharded_identical(self, kind, data):
        stream = data.draw(duplicate_heavy_streams)
        chunk_size = data.draw(st.sampled_from([1, 3, 7, 64, 4096]))
        replicas = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2 ** 16))

        reference = scalar_reference(kind, seed, stream)

        batch = make_sketch(kind, seed)
        batch.process_batch([])  # Empty chunks are no-ops.
        for chunk in chunked(stream, chunk_size):
            batch.process_batch(chunk)
        batch.process_batch([])
        assert batch.estimate() == reference.estimate()

        merged = merged_replicas(kind, seed,
                                 chunked(stream, chunk_size), replicas)
        assert merged.estimate() == reference.estimate()

    @pytest.mark.parametrize("kind", SKETCHES)
    def test_compute_f0_generator_equals_list(self, kind):
        stream = shuffled_stream_with_f0(random.Random(5), UNIVERSE_BITS,
                                         300, 600)
        from_list = compute_f0(stream, make_sketch(kind, 3))
        from_gen = compute_f0(iter(stream), make_sketch(kind, 3),
                              chunk_size=97)
        assert from_gen == from_list

    def test_minimum_rows_identical_not_just_estimates(self):
        stream = zipf_like_stream(random.Random(6), UNIVERSE_BITS, 150,
                                  800)
        reference = scalar_reference("minimum", 9, stream)
        batch = make_sketch("minimum", 9)
        for chunk in chunked(stream, 53):
            batch.process_batch(chunk)
        for a, b in zip(batch.rows, reference.rows):
            assert a.values() == b.values()

    def test_minimum_wide_hash_batch_path(self):
        # 30-bit universe -> 90-bit hash range: the multi-word numpy path.
        stream = shuffled_stream_with_f0(random.Random(7), 30, 200, 300)
        batch = make_sketch("minimum", 11, universe_bits=30)
        reference = make_sketch("minimum", 11, universe_bits=30)
        for x in stream:
            reference.process(x)
        batch.process_batch(stream)
        assert all(a.values() == b.values()
                   for a, b in zip(batch.rows, reference.rows))

    @pytest.mark.parametrize("chunk_size", [1, 64, 4096])
    @pytest.mark.parametrize("universe_bits", TABLE_IN_BITS)
    def test_minimum_batch_bytes_equal_scalar(self, universe_bits,
                                              chunk_size):
        rng = random.Random(universe_bits)
        stream = [0, (1 << universe_bits) - 1] + [
            rng.getrandbits(universe_bits) for _ in range(300)]
        reference = make_sketch("minimum", 4, universe_bits=universe_bits)
        for x in stream:
            reference.process(x)
        batch = make_sketch("minimum", 4, universe_bits=universe_bits)
        for chunk in chunked(stream, chunk_size):
            batch.process_batch(chunk)
        assert batch.to_bytes() == reference.to_bytes()

    def test_full_row_ignores_chunk_above_cutoff(self):
        import numpy as np
        h = ToeplitzHashFamily(16, 48).sample(random.Random(12))
        row = MinimumRow(h, 8)
        row.process_batch(np.arange(1 << 16, dtype=np.uint64))
        assert row.is_full
        cutoff = row.values()[-1]
        above = [x for x in range(5000) if h.value(x) > cutoff][:300]
        heap = list(row._neg_heap)
        row.process_batch(np.array(above, dtype=np.uint64))
        assert row._neg_heap == heap
        assert row.values()[-1] == cutoff

    def test_protocol_conformance(self):
        for kind in SKETCHES:
            assert isinstance(make_sketch(kind, 0), F0Sketch)


class TestMinimumBulkInsert:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 30 - 1), max_size=120),
           st.integers(1, 20))
    def test_insert_values_equals_scalar_inserts(self, values, thresh):
        h = ToeplitzHashFamily(10, 30).sample(random.Random(1))
        bulk = MinimumRow(h, thresh)
        scalar = MinimumRow(h, thresh)
        bulk.insert_values(values)
        for v in values:
            scalar.insert_value(v)
        assert bulk.values() == scalar.values()

    def test_interleaved_bulk_and_scalar(self):
        h = ToeplitzHashFamily(10, 30).sample(random.Random(2))
        rng = random.Random(3)
        bulk = MinimumRow(h, 8)
        scalar = MinimumRow(h, 8)
        for _ in range(20):
            batch = [rng.getrandbits(30) for _ in range(rng.randrange(30))]
            bulk.insert_values(batch)
            for v in batch:
                scalar.insert_value(v)
            assert bulk.values() == scalar.values()

    def test_merge_rejects_different_hashes(self):
        fam = ToeplitzHashFamily(8, 24)
        rng = random.Random(4)
        a = MinimumRow(fam.sample(rng), 4)
        b = MinimumRow(fam.sample(rng), 4)
        with pytest.raises(ValueError):
            a.merge(b)


class TestEstimationMemoisation:
    def test_estimate_cached_until_mutation(self):
        est = make_sketch("estimation", 21)
        est.process_batch(list(range(200)))
        first = est.estimate()
        assert est.estimate() == first
        version = est.version
        est.estimate()
        assert est.version == version  # Estimates do not mutate.
        est.process(4095)
        assert est.version != version  # Mutations bump the version.
        assert est.estimate() == est.estimate()

    def test_coarse_r_matches_recomputation(self):
        est = make_sketch("estimation", 22)
        est.process_batch(list(range(300)))
        r = est.coarse_r()
        assert est.estimate() == est.estimate_given_r(r)

    def test_merge_invalidates_cache(self):
        a = make_sketch("estimation", 23)
        b = make_sketch("estimation", 23)
        a.process_batch(list(range(64)))
        b.process_batch(list(range(64, 512)))
        stale = a.estimate()
        a.merge(b)
        joint = make_sketch("estimation", 23)
        joint.process_batch(list(range(512)))
        assert a.estimate() == joint.estimate()
        assert a.estimate() != stale or joint.estimate() == stale


class TestChunkedStreams:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 150), st.integers(0, 200), st.integers(1, 64),
           st.integers(0, 2 ** 16))
    def test_iter_shuffled_stream_exact_f0(self, f0, extra, chunk_size,
                                           seed):
        rng = random.Random(seed)
        chunks = list(iter_shuffled_stream_with_f0(
            rng, 12, f0, f0 + extra, chunk_size=chunk_size))
        flat = [x for chunk in chunks for x in chunk]
        assert len(flat) == f0 + extra
        assert len(set(flat)) == f0
        assert all(len(c) <= chunk_size for c in chunks)

    def test_iter_zipf_length_and_support(self):
        chunks = list(iter_zipf_like_stream(random.Random(31), 14, 120,
                                            2000, chunk_size=256))
        flat = [x for chunk in chunks for x in chunk]
        assert len(flat) == 2000
        assert len(set(flat)) <= 120

    def test_iter_variants_validate(self):
        rng = random.Random(0)
        with pytest.raises(InvalidParameterError):
            list(iter_shuffled_stream_with_f0(rng, 3, 10, 20))
        with pytest.raises(InvalidParameterError):
            list(iter_shuffled_stream_with_f0(rng, 8, 10, 5))
        with pytest.raises(InvalidParameterError):
            list(iter_zipf_like_stream(rng, 8, 10, 20, exponent=0.0))

    def test_chunked_generator_not_materialised(self):
        # chunked() must pull lazily: taking one chunk of an infinite
        # generator terminates.
        def endless():
            i = 0
            while True:
                yield i
                i += 1
        first = next(chunked(endless(), 10))
        assert first == list(range(10))

    def test_chunked_slices_sequences(self):
        assert list(chunked([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]
        with pytest.raises(InvalidParameterError):
            list(chunked([1], 0))

    def test_ingest_from_generator_chunks(self):
        # The bench-scale pipeline: generator chunks -> merged replicas.
        rng = random.Random(33)
        merged = merged_replicas(
            "minimum", 17, iter_shuffled_stream_with_f0(
                rng, UNIVERSE_BITS, 250, 1000, chunk_size=128), 2)
        reference = make_sketch("minimum", 17)
        rng = random.Random(33)
        for chunk in iter_shuffled_stream_with_f0(rng, UNIVERSE_BITS, 250,
                                                  1000, chunk_size=128):
            reference.process_batch(chunk)
        assert merged.estimate() == reference.estimate()


class TestLevelledBucketingRow:
    def test_from_levelled_matches_hash_row(self):
        rng = random.Random(41)
        h = ToeplitzHashFamily(10, 10).sample(rng)
        items = shuffled_stream_with_f0(random.Random(42), 10, 300, 400)
        direct = BucketingRow(h, 8)
        for x in items:
            direct.process(x)
        levelled = BucketingRow.from_levelled(
            [(x, h.cell_level(x)) for x in set(items)], 8, h.out_bits)
        assert levelled.sketch_state() == direct.sketch_state()

    def test_hashless_row_requires_out_bits(self):
        with pytest.raises(ValueError):
            BucketingRow(None, 4)

    def test_hashless_row_rejects_foreign_elements(self):
        row = BucketingRow.from_levelled([(1, 3)], 4, out_bits=8)
        with pytest.raises(ValueError):
            row._level_of(2)

    def test_merge_hash_and_hashless_rejected(self):
        rng = random.Random(43)
        h = ToeplitzHashFamily(8, 8).sample(rng)
        a = BucketingRow(h, 4)
        b = BucketingRow.from_levelled([], 4, out_bits=8)
        with pytest.raises(ValueError):
            a.merge(b)


class TestKWiseBatchHashing:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 40), st.integers(2, 6), st.integers(0, 2 ** 16))
    def test_batch_eval_matches_scalar(self, n, s, seed):
        rng = random.Random(seed)
        h = KWiseHashFamily(n, s).sample(rng)
        xs = [rng.getrandbits(n) for _ in range(50)]
        assert [int(v) for v in h.values_batch(xs)] \
            == [h.value(x) for x in xs]
        assert [int(t) for t in h.trail_zeros_batch(xs)] \
            == [h.trail_zeros(x) for x in xs]

    def test_max_trail_zeros_empty_chunk(self):
        h = KWiseHashFamily(8, 3).sample(random.Random(1))
        assert h.max_trail_zeros([]) == 0


class TestWideToeplitzBatchHashing:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 21), st.integers(0, 2 ** 16))
    def test_words_roundtrip_matches_scalar(self, n, seed):
        rng = random.Random(seed)
        h = ToeplitzHashFamily(n, 3 * n).sample(rng)
        xs = [rng.getrandbits(n) for _ in range(40)]
        words = h.values_batch_words(xs)
        assert [h.words_to_int(row) for row in words] \
            == [h.value(x) for x in xs]

    @pytest.mark.parametrize("out_bits", [1, 24, 64, 65, 72, 130])
    @pytest.mark.parametrize("in_bits", TABLE_IN_BITS)
    def test_byte_table_matches_scalar(self, in_bits, out_bits):
        import numpy as np
        rng = random.Random(in_bits * 1000 + out_bits)
        h = ToeplitzHashFamily(in_bits, out_bits).sample(rng)
        # The extremes, then items with bits above in_bits: the scalar
        # value() ignores those, so the table path must too.
        xs = [0, (1 << in_bits) - 1] + \
            [rng.getrandbits(in_bits) for _ in range(40)] + \
            [rng.getrandbits(64) for _ in range(20)]
        expected = [h.value(x) for x in xs]
        words = h.values_batch_words(np.array(xs, dtype=np.uint64))
        assert words.shape == (len(xs), -(-out_bits // 64))
        assert [h.words_to_int(row) for row in words] == expected
        assert [int(v) for v in h.cell_levels_batch(xs)] \
            == [h.cell_level(x) for x in xs]
        if out_bits <= 64:
            assert [int(v) for v in h.values_batch(xs)] == expected
            assert [int(t) for t in h.trail_zeros_batch(xs)] \
                == [h.trail_zeros(x) for x in xs]

    def test_word_order_preserves_value_order(self):
        import numpy as np
        rng = random.Random(9)
        h = ToeplitzHashFamily(24, 72).sample(rng)
        xs = [rng.getrandbits(24) for _ in range(64)]
        words = np.unique(h.values_batch_words(xs), axis=0)
        values = [h.words_to_int(row) for row in words]
        assert values == sorted(set(h.value(x) for x in xs))
