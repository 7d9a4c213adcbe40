"""Tests for the sliding-window F0 combinator.

Covers the ring mechanics (rotation, eviction, partial-span reads),
the algebra the sketches guarantee (merge commutativity/associativity
across rotated rings, rotate-then-merge equals merge-then-rotate),
serialization round trips, replicas advanced in lock step and then
merged, the factory wrap, and the service surface (``?window=``
estimates, the advance endpoint).
"""

import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidParameterError
from repro.store.factory import build_sketch
from repro.store.serialize import StoreFormatError, dumps, loads
from repro.store.store import SketchStore
from repro.streaming.base import SketchParams
from repro.streaming.exact import ExactF0
from repro.streaming.minimum import MinimumF0
from repro.streaming.windowed import WindowedF0

# Cheap-but-real accuracy knobs (a handful of repetitions, tiny rows).
PARAMS = SketchParams(eps=0.7, delta=0.3, thresh_constant=12.0,
                      repetitions_constant=3.0)
BITS = 12


def _minimum(seed=5):
    return MinimumF0(BITS, PARAMS, random.Random(seed))


def _windowed(window=8.0, buckets=4, seed=5):
    return WindowedF0(_minimum(seed), window, buckets=buckets)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            WindowedF0(_minimum(), 0.0)
        with pytest.raises(InvalidParameterError):
            WindowedF0(_minimum(), -1.0)
        with pytest.raises(InvalidParameterError):
            WindowedF0(_minimum(), 4.0, buckets=0)

    def test_rejects_dirty_prototype(self):
        proto = _minimum()
        proto.process(3)
        with pytest.raises(InvalidParameterError):
            WindowedF0(proto, 4.0)

    def test_exact_prototype(self):
        w = WindowedF0(ExactF0(), 4.0, buckets=2)
        w.process_batch([1, 2, 3, 2])
        assert w.estimate() == 3

    def test_width(self):
        w = _windowed(window=8.0, buckets=4)
        assert w.width == 2.0
        assert w.num_buckets == 4


class TestRotation:
    def test_advance_is_monotonic(self):
        w = _windowed()
        assert w.advance(10.0) > 0
        assert w.advance(3.0) == 0  # Stale clock: no-op, never backwards.
        assert w.epoch == int(math.floor(10.0 / w.width))

    def test_items_leave_after_window(self):
        w = WindowedF0(ExactF0(), window=4.0, buckets=4)
        w.process_batch([1, 2, 3])
        assert w.estimate() == 3
        w.advance(3.9)  # Still inside the window.
        assert w.estimate() == 3
        w.advance(4.0)  # The ingest epoch has now fallen out.
        assert w.estimate() == 0

    def test_eviction_counts_only_populated_buckets(self):
        w = _windowed(window=4.0, buckets=4)
        w.process_batch([1, 2, 3])
        w.advance(100.0)  # Rotates far: one populated bucket evicted.
        assert w.evictions == 1

    def test_single_bucket_ring(self):
        w = WindowedF0(ExactF0(), window=1.0, buckets=1)
        w.process_batch([1, 2])
        assert w.estimate() == 2
        w.advance(1.0)
        assert w.estimate() == 0

    def test_partial_span_reads(self):
        w = WindowedF0(ExactF0(), window=4.0, buckets=4)
        w.process_batch([1])          # epoch 0
        w.advance(1.0)
        w.process_batch([2])          # epoch 1
        w.advance(3.0)
        w.process_batch([3])          # epoch 3
        assert w.estimate_window(1.0) == 1    # newest bucket only
        assert w.estimate_window(4.0) == 3    # whole ring
        assert w.estimate() == 3
        with pytest.raises(InvalidParameterError):
            w.estimate_window(4.5)    # beyond the configured window
        with pytest.raises(InvalidParameterError):
            w.estimate_window(0.0)

    def test_auto_clock(self):
        clock = [0.0]
        w = WindowedF0(ExactF0(), window=4.0, buckets=4,
                       clock=lambda: clock[0])
        w.process_batch([1, 2])
        clock[0] = 10.0
        assert w.estimate() == 0  # The read itself rotated the ring.


class TestMergeAlgebra:
    def test_merge_requires_same_shape(self):
        with pytest.raises(InvalidParameterError):
            _windowed(window=8.0).merge(_windowed(window=6.0))
        with pytest.raises(InvalidParameterError):
            _windowed(buckets=4).merge(_windowed(buckets=2))
        with pytest.raises(InvalidParameterError):
            _windowed().merge(_minimum())

    def test_foreign_seed_merge_changes_nothing(self):
        a = _windowed(seed=5)
        a.process_batch(list(range(40)))
        b = _windowed(seed=6)
        b.advance(20.0)           # Would rotate a's whole ring away.
        before = dumps(a)
        with pytest.raises(ValueError, match="different hashes"):
            a.merge(b)
        assert dumps(a) == before

    def test_merge_aligns_rotated_rings(self):
        a = WindowedF0(ExactF0(), window=4.0, buckets=4)
        b = WindowedF0(ExactF0(), window=4.0, buckets=4)
        a.process_batch([1])      # a: epoch 0
        b.advance(3.0)
        b.process_batch([2])      # b: epoch 3
        a.merge(b)
        # a rotated to epoch 3; its epoch-0 bucket (item 1) survived
        # inside the 4-bucket ring, plus b's item.
        assert a.epoch == 3
        assert a.estimate() == 2

    def test_merge_drops_foreign_expired_buckets(self):
        a = WindowedF0(ExactF0(), window=4.0, buckets=4)
        b = WindowedF0(ExactF0(), window=4.0, buckets=4)
        b.process_batch([9])      # b: epoch 0
        a.advance(10.0)           # a: epoch 10; epoch 0 is long dead.
        a.merge(b)
        assert a.estimate() == 0  # The stale bucket must not leak in.


class TestSerialization:
    def test_round_trip_bit_identical(self):
        w = _windowed()
        rng = random.Random(0)
        for t in range(20):
            w.advance(float(t))
            w.process_batch([rng.randrange(1 << BITS)
                             for _ in range(30)])
        frame = dumps(w)
        clone = loads(frame)
        assert isinstance(clone, WindowedF0)
        assert dumps(clone) == frame
        assert clone.estimate() == w.estimate()
        assert clone.estimate_window(2.0) == w.estimate_window(2.0)
        assert clone.evictions == w.evictions

    def test_round_trip_preserves_merge_compat(self):
        w = _windowed()
        w.process_batch([1, 2, 3])
        clone = loads(dumps(w))
        clone.merge(w)  # Same seeds and ring shape: must not raise.
        assert clone.estimate() == w.estimate()

    def test_truncated_frame_fails_loudly(self):
        frame = dumps(_windowed())
        with pytest.raises(StoreFormatError):
            loads(frame[:-3])

    def test_space_bits_sums_ring(self):
        w = _windowed(window=8.0, buckets=4)
        base = _minimum()
        assert w.space_bits() >= 4 * base.space_bits()


def _merge_of_replicas(replicas, stream):
    """Advance every replica in lock step, deal each batch to the next
    replica in turn, then merge the replicas into the first."""
    for j, (t, items) in enumerate(stream):
        for replica in replicas:
            replica.advance(t)
        replicas[j % len(replicas)].process_batch(items)
    merged = replicas[0]
    for replica in replicas[1:]:
        merged.merge(replica)
    return merged


class TestShardedWindowed:
    def test_factory_wrap_order(self):
        s = build_sketch("minimum", BITS, PARAMS, seed=5, window=8.0,
                         buckets=4)
        assert isinstance(s, WindowedF0)
        assert s.num_buckets == 4
        plain = build_sketch("minimum", BITS, PARAMS, seed=5)
        assert dumps(s._proto) == dumps(plain)

    def test_buckets_without_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_sketch("minimum", BITS, PARAMS, buckets=4)

    def test_sharded_rotation_and_estimates(self):
        replicas = [build_sketch("exact", 0, window=4.0, buckets=4)
                    for _ in range(2)]
        s = _merge_of_replicas(replicas, [(0.0, [1, 2]), (0.0, [3])])
        assert s.estimate() == 3
        assert s.estimate_window(1.0) == 3
        s.advance(4.0)
        assert s.estimate() == 0

    def test_sharded_matches_serial_bit_identically(self):
        rng = random.Random(3)
        stream = [(float(t), [rng.randrange(1 << BITS)
                              for _ in range(40)])
                  for t in range(16)]
        serial = build_sketch("minimum", BITS, PARAMS, seed=5,
                              window=8.0, buckets=4)
        for t, items in stream:
            serial.advance(t)
            serial.process_batch(items)
        merged = _merge_of_replicas(
            [build_sketch("minimum", BITS, PARAMS, seed=5, window=8.0,
                          buckets=4) for _ in range(3)], stream)
        assert merged.estimate() == serial.estimate()
        for span in (2.0, 4.0, 8.0):
            assert (merged.estimate_window(span)
                    == serial.estimate_window(span))
        # The ring contents must be bit-identical; only the local
        # eviction counter (an ops metric, deliberately unmerged) may
        # differ between the merged replicas and the serial run.
        merged.evictions = serial.evictions
        assert dumps(merged) == dumps(serial)


class TestStoreIntegration:
    def test_store_advance_and_window_reads(self):
        store = SketchStore()
        store.create("w", build_sketch("exact", 0, window=4.0,
                                       buckets=4))
        store.ingest("w", [1, 2, 3])
        assert store.estimate("w") == 3
        assert store.advance("w", 4.0) > 0
        assert store.estimate("w") == 0
        store.ingest("w", [7])
        assert store.estimate_window("w", 1.0) == 1

    def test_store_rejects_non_windowed(self):
        from repro.common.errors import ReproError

        store = SketchStore()
        store.create("plain", ExactF0())
        with pytest.raises(ReproError):
            store.advance("plain", 1.0)
        with pytest.raises(ReproError):
            store.estimate_window("plain", 1.0)

    def test_advance_bumps_version(self):
        store = SketchStore()
        store.create("w", build_sketch("exact", 0, window=4.0,
                                       buckets=4))
        before = store.entry_version("w")
        store.advance("w", 5.0)
        assert store.entry_version("w") > before


class TestServiceSurface:
    def test_router_window_query_and_advance(self):
        from repro.service.router import Router
        import json

        router = Router()
        body = json.dumps({"name": "w", "kind": "exact",
                           "window": 4.0, "buckets": 4}).encode()
        assert router.handle("POST", "/v1/sketches", body).status == 201
        items = json.dumps({"items": [1, 2, 3]}).encode()
        assert router.handle("POST", "/v1/sketches/w/ingest",
                             items).status == 200
        resp = router.handle("GET", "/v1/sketches/w/estimate?window=1.0")
        payload = json.loads(resp.payload)
        assert resp.status == 200
        assert payload["window"] == 1.0
        assert payload["estimate"] == 3.0
        resp = router.handle("POST", "/v1/sketches/w/advance",
                             json.dumps({"now": 4.0}).encode())
        assert resp.status == 200
        assert json.loads(resp.payload)["rotated"] > 0
        resp = router.handle("GET", "/v1/sketches/w/estimate")
        assert json.loads(resp.payload)["estimate"] == 0.0

    def test_router_rejects_bad_inputs(self):
        from repro.service.router import Router
        import json

        router = Router()
        body = json.dumps({"name": "w", "kind": "exact",
                           "window": 4.0}).encode()
        router.handle("POST", "/v1/sketches", body)
        assert router.handle(
            "GET", "/v1/sketches/w/estimate?window=abc").status == 400
        assert router.handle(
            "POST", "/v1/sketches/w/advance",
            json.dumps({"now": True}).encode()).status == 400
        assert router.handle(
            "POST", "/v1/sketches/w/advance",
            json.dumps({}).encode()).status == 400
        body = json.dumps({"name": "p", "kind": "exact"}).encode()
        router.handle("POST", "/v1/sketches", body)
        assert router.handle(
            "GET", "/v1/sketches/p/estimate?window=1.0").status == 400
        assert router.handle(
            "POST", "/v1/sketches/p/advance",
            json.dumps({"now": 1.0}).encode()).status == 400


# -- property tests ---------------------------------------------------------

# Small event schedules: (time-step, item) pairs with item universes
# tiny enough that windows overlap heavily.
EVENTS = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=20.0,
                        allow_nan=False, allow_infinity=False),
              st.lists(st.integers(0, 255), max_size=8)),
    max_size=12)


def _replay(w, events):
    for t, items in events:
        w.advance(t)
        w.process_batch(items)
    return w


class TestWindowedProperties:
    @settings(max_examples=25, deadline=None)
    @given(ea=EVENTS, eb=EVENTS)
    def test_merge_commutes(self, ea, eb):
        a1 = _replay(_windowed(), ea)
        b1 = _replay(_windowed(), eb)
        a2 = _replay(_windowed(), ea)
        b2 = _replay(_windowed(), eb)
        a1.merge(b1)
        b2.merge(a2)
        assert a1.estimate() == b2.estimate()
        for span in (2.0, 4.0, 8.0):
            assert a1.estimate_window(span) == b2.estimate_window(span)

    @settings(max_examples=25, deadline=None)
    @given(ea=EVENTS, eb=EVENTS, ec=EVENTS)
    def test_merge_associates(self, ea, eb, ec):
        left = _replay(_windowed(), ea)
        left.merge(_replay(_windowed(), eb))
        left.merge(_replay(_windowed(), ec))
        bc = _replay(_windowed(), eb)
        bc.merge(_replay(_windowed(), ec))
        right = _replay(_windowed(), ea)
        right.merge(bc)
        assert left.estimate() == right.estimate()

    @settings(max_examples=25, deadline=None)
    @given(ea=EVENTS, eb=EVENTS,
           now=st.floats(min_value=0.0, max_value=40.0,
                         allow_nan=False, allow_infinity=False))
    def test_rotate_then_merge_equals_merge_then_rotate(self, ea, eb,
                                                        now):
        a1 = _replay(_windowed(), ea)
        b1 = _replay(_windowed(), eb)
        a1.advance(now)
        b1.advance(now)
        a1.merge(b1)
        a2 = _replay(_windowed(), ea)
        a2.merge(_replay(_windowed(), eb))
        a2.advance(now)
        assert a1.estimate() == a2.estimate()

    @settings(max_examples=25, deadline=None)
    @given(events=EVENTS)
    def test_serialize_round_trip(self, events):
        w = _replay(_windowed(), events)
        frame = dumps(w)
        clone = loads(frame)
        assert dumps(clone) == frame
        assert clone.estimate() == w.estimate()

    @settings(max_examples=25, deadline=None)
    @given(events=EVENTS)
    def test_matches_exact_reference_ring(self, events):
        """An Exact-prototype window IS the per-epoch set union."""
        w = _replay(WindowedF0(ExactF0(), 8.0, buckets=4), events)
        epochs = {}
        top = 0
        for t, items in events:
            # Mirror the ring's monotonic clock: a stale timestamp
            # does not move time backwards, so its items land in the
            # *current* epoch.
            top = max(top, int(math.floor(t / 2.0)))
            epochs.setdefault(top, set()).update(items)
        live = set()
        for epoch in range(top - 3, top + 1):
            live |= epochs.get(epoch, set())
        assert w.estimate() == len(live)

    @settings(max_examples=25, deadline=None)
    @given(events=EVENTS)
    def test_deepcopy_independent(self, events):
        w = _replay(_windowed(), events)
        clone = copy.deepcopy(w)
        clone.process_batch([999])
        clone.advance(1000.0)
        assert dumps(w) == dumps(_replay(_windowed(), events))
