"""Sliding-window F0: a ring of mergeable sub-sketches with TTL rotation.

The paper's sketches answer "distinct elements ever seen"; production
distinct-counting is almost always windowed ("uniques in the last
hour").  :class:`WindowedF0` closes that gap without touching the base
algorithms: it wraps any sketch implementing the
:class:`~repro.streaming.base.F0Sketch` contract in a ring of ``K``
sub-sketches, each covering one *epoch* of ``window / K`` logical time.
Ingest lands in the newest epoch's bucket; :meth:`advance` rotates the
ring (expired buckets are reset from a pristine prototype -- the TTL
eviction); :meth:`estimate` merges the live buckets, so the answer is
always "distinct elements in the last ``window`` time units" with the
wrapped sketch's own (eps, delta) guarantee per window.

Time is **logical** by default: nothing rotates unless :meth:`advance`
is called with an explicit timestamp, which is what makes seeded soak
episodes (``tools/soak.py``) and the property suite deterministic --
the same stream of ``(advance, ingest)`` events always produces the
same bytes.  Pass ``clock=time.monotonic`` for wall-clock rotation in a
live process.

The ring rides the existing protocols unchanged:

* **Merge.**  Two windows with equal geometry merge by aligning their
  rings on *absolute* epoch numbers (bucket ``i`` always holds an epoch
  ``e`` with ``e % K == i``): the older side is first rotated forward,
  then buckets holding the same epoch merge element-wise and expired
  epochs are dropped.  Because each bucket is a set-semantics sketch,
  merge stays associative, commutative and idempotent, and
  rotate-then-merge equals merge-then-rotate -- the invariants
  ``tests/test_windowed.py`` pins with hypothesis.
* **Serialization.**  :meth:`to_bytes` rides
  :mod:`repro.store.serialize` (kind tag ``0x16``, prototype and
  buckets nested as self-describing frames), so windows snapshot,
  restore and travel the service wire like any other sketch.
* **Replicas / serving.**  Replicas of one ring advanced in lock step
  merge into the ring a single serial run would hold, and the
  store/router expose the ring as ``POST .../advance`` and
  ``GET .../estimate?window=S``.
"""

from __future__ import annotations

import copy
import math
from typing import Callable, List, Optional, Sequence

from repro.common.errors import InvalidParameterError
from repro.streaming.base import F0Sketch, VersionedCache


class WindowedF0:
    """Sliding-window wrapper over any mergeable F0 sketch.

    Args:
        prototype: a freshly built (never ingested) sketch implementing
            the :class:`~repro.streaming.base.F0Sketch` contract.  It is
            kept pristine as the eviction template -- every rotated
            bucket is a deep copy of it, so all buckets share identical
            hash seeds forever and merge cleanly.
        window: the window span in logical time units (> 0).
        buckets: ring size ``K`` (>= 1); the rotation granularity is
            ``window / K`` (estimates cover between ``window`` and
            ``window + window/K`` of stream history, the classic ring
            quantisation).
        clock: optional time source; when set, ``process`` /
            ``process_batch`` / ``estimate`` auto-advance to
            ``clock()`` first.  ``None`` (default) rotates only on
            explicit :meth:`advance` calls -- deterministic logical
            time, what the soak harness and the service use.

    Raises:
        InvalidParameterError: non-positive ``window`` or ``buckets``,
            or a prototype that already absorbed items.
    """

    def __init__(self, prototype: F0Sketch, window: float,
                 buckets: int = 8,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if not window > 0:
            raise InvalidParameterError("window must be positive")
        if buckets < 1:
            raise InvalidParameterError("buckets must be >= 1")
        if prototype.estimate() != 0:
            raise InvalidParameterError(
                "the windowed prototype must be a fresh (empty) sketch")
        self.window = float(window)
        self._proto: F0Sketch = copy.deepcopy(prototype)
        self.buckets: List[F0Sketch] = [
            copy.deepcopy(prototype) for _ in range(buckets)]
        # Bucket i holds epoch e with e % K == i; the ring always holds
        # the K consecutive epochs (_epoch - K, _epoch].
        self._epoch = 0
        self._bucket_epochs: List[int] = [0] * buckets
        for e in range(-buckets + 1, 1):
            self._bucket_epochs[e % buckets] = e
        # A boolean "absorbed items" flag per bucket, NOT a count: a
        # flag merges by OR, which is idempotent and partition-
        # invariant, so a re-folded delta frame or a merge of replicas
        # stays bit-identical to the serial run.  (An additive counter
        # would double-count on idempotent re-merges.)
        self._bucket_dirty: List[bool] = [False] * buckets
        self.evictions = 0  # Non-empty buckets reset by rotation.
        self._clock = clock
        self._init_caches()

    # -- geometry ----------------------------------------------------------

    @property
    def universe_bits(self) -> Optional[int]:
        """The wrapped sketch's item width (``None`` when unhashed)."""
        return self._proto.universe_bits

    @property
    def num_buckets(self) -> int:
        """Ring size ``K``."""
        return len(self.buckets)

    @property
    def width(self) -> float:
        """Logical time span of one bucket (``window / K``)."""
        return self.window / len(self.buckets)

    @property
    def epoch(self) -> int:
        """The newest epoch the ring currently covers."""
        return self._epoch

    @property
    def version(self) -> int:
        """Mutation counter (bumped on every ingest/merge/rotation)."""
        return self._version

    def _init_caches(self) -> None:
        """Fresh mutation counter + empty estimate caches (also the
        post-decode/unpickle hook -- caches never travel the wire)."""
        self._version = 0
        self._window_cache = VersionedCache()

    def __getstate__(self):
        """Pickle the ring state only: caches are rebuilt on load and a
        wall clock must never leak across a process boundary (replicas
        in a worker pool advance by explicit merge, not by local
        time)."""
        return {"window": self.window, "_proto": self._proto,
                "buckets": self.buckets, "_epoch": self._epoch,
                "_bucket_epochs": self._bucket_epochs,
                "_bucket_dirty": self._bucket_dirty,
                "evictions": self.evictions}

    def __setstate__(self, state) -> None:
        self.window = state["window"]
        self._proto = state["_proto"]
        self.buckets = state["buckets"]
        self._epoch = state["_epoch"]
        self._bucket_epochs = state["_bucket_epochs"]
        self._bucket_dirty = state["_bucket_dirty"]
        self.evictions = state["evictions"]
        self._clock = None
        self._init_caches()

    # -- rotation ----------------------------------------------------------

    def advance(self, now: float) -> int:
        """Rotate the ring forward to logical time ``now``.

        Buckets whose epoch falls out of the window are reset from the
        pristine prototype (counted in :attr:`evictions` when they held
        items).  Time never moves backwards: a stale ``now`` is a
        no-op, so replayed or out-of-order advances are harmless.

        Returns the number of buckets rotated (0 when ``now`` stays
        inside the current epoch).
        """
        return self._rotate_to(int(math.floor(now / self.width)))

    def _rotate_to(self, target: int) -> int:
        """Advance the newest epoch to ``target`` (monotonic clamp)."""
        if target <= self._epoch:
            return 0
        k = len(self.buckets)
        # Only the newest K epochs in (_epoch, target] need fresh
        # buckets; skipping a whole window forward rotates each slot
        # exactly once however large the gap.
        rotated = 0
        for e in range(max(self._epoch + 1, target - k + 1), target + 1):
            idx = e % k
            if self._bucket_dirty[idx]:
                self.evictions += 1
            self.buckets[idx] = copy.deepcopy(self._proto)
            self._bucket_epochs[idx] = e
            self._bucket_dirty[idx] = False
            rotated += 1
        self._epoch = target
        self._version += 1
        return rotated

    def _tick(self) -> None:
        """Auto-advance from the clock, when one was configured."""
        if self._clock is not None:
            self.advance(self._clock())

    # -- ingestion ---------------------------------------------------------

    def process(self, x: int) -> None:
        """Feed one item into the current epoch's bucket."""
        self._tick()
        idx = self._epoch % len(self.buckets)
        self.buckets[idx].process(x)
        self._bucket_dirty[idx] = True
        self._version += 1

    def process_batch(self, xs: Sequence[int]) -> None:
        """Feed a chunk into the current epoch's bucket (one vectorised
        sweep through the wrapped sketch's batch path)."""
        if len(xs) == 0:
            return
        self._tick()
        idx = self._epoch % len(self.buckets)
        self.buckets[idx].process_batch(xs)
        self._bucket_dirty[idx] = True
        self._version += 1

    # -- merge -------------------------------------------------------------

    def merge(self, other: "WindowedF0") -> None:
        """Fold another window (same prototype seeds and geometry).

        The rings align on absolute epochs: this side first rotates
        forward to the other's epoch (so a merge can never move time
        backwards), then buckets holding the *same* epoch merge
        element-wise; epochs the newer ring has already expired are
        dropped.  ``other`` is never mutated.

        Raises:
            InvalidParameterError: not a :class:`WindowedF0`, or the
                window span / bucket count differ.
            ValueError: the prototypes' hash seeds differ (nothing was
                rotated or merged).
        """
        if not isinstance(other, WindowedF0):
            raise InvalidParameterError(
                "can only merge another WindowedF0")
        if other.window != self.window \
                or other.num_buckets != self.num_buckets:
            raise InvalidParameterError(
                "windowed sketches must share window span and bucket "
                "count to merge")
        # A trial merge of the empty prototypes refuses different seeds
        # before the ring rotates, so a refused merge changes nothing.
        copy.deepcopy(self._proto).merge(other._proto)
        self._rotate_to(other._epoch)
        for idx in range(len(self.buckets)):
            if other._bucket_epochs[idx] == self._bucket_epochs[idx]:
                self.buckets[idx].merge(other.buckets[idx])
                self._bucket_dirty[idx] = (self._bucket_dirty[idx]
                                           or other._bucket_dirty[idx])
        self._version += 1

    # -- estimates ---------------------------------------------------------

    def _merged_over(self, count: int) -> F0Sketch:
        """One sketch holding the union of the newest ``count`` epochs."""
        combined = copy.deepcopy(self._proto)
        k = len(self.buckets)
        for e in range(self._epoch - count + 1, self._epoch + 1):
            combined.merge(self.buckets[e % k])
        return combined

    def estimate(self) -> float:
        """Distinct elements over the last full window (merge of every
        live bucket, memoised against the mutation version)."""
        self._tick()
        return self.estimate_window(self.window)

    def estimate_window(self, span: float) -> float:
        """Distinct elements over the trailing ``span`` time units.

        ``span`` is quantised up to whole buckets (``ceil(span /
        width)`` newest epochs) and capped at the full window; results
        are memoised per span against the mutation version, so repeated
        reads of a quiet window do zero merge work.

        Raises:
            InvalidParameterError: non-positive ``span``, or a span
                beyond the configured window (the older data is gone).
        """
        if not span > 0:
            raise InvalidParameterError("window span must be positive")
        k = len(self.buckets)
        count = math.ceil(span / self.width - 1e-9)
        if count > k:
            raise InvalidParameterError(
                f"span {span} exceeds the configured window "
                f"{self.window}")
        count = max(1, min(k, count))
        cache = self._window_cache.get_or_build(self._version, dict)
        if count not in cache:
            cache[count] = self._merged_over(count).estimate()
        return cache[count]

    # -- accounting --------------------------------------------------------

    def space_bits(self) -> int:
        """Total footprint of the ring (sum over buckets) -- the number
        the soak harness's byte budgets gate on."""
        return sum(bucket.space_bits() for bucket in self.buckets)

    def populated_buckets(self) -> int:
        """Live buckets that have absorbed items (monitoring)."""
        return sum(1 for dirty in self._bucket_dirty if dirty)

    # -- wire format -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the versioned wire format (prototype and every
        bucket nest as self-describing frames; see
        :mod:`repro.store.serialize`)."""
        from repro.store.serialize import dumps
        return dumps(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "WindowedF0":
        """Decode a frame produced by :meth:`to_bytes`."""
        from repro.store.serialize import loads_typed
        return loads_typed(data, cls)
