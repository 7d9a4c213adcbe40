"""The Minimum (k-minimum-values) F0 sketch.

Each repetition hashes into ``3n`` bits (collision-free whp) and keeps the
``Thresh`` lexicographically smallest *distinct* hash values.  When fewer
than ``Thresh`` values have been seen the sketch holds every distinct value,
so the count is exact; once full, the estimate is
``Thresh * 2^m / max(sketch)`` (Lemma 2).

The under-full case follows Bar-Yossef et al.'s original algorithm (output
the exact count); the paper's condensed formula ``Thresh * 2^m / max`` is
only meaningful for full sketches and degenerates below ``Thresh`` -- see
EXPERIMENTS.md, deviations table.

Batch ingestion: a chunk is hashed in one vectorised GF(2) sweep
(bit-packed for ``out_bits <= 64``, multi-word otherwise -- the ``3n``-bit
range overflows a machine word beyond 21-bit universes), deduped and
sorted in numpy, and only the chunk's ``Thresh`` smallest distinct values
survive as candidates -- the Thresh smallest of the union are necessarily
among (current sketch) union (Thresh smallest of the chunk), so the
Python-level work per chunk is O(Thresh), not O(chunk).
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Sequence, Set

from repro.common.rng import RandomSource
from repro.common.stats import median
from repro.hashing.base import LinearHash
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.streaming.base import SketchParams

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None


class MinimumRow:
    """One repetition: the ``Thresh`` smallest distinct hash values.

    Kept as a max-heap of negated values plus a membership set, giving
    O(log Thresh) scalar updates and a single rebuild per bulk insert.
    """

    __slots__ = ("h", "thresh", "_neg_heap", "_members")

    def __init__(self, h: LinearHash, thresh: int) -> None:
        self.h = h
        self.thresh = thresh
        self._neg_heap: List[int] = []  # Negated values: root is the max.
        self._members: Set[int] = set()

    def process(self, x: int) -> None:
        self.insert_value(self.h.value(x))

    def process_batch(self, xs: Sequence[int]) -> None:
        """One vectorised hash sweep over a chunk, then a bulk insert of
        the chunk's ``Thresh`` smallest distinct values."""
        if len(xs) == 0:
            return
        h = self.h
        if _np is None or h.in_bits > 64:
            for x in xs:
                self.process(int(x))
            return
        cutoff = -self._neg_heap[0] if self.is_full else None
        if h.out_bits <= 64:
            values = _np.unique(_np.asarray(h.values_batch(xs),
                                            dtype=_np.uint64))
            if cutoff is not None:
                values = values[values < _np.uint64(cutoff)]
            candidates = [int(v) for v in values[:self.thresh]]
        else:
            words = h.values_batch_words(xs)
            if words is None:  # pragma: no cover - guarded above
                for x in xs:
                    self.process(int(x))
                return
            # Lexicographic row order == numeric value order (MSB word
            # first), so the first Thresh unique rows are the smallest.
            words = _np.unique(words, axis=0)[:self.thresh]
            candidates = [h.words_to_int(row) for row in words]
        self.insert_values(candidates)

    def insert_value(self, value: int) -> None:
        """Insert one already-hashed value."""
        if value in self._members:
            return
        if len(self._neg_heap) < self.thresh:
            heapq.heappush(self._neg_heap, -value)
            self._members.add(value)
            return
        current_max = -self._neg_heap[0]
        if value < current_max:
            heapq.heapreplace(self._neg_heap, -value)
            self._members.discard(current_max)
            self._members.add(value)

    def insert_values(self, values: Iterable[int]) -> None:
        """Bulk insert of already-hashed values (the DNF-stream merge and
        the distributed coordinator feed through here).

        Dedupes the batch against the membership set, drops values that
        cannot enter a full sketch, and partial-selects the ``Thresh``
        smallest of the union in one heap rebuild instead of O(batch)
        heap-churning ``insert_value`` calls.
        """
        cutoff = -self._neg_heap[0] if self.is_full else None
        fresh = {int(v) for v in values}
        fresh -= self._members
        if cutoff is not None:
            fresh = {v for v in fresh if v < cutoff}
        if not fresh:
            return
        if len(self._members) + len(fresh) <= self.thresh:
            for v in fresh:
                heapq.heappush(self._neg_heap, -v)
            self._members |= fresh
            return
        keep = heapq.nsmallest(self.thresh, self._members | fresh)
        self._members = set(keep)
        self._neg_heap = [-v for v in keep]
        heapq.heapify(self._neg_heap)

    def merge(self, other: "MinimumRow") -> None:
        """Union the value sets, keep the ``Thresh`` smallest."""
        if other.h is not self.h and (other.h.rows != self.h.rows
                                      or other.h.offsets != self.h.offsets):
            raise ValueError("cannot merge rows with different hashes")
        self.insert_values(other._members)

    def values(self) -> List[int]:
        """The kept hash values in ascending order."""
        return sorted(-v for v in self._neg_heap)

    @property
    def is_full(self) -> bool:
        return len(self._neg_heap) >= self.thresh

    def estimate(self) -> float:
        """Exact count while under-full; ``Thresh * 2^m / max`` once full."""
        if not self._neg_heap:
            return 0.0
        if not self.is_full:
            return float(len(self._neg_heap))
        largest = -self._neg_heap[0]
        if largest == 0:
            return float(len(self._neg_heap))
        return self.thresh * float(1 << self.h.out_bits) / largest


class MinimumF0:
    """Median over ``t`` independent :class:`MinimumRow` repetitions.

    Hash range is ``3n`` bits per the paper (Algorithm 2) so that distinct
    elements receive distinct values with probability ``1 - 2^-n``.
    """

    def __init__(self, universe_bits: int, params: SketchParams,
                 rng: RandomSource) -> None:
        self.universe_bits = universe_bits
        self.params = params
        family = ToeplitzHashFamily(universe_bits, 3 * universe_bits)
        self.rows: List[MinimumRow] = [
            MinimumRow(family.sample(rng), params.thresh)
            for _ in range(params.repetitions)
        ]

    def process(self, x: int) -> None:
        for row in self.rows:
            row.process(x)

    def process_batch(self, xs: Sequence[int]) -> None:
        """Feed a whole chunk; duplicates are removed once, up front, so
        every row hashes only the chunk's distinct elements."""
        if len(xs) == 0:
            return
        if _np is not None and self.universe_bits <= 64:
            xs = _np.unique(_np.asarray(xs, dtype=_np.uint64))
        for row in self.rows:
            row.process_batch(xs)

    def merge(self, other: "MinimumF0") -> None:
        """Row-wise union with a sketch built from the same seeds."""
        if len(other.rows) != len(self.rows):
            raise ValueError("cannot merge sketches of different widths")
        for mine, theirs in zip(self.rows, other.rows):
            mine.merge(theirs)

    def estimate(self) -> float:
        return median([row.estimate() for row in self.rows])

    def space_bits(self) -> int:
        """Seed bits plus stored hash values, per row."""
        return sum(row.h.seed_bits
                   + len(row.values()) * row.h.out_bits
                   for row in self.rows)

    def to_bytes(self) -> bytes:
        """Serialize to the versioned wire format (see
        :mod:`repro.store.serialize`)."""
        from repro.store.serialize import dumps
        return dumps(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MinimumF0":
        """Decode a frame produced by :meth:`to_bytes`."""
        from repro.store.serialize import loads_typed
        return loads_typed(data, cls)
