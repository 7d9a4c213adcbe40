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

Batch ingestion: a chunk is hashed through per-byte tables
(:meth:`~repro.hashing.base.LinearHash.values_batch_words`; the ``3n``-bit
range overflows a machine word beyond 21-bit universes, so values are
rows of uint64 words, most significant first).  Once a row is full, the
words are compared against its cutoff (the largest kept value) before
anything else, so the values it would discard -- almost all of a long
stream -- cost one comparison each and are never sorted.  The survivors
are deduped and sorted in numpy, and only their ``Thresh`` smallest
distinct values reach Python: the Thresh smallest of the union are
necessarily among (current sketch) union (Thresh smallest of the chunk).
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Sequence, Set

import numpy as _np

from repro.common.rng import RandomSource
from repro.common.stats import median
from repro.hashing.base import LinearHash, int_to_words
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.streaming.base import SketchParams, merge_rows


class MinimumRow:
    """One repetition: the ``Thresh`` smallest distinct hash values.

    Kept as a max-heap of negated values plus a membership set, giving
    O(log Thresh) updates, scalar or bulk.
    """

    __slots__ = ("h", "thresh", "_neg_heap", "_members")

    def __init__(self, h: LinearHash, thresh: int) -> None:
        self.h = h
        self.thresh = thresh
        self._neg_heap: List[int] = []  # Negated values: root is the max.
        self._members: Set[int] = set()

    def process(self, x: int) -> None:
        """Hash one item and insert its value."""
        self.insert_value(self.h.value(x))

    def process_batch(self, xs: Sequence[int]) -> None:
        """Hash a chunk, drop the values at or above the cutoff, then bulk
        insert the ``Thresh`` smallest distinct survivors."""
        if len(xs) == 0:
            return
        h = self.h
        words = h.values_batch_words(xs)
        if words is None:  # Inputs wider than 64 bits.
            for x in xs:
                self.process(int(x))
            return
        if self.is_full:
            # Lexicographic order on MSB-first words == value order.
            cutoff = int_to_words(-self._neg_heap[0], words.shape[1])
            below = _np.zeros(len(words), dtype=bool)
            tied = _np.ones(len(words), dtype=bool)
            for w, c in enumerate(cutoff):
                below |= tied & (words[:, w] < c)
                tied &= words[:, w] == c
            words = words[below]
            if len(words) == 0:
                return
        words = _np.unique(words, axis=0)[:self.thresh]
        self.insert_values([h.words_to_int(row)
                            for row in words.tolist()])

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

        Inserts the batch's fresh values in ascending order and stops at
        the first one that cannot enter the full sketch: every later
        value is larger still, and the maximum only shrinks.  Keeps the
        same set as one :meth:`insert_value` call per value.
        """
        heap, members = self._neg_heap, self._members
        for v in sorted({int(v) for v in values} - members):
            if len(heap) < self.thresh:
                heapq.heappush(heap, -v)
            elif v < -heap[0]:
                members.discard(-heapq.heapreplace(heap, -v))
            else:
                break
            members.add(v)

    def check_merge(self, other: "MinimumRow") -> None:
        """Raise ``ValueError`` unless ``other`` has the same hash."""
        if other.h is not self.h and (other.h.rows != self.h.rows
                                      or other.h.offsets != self.h.offsets):
            raise ValueError("cannot merge rows with different hashes")

    def merge(self, other: "MinimumRow") -> None:
        """Union the value sets, keep the ``Thresh`` smallest."""
        self.check_merge(other)
        self.insert_values(other._members)

    def values(self) -> List[int]:
        """The kept hash values in ascending order."""
        return sorted(-v for v in self._neg_heap)

    @property
    def is_full(self) -> bool:
        """Whether the row holds ``Thresh`` values (and so has a cutoff)."""
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
        """Feed one item to every repetition."""
        for row in self.rows:
            row.process(x)

    def process_batch(self, xs: Sequence[int]) -> None:
        """Feed a whole chunk; duplicates are removed once, up front, so
        every row hashes only the chunk's distinct elements."""
        if len(xs) == 0:
            return
        if self.universe_bits <= 64:
            xs = _np.unique(_np.asarray(xs, dtype=_np.uint64))
        for row in self.rows:
            row.process_batch(xs)

    def merge(self, other: "MinimumF0") -> None:
        """Row-wise union with a sketch built from the same seeds (all
        or nothing: every row's hash is checked first)."""
        merge_rows(self.rows, other.rows)

    def estimate(self) -> float:
        """Median of the repetitions' estimates."""
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
