"""The Bucketing F0 sketch (Gibbons--Tirthapura level sampling).

Each repetition keeps the distinct stream elements that land in the hash
cell ``h_m(x) = 0^m``; when the bucket reaches ``Thresh`` elements the level
``m`` is raised and the bucket re-filtered.  The estimate is
``|bucket| * 2^m``, median over repetitions.

Note on the overflow rule: the paper's streaming pseudo-code (Algorithm 3)
increments on ``size > Thresh`` while its sketch relation P1 and ApproxMC
(Algorithm 5) require the strict invariant ``size < Thresh``.  We use the P1
rule (raise the level while ``size >= Thresh``) in both the streaming and
counting implementations so that the two sides build *identical* sketches --
the equivalence the paper's Section 1 argues conceptually, and which
benchmark E19 checks bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.common.rng import RandomSource
from repro.common.stats import median
from repro.hashing.base import LinearHash
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.streaming.base import SketchParams, merge_rows


class BucketingRow:
    """One repetition: a hash function, a level, and a bucket of elements.

    The bucket internally remembers each member's cell level (computed
    once, on insertion), so level raises re-filter without re-hashing; the
    batch path computes those levels vectorised for a whole stream chunk.

    A row may also be built *without* a hash function from externally
    levelled elements (:meth:`from_levelled`) -- the distributed
    coordinator's combine operates on fingerprint messages whose cell
    levels were computed site-side, and such rows support ``merge`` and
    ``estimate`` but not ``process``.
    """

    __slots__ = ("h", "out_bits", "thresh", "level", "bucket", "_levels")

    def __init__(self, h: Optional[LinearHash], thresh: int,
                 out_bits: Optional[int] = None) -> None:
        if h is None and out_bits is None:
            raise ValueError("a hashless row needs an explicit out_bits")
        self.h = h
        self.out_bits = h.out_bits if out_bits is None else out_bits
        self.thresh = thresh
        self.level = 0
        self.bucket: Set[int] = set()
        self._levels: dict = {}

    @classmethod
    def from_levelled(cls, pairs: Iterable[Tuple[int, int]], thresh: int,
                      out_bits: int, level: int = 0) -> "BucketingRow":
        """A row over ``(element, cell level)`` pairs computed elsewhere,
        already sampled at ``level`` (the coordinator-side constructor)."""
        row = cls(None, thresh, out_bits=out_bits)
        row.level = level
        for x, lvl in pairs:
            if lvl >= level:
                row._levels[x] = lvl
                row.bucket.add(x)
        row._shrink()
        return row

    def _level_of(self, x: int) -> int:
        lvl = self._levels.get(x)
        if lvl is None:
            if self.h is None:
                raise ValueError("level unknown for element of a "
                                 "hashless row")
            lvl = self.h.cell_level(x)
        return lvl

    def process(self, x: int) -> None:
        """Insert ``x`` if it lies in the current cell; raise the level
        while the bucket violates the ``< Thresh`` invariant."""
        lvl = self._level_of(x)
        if lvl < self.level:
            return
        self._levels[x] = lvl  # Only bucket members are cached.
        self.bucket.add(x)
        self._shrink()

    def process_batch(self, xs) -> None:
        """Process a chunk of stream elements with one vectorised hash
        evaluation (byte-table ``cell_levels_batch``)."""
        levels = self.h.cell_levels_batch(xs)
        bucket = self.bucket
        current = self.level
        for x, lvl in zip(xs, levels):
            lvl = int(lvl)
            if lvl >= current:
                x = int(x)
                self._levels[x] = lvl
                bucket.add(x)
        self._shrink()

    def _shrink(self) -> None:
        shrunk = False
        while len(self.bucket) >= self.thresh \
                and self.level < self.out_bits:
            self.level += 1
            shrunk = True
            self.bucket = {y for y in self.bucket
                           if self._level_of(y) >= self.level}
        if shrunk:
            self._levels = {y: lvl for y, lvl in self._levels.items()
                            if y in self.bucket}

    def check_merge(self, other: "BucketingRow") -> None:
        """Raise ``ValueError`` unless ``other`` has the same hash."""
        if other.h is not self.h:
            if other.h is None or self.h is None \
                    or other.h.rows != self.h.rows \
                    or other.h.offsets != self.h.offsets:
                raise ValueError("cannot merge rows with different hashes")

    def merge(self, other: "BucketingRow") -> None:
        """Combine with a sketch built from another sub-stream using the
        same hash function (distributed Section 4)."""
        self.check_merge(other)
        self.level = max(self.level, other.level)
        self._levels.update(other._levels)
        merged = {y for y in self.bucket | other.bucket
                  if self._level_of(y) >= self.level}
        self.bucket = merged
        self._shrink()
        # _shrink prunes the level cache only when it raises the level;
        # after a merge the cache may also hold elements the max-level
        # filter above dropped, so prune unconditionally.
        if len(self._levels) > len(self.bucket):
            self._levels = {y: lvl for y, lvl in self._levels.items()
                            if y in self.bucket}

    def estimate(self) -> float:
        """``|bucket| * 2^level``."""
        return len(self.bucket) * float(1 << self.level)

    def sketch_state(self):
        """``(sorted bucket, level)`` -- used by the sketch-equivalence
        experiment (E19)."""
        return (tuple(sorted(self.bucket)), self.level)


class BucketingF0:
    """Median over ``t`` independent :class:`BucketingRow` repetitions."""

    def __init__(self, universe_bits: int, params: SketchParams,
                 rng: RandomSource) -> None:
        self.universe_bits = universe_bits
        self.params = params
        family = ToeplitzHashFamily(universe_bits, universe_bits)
        self.rows: List[BucketingRow] = [
            BucketingRow(family.sample(rng), params.thresh)
            for _ in range(params.repetitions)
        ]

    def process(self, x: int) -> None:
        for row in self.rows:
            row.process(x)

    def process_batch(self, xs: Sequence[int]) -> None:
        """Feed a whole stream chunk; duplicates are removed once, up
        front, then each row evaluates its hash over the chunk in one
        vectorised pass (see ``LinearHash.cell_levels_batch``)."""
        if len(xs) == 0:
            return
        if self.universe_bits <= 64:
            xs = _np.unique(_np.asarray(xs, dtype=_np.uint64))
        for row in self.rows:
            row.process_batch(xs)

    def merge(self, other: "BucketingF0") -> None:
        """Row-wise combine with a sketch built from the same seeds (all
        or nothing: every row's hash is checked first)."""
        merge_rows(self.rows, other.rows)

    def estimate(self) -> float:
        return median([row.estimate() for row in self.rows])

    def space_bits(self) -> int:
        """Rough footprint: seed bits plus bucket contents, per row."""
        return sum(row.h.seed_bits + len(row.bucket) * self.universe_bits
                   for row in self.rows)

    def to_bytes(self) -> bytes:
        """Serialize to the versioned wire format (see
        :mod:`repro.store.serialize`)."""
        from repro.store.serialize import dumps
        return dumps(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BucketingF0":
        """Decode a frame produced by :meth:`to_bytes`."""
        from repro.store.serialize import loads_typed
        return loads_typed(data, cls)
