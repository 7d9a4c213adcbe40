"""The rough Flajolet--Martin estimator.

One pairwise-independent hash; track the maximum number of trailing zeros
``R`` over the stream; output ``2^R``.  Alon--Matias--Szegedy: this is a
factor-5 approximation with probability >= 3/5.  The paper runs it "in
parallel" to supply the Estimation algorithm's coarse parameter ``r``; the
median-of-repetitions variant here concentrates the success probability so
the promise ``2 F0 <= 2^r <= 50 F0`` holds except with small probability.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as _np

from repro.common.rng import RandomSource
from repro.common.stats import median
from repro.hashing.xor import XorHashFamily


class FlajoletMartinF0:
    """Median of ``repetitions`` independent single-hash FM estimators."""

    def __init__(self, universe_bits: int, rng: RandomSource,
                 repetitions: int = 1) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self.universe_bits = universe_bits
        family = XorHashFamily(universe_bits, universe_bits)
        self.hashes = [family.sample(rng) for _ in range(repetitions)]
        self.max_trail: List[int] = [-1] * repetitions  # -1: empty stream.

    def process(self, x: int) -> None:
        for i, h in enumerate(self.hashes):
            t = h.trail_zeros(x)
            if t > self.max_trail[i]:
                self.max_trail[i] = t

    def process_batch(self, xs: Sequence[int]) -> None:
        """Feed a chunk: one vectorised hash-and-trail-zeros sweep per
        repetition (deduped once up front)."""
        if len(xs) == 0:
            return
        if self.universe_bits > 64:
            for x in xs:
                self.process(int(x))
            return
        xs = _np.unique(_np.asarray(xs, dtype=_np.uint64))
        for i, h in enumerate(self.hashes):
            t = int(_np.max(h.trail_zeros_batch(xs)))
            if t > self.max_trail[i]:
                self.max_trail[i] = t

    @staticmethod
    def merge_levels(mine: List[int], theirs: Sequence[int]) -> List[int]:
        """Entry-wise max of two max-trail-zero vectors -- the combine
        rule shared with the distributed Estimation protocol's FM round."""
        if len(mine) != len(theirs):
            raise ValueError("cannot merge level vectors of different "
                             "widths")
        return [max(a, b) for a, b in zip(mine, theirs)]

    def merge(self, other: "FlajoletMartinF0") -> None:
        """Combine with an FM sketch built from the same seeds."""
        if any(a.rows != b.rows or a.offsets != b.offsets
               for a, b in zip(self.hashes, other.hashes)):
            raise ValueError("cannot merge sketches with different hashes")
        self.max_trail = self.merge_levels(self.max_trail, other.max_trail)

    def estimate(self) -> float:
        """``2^R`` (median over repetitions); 0 for an empty stream."""
        r = median(self.max_trail)
        return 0.0 if r < 0 else float(1 << r)

    def rough_r(self, shift: int = 3) -> int:
        """A coarse level for the Estimation algorithm.

        ``2^(R + shift)`` targets the Lemma 3 promise window
        ``[2 F0, 50 F0]``: with the median ``2^R`` within a factor 5 of F0,
        ``shift = 3`` lands ``2^r`` in ``[8 F0 / 5, 40 F0]``, inside the
        window whenever ``2^R >= 1.25 F0 / 5``.  Benchmark E3 measures how
        often the promise actually holds.
        """
        r = median(self.max_trail)
        return max(0, min(int(r) + shift, self.universe_bits))

    def space_bits(self) -> int:
        """Seed bits plus one trail-zero counter per repetition."""
        counter_bits = max(1, self.universe_bits.bit_length())
        return sum(h.seed_bits + counter_bits for h in self.hashes)

    def to_bytes(self) -> bytes:
        """Serialize to the versioned wire format (see
        :mod:`repro.store.serialize`)."""
        from repro.store.serialize import dumps
        return dumps(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FlajoletMartinF0":
        """Decode a frame produced by :meth:`to_bytes`."""
        from repro.store.serialize import loads_typed
        return loads_typed(data, cls)
