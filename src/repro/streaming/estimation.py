"""The Estimation (trailing-zero) F0 sketch.

Each repetition ``i`` holds ``Thresh`` independent s-wise hash functions;
entry ``S[i][j]`` is the maximum ``TrailZero(h_ij(x))`` over the stream.
Given a coarse estimate ``r`` with ``2 F0 <= 2^r <= 50 F0`` (from the
FlajoletMartin sketch), the fraction of entries ``>= r`` estimates
``1 - (1 - 2^-r)^F0``, which inverts to the Lemma 3 estimator

    ln(1 - (1/Thresh) * sum_j 1{S[i][j] >= r}) / ln(1 - 2^-r).

Batch ingestion evaluates each s-wise polynomial over a whole chunk in
one vectorised GF(2^n) Horner sweep (``GF2n.eval_poly_batch``) and folds
the chunk's max trail-zero into the entry -- bit-identical to the scalar
path, since an entry depends only on the max over the distinct elements.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as _np

from repro.common.errors import InvalidParameterError
from repro.common.rng import RandomSource
from repro.common.stats import median
from repro.hashing.kwise import KWiseHash, KWiseHashFamily
from repro.streaming.base import SketchParams, VersionedCache, merge_rows


def independence_for_eps(eps: float) -> int:
    """The paper's ``s = 10 log(1/eps)`` independence (at least 2)."""
    return max(2, math.ceil(10 * math.log(1.0 / min(eps, 0.99))))


class EstimationRow:
    """One repetition: ``Thresh`` hash functions and their max trail-zeros."""

    __slots__ = ("hashes", "maxima")

    def __init__(self, hashes: List[KWiseHash]) -> None:
        self.hashes = hashes
        self.maxima: List[int] = [0] * len(hashes)

    def process(self, x: int) -> None:
        for j, h in enumerate(self.hashes):
            t = h.trail_zeros(x)
            if t > self.maxima[j]:
                self.maxima[j] = t

    def process_batch(self, xs: Sequence[int]) -> None:
        """Fold a chunk's max trail-zero per hash into the entries (one
        vectorised field sweep per hash)."""
        if len(xs) == 0:
            return
        maxima = self.maxima
        for j, h in enumerate(self.hashes):
            t = h.max_trail_zeros(xs)
            if t > maxima[j]:
                maxima[j] = t

    def check_merge(self, other: "EstimationRow") -> None:
        """Raise ``ValueError`` unless ``other`` has the same width and
        hashes."""
        if len(other.maxima) != len(self.maxima):
            raise ValueError("cannot merge rows of different widths")
        if any(a.field.n != b.field.n or a.coeffs != b.coeffs
               for a, b in zip(self.hashes, other.hashes)):
            raise ValueError("cannot merge rows with different hashes")

    def merge(self, other: "EstimationRow") -> None:
        """Entry-wise max (the distributed Section 4 combine step)."""
        self.check_merge(other)
        self.maxima = [max(a, b) for a, b in zip(self.maxima, other.maxima)]

    def estimate(self, r: int) -> float:
        """The Lemma 3 estimator for a given coarse level ``r``."""
        m = len(self.maxima)
        fraction = sum(1 for t in self.maxima if t >= r) / m
        if fraction >= 1.0:
            return float("inf")  # All cells saturated: r was far too low.
        if fraction == 0.0:
            return 0.0
        return math.log(1.0 - fraction) / math.log(1.0 - 2.0 ** (-r))


class EstimationF0:
    """Median over ``t`` :class:`EstimationRow` repetitions.

    ``estimate`` needs the coarse parameter ``r``; callers either pass it
    explicitly (Theorem 4 style, "given r") or wire in a
    :class:`repro.streaming.flajolet_martin.FlajoletMartinF0` run in
    parallel, as the paper prescribes, via ``estimate_with_rough``.

    Repeated estimates on an unchanged sketch are memoised: every
    mutation (``process``/``process_batch``/``merge``) bumps the
    :attr:`version` counter, and the self-derived coarse level ``r``
    plus the resulting estimate are cached against it through
    :class:`~repro.streaming.base.VersionedCache` -- the same
    version-mismatch discipline the sketch store applies to whole
    entries.
    """

    def __init__(self, universe_bits: int, params: SketchParams,
                 rng: RandomSource,
                 independence: int | None = None) -> None:
        self.universe_bits = universe_bits
        self.params = params
        if independence is None:
            independence = independence_for_eps(params.eps)
        family = KWiseHashFamily(universe_bits, independence)
        self.rows: List[EstimationRow] = [
            EstimationRow([family.sample(rng)
                           for _ in range(params.thresh)])
            for _ in range(params.repetitions)
        ]
        self._version = 0
        self._r_cache = VersionedCache()
        self._estimate_cache = VersionedCache()

    @property
    def version(self) -> int:
        """Mutation counter (bumped by process/process_batch/merge)."""
        return self._version

    def process(self, x: int) -> None:
        for row in self.rows:
            row.process(x)
        self._version += 1

    def process_batch(self, xs: Sequence[int]) -> None:
        """Feed a whole chunk; duplicates are removed once, up front, so
        every polynomial is evaluated only on the chunk's distinct
        elements."""
        if len(xs) == 0:
            return
        if self.universe_bits <= 64:
            xs = _np.unique(_np.asarray(xs, dtype=_np.uint64))
        for row in self.rows:
            row.process_batch(xs)
        self._version += 1

    def merge(self, other: "EstimationF0") -> None:
        """Row-wise entry maxima with a sketch built from the same seeds
        (all or nothing: every row's hashes are checked first)."""
        merge_rows(self.rows, other.rows)
        self._version += 1

    def estimate_given_r(self, r: int) -> float:
        """Median of row estimates at coarse level ``r``."""
        if not 0 <= r <= self.universe_bits:
            raise InvalidParameterError("r out of range")
        return median([row.estimate(r) for row in self.rows])

    def coarse_r(self) -> int:
        """The sketch's self-derived coarse level (memoised per version).

        The median max-trail-zero level is a Flajolet-Martin-style coarse
        estimate of ``log2 F0``; shifting it up by 3 lands ``2^r`` in
        ``[2 F0, 50 F0]`` whenever the coarse level is within its usual
        factor-5 band.
        """
        def build() -> int:
            level_guesses = [median(row.maxima) for row in self.rows]
            coarse = median(level_guesses)
            return min(int(coarse) + 3, self.universe_bits)

        return self._r_cache.get_or_build(self._version, build)

    def estimate(self) -> float:
        """Estimate without an externally supplied ``r`` (memoised)."""
        return self._estimate_cache.get_or_build(
            self._version, lambda: self.estimate_given_r(self.coarse_r()))

    def space_bits(self) -> int:
        """Seed bits plus one counter per hash function."""
        counter_bits = max(1, self.universe_bits.bit_length())
        return sum(
            sum(h.seed_bits for h in row.hashes)
            + len(row.maxima) * counter_bits
            for row in self.rows)

    def to_bytes(self) -> bytes:
        """Serialize to the versioned wire format (see
        :mod:`repro.store.serialize`)."""
        from repro.store.serialize import dumps
        return dumps(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EstimationF0":
        """Decode a frame produced by :meth:`to_bytes`."""
        from repro.store.serialize import loads_typed
        return loads_typed(data, cls)
