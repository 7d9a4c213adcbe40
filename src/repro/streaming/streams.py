"""Synthetic stream generators with known ground-truth F0.

Two shapes per profile: the original list builders (kept byte-identical
for the fixed-seed accuracy tests) and chunked generator variants
(``iter_*``) that hold O(support) state instead of materialising
benchmark-scale streams as Python lists before ingestion -- feed them
straight to :func:`repro.streaming.base.compute_f0`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List

from repro.common.errors import InvalidParameterError
from repro.common.rng import RandomSource


def _sample_support(rng: RandomSource, universe_bits: int,
                    count: int) -> List[int]:
    """``count`` distinct elements of ``{0,1}^universe_bits``.

    Small universes sample without replacement directly; wide ones draw
    random bit strings until enough are distinct (collisions are rare).
    """
    universe = 1 << universe_bits
    if universe_bits <= 22:
        return rng.sample(range(universe), count)
    chosen = set()
    while len(chosen) < count:
        chosen.add(rng.getrandbits(universe_bits))
    return list(chosen)


def shuffled_stream_with_f0(rng: RandomSource, universe_bits: int,
                            f0: int, length: int) -> List[int]:
    """A stream of ``length`` items over exactly ``f0`` distinct elements.

    Elements are sampled without replacement from ``{0,1}^universe_bits``;
    every element appears at least once, extra slots are uniform repeats,
    and the whole stream is shuffled (so order-sensitivity bugs surface).
    """
    if f0 > (1 << universe_bits):
        raise InvalidParameterError("f0 exceeds universe size")
    if length < f0:
        raise InvalidParameterError("length must be >= f0")
    elements = _sample_support(rng, universe_bits, f0)
    stream = list(elements)
    stream.extend(rng.choice(elements) for _ in range(length - f0))
    rng.shuffle(stream)
    return stream


def iter_shuffled_stream_with_f0(rng: RandomSource, universe_bits: int,
                                 f0: int, length: int,
                                 chunk_size: int = 4096
                                 ) -> Iterator[List[int]]:
    """Chunked generator variant of :func:`shuffled_stream_with_f0`.

    Yields lists of at most ``chunk_size`` items; exactly ``f0`` distinct
    elements appear, each at least once, with first occurrences placed at
    uniformly random positions (each slot is a fresh first-occurrence
    with probability ``remaining_mandatory / remaining_slots``) and the
    other slots uniform repeats.  Holds O(f0 + chunk_size) memory instead
    of the full ``length``-item list.
    """
    if f0 > (1 << universe_bits):
        raise InvalidParameterError("f0 exceeds universe size")
    if length < f0:
        raise InvalidParameterError("length must be >= f0")
    if chunk_size < 1:
        raise InvalidParameterError("chunk_size must be >= 1")
    elements = _sample_support(rng, universe_bits, f0)
    pending = list(elements)
    rng.shuffle(pending)
    remaining = length
    chunk: List[int] = []
    while remaining:
        if len(pending) == remaining \
                or rng.random() * remaining < len(pending):
            x = pending.pop()
        else:
            x = elements[rng.randrange(f0)]
        chunk.append(x)
        remaining -= 1
        if len(chunk) == chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _zipf_cumulative(num_elements: int, exponent: float) -> List[float]:
    """The normalised cumulative rank distribution of a Zipf-like law."""
    weights = [1.0 / ((rank + 1) ** exponent)
               for rank in range(num_elements)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    return cumulative


def zipf_like_stream(rng: RandomSource, universe_bits: int,
                     num_elements: int, length: int,
                     exponent: float = 1.2) -> List[int]:
    """A skewed stream: element ranks follow a Zipf-like law.

    Heavy hitters dominate, the tail is rare -- the regime where naive
    sampling underestimates F0 but hashing sketches do not.  The realised
    F0 is whatever subset of the ``num_elements`` support actually appears;
    compute it with :class:`repro.streaming.exact.ExactF0`.
    """
    if num_elements > (1 << universe_bits):
        raise InvalidParameterError("support exceeds universe size")
    if exponent <= 0:
        raise InvalidParameterError("exponent must be positive")
    support = _sample_support(rng, universe_bits, num_elements)
    cumulative = _zipf_cumulative(num_elements, exponent)
    return [support[min(bisect_left(cumulative, rng.random()),
                        num_elements - 1)]
            for _ in range(length)]


def iter_zipf_like_stream(rng: RandomSource, universe_bits: int,
                          num_elements: int, length: int,
                          exponent: float = 1.2,
                          chunk_size: int = 4096) -> Iterator[List[int]]:
    """Chunked generator variant of :func:`zipf_like_stream`: same draw
    law, O(num_elements + chunk_size) memory."""
    if num_elements > (1 << universe_bits):
        raise InvalidParameterError("support exceeds universe size")
    if exponent <= 0:
        raise InvalidParameterError("exponent must be positive")
    if chunk_size < 1:
        raise InvalidParameterError("chunk_size must be >= 1")
    support = _sample_support(rng, universe_bits, num_elements)
    cumulative = _zipf_cumulative(num_elements, exponent)
    remaining = length
    while remaining:
        take = min(chunk_size, remaining)
        yield [support[min(bisect_left(cumulative, rng.random()),
                           num_elements - 1)]
               for _ in range(take)]
        remaining -= take
