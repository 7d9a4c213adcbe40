"""Shared sketch parameters and the ComputeF0 driver (Algorithm 1).

The paper fixes ``Thresh = 96 / eps^2`` and ``t = 35 log(1/delta)`` -- the
constants under which Lemmas 1-3 are proved.  Experiments that only need the
*shape* of the guarantee (and would otherwise run 35x-slower for no insight)
may scale the constants down; :class:`SketchParams` makes that knob explicit
instead of burying magic numbers in call sites.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from typing import (
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.common.errors import InvalidParameterError
from repro.parallel.executor import Executor, executor_for
from repro.parallel.streaming import ingest_stream_parallel

#: Default ingestion chunk: large enough to amortise the numpy hash sweep,
#: small enough that per-chunk candidate selection stays cache-resident.
DEFAULT_CHUNK_SIZE = 4096


class VersionedCache:
    """Memoize one derived value against a mutation version counter.

    Every sketch is a pure function of the set of elements it has
    absorbed, so anything derived from it (a coarse level, an estimate,
    a merged view, a wire frame) stays valid until the next mutation.
    Holders bump a version counter on every mutation and route derived
    reads through :meth:`get_or_build`; the cached value is recomputed
    only on version mismatch.  :class:`~repro.store.store.CachedView`
    is the store-level analogue over whole registry entries.

    Not a lock: concurrent readers may race a writer into one redundant
    rebuild (both build from the same version, so both results are
    identical); callers needing stronger guarantees hold their own lock
    around :meth:`get_or_build`.
    """

    __slots__ = ("_version", "_value")

    def __init__(self) -> None:
        self._version: object = None  # None = never built.
        self._value: object = None

    def get_or_build(self, version, build):
        """The cached value at ``version``, rebuilding on mismatch."""
        if self._version != version or self._version is None:
            self._value = build()
            self._version = version
        return self._value

    def invalidate(self) -> None:
        """Drop the cached value (the next read rebuilds)."""
        self._version = None
        self._value = None


def item_error(x, universe_bits: Optional[int]) -> Optional[str]:
    """Why ``x`` cannot be ingested, or ``None`` when it can.

    Stream items are non-negative ints; a bool is not an item.  A hashed
    sketch over an ``n``-bit universe (``universe_bits``, ``None`` for
    unhashed sketches) also needs ``x < 2**n``: its hashes read only the
    low ``n`` bits, so a wider item would alias a narrower one.  The
    service's ingest route and the CLI's item reader both check through
    here, before any item reaches a sketch.
    """
    if not isinstance(x, int) or isinstance(x, bool):
        return f"{x!r} is not an integer"
    if x < 0:
        return f"{x} is negative"
    if universe_bits is not None and x >> universe_bits:
        return f"{x} does not fit in {universe_bits} bits"
    return None


@dataclass(frozen=True)
class SketchParams:
    """(eps, delta) plus the paper's constants.

    ``thresh_constant`` and ``repetitions_constant`` default to the paper's
    96 and 35; the natural logarithm is used for ``log(1/delta)``.
    """

    eps: float
    delta: float
    thresh_constant: float = 96.0
    repetitions_constant: float = 35.0

    def __post_init__(self) -> None:
        if not 0 < self.eps:
            raise InvalidParameterError("eps must be positive")
        if not 0 < self.delta < 1:
            raise InvalidParameterError("delta must lie in (0, 1)")
        if self.thresh_constant <= 0 or self.repetitions_constant <= 0:
            raise InvalidParameterError("constants must be positive")

    @property
    def thresh(self) -> int:
        """The paper's ``Thresh = ceil(96 / eps^2)`` (at least 1)."""
        return max(1, math.ceil(self.thresh_constant / (self.eps ** 2)))

    @property
    def repetitions(self) -> int:
        """The paper's ``t = ceil(35 ln(1/delta))`` (at least 1)."""
        return max(1, math.ceil(
            self.repetitions_constant * math.log(1.0 / self.delta)))


@runtime_checkable
class F0Estimator(Protocol):
    """The minimal streaming interface (scalar ingestion only)."""

    def process(self, x: int) -> None:
        """Feed one stream item."""
        ...

    def estimate(self) -> float:
        """Current F0 estimate (valid at any point in the stream)."""
        ...


@runtime_checkable
class F0Sketch(Protocol):
    """The full mergeable-sketch contract every F0 sketch implements.

    The batch and merge contracts are *exact*: for a fixed hash seed,
    any split of a stream into ``process`` calls, ``process_batch``
    chunks (in any order, with any duplication across chunks), or
    shard-and-``merge`` runs must yield bit-identical estimates -- each
    sketch is a function of the *set* of distinct elements only.  That
    set-semantics invariant is what Section 4's distributed protocols
    exploit, and the property tests in ``tests/test_batch_streaming.py``
    pin it down for every implementation.
    """

    def process(self, x: int) -> None:
        """Feed one stream item."""
        ...

    def process_batch(self, xs: Sequence[int]) -> None:
        """Feed a chunk of stream items (one vectorised hash sweep)."""
        ...

    def merge(self, other: "F0Sketch") -> None:
        """Fold another sketch built with the *same* hash seeds (from a
        disjoint or overlapping sub-stream) into this one."""
        ...

    def estimate(self) -> float:
        """Current F0 estimate (valid at any point in the stream)."""
        ...

    def space_bits(self) -> int:
        """Transmittable footprint (distributed accounting)."""
        ...

    def to_bytes(self) -> bytes:
        """Serialize to the versioned wire format of
        :mod:`repro.store.serialize` (``loads`` round-trips to
        bit-identical ``estimate``/``merge`` behaviour)."""
        ...


def merge_rows(rows: Sequence, others: Sequence) -> None:
    """Merge ``others`` into ``rows`` pairwise, checking every pair
    (``row.check_merge``) before any row changes, so a refused merge
    leaves the sketch as it was."""
    if len(others) != len(rows):
        raise ValueError("cannot merge sketches of different widths")
    for mine, theirs in zip(rows, others):
        mine.check_merge(theirs)
    for mine, theirs in zip(rows, others):
        mine.merge(theirs)


def chunked(stream: Iterable[int],
            chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[Sequence[int]]:
    """Yield the stream in chunks of at most ``chunk_size`` items.

    Sequences (lists, tuples, numpy arrays) are sliced without copying
    the whole stream again; arbitrary iterables are buffered lazily, so
    generator-backed streams are never fully materialised.
    """
    if chunk_size < 1:
        raise InvalidParameterError("chunk_size must be >= 1")
    try:
        length = len(stream)  # type: ignore[arg-type]
        stream[0:0]  # type: ignore[index]  # Sliceable? (sets are not)
    except TypeError:
        it = iter(stream)
        while True:
            chunk = list(itertools.islice(it, chunk_size))
            if not chunk:
                return
            yield chunk
    else:
        for i in range(0, length, chunk_size):
            yield stream[i:i + chunk_size]  # type: ignore[index]


def compute_f0(stream: Iterable[int], estimator: F0Estimator,
               chunk_size: int = DEFAULT_CHUNK_SIZE,
               workers: int = 1,
               executor: Optional[Executor] = None) -> float:
    """The paper's Algorithm 1 driver, chunked.

    The stream (any iterable, including generators) is cut into chunks
    and fed through ``process_batch`` when the estimator has a batch
    path; estimators without one receive the items one at a time.  Both
    routes produce bit-identical estimates -- the batch paths are exact.

    ``workers=k`` (or an explicit ``executor``) scatters the chunks over
    a process pool: ``k`` replicas of the estimator (same hash seeds)
    each ingest a round-robin chunk partition in their own worker, and
    the replicas are merged back into ``estimator``.  Set semantics make
    the result bit-identical to ``workers=1``.  The parallel path needs
    the full :class:`F0Sketch` contract (``process_batch`` + ``merge``);
    estimators without it fall back to serial ingestion.

    Args:
        stream: the items to count distinct elements over.
        estimator: any :class:`F0Estimator`; the parallel path
            additionally needs ``process_batch`` and ``merge``.
        chunk_size: items per ingestion chunk (must be >= 1).
        workers: process-pool width (``0`` = all cores, ``1`` = serial).
        executor: explicit executor overriding ``workers`` (the caller
            keeps ownership and must close it).

    Returns:
        The estimator's estimate after the whole stream is ingested.

    Raises:
        InvalidParameterError: ``chunk_size`` < 1 or ``workers`` < 0.
    """
    with executor_for(workers, executor) as ex:
        if (not ex.is_serial and hasattr(estimator, "merge")
                and hasattr(estimator, "process_batch")):
            replicas = [copy.deepcopy(estimator)
                        for _ in range(ex.workers)]
            replicas = ingest_stream_parallel(
                ex, replicas, chunked(stream, chunk_size))
            for replica in replicas:
                estimator.merge(replica)
            return estimator.estimate()
    process_batch = getattr(estimator, "process_batch", None)
    if process_batch is None:
        for x in stream:
            estimator.process(x)
    else:
        for chunk in chunked(stream, chunk_size):
            process_batch(chunk)
    return estimator.estimate()
