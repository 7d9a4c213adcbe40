"""Shard-parallel ingestion over mergeable F0 sketches.

:class:`ShardedF0` partitions one logical stream across ``k`` replicas of
a sketch that all share the same hash seeds (clones of a freshly built
prototype), and answers estimates by merging the replicas -- the
single-machine analogue of the Section 4 coordinator combine step.
Because every sketch in this package is a function of the *set* of
distinct elements only, the round-robin split is semantically invisible:
for a fixed prototype the merged estimate is bit-identical to feeding the
whole stream through one sketch.

Round-robin operates on **whole chunks**: ``process_batch`` hands the
entire chunk to the next shard in rotation rather than re-slicing it per
element, so every shard's batch path always sees full chunks (a strided
``xs[i::k]`` split would hand each shard a k-times smaller slice and
degrade small tail chunks to near-scalar ingestion).  Set semantics make
the two partitions produce identical merged estimates.

``process_stream(..., workers=k)`` is the true process-pool scatter:
worker processes each own a shard replica, ingest their chunk partition
through the batch paths, and ship the pickled sketches back for
``merge`` (see :mod:`repro.parallel.streaming`).
"""

from __future__ import annotations

import copy
from typing import Iterable, List, Optional, Sequence

from repro.common.errors import InvalidParameterError
from repro.parallel.executor import Executor, executor_for
from repro.parallel.streaming import ingest_stream_parallel
from repro.streaming.base import (
    DEFAULT_CHUNK_SIZE,
    F0Sketch,
    VersionedCache,
    chunked,
)


class ShardedF0:
    """Round-robin partition of a stream across ``k`` sketch replicas.

    Reads are served from a **cached merged view**: the combined sketch
    is a pure function of the mutation history, so it is memoised
    against a mutation version counter and rebuilt only after the next
    ingest/merge (``merge_rebuilds`` counts the rebuilds -- the read
    path's instrumentation hook).  A warm ``estimate()`` therefore does
    zero merge work, which is what lets a service front many concurrent
    readers with one sharded sketch.

    Args:
        prototype: a freshly built (empty) sketch implementing the
            :class:`~repro.streaming.base.F0Sketch` contract; it
            becomes shard 0 and the remaining ``shards - 1`` replicas
            are deep copies, so all shards share identical hash seeds
            and merge cleanly.
        shards: number of replicas (>= 1).

    Raises:
        InvalidParameterError: ``shards < 1``.
    """

    def __init__(self, prototype: F0Sketch, shards: int) -> None:
        if shards < 1:
            raise InvalidParameterError("shards must be >= 1")
        self.shards: List[F0Sketch] = [prototype] + [
            copy.deepcopy(prototype) for _ in range(shards - 1)]
        self._cursor = 0  # Round-robin position for scalar ingestion.
        self._init_caches()

    def _init_caches(self) -> None:
        """Fresh mutation counter + empty merged-view cache (also the
        post-decode/unpickle hook -- caches never travel the wire)."""
        self._version = 0
        self._merged_cache = VersionedCache()
        self._estimate_cache = VersionedCache()
        self.merge_rebuilds = 0  # Times the merged view was recomputed.

    @property
    def version(self) -> int:
        """Mutation counter (bumped on every ingest/merge path)."""
        return self._version

    @property
    def universe_bits(self) -> Optional[int]:
        """The shards' item width (``None`` when unhashed)."""
        return self.shards[0].universe_bits

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def __getstate__(self):
        """Pickle shards + cursor only: the merged view can be a whole
        extra sketch copy, never worth shipping across a process pool."""
        return {"shards": self.shards, "_cursor": self._cursor}

    def __setstate__(self, state) -> None:
        self.shards = state["shards"]
        self._cursor = state["_cursor"]
        self._init_caches()

    def process(self, x: int) -> None:
        """Route one item to the next shard in round-robin order."""
        self.shards[self._cursor].process(x)
        self._cursor = (self._cursor + 1) % len(self.shards)
        self._version += 1

    def process_batch(self, xs: Sequence[int]) -> None:
        """Hand the whole chunk to the next shard in round-robin order
        (full chunks keep the shard's vectorised batch path saturated)."""
        if len(xs) == 0:
            return
        self.shards[self._cursor].process_batch(xs)
        self._cursor = (self._cursor + 1) % len(self.shards)
        self._version += 1

    def process_stream(self, stream: Iterable[int],
                       chunk_size: int = DEFAULT_CHUNK_SIZE,
                       workers: int = 1,
                       executor: Optional[Executor] = None) -> None:
        """Chunk an iterable and scatter it across the shards.

        Args:
            stream: any iterable of items (generators are never fully
                materialised).
            chunk_size: items per ingestion chunk.
            workers: ``1`` (the default) ingests inline with zero
                overhead; ``k > 1`` scatters whole chunks round-robin
                over a process pool, where each worker owns a shard
                replica and ingests its partition via ``process_batch``.
            executor: explicit :class:`~repro.parallel.executor.Executor`
                to use instead of resolving ``workers`` (caller keeps
                ownership).

        Estimates are bit-identical for any worker count.
        """
        with executor_for(workers, executor) as ex:
            if ex.is_serial:
                for chunk in chunked(stream, chunk_size):
                    self.process_batch(chunk)
            else:
                self.shards = ingest_stream_parallel(
                    ex, self.shards, chunked(stream, chunk_size))
                self._version += 1

    def merge(self, other: "ShardedF0") -> None:
        """Fold another sharded run (same prototype seeds) shard-wise."""
        if other.num_shards != self.num_shards:
            raise InvalidParameterError("shard counts differ")
        for mine, theirs in zip(self.shards, other.shards):
            mine.merge(theirs)
        self._version += 1

    def merged_view(self) -> F0Sketch:
        """The cached combined sketch (the coordinator combine, memoised
        against the mutation version).

        The returned sketch is the cache's single shared instance:
        treat it as read-only.  Mutating callers want :meth:`merged`,
        which hands out a private copy.
        """
        def build() -> F0Sketch:
            self.merge_rebuilds += 1
            combined = copy.deepcopy(self.shards[0])
            for shard in self.shards[1:]:
                combined.merge(shard)
            return combined

        return self._merged_cache.get_or_build(self._version, build)

    def merged(self) -> F0Sketch:
        """One sketch holding the union of all shards (the coordinator
        combine); the shards themselves are left untouched.  The copy is
        the caller's to mutate -- read paths that only need to *look* at
        the union use :meth:`merged_view` and skip the copy too."""
        return copy.deepcopy(self.merged_view())

    def estimate(self) -> float:
        """Estimate of the merged view (cache-warm calls do zero merge
        work -- both the view and the resulting value are memoised)."""
        return self._estimate_cache.get_or_build(
            self._version, lambda: self.merged_view().estimate())

    def advance(self, now: float) -> int:
        """Rotate windowed shards forward to logical time ``now``.

        Forwarded to every shard (they share geometry, so all rotate in
        lock-step) and returns the buckets rotated on shard 0.

        Raises:
            InvalidParameterError: the shards are not windowed (see
                :class:`~repro.streaming.windowed.WindowedF0`).
        """
        if not hasattr(self.shards[0], "advance"):
            raise InvalidParameterError(
                "sharded sketch is not windowed: nothing to advance")
        rotated = 0
        for index, shard in enumerate(self.shards):
            count = shard.advance(now)
            if index == 0:
                rotated = count
        self._version += 1
        return rotated

    def estimate_window(self, span: float) -> float:
        """Windowed estimate of the merged view (shards merge first, so
        the answer is bit-identical to an unsharded window fed the same
        stream)."""
        return self.merged_view().estimate_window(span)

    def space_bits(self) -> int:
        """Total footprint across shards (what a k-site run would hold)."""
        return sum(shard.space_bits() for shard in self.shards)

    def to_bytes(self) -> bytes:
        """Serialize to the versioned wire format (see
        :mod:`repro.store.serialize`): each shard nests as its own
        self-describing frame."""
        from repro.store.serialize import dumps
        return dumps(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardedF0":
        """Decode a frame produced by :meth:`to_bytes`."""
        from repro.store.serialize import loads_typed
        return loads_typed(data, cls)
