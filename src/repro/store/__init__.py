"""Durable storage for F0 sketches.

The paper's whole trade is that an F0 sketch is a tiny, mergeable
summary of a stream -- exactly the object worth keeping *after* the
process that built it exits.  This package supplies the persistence
layer the streaming side was missing:

* :mod:`repro.store.serialize` -- a versioned binary wire format with
  ``dumps`` / ``loads`` for every :class:`~repro.streaming.base.F0Sketch`
  implementation *and* the hash functions they embed, round-tripping to
  bit-identical ``estimate()`` / ``merge()`` behaviour;
* :mod:`repro.store.store` -- :class:`SketchStore`, a thread-safe named
  registry with merge-on-put (the coordinator combine as a storage
  primitive), TTL eviction, and atomic snapshot-to-disk / restore;
* :mod:`repro.store.factory` -- :func:`build_sketch`, the one place a
  ``(kind, universe_bits, params, seed)`` request becomes a sketch (the
  CLI ``f0`` verb and the service's create endpoint share it).

The HTTP layer in :mod:`repro.service` is a thin shell over these
pieces; everything here also works embedded, with no server at all.
"""

from repro.store.serialize import (
    FORMAT_VERSION,
    MAGIC,
    StoreFormatError,
    dumps,
    loads,
    loads_sketch,
    loads_typed,
    serialized_size,
)
from repro.store.deltalog import DeltaLog, SeqCounter
from repro.store.factory import MAX_UNIVERSE_BITS, SKETCH_KINDS, build_sketch
from repro.store.store import (
    VIEW_METRICS,
    CachedView,
    SketchConflictError,
    SketchStore,
    StoredSketch,
    ViewMetrics,
)

__all__ = [
    "CachedView",
    "DeltaLog",
    "FORMAT_VERSION",
    "MAGIC",
    "MAX_UNIVERSE_BITS",
    "SKETCH_KINDS",
    "SeqCounter",
    "SketchConflictError",
    "SketchStore",
    "StoreFormatError",
    "StoredSketch",
    "VIEW_METRICS",
    "ViewMetrics",
    "build_sketch",
    "dumps",
    "loads",
    "loads_sketch",
    "loads_typed",
    "serialized_size",
]
