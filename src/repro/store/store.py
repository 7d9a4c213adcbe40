"""A thread-safe named registry of live sketches with durable snapshots.

:class:`SketchStore` is the state a long-lived F0 counting service
holds: sketches addressed by name, mutated concurrently by many
clients, periodically snapshotted to disk, and restored after a
restart.  It is deliberately independent of HTTP -- the service in
:mod:`repro.service` is a thin shell over it, and embedded users (a
worker that accumulates shard uploads, a notebook) can use it directly.

Concurrency model
-----------------

A registry-wide lock guards the name map only (lookups, inserts,
deletes -- all O(1)); every entry additionally owns its *own* lock,
held for the duration of any sketch mutation (``ingest``,
``merge_into``) or cache rebuild.  Concurrent shard uploads against one
name therefore serialize against each other -- ``merge`` is not
atomic at the Python level across a sketch's rows -- while traffic on
different names proceeds in parallel.

The read path is concurrency-first: every mutation bumps the entry's
version counter, and ``estimate`` / ``info`` / ``serialized`` are
served from a :class:`CachedView` memoised against that counter.  A
warm read takes **no lock at all** (it checks the published view's
version and returns it -- the view is an immutable snapshot, so a
racing mutation can at worst make the read linearize just before it);
only a version mismatch takes the entry lock to rebuild.
:data:`VIEW_METRICS` counts hits/builds/serializations so tests and
benchmarks can assert the zero-work warm path.

TTL semantics
-------------

An entry created with ``ttl=T`` expires ``T`` seconds after its last
*mutation* (create, ingest, merge, replace); reads do not refresh it.
Expired entries are reaped lazily on access and by
:meth:`evict_expired` -- the
:class:`~repro.service.server.TTLSweeper` thread (enabled with
``repro serve --sweep-interval``) calls it periodically, so a live
service sheds expired entries even when nothing reads them.  The
clock is injectable for tests and defaults to ``time.monotonic``;
snapshots persist each entry's ``ttl`` but restart its countdown on
restore (a restored store has no meaningful "time since mutation").

Snapshots
---------

:meth:`snapshot` writes every entry's serialized frame into one file
-- to a temporary sibling first, then an atomic ``os.replace``, so a
crash mid-write can never leave a half-snapshot under the target name.
:meth:`restore` rebuilds the registry from such a file.
"""

from __future__ import annotations

import os
import struct
import tempfile
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

from repro.common.errors import ReproError
from repro.store.serialize import (
    FORMAT_VERSION,
    StoreFormatError,
    dumps,
    loads,
)

#: Magic of a snapshot file (one frame per stored sketch inside).
SNAPSHOT_MAGIC = b"RF0T"

#: How many times ``put(merge=True)`` retries the merge when the entry
#: keeps being deleted/expired and re-created underneath it.
MAX_PUT_RETRIES = 3


class SketchNotFoundError(ReproError, KeyError):
    """The named sketch does not exist (or has expired)."""


class SketchExistsError(ReproError):
    """A create targeted a name that is already registered."""


class SketchConflictError(ReproError):
    """A merge-on-put kept losing the race against concurrent
    delete/expire/re-create cycles on the same name and gave up after
    :data:`MAX_PUT_RETRIES` attempts."""


class ViewMetrics:
    """Process-wide counters for the cached read path.

    ``hits`` counts warm (lock-free) view reads, ``builds`` counts view
    rebuilds after a mutation, and ``serializations`` counts the wire
    frames encoded for those rebuilds.  Tests and benchmarks
    :meth:`reset` these and assert, e.g., that a warm ``estimate`` loop
    performs zero builds and zero serializations.
    """

    __slots__ = ("hits", "builds", "serializations")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.builds = 0
        self.serializations = 0


#: The store's global read-path instrumentation (all instances share it).
VIEW_METRICS = ViewMetrics()


class CachedView:
    """Immutable read products of one entry at a fixed version.

    The store-level generalization of the memoisation
    :class:`~repro.streaming.estimation.EstimationF0` does internally:
    estimate, kind and footprint are captured eagerly when the view is
    built; the wire frame is filled lazily on the first ``serialized``
    / ``info`` read at this version (ingest-heavy entries never pay for
    frames nobody asks for).  A view never outlives its entry -- it is
    reachable only through the :class:`StoredSketch` that owns it.
    """

    __slots__ = ("version", "kind", "estimate", "space_bits", "frame")

    def __init__(self, version: int, kind: str, estimate: float,
                 space_bits: int) -> None:
        self.version = version
        self.kind = kind
        self.estimate = estimate
        self.space_bits = space_bits
        self.frame: Optional[bytes] = None  # Lazily filled under lock.


class StoredSketch:
    """One registry entry: a sketch plus its lock, version counter,
    cached view and lifecycle stamps."""

    __slots__ = ("name", "sketch", "ttl", "created_at", "updated_at",
                 "lock", "version", "view")

    def __init__(self, name: str, sketch, ttl: Optional[float],
                 now: float) -> None:
        self.name = name
        self.sketch = sketch
        self.ttl = ttl
        self.created_at = now
        self.updated_at = now
        self.lock = threading.Lock()
        self.version = 0  # Bumped (under ``lock``) by every mutation.
        self.view: Optional[CachedView] = None

    def expired(self, now: float) -> bool:
        """Whether the TTL has elapsed since the last mutation."""
        return self.ttl is not None and now - self.updated_at > self.ttl


class SketchStore:
    """Named, mergeable, snapshottable sketch registry (see module doc)."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._registry_lock = threading.RLock()
        self._entries: Dict[str, StoredSketch] = {}

    # -- name map ----------------------------------------------------------

    def _reap_if_expired(self, name: str, entry: StoredSketch) -> bool:
        """Evict one expired entry -- but never mid-mutation.

        Called under the registry lock.  The entry lock is try-acquired:
        if a mutation (or view rebuild) holds it, the entry survives
        this round -- the mutation refreshes ``updated_at`` anyway, and
        evicting underneath it would silently discard its work.  Expiry
        is re-checked under the entry lock for the same reason.

        Returns True when the entry was removed.
        """
        if not entry.lock.acquire(blocking=False):
            return False
        try:
            if entry.expired(self._clock()) \
                    and self._entries.get(name) is entry:
                del self._entries[name]
                return True
            return False
        finally:
            entry.lock.release()

    def _entry(self, name: str) -> StoredSketch:
        """Look up a live entry, reaping it first if expired."""
        with self._registry_lock:
            entry = self._entries.get(name)
            if entry is not None and entry.expired(self._clock()) \
                    and self._reap_if_expired(name, entry):
                entry = None
        if entry is None:
            raise SketchNotFoundError(name)
        return entry

    def create(self, name: str, sketch, ttl: Optional[float] = None) -> None:
        """Register a sketch under a fresh name.

        Raises:
            SketchExistsError: the name is already registered (and not
                expired, or expired but mid-mutation).
        """
        if ttl is not None and ttl <= 0:
            raise ReproError("ttl must be positive (or None for no expiry)")
        now = self._clock()
        with self._registry_lock:
            existing = self._entries.get(name)
            if existing is not None:
                if not existing.expired(now) \
                        or not self._reap_if_expired(name, existing):
                    raise SketchExistsError(
                        f"sketch {name!r} already exists")
            self._entries[name] = StoredSketch(name, sketch, ttl, now)

    def delete(self, name: str) -> None:
        """Remove a sketch; raises :class:`SketchNotFoundError` if absent."""
        with self._registry_lock:
            if name not in self._entries:
                raise SketchNotFoundError(name)
            del self._entries[name]

    def names(self) -> List[str]:
        """Live sketch names, sorted (expired entries excluded)."""
        now = self._clock()
        with self._registry_lock:
            return sorted(n for n, e in self._entries.items()
                          if not e.expired(now))

    def __contains__(self, name: str) -> bool:
        now = self._clock()
        with self._registry_lock:
            entry = self._entries.get(name)
            return entry is not None and not entry.expired(now)

    def __len__(self) -> int:
        return len(self.names())

    # -- sketch operations (entry-locked) ----------------------------------

    def get(self, name: str):
        """The live sketch object itself (callers share it; mutate only
        through the store so the entry lock applies)."""
        return self._entry(name).sketch

    def ingest(self, name: str, items: Iterable[int]) -> int:
        """Feed a batch of items through the sketch's batch path.

        Returns the number of items ingested.  Runs under the entry
        lock, so concurrent ingests against one name serialize.
        """
        entry = self._entry(name)
        batch = items if isinstance(items, (list, tuple)) else list(items)
        with entry.lock:
            entry.sketch.process_batch(batch)
            entry.version += 1
            entry.updated_at = self._clock()
        return len(batch)

    def merge_into(self, name: str, incoming) -> None:
        """Merge-on-put: fold an uploaded sketch into the stored one.

        This is the coordinator combine as a storage primitive -- shard
        workers build replicas with the prototype's seeds, ingest their
        partition, and upload; the store folds each upload in under the
        entry lock, so any number of concurrent shard uploads serialize
        correctly.

        Raises:
            SketchNotFoundError: no sketch is registered under ``name``.
            ReproError: the sketches are incompatible (different widths
                or hash seeds -- surfaced from the sketch's own
                ``merge`` check).
        """
        entry = self._entry(name)
        with entry.lock:
            entry.sketch.merge(incoming)
            entry.version += 1
            entry.updated_at = self._clock()

    def advance(self, name: str, now: float) -> int:
        """Rotate a windowed sketch's ring to logical time ``now``.

        A mutation like any other: it runs under the entry lock, bumps
        the version counter (invalidating the cached view) and
        refreshes the TTL stamp.  Time never moves backwards, so
        replaying an advance is harmless.

        Returns the number of ring buckets rotated.

        Raises:
            SketchNotFoundError: no live sketch under ``name``.
            ReproError: the stored sketch is not windowed (see
                :class:`~repro.streaming.windowed.WindowedF0`).
        """
        entry = self._entry(name)
        with entry.lock:
            rotate = getattr(entry.sketch, "advance", None)
            if rotate is None:
                raise ReproError(
                    f"sketch {name!r} "
                    f"({type(entry.sketch).__name__}) is not windowed: "
                    f"nothing to advance")
            rotated = rotate(float(now))
            entry.version += 1
            entry.updated_at = self._clock()
        return rotated

    def estimate_window(self, name: str, span: float) -> float:
        """A windowed sketch's estimate over the trailing ``span``.

        Runs under the entry lock (partial-span merges are built inside
        the sketch and memoised there, so repeated reads of a quiet
        window stay cheap) and never rotates the ring -- pair with
        :meth:`advance` to move time forward.

        Raises:
            SketchNotFoundError: no live sketch under ``name``.
            ReproError: the stored sketch is not windowed, or ``span``
                is outside ``(0, window]``.
        """
        entry = self._entry(name)
        with entry.lock:
            reader = getattr(entry.sketch, "estimate_window", None)
            if reader is None:
                raise ReproError(
                    f"sketch {name!r} "
                    f"({type(entry.sketch).__name__}) is not windowed: "
                    f"no windowed estimates")
            return reader(float(span))

    def put(self, name: str, sketch, ttl: Optional[float] = None,
            merge: bool = False) -> None:
        """Store a sketch: create, replace, or (``merge=True``) fold into
        an existing entry; absent names are created either way.

        Raises:
            SketchConflictError: ``merge=True`` and the name kept being
                deleted/expired and re-created between the existence
                check and the merge, :data:`MAX_PUT_RETRIES` times in a
                row.  (A merge *rejected* by the entry -- incompatible
                seeds or kind -- raises the entry's own error
                immediately instead of spinning against it.)
        """
        if not merge:
            now = self._clock()
            with self._registry_lock:
                self._entries[name] = StoredSketch(name, sketch, ttl, now)
            return
        for _ in range(MAX_PUT_RETRIES):
            try:
                self.merge_into(name, sketch)
                return
            except SketchNotFoundError:
                pass
            with self._registry_lock:
                existing = self._entries.get(name)
                if existing is None or (
                        existing.expired(self._clock())
                        and self._reap_if_expired(name, existing)):
                    self._entries[name] = StoredSketch(
                        name, sketch, ttl, self._clock())
                    return
            # A concurrent create slipped in between the failed merge
            # and the registry lock; loop to merge against it.
        raise SketchConflictError(
            f"merge-on-put of {name!r} lost the delete/re-create race "
            f"{MAX_PUT_RETRIES} times; giving up")

    # -- cached read path --------------------------------------------------

    def _view(self, entry: StoredSketch,
              need_frame: bool = False) -> CachedView:
        """The entry's view at its current version (lock-free when warm).

        A fresh published view is returned without touching the entry
        lock -- the view is immutable, so a racing mutation just means
        this read linearizes before it.  On version mismatch the entry
        lock is taken and the view rebuilt; ``need_frame`` additionally
        fills the lazily-encoded wire frame.
        """
        view = entry.view
        if view is not None and view.version == entry.version \
                and (view.frame is not None or not need_frame):
            VIEW_METRICS.hits += 1
            return view
        with entry.lock:
            view = entry.view
            if view is None or view.version != entry.version:
                sketch = entry.sketch
                view = CachedView(entry.version, type(sketch).__name__,
                                  sketch.estimate(), sketch.space_bits())
                VIEW_METRICS.builds += 1
            if need_frame and view.frame is None:
                view.frame = dumps(entry.sketch)
                VIEW_METRICS.serializations += 1
            entry.view = view
        return view

    def estimate(self, name: str) -> float:
        """The named sketch's current F0 estimate (a warm cached view
        makes this a lock-free O(1) read)."""
        return self._view(self._entry(name)).estimate

    def entry_version(self, name: str) -> int:
        """The named entry's mutation counter (bumped by every write).

        This is the same counter the cached-view read path is memoised
        against; change-capture layers (the multi-process delta log)
        compare it against a last-published mark to detect dirty
        entries without touching the sketch.

        Raises:
            SketchNotFoundError: no live sketch under ``name``.
        """
        return self._entry(name).version

    def info(self, name: str) -> Dict[str, object]:
        """Metadata for one entry: kind, estimate, footprints, stamps."""
        entry = self._entry(name)
        view = self._view(entry, need_frame=True)
        return {
            "name": name,
            "kind": view.kind,
            "estimate": view.estimate,
            "space_bits": view.space_bits,
            "serialized_bytes": len(view.frame),
            "ttl": entry.ttl,
            "age_seconds": self._clock() - entry.updated_at,
        }

    def serialized(self, name: str) -> bytes:
        """The named sketch's wire frame (served from the cached view;
        encoded at most once per mutation epoch)."""
        return self._view(self._entry(name), need_frame=True).frame

    # -- lifecycle ---------------------------------------------------------

    def evict_expired(self) -> List[str]:
        """Reap every expired entry; returns the evicted names.

        Entries whose lock is held (a mutation or view rebuild in
        flight) are skipped this round rather than evicted mid-mutation
        -- the mutation refreshes ``updated_at`` when it completes, and
        a later sweep re-examines whatever is genuinely stale.
        """
        now = self._clock()
        with self._registry_lock:
            stale = [(n, e) for n, e in self._entries.items()
                     if e.expired(now)]
            dead = [n for n, e in stale if self._reap_if_expired(n, e)]
        return sorted(dead)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, path: str) -> int:
        """Atomically persist every live entry to ``path``.

        The file is written to a temporary sibling and moved into place
        with ``os.replace``, so readers never observe a partial
        snapshot.  Returns the number of sketches written.
        """
        now = self._clock()
        with self._registry_lock:
            entries = [e for e in self._entries.values()
                       if not e.expired(now)]
        # Serialize outside the registry lock (dumps of a large sketch
        # is slow; the name-map lock must stay O(1)-held), under each
        # entry's own lock so the frame is internally consistent.
        frames = []
        for entry in entries:
            with entry.lock:
                view = entry.view
                if view is not None and view.version == entry.version \
                        and view.frame is not None:
                    blob = view.frame  # Fresh cached frame: reuse.
                else:
                    blob = dumps(entry.sketch)
                frames.append((entry.name, entry.ttl, blob))
        out = [SNAPSHOT_MAGIC, struct.pack("<H", FORMAT_VERSION),
               struct.pack("<I", len(frames))]
        for name, ttl, blob in frames:
            encoded = name.encode("utf-8")
            out.append(struct.pack("<I", len(encoded)))
            out.append(encoded)
            out.append(struct.pack("<B", 0 if ttl is None else 1))
            out.append(struct.pack("<d", 0.0 if ttl is None else ttl))
            out.append(struct.pack("<I", len(blob)))
            out.append(blob)
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=".sketchstore-", dir=directory)
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(b"".join(out))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(frames)

    def restore(self, path: str, replace: bool = True) -> int:
        """Rebuild the registry from a :meth:`snapshot` file.

        Args:
            path: snapshot file to read.
            replace: drop current entries first (default); with
                ``False``, snapshot entries overwrite same-named entries
                and leave others alone.

        Returns:
            The number of sketches restored.

        Raises:
            StoreFormatError: the file is not a snapshot, is from an
                unknown version, or holds a malformed frame.
        """
        with open(path, "rb") as f:
            data = f.read()
        view = memoryview(data)
        pos = 0

        def take(n: int) -> bytes:
            nonlocal pos
            if pos + n > len(view):
                raise StoreFormatError("truncated snapshot")
            chunk = bytes(view[pos:pos + n])
            pos += n
            return chunk

        if take(4) != SNAPSHOT_MAGIC:
            raise StoreFormatError("bad magic: not a sketch-store snapshot")
        (version,) = struct.unpack("<H", take(2))
        if version != FORMAT_VERSION:
            raise StoreFormatError(
                f"unsupported snapshot version {version}")
        (count,) = struct.unpack("<I", take(4))
        loaded = []
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4))
            name = take(name_len).decode("utf-8")
            (has_ttl,) = struct.unpack("<B", take(1))
            (ttl_value,) = struct.unpack("<d", take(8))
            (blob_len,) = struct.unpack("<I", take(4))
            sketch = loads(take(blob_len))
            loaded.append((name, ttl_value if has_ttl else None, sketch))
        if pos != len(view):
            raise StoreFormatError("trailing bytes after snapshot")
        now = self._clock()
        with self._registry_lock:
            if replace:
                self._entries.clear()
            for name, ttl, sketch in loaded:
                self._entries[name] = StoredSketch(name, sketch, ttl, now)
        return len(loaded)
