"""Chunk scatter / sketch gather plumbing for parallel stream ingestion.

A mergeable F0 sketch turns stream parallelism into pure data
parallelism: ship an empty replica (same hash seeds) to each worker,
scatter whole chunks round-robin, ingest through the existing
``process_batch`` paths, and ``merge`` the pickled replicas back.  Set
semantics (every sketch is a function of the distinct-element set only)
make the partition invisible: the merged estimate is bit-identical to a
single-sketch run no matter how chunks land on workers.

Chunks are dispatched in **waves** (``wave`` chunks per sketch per
dispatch) so a generator-backed stream is never fully materialised in
the parent: each wave buffers at most ``wave * len(sketches)`` chunks,
ships them, and replaces the local sketches with the ingested replicas
the workers return.  In-process executors (serial, thread) run the same
code path without any pickling: the sketches are mutated in place, and
thread tasks never share a sketch (chunk ``j`` goes wholly to sketch
``j mod k``), so no locking is needed.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as _np

from repro.parallel.executor import Executor

#: Chunks buffered per sketch per dispatch wave.  At the default chunk
#: size (4096 items) a 4-way scatter buffers ~8 MB of uint64 per wave --
#: large enough to amortise the per-wave pickle of the sketches, small
#: enough that the parent never holds a meaningful fraction of a long
#: stream.
DEFAULT_WAVE = 64


def _compact(chunk: Sequence[int]) -> Sequence[int]:
    """Convert a chunk to a fixed-width numpy array when its values fit:
    pickling a 4096-item buffer is ~an order of magnitude cheaper than a
    4096-element int list, and the batch paths accept either.  Chunks
    holding ints beyond int64 (wide universes) pass through unchanged."""
    if isinstance(chunk, _np.ndarray):
        return chunk
    try:
        arr = _np.asarray(chunk)
    except (OverflowError, TypeError, ValueError):
        return chunk
    return arr if arr.dtype.kind in "ui" else chunk


def _ingest_task(task: Tuple[object, List[Sequence[int]]],
                 _shared: object) -> object:
    """Worker body: feed buffered chunks through the sketch's batch path
    and return the (possibly pickled-back) sketch."""
    sketch, chunks = task
    for chunk in chunks:
        sketch.process_batch(chunk)
    return sketch


def ingest_stream_parallel(executor: Executor, sketches: List[object],
                           chunks: Iterable[Sequence[int]],
                           wave: int = DEFAULT_WAVE) -> List[object]:
    """Scatter ``chunks`` round-robin across ``sketches`` on ``executor``.

    Chunk ``j`` goes wholly to sketch ``j mod k`` -- never re-sliced per
    element, so worker-side ingestion always sees full chunks and the
    vectorised batch paths never degrade to scalar fallback on small
    tails.  Returns the ingested sketches in their original order (new
    objects under a process pool, the same objects mutated in place
    under a serial executor).
    """
    k = len(sketches)
    if k == 0:
        return sketches
    pending: List[List[Sequence[int]]] = [[] for _ in range(k)]
    buffered = 0
    index = 0
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        if not executor.in_process:
            # Fixed-width buffers pickle an order of magnitude cheaper
            # than int lists; in-process nothing is pickled, so skip it.
            chunk = _compact(chunk)
        pending[index % k].append(chunk)
        index += 1
        buffered += 1
        if buffered >= wave * k:
            sketches = executor.map(_ingest_task,
                                    list(zip(sketches, pending)))
            pending = [[] for _ in range(k)]
            buffered = 0
    if buffered:
        sketches = executor.map(_ingest_task, list(zip(sketches, pending)))
    return sketches
