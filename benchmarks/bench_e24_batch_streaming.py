"""E24 -- Batch ingestion throughput for the F0 sketches.

The streaming stack now hashes whole chunks in one vectorised sweep:
bit-packed GF(2) matrix-vector products for the affine families (multi-
word for the Minimum sketch's 3n-bit range) and a vectorised GF(2^n)
Horner evaluation for the s-wise polynomials.  This benchmark feeds the
same generator-backed streams through two ingestion modes per sketch:

* ``scalar``  -- element-at-a-time ``process``;
* ``batch``   -- chunked ``process_batch``.

Both produce bit-identical estimates (asserted); reported numbers
are items/second and the batch-over-scalar speedup.  Headline: >= 5x
batch ingestion throughput for MinimumF0 and EstimationF0.
"""

import random
import time

import pytest

from benchmarks.harness import emit, format_table
from repro.streaming.base import SketchParams, chunked, compute_f0
from repro.streaming.bucketing import BucketingF0
from repro.streaming.estimation import EstimationF0
from repro.streaming.flajolet_martin import FlajoletMartinF0
from repro.streaming.minimum import MinimumF0
from repro.streaming.streams import iter_shuffled_stream_with_f0

PARAMS = SketchParams(eps=0.6, delta=0.25,
                      thresh_constant=24.0, repetitions_constant=4.0)

UNIVERSE_BITS = 16
CHUNK_SIZE = 4096


def _sketch(name, seed):
    rng = random.Random(seed)
    if name == "minimum":
        return MinimumF0(UNIVERSE_BITS, PARAMS, rng)
    if name == "estimation":
        return EstimationF0(UNIVERSE_BITS, PARAMS, rng, independence=4)
    if name == "bucketing":
        return BucketingF0(UNIVERSE_BITS, PARAMS, rng)
    if name == "fm":
        return FlajoletMartinF0(UNIVERSE_BITS, rng,
                                repetitions=PARAMS.repetitions)
    raise AssertionError(name)


def _stream_chunks(length, f0):
    return iter_shuffled_stream_with_f0(random.Random(99), UNIVERSE_BITS,
                                        f0, length,
                                        chunk_size=CHUNK_SIZE)


def run_comparison(workloads):
    """``workloads``: list of (sketch name, length, f0).  Per-sketch
    lengths keep the scalar baseline affordable -- EstimationF0's scalar
    path is ~100x slower than the affine sketches' (one GF(2^n) Horner
    evaluation per hash per item), and throughput per mode is
    length-independent, so the speedup ratio is unaffected."""
    rows = []
    speedups = {}
    for name, length, f0 in workloads:
        scalar = _sketch(name, 7)
        t0 = time.perf_counter()
        for chunk in _stream_chunks(length, f0):
            for x in chunk:
                scalar.process(x)
        scalar_t = time.perf_counter() - t0
        scalar_est = scalar.estimate()

        batch = _sketch(name, 7)
        t0 = time.perf_counter()
        for chunk in _stream_chunks(length, f0):
            batch.process_batch(chunk)
        batch_t = time.perf_counter() - t0
        assert batch.estimate() == scalar_est, (
            f"{name}: batch estimate diverged")

        speedup = scalar_t / batch_t
        speedups[name] = speedup
        rows.append((name, length, length / scalar_t, length / batch_t,
                     speedup, scalar_est))
    return rows, speedups


def test_e24_batch_streaming(capsys):
    workloads = [
        ("minimum", 60_000, 8_000),
        ("estimation", 6_000, 2_000),
        ("bucketing", 60_000, 8_000),
        ("fm", 60_000, 8_000),
    ]
    rows, speedups = run_comparison(workloads)
    table = format_table(
        "E24  Batch ingestion throughput "
        f"(chunk={CHUNK_SIZE}; identical estimates; "
        "per-sketch stream lengths)",
        ["sketch", "items", "scalar items/s", "batch items/s",
         "batch speedup", "estimate"],
        [(n, ln, f"{s:.0f}", f"{b:.0f}", f"{sp:.2f}x", f"{est:.0f}")
         for n, ln, s, b, sp, est in rows],
    )
    table += ("\n\nscalar = element-at-a-time process; batch = chunked "
              "process_batch (vectorised hashing).\n"
              "headline: >= 5x batch ingestion for MinimumF0 and "
              "EstimationF0.")
    emit(capsys, "e24_batch_streaming", table)

    assert speedups["minimum"] >= 5.0, (
        f"MinimumF0 batch path must be >= 5x, got "
        f"{speedups['minimum']:.2f}x")
    assert speedups["estimation"] >= 5.0, (
        f"EstimationF0 batch path must be >= 5x, got "
        f"{speedups['estimation']:.2f}x")
    for name, speedup in speedups.items():
        assert speedup > 1.0, f"{name}: batch path slower than scalar"


@pytest.mark.slow
def test_e24_batch_streaming_scaled(capsys):
    """The same sweep at 4x the stream length (the regime where the
    generator variants matter: the stream is never a full list)."""
    workloads = [("minimum", 240_000, 30_000),
                 ("estimation", 24_000, 8_000)]
    rows, speedups = run_comparison(workloads)
    table = format_table(
        "E24b  Batch ingestion at scale",
        ["sketch", "items", "scalar items/s", "batch items/s",
         "batch speedup", "estimate"],
        [(n, ln, f"{s:.0f}", f"{b:.0f}", f"{sp:.2f}x", f"{est:.0f}")
         for n, ln, s, b, sp, est in rows],
    )
    emit(capsys, "e24_batch_streaming_scaled", table)
    assert all(sp >= 5.0 for sp in speedups.values())


def test_e24_chunked_driver_overhead(capsys):
    """compute_f0 with generator input must not cost more than hand-rolled
    chunk loops (guards the driver's dispatch overhead)."""
    length, f0 = 30_000, 5_000
    sketch = _sketch("minimum", 3)
    stream = (x for chunk in _stream_chunks(length, f0) for x in chunk)
    t0 = time.perf_counter()
    estimate = compute_f0(stream, sketch, chunk_size=CHUNK_SIZE)
    driver_t = time.perf_counter() - t0

    direct = _sketch("minimum", 3)
    flat = [x for chunk in _stream_chunks(length, f0) for x in chunk]
    t0 = time.perf_counter()
    for chunk in chunked(flat, CHUNK_SIZE):
        direct.process_batch(chunk)
    direct_t = time.perf_counter() - t0
    assert direct.estimate() == estimate

    table = format_table(
        "E24c  compute_f0 driver overhead (generator vs pre-chunked list)",
        ["mode", "seconds", "items/s"],
        [("compute_f0(generator)", driver_t, length / driver_t),
         ("manual chunks (list)", direct_t, length / direct_t)],
    )
    emit(capsys, "e24_driver_overhead", table)
    assert driver_t < 5 * direct_t
