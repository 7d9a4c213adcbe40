"""One constructor for every named sketch kind.

The CLI's ``f0`` verb, the service's create endpoint and the quickstart
examples all turn a ``(kind, universe_bits, params, seed)`` request into
a sketch; this module is the single copy of that mapping, so the set of
kinds a client may name and the set the store can build never drift
apart.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.common.errors import InvalidParameterError
from repro.streaming.base import F0Sketch, SketchParams
from repro.streaming.bucketing import BucketingF0
from repro.streaming.estimation import EstimationF0
from repro.streaming.exact import ExactF0
from repro.streaming.flajolet_martin import FlajoletMartinF0
from repro.streaming.minimum import MinimumF0
from repro.streaming.windowed import WindowedF0

#: The sketch kinds a client may name (CLI ``--sketch``, service
#: ``kind`` field).  Order is the display order of help strings.
SKETCH_KINDS = ("minimum", "estimation", "bucketing", "fm", "exact")

#: Widest element universe a hashed sketch may be built or decoded with.
#: An ``estimation`` sketch's GF(2^n) field costs seconds to set up at
#: n = 256 and most of a minute at 512; 64 bits covers every uint64 item.
MAX_UNIVERSE_BITS = 64

#: Default guarantee knobs for service-built sketches; matches the CLI.
DEFAULT_PARAMS = SketchParams(eps=0.8, delta=0.2)


#: Ring size used when a window span is requested without an explicit
#: bucket count (CLI ``--window`` without ``--buckets``, service
#: ``window`` without ``buckets``).
DEFAULT_WINDOW_BUCKETS = 8


def build_sketch(kind: str, universe_bits: int,
                 params: Optional[SketchParams] = None,
                 seed: int = 0,
                 window: Optional[float] = None,
                 buckets: Optional[int] = None) -> F0Sketch:
    """Build a fresh (empty) sketch of a named kind.

    Args:
        kind: one of :data:`SKETCH_KINDS`.
        universe_bits: width of the stream's element universe.  Ignored
            by ``"exact"``.
        params: accuracy parameters; :data:`DEFAULT_PARAMS` when omitted.
        seed: RNG seed for hash sampling.  Two calls with equal
            arguments build sketches with identical hash seeds, so their
            outputs merge cleanly -- this is how service clients
            construct replicas compatible with a server-side prototype.
        window: wrap the sketch in a
            :class:`~repro.streaming.windowed.WindowedF0` spanning this
            much logical time (sliding-window distinct counts; rotated
            by explicit ``advance`` calls).
        buckets: ring size for ``window``
            (:data:`DEFAULT_WINDOW_BUCKETS` when omitted; requires
            ``window``).

    Returns:
        An empty sketch implementing the full
        :class:`~repro.streaming.base.F0Sketch` contract.

    Raises:
        InvalidParameterError: unknown ``kind``, a hashed kind's
            ``universe_bits`` outside ``1..MAX_UNIVERSE_BITS``, or
            ``buckets`` without ``window``.
    """
    if kind not in SKETCH_KINDS:
        raise InvalidParameterError(
            f"unknown sketch kind {kind!r}; expected one of "
            f"{', '.join(SKETCH_KINDS)}")
    if params is None:
        params = DEFAULT_PARAMS
    rng = random.Random(seed)
    if kind == "exact":
        sketch: F0Sketch = ExactF0()
    else:
        if not 1 <= universe_bits <= MAX_UNIVERSE_BITS:
            raise InvalidParameterError(
                f"universe_bits must be in 1..{MAX_UNIVERSE_BITS} "
                f"(MAX_UNIVERSE_BITS) for hashed sketches, got "
                f"{universe_bits}")
        if kind == "fm":
            sketch = FlajoletMartinF0(universe_bits, rng,
                                      repetitions=params.repetitions)
        else:
            cls = {"minimum": MinimumF0, "estimation": EstimationF0,
                   "bucketing": BucketingF0}[kind]
            sketch = cls(universe_bits, params, rng)
    if window is not None:
        sketch = WindowedF0(sketch, window,
                            buckets=(buckets if buckets is not None
                                     else DEFAULT_WINDOW_BUCKETS))
    elif buckets is not None:
        raise InvalidParameterError(
            "buckets only applies to windowed sketches; set window too")
    return sketch
