"""Classic F0 (distinct elements) streaming sketches.

Implements the paper's unified view of the three hashing-based F0
algorithms (Section 3, Algorithms 1-4):

* :class:`BucketingF0` -- Gibbons--Tirthapura level-sampling;
* :class:`MinimumF0` -- Bar-Yossef et al.'s k-minimum-values;
* :class:`EstimationF0` -- the trailing-zero sketch (needs a rough estimate
  ``r``, supplied by :class:`FlajoletMartinF0`);
* :class:`FlajoletMartinF0` -- the constant-factor rough estimator;
* :class:`ExactF0` -- set-based ground truth.

All sketches implement the :class:`F0Sketch` contract -- ``process(x)`` /
``process_batch(chunk)`` / ``merge(other)`` / ``estimate()`` /
``space_bits()`` (merge is what the distributed protocols of Section 4
exploit) -- and share :class:`SketchParams` which carries the paper's
constants ``Thresh = 96/eps^2`` and ``t = 35 log(1/delta)``.  The
:func:`compute_f0` driver chunks any iterable through the batch paths,
and with ``workers=k`` scatters the chunks over ``k`` sketch replicas
and merges them -- both bit-identical to scalar ingestion by the
sketches' set-semantics invariant.  :class:`WindowedF0` wraps any of them in a
ring of mergeable sub-sketches with TTL rotation for sliding-window
("uniques in the last hour") estimates.
"""

from repro.streaming.base import (
    DEFAULT_CHUNK_SIZE,
    F0Estimator,
    F0Sketch,
    SketchParams,
    chunked,
    compute_f0,
)
from repro.streaming.bucketing import BucketingF0, BucketingRow
from repro.streaming.estimation import EstimationF0, EstimationRow
from repro.streaming.exact import ExactF0
from repro.streaming.flajolet_martin import FlajoletMartinF0
from repro.streaming.minimum import MinimumF0, MinimumRow
from repro.streaming.streams import (
    iter_shuffled_stream_with_f0,
    iter_zipf_like_stream,
    shuffled_stream_with_f0,
    zipf_like_stream,
)
from repro.streaming.windowed import WindowedF0

__all__ = [
    "BucketingF0",
    "BucketingRow",
    "DEFAULT_CHUNK_SIZE",
    "EstimationF0",
    "EstimationRow",
    "ExactF0",
    "F0Estimator",
    "F0Sketch",
    "FlajoletMartinF0",
    "MinimumF0",
    "MinimumRow",
    "SketchParams",
    "WindowedF0",
    "chunked",
    "compute_f0",
    "iter_shuffled_stream_with_f0",
    "iter_zipf_like_stream",
    "shuffled_stream_with_f0",
    "zipf_like_stream",
]
