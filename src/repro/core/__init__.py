"""The paper's primary contribution: F0 sketches transformed into counters.

Section 3's recipe -- capture the sketch relation ``P(S, H, a_u)``, view the
formula as the stream's distinct set (``Sol(phi) = a_u``), build the sketch
directly from the formula -- instantiated three times:

* :func:`approx_mc` -- Bucketing -> ApproxMC (Algorithm 5, Theorem 2),
  via :func:`bounded_sat` (Proposition 1).
* :func:`approx_model_count_min` -- Minimum -> Algorithm 6 (Theorem 3),
  via :func:`find_min` (Proposition 2); an FPRAS for DNF.
* :func:`approx_model_count_est` -- Estimation -> Algorithm 7 (Theorem 4),
  via :func:`find_max_range` (Proposition 3).
* :func:`flajolet_martin_count` -- the rough 5-factor counter that supplies
  the Estimation algorithm's coarse parameter ``r``.

All four counters are strategy classes over one
:class:`~repro.core.engine.RepetitionEngine` (:mod:`repro.core.engine`):
the engine owns hash pre-sampling order, serial/parallel dispatch,
oracle-call accounting and result assembly; each algorithm contributes
only its :class:`~repro.core.engine.CounterStrategy`.  The NP oracle
behind every probe is selected from :mod:`repro.sat.backends`.

:mod:`repro.core.recipe` exposes the sketch-construction halves directly so
the stream/formula equivalence (the paper's central observation) can be
checked bit-for-bit, and :mod:`repro.core.exact` provides ground truth.
"""

from repro.core.approxmc import BucketingStrategy, approx_mc
from repro.core.engine import CounterStrategy, RepetitionEngine, run_strategy
from repro.core.est_count import EstimationStrategy
from repro.core.fm_count import FlajoletMartinStrategy
from repro.core.min_count import MinimumStrategy
from repro.core.bounded_sat import bounded_sat, bounded_sat_cnf, bounded_sat_dnf
from repro.core.est_count import approx_model_count_est
from repro.core.exact import exact_count, exact_dnf_count, exact_model_count
from repro.core.find_max_range import find_max_range
from repro.core.find_min import find_min, find_min_cnf, find_min_dnf
from repro.core.fm_count import flajolet_martin_count
from repro.core.min_count import approx_model_count_min
from repro.core.results import ApproxCountResult
from repro.core.sampling import SolutionSampler, sample_solutions

__all__ = [
    "ApproxCountResult",
    "BucketingStrategy",
    "CounterStrategy",
    "EstimationStrategy",
    "FlajoletMartinStrategy",
    "MinimumStrategy",
    "RepetitionEngine",
    "run_strategy",
    "SolutionSampler",
    "sample_solutions",
    "approx_mc",
    "approx_model_count_est",
    "approx_model_count_min",
    "bounded_sat",
    "bounded_sat_cnf",
    "bounded_sat_dnf",
    "exact_count",
    "exact_dnf_count",
    "exact_model_count",
    "find_max_range",
    "find_min",
    "find_min_cnf",
    "find_min_dnf",
    "flajolet_martin_count",
]
