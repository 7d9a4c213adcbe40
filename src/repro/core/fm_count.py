"""The FlajoletMartin rough model counter (Section 3.4, last paragraph).

Transform of the classic FM estimator: pick a pairwise-independent *linear*
hash ``h in H_xor(n, n)``, compute ``R = max_{z |= phi} TrailZero(h(z))``
with FindMaxRange (``O(log n)`` oracle calls, since the suffix-zero
constraint is linear), output ``2^R`` -- a 5-factor approximation with
probability 3/5.  The median-of-repetitions variant supplies the coarse
parameter ``r`` for the Estimation counter with amplified confidence.

The repetition loop lives in :class:`repro.core.engine.RepetitionEngine`;
this module contributes :class:`FlajoletMartinStrategy` (XOR hash family,
FindMaxRange per repetition, median-of-levels aggregation into the
algorithm-specific :class:`FmCountResult`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.common.rng import RandomSource
from repro.common.stats import median
from repro.core.engine import CounterStrategy, RepetitionEngine
from repro.core.find_max_range import find_max_range
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.hashing.xor import XorHashFamily
from repro.parallel.executor import Executor
from repro.sat.oracle import NpOracle

Formula = Union[CnfFormula, DnfFormula]


@dataclass
class FmCountResult:
    """Rough count plus the coarse level for the Estimation algorithm."""

    estimate: float
    oracle_calls: int
    max_levels: List[int]

    def rough_r(self, n_bits: int, shift: int = 3) -> int:
        """Coarse ``r`` targeting Lemma 3's window ``[2 F0, 50 F0]``."""
        level = median(self.max_levels)
        return max(0, min(int(level) + shift, n_bits))


def _max_level_dnf(formula: DnfFormula, h) -> int:
    """Polynomial-time max trail-zero level over a DNF's solutions:
    the max over terms of the hashed image's trailing-zero reach."""
    best = -1
    for term in formula.terms:
        space = term.solution_space(formula.num_vars)
        if space is None:
            continue
        image = h.image_space(space)
        best = max(best, image.max_trailing_zeros())
    return best


@dataclass
class FlajoletMartinStrategy(CounterStrategy):
    """The FM rough counter as a :class:`CounterStrategy`: one XOR hash
    and one FindMaxRange binary search per repetition (polynomial affine
    reach for DNF), median of levels -> ``2^R``."""

    formula: Formula
    repetitions: int
    backend: Optional[str] = None

    def sample_hashes(self, rng: RandomSource) -> List:
        n = self.formula.num_vars
        family = XorHashFamily(n, n)
        return [family.sample(rng) for _ in range(self.repetitions)]

    def run_repetition(self, h) -> Tuple[Tuple[int], int]:
        if isinstance(self.formula, DnfFormula):
            return (_max_level_dnf(self.formula, h),), 0
        oracle = NpOracle(self.formula, backend=self.backend)
        level = find_max_range(oracle, h, self.formula.num_vars)
        return (level,), oracle.calls

    def aggregate(self, tasks, sketches, oracle_calls) -> FmCountResult:
        levels = [level for (level,) in sketches]
        level = median(levels)
        estimate = 0.0 if level < 0 else float(2.0 ** level)
        return FmCountResult(estimate=estimate, oracle_calls=oracle_calls,
                             max_levels=levels)


def flajolet_martin_count(formula: Formula, rng: RandomSource,
                          repetitions: int = 1,
                          workers: int = 1,
                          executor: Optional[Executor] = None,
                          backend: Optional[str] = None,
                          ) -> FmCountResult:
    """Median-of-``repetitions`` FM rough count of ``|Sol(phi)|``.

    Thin wrapper over :class:`FlajoletMartinStrategy` + the shared
    :class:`~repro.core.engine.RepetitionEngine`.

    Args:
        formula: CNF (suffix-constraint NP-oracle queries) or DNF
            (polynomial-time FindMaxRange path).
        rng: hash-sampling source (parent-side, serial draw order).
        repetitions: median width (one pairwise-independent hash each).
        workers: process-pool fan-out; levels and call totals
            bit-identical at any worker count.
        executor: explicit executor overriding ``workers``.
        backend: NP-oracle solver backend name for the CNF path.

    Returns:
        An :class:`FmCountResult` whose ``estimate`` is ``2^R`` for the
        median max-trail-zero level ``R`` (a factor-5 approximation
        with constant probability), plus ``rough_r()`` for Algorithm
        7's promise parameter.

    Raises:
        InvalidParameterError: ``repetitions < 1`` or an empty formula.
        KeyError: unknown ``backend`` name.
    """
    strategy = FlajoletMartinStrategy(formula=formula,
                                      repetitions=repetitions,
                                      backend=backend)
    return RepetitionEngine(strategy).run(rng, workers=workers,
                                          executor=executor)
