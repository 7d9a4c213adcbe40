"""ApproxModelCountEst (Algorithm 7, Theorem 4): the Estimation-based
counter.

Per repetition ``i``: draw ``Thresh`` hashes from the s-wise family
(``s = 10 log(1/eps)``); entry ``S[i][j]`` is the FindMaxRange level of hash
``(i, j)``.  Given a coarse ``r`` with ``2 F0 <= 2^r <= 50 F0``, the Lemma 3
estimator inverts the saturation fraction.  When ``r`` is not supplied, the
paper's prescription -- run the FlajoletMartin rough counter in parallel --
is followed.

The s-wise hashes are polynomial (non-linear), so the oracle backend is the
witness-enumeration substitute (DESIGN.md substitution table); query counts
match the paper's ``O(1/eps^2 log n log(1/delta))`` accounting.  The paper
knows no polynomial-time FindMaxRange for DNF (an open problem); passing a
DNF here uses the same enumeration backend and is flagged as such in the
result.

The repetition loop lives in :class:`repro.core.engine.RepetitionEngine`;
this module contributes :class:`EstimationStrategy` (the s-wise grid, a
FindMaxRange sweep per repetition over the pre-enumerated solution set,
Lemma 3 aggregation).  The wrapper handles the FM pre-pass that derives
``r`` and threads ``backend`` into the enumeration front door
(:func:`repro.sat.oracle.oracle_for`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple, Union

from repro.common.errors import InvalidParameterError
from repro.common.rng import RandomSource
from repro.core.engine import CounterStrategy, RepetitionEngine
from repro.core.find_max_range import find_max_range
from repro.core.fm_count import flajolet_martin_count
from repro.core.results import ApproxCountResult
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.hashing.kwise import KWiseHashFamily
from repro.parallel.executor import Executor, executor_for
from repro.sat.oracle import EnumerationOracle, oracle_for
from repro.streaming.base import SketchParams
from repro.streaming.estimation import independence_for_eps

Formula = Union[CnfFormula, DnfFormula]


def estimate_from_levels(levels: List[int], r: int) -> float:
    """The Lemma 3 row estimator (shared with streaming/distributed)."""
    m = len(levels)
    fraction = sum(1 for t in levels if t >= r) / m
    if fraction >= 1.0:
        return float("inf")
    if fraction == 0.0:
        return 0.0
    return math.log(1.0 - fraction) / math.log(1.0 - 2.0 ** (-r))


@dataclass
class EstimationStrategy(CounterStrategy):
    """EstCount as a :class:`CounterStrategy`: an s-wise hash grid drawn
    repetition-major, one FindMaxRange sweep per repetition against a
    shared (frozen) solution set, Lemma 3 per sketch.

    ``solutions`` is enumerated once by the wrapper and shipped to pool
    workers inside the strategy (the engine's shared payload) -- each
    repetition builds its own counted :class:`EnumerationOracle` view of
    it, so query accounting matches the serial loop exactly.
    """

    solutions: FrozenSet[int]
    num_vars: int
    thresh: int
    repetitions: int
    r: int
    independence: int
    kernel: Optional[str] = None

    def sample_hashes(self, rng: RandomSource) -> List[list]:
        # Repetition-major draw order: parallel runs consume the parent
        # RNG identically to the serial loop.
        family = KWiseHashFamily(self.num_vars, self.independence,
                                 kernel=self.kernel)
        return [[family.sample(rng) for _j in range(self.thresh)]
                for _i in range(self.repetitions)]

    def run_repetition(self, rep_hashes: list) -> Tuple[Tuple[int, ...], int]:
        oracle = EnumerationOracle(self.solutions)
        levels = tuple(find_max_range(oracle, h, self.num_vars)
                       for h in rep_hashes)
        return levels, oracle.calls

    def aggregate(self, tasks, sketches, oracle_calls) -> ApproxCountResult:
        raw = [estimate_from_levels(list(levels), self.r)
               for levels in sketches]
        return ApproxCountResult.from_repetitions(raw, sketches,
                                                  oracle_calls)


def approx_model_count_est(
    formula: Formula,
    params: SketchParams,
    rng: RandomSource,
    r: Optional[int] = None,
    independence: Optional[int] = None,
    fm_repetitions: int = 9,
    workers: int = 1,
    executor: Optional[Executor] = None,
    backend: Optional[str] = None,
    kernel: Optional[str] = None,
) -> ApproxCountResult:
    """Run ApproxModelCountEst (Algorithm 7); see module docstring.

    Args:
        formula: CNF or DNF; trail-zero queries against the s-wise
            polynomial hashes ride the documented enumeration oracle.
        params: accuracy knobs (``thresh`` hash functions per
            repetition, ``repetitions`` median width).
        rng: hash-sampling source (parent-side, serial draw order).
        r: Theorem 4's coarse level when the caller has the promise
            ``2 F0 <= 2^r <= 50 F0``; derived from a parallel
            FlajoletMartin rough count when ``None`` (its oracle calls
            are included in the total).
        independence: s-wise independence override (default
            ``10 log(1/eps)``).
        fm_repetitions: width of the FM pre-pass when ``r`` is None.
        workers: process-pool fan-out for the repetitions and the FM
            pre-pass; estimates, per-repetition level vectors and call
            totals bit-identical to ``workers=1``.
        executor: explicit executor overriding ``workers``.
        backend: oracle solver backend for the FM pre-pass and any
            solver-backed enumeration.
        kernel: compute-kernel name for the solver inner loops and the
            s-wise hash evaluations (registry default when ``None``).

    Returns:
        An :class:`~repro.core.results.ApproxCountResult` (median of
        per-repetition Lemma 3 estimates).

    Raises:
        InvalidParameterError: empty formula, malformed parameters, or
            an out-of-range ``r``.
        KeyError: unknown ``backend`` name.
    """
    n = formula.num_vars
    if n < 1:
        raise InvalidParameterError("formula must have at least one variable")
    thresh = params.thresh
    reps = params.repetitions
    if independence is None:
        independence = independence_for_eps(params.eps)

    oracle = oracle_for(formula, backend=backend, polynomial_hashes=True,
                        kernel=kernel)
    with executor_for(workers, executor) as ex:
        fm_calls = 0
        if r is None:
            fm = flajolet_martin_count(formula, rng,
                                       repetitions=fm_repetitions,
                                       executor=ex, backend=backend,
                                       kernel=kernel)
            fm_calls = fm.oracle_calls
            if fm.estimate == 0.0:
                return ApproxCountResult(estimate=0.0, oracle_calls=fm_calls)
            r = fm.rough_r(n)
        if not 0 <= r <= n:
            raise InvalidParameterError("r out of range")

        strategy = EstimationStrategy(
            solutions=oracle.solutions, num_vars=n, thresh=thresh,
            repetitions=reps, r=r, independence=independence,
            kernel=kernel)
        result = RepetitionEngine(strategy).run(rng, executor=ex)

    result.oracle_calls += fm_calls
    return result
