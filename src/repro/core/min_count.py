"""ApproxModelCountMin (Algorithm 6, Theorem 3): the Minimum-based counter.

Per repetition: sample ``h`` from ``H_Toeplitz(n, 3n)``, compute the
``Thresh`` lexicographically smallest values of ``h(Sol(phi))`` via FindMin
(Proposition 2), and estimate ``Thresh * 2^{3n} / max(S)``.  Median over
repetitions.  Polynomial time for DNF (an FPRAS); ``O(p * m)`` oracle calls
per repetition for CNF.

Under-full sketches (``|Sol(phi)| < Thresh``) hold *every* hash value of a
solution; since ``h`` into ``3n`` bits is injective on ``Sol(phi)`` except
with probability ``2^-n``, the sketch size itself is the exact count and we
return it (Bar-Yossef et al.'s original rule; the paper's condensed formula
assumes a full sketch -- see EXPERIMENTS.md deviations).

The repetition loop lives in :class:`repro.core.engine.RepetitionEngine`;
this module contributes :class:`MinimumStrategy` (hash family, FindMin,
sketch-to-estimate rule) and keeps :func:`approx_model_count_min` as the
thin public wrapper.  ``backend`` selects the NP-oracle solver from
:mod:`repro.sat.backends`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.common.rng import RandomSource
from repro.core.cell_search import HashedSession
from repro.core.engine import (
    CounterStrategy,
    RepetitionEngine,
    presampled_hashes,
)
from repro.core.find_min import find_min
from repro.core.results import ApproxCountResult
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.hashing.base import LinearHash
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.parallel.executor import Executor
from repro.sat.oracle import NpOracle
from repro.streaming.base import SketchParams

Formula = Union[CnfFormula, DnfFormula]


def estimate_from_min_sketch(values: Sequence[int], thresh: int,
                             out_bits: int) -> float:
    """Row estimate from a FindMin sketch (shared with the streaming and
    distributed implementations)."""
    if not values:
        return 0.0
    if len(values) < thresh:
        return float(len(values))
    largest = values[-1]
    if largest == 0:
        return float(len(values))
    return thresh * float(1 << out_bits) / largest


@dataclass
class MinimumStrategy(CounterStrategy):
    """MinCount as a :class:`CounterStrategy`: Toeplitz ``n -> 3n``
    hashes, one FindMin prefix search per repetition (a single
    :class:`HashedSession` -- the whole search runs on assumptions
    against one solver), Bar-Yossef's estimate rule per sketch."""

    formula: Formula
    thresh: int
    repetitions: int
    backend: Optional[str] = None
    kernel: Optional[str] = None
    hashes: Optional[Sequence[LinearHash]] = field(default=None)

    def sample_hashes(self, rng: RandomSource) -> List[LinearHash]:
        n = self.formula.num_vars
        return presampled_hashes(self.hashes, self.repetitions,
                                 ToeplitzHashFamily(n, 3 * n,
                                                    kernel=self.kernel),
                                 rng)

    def run_repetition(self, h: LinearHash) -> Tuple[Tuple[int, ...], int]:
        oracle = (NpOracle(self.formula, backend=self.backend,
                           kernel=self.kernel)
                  if isinstance(self.formula, CnfFormula) else None)
        hashed = HashedSession(oracle, h) if oracle is not None else None
        values = find_min(self.formula, h, self.thresh,
                          oracle=oracle, hashed=hashed)
        return tuple(values), oracle.calls if oracle is not None else 0

    def aggregate(self, tasks, sketches, oracle_calls) -> ApproxCountResult:
        raw = [estimate_from_min_sketch(values, self.thresh, h.out_bits)
               for h, values in zip(tasks, sketches)]
        return ApproxCountResult.from_repetitions(raw, sketches,
                                                  oracle_calls)


def approx_model_count_min(
    formula: Formula,
    params: SketchParams,
    rng: RandomSource,
    hashes: Optional[Sequence[LinearHash]] = None,
    workers: int = 1,
    executor: Optional[Executor] = None,
    backend: Optional[str] = None,
    kernel: Optional[str] = None,
) -> ApproxCountResult:
    """Run ApproxModelCountMin (Algorithm 6); see module docstring.

    Thin wrapper over :class:`MinimumStrategy` + the shared
    :class:`~repro.core.engine.RepetitionEngine`.

    Args:
        formula: CNF (FindMin via NP-oracle prefix search) or DNF
            (polynomial-time affine-image path).
        params: accuracy knobs (``thresh`` minimum values kept,
            ``repetitions`` median width).
        rng: hash-sampling source (drawn in the parent, serial order).
        hashes: pre-sampled ``3n``-bit hash functions overriding the
            family draw.
        workers: process-pool fan-out (``0`` = all cores); sketches and
            call totals bit-identical to serial.
        executor: explicit executor overriding ``workers``.
        backend: NP-oracle solver backend name (default when ``None``).
        kernel: compute-kernel name for the solver inner loops
            (:mod:`repro.kernels` registry default when ``None``).

    Returns:
        An :class:`~repro.core.results.ApproxCountResult` (median of
        per-repetition Minimum estimates, summed oracle calls).

    Raises:
        InvalidParameterError: malformed parameters or too few
            ``hashes``.
        KeyError: unknown ``backend`` name.
    """
    strategy = MinimumStrategy(
        formula=formula, thresh=params.thresh,
        repetitions=params.repetitions, backend=backend, kernel=kernel,
        hashes=hashes)
    return RepetitionEngine(strategy).run(rng, workers=workers,
                                          executor=executor)
