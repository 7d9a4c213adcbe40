"""ApproxMC (Algorithm 5, Theorem 2): the Bucketing-based model counter.

Per repetition: sample ``h`` from ``H_Toeplitz(n, n)``, find the smallest
level ``m`` at which the cell ``Sol(phi and h_m(x) = 0^m)`` holds fewer
than ``Thresh`` solutions, and estimate ``|cell| * 2^m``.  Output the
median over ``t = 35 log(1/delta)`` repetitions.

Three level-search strategies are provided (benchmark E8's ablation):

* ``"linear"`` -- Algorithm 5 verbatim, ``O(n)`` BoundedSAT calls/rep;
* ``"binary"`` -- the ApproxMC2 refinement the paper's Section 3.2
  describes: since ``|cell(m)|`` is non-increasing in ``m`` for prefix
  slices of a single hash, the threshold crossing is unique and binary
  search finds the *same* level in ``O(log n)`` BoundedSAT calls;
* ``"galloping"`` -- doubling search then binary refinement, the variant
  that wins when the final level is small.

All strategies produce identical sketches for the same hash functions.

Probes go through :class:`repro.core.cell_search.CellSearch`: per-level
counts are memoised within a repetition (no level is ever paid for twice,
matching Proposition 1's accounting) and, on CNF, all probes of a
repetition share the incremental engine's one persistent solver, whose
enumerated models seed deeper levels (benchmark E23 measures the gain
over a fresh solver per probe).

The repetition loop itself lives in :class:`repro.core.engine.
RepetitionEngine`; this module contributes only the
:class:`BucketingStrategy` (hash family, level search, sketch-to-estimate
rule), and :func:`approx_mc` stays as the thin public wrapper.  ``backend``
selects the NP-oracle solver from :mod:`repro.sat.backends`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Literal, Optional, Sequence, Tuple, Union

from repro.common.errors import InvalidParameterError
from repro.common.rng import RandomSource
from repro.core.cell_search import CellSearch, cell_search_for
from repro.core.engine import (
    CounterStrategy,
    RepetitionEngine,
    presampled_hashes,
)
from repro.core.results import ApproxCountResult
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.hashing.base import LinearHash
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.parallel.executor import Executor
from repro.sat.oracle import NpOracle
from repro.streaming.base import SketchParams

Formula = Union[CnfFormula, DnfFormula]
SearchStrategy = Literal["linear", "binary", "galloping"]


def _find_level_linear(cells: CellSearch) -> tuple[int, int]:
    """Algorithm 5's loop: raise m until the cell is small."""
    n = cells.out_bits
    m = 0
    count = cells.cell_count(0)
    while count >= cells.thresh and m < n:
        m += 1
        count = cells.cell_count(m)
    return count, m


def _find_level_binary(cells: CellSearch) -> tuple[int, int]:
    """Binary search for the unique threshold crossing."""
    n = cells.out_bits
    count0 = cells.cell_count(0)
    if count0 < cells.thresh:
        return count0, 0
    lo, hi = 0, n  # Invariant: count(lo) >= thresh; answer in (lo, hi].
    count_hi = cells.thresh  # Placeholder until hi is actually probed.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        count_mid = cells.cell_count(mid)
        if count_mid >= cells.thresh:
            lo = mid
        else:
            hi, count_hi = mid, count_mid
    if hi == n and count_hi >= cells.thresh:
        count_hi = cells.cell_count(n)  # hi was never probed (count(n) case).
    return count_hi, hi


def _find_level_galloping(cells: CellSearch) -> tuple[int, int]:
    """Doubling probe then binary refinement."""
    n = cells.out_bits
    count0 = cells.cell_count(0)
    if count0 < cells.thresh:
        return count0, 0
    step = 1
    lo = 0
    while True:
        probe = min(lo + step, n)
        count_probe = cells.cell_count(probe)
        if count_probe >= cells.thresh:
            lo = probe
            if probe == n:
                return count_probe, n
            step *= 2
        else:
            hi, count_hi = probe, count_probe
            break
    while hi - lo > 1:
        mid = (lo + hi) // 2
        count_mid = cells.cell_count(mid)
        if count_mid >= cells.thresh:
            lo = mid
        else:
            hi, count_hi = mid, count_mid
    return count_hi, hi


_STRATEGIES = {
    "linear": _find_level_linear,
    "binary": _find_level_binary,
    "galloping": _find_level_galloping,
}


@dataclass
class BucketingStrategy(CounterStrategy):
    """ApproxMC as a :class:`CounterStrategy`: Toeplitz ``n -> n`` hashes,
    level search per repetition, ``|cell| * 2^level`` per sketch."""

    formula: Formula
    thresh: int
    repetitions: int
    search: SearchStrategy = "linear"
    backend: Optional[str] = None
    #: Caller-supplied hash functions (the sketch-equivalence experiment
    #: feeds the same functions to the streaming side); ``None`` samples.
    hashes: Optional[Sequence[LinearHash]] = field(default=None)

    def __post_init__(self) -> None:
        if self.search not in _STRATEGIES:
            raise InvalidParameterError(
                f"unknown search strategy {self.search!r}")

    def sample_hashes(self, rng: RandomSource) -> List[LinearHash]:
        n = self.formula.num_vars
        return presampled_hashes(self.hashes, self.repetitions,
                                 ToeplitzHashFamily(n, n), rng)

    def run_repetition(self, h: LinearHash) -> Tuple[Tuple[int, int], int]:
        oracle = (NpOracle(self.formula, backend=self.backend)
                  if isinstance(self.formula, CnfFormula) else None)
        cells = cell_search_for(self.formula, h, self.thresh, oracle=oracle)
        count, level = _STRATEGIES[self.search](cells)
        return (count, level), oracle.calls if oracle is not None else 0

    def aggregate(self, tasks, sketches, oracle_calls) -> ApproxCountResult:
        raw = [count * float(1 << level) for count, level in sketches]
        return ApproxCountResult.from_repetitions(raw, sketches,
                                                  oracle_calls)


def approx_mc(
    formula: Formula,
    params: SketchParams,
    rng: RandomSource,
    search: SearchStrategy = "linear",
    hashes: Optional[Sequence[LinearHash]] = None,
    workers: int = 1,
    executor: Optional[Executor] = None,
    backend: Optional[str] = None,
) -> ApproxCountResult:
    """Run ApproxMC (Algorithm 5); see module docstring.

    Thin wrapper over :class:`BucketingStrategy` + the shared
    :class:`~repro.core.engine.RepetitionEngine`.

    Args:
        formula: CNF or DNF formula to count.  CNF probes go through an
            NP oracle; DNF runs entirely in polynomial time
            (``oracle_calls == 0``).
        params: accuracy knobs; ``params.thresh`` bounds the cell size
            and ``params.repetitions`` the median width.
        rng: source for hash sampling (all randomness drawn here, in
            the parent, before any dispatch).
        search: level-search strategy -- ``"linear"`` (Algorithm 5
            verbatim), ``"binary"``, or ``"galloping"``; all three
            produce identical sketches.
        hashes: pre-sampled hash functions overriding the family draw
            (the sketch-equivalence experiments feed the streaming
            side's functions here).
        workers: fan repetitions over a process pool (``0`` = all
            cores); estimates, per-repetition sketches and oracle-call
            totals are bit-identical to serial.
        executor: explicit executor overriding ``workers`` (caller
            keeps ownership).
        backend: NP-oracle solver backend name (registry default when
            ``None``).

    Returns:
        An :class:`~repro.core.results.ApproxCountResult` with the
        median estimate, per-repetition sketches and the summed
        oracle-call count.

    Raises:
        InvalidParameterError: malformed parameters, or fewer supplied
            ``hashes`` than repetitions.
        KeyError: unknown ``backend`` name.
    """
    strategy = BucketingStrategy(
        formula=formula, thresh=params.thresh,
        repetitions=params.repetitions, search=search,
        backend=backend, hashes=hashes)
    return RepetitionEngine(strategy).run(rng, workers=workers,
                                          executor=executor)
