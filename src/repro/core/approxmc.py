"""ApproxMC (Algorithm 5, Theorem 2): the Bucketing-based model counter.

Per repetition: sample ``h`` from ``H_Toeplitz(n, n)``, find the smallest
level ``m`` at which the cell ``Sol(phi and h_m(x) = 0^m)`` holds fewer
than ``Thresh`` solutions, and estimate ``|cell| * 2^m``.  Output the
median over ``t = 35 log(1/delta)`` repetitions.

One level search serves every repetition (:func:`find_level`).  Since
``|cell(m)|`` is non-increasing in ``m`` for prefix slices of a single
hash, the threshold crossing is unique, so the search may start at any
level and walk up or down to it.  Repetition 0 starts at level 0 --
Algorithm 5 verbatim, ``O(n)`` BoundedSAT calls -- and every later
repetition starts one level above repetition 0's answer, the
leapfrogging of ApproxMC2 (Chakraborty, Meel and Vardi, IJCAI 2016):
most repetitions cross within a level of each other, so they pay a
couple of probes instead of a climb from 0.  The sketches are those of
Algorithm 5 run from level 0 every time; only the oracle-call count
differs.

Probes go through :class:`repro.core.cell_search.CellSearch`: per-level
counts are memoised within a repetition (no level is ever paid for twice,
matching Proposition 1's accounting) and, on CNF, all probes of a
repetition share the incremental engine's one persistent solver, whose
enumerated models seed deeper levels (benchmark E23 measures the gain
over a fresh solver per probe).

The repetition loop itself lives in :class:`repro.core.engine.
RepetitionEngine`; this module contributes only the
:class:`BucketingStrategy` (hash family, level search, the start hint
repetition 0 hands the rest, sketch-to-estimate rule), and
:func:`approx_mc` stays as the thin public wrapper.  ``backend``
selects the NP-oracle solver from :mod:`repro.sat.backends`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

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


def find_level(cells: CellSearch, start: int = 0) -> Tuple[int, int]:
    """The threshold crossing ``(count, m)``: the smallest level ``m``
    whose cell holds fewer than ``thresh`` models (``n`` if none does).

    Probes ``start`` first, then walks up while the cell is full, or down
    while the next shallower cell is still below ``thresh``.  Cell counts
    are monotone in the level, so every ``start`` finds the same level;
    ``start = 0`` is Algorithm 5's loop.
    """
    m, count = start, cells.cell_count(start)
    if count >= cells.thresh:
        while count >= cells.thresh and m < cells.out_bits:
            m += 1
            count = cells.cell_count(m)
    else:
        while m > 0 and (above := cells.cell_count(m - 1)) < cells.thresh:
            m, count = m - 1, above
    return count, m


@dataclass
class BucketingStrategy(CounterStrategy):
    """ApproxMC as a :class:`CounterStrategy`: Toeplitz ``n -> n`` hashes,
    level search per repetition, ``|cell| * 2^level`` per sketch."""

    formula: Formula
    thresh: int
    repetitions: int
    backend: Optional[str] = None
    #: Caller-supplied hash functions (the sketch-equivalence experiment
    #: feeds the same functions to the streaming side); ``None`` samples.
    hashes: Optional[Sequence[LinearHash]] = field(default=None)
    #: Level each repetition's search probes first: 0 for repetition 0,
    #: then whatever :meth:`seed_rest` derives from its sketch.
    start: int = 0

    def sample_hashes(self, rng: RandomSource) -> List[LinearHash]:
        n = self.formula.num_vars
        return presampled_hashes(self.hashes, self.repetitions,
                                 ToeplitzHashFamily(n, n), rng)

    def run_repetition(self, h: LinearHash) -> Tuple[Tuple[int, int], int]:
        oracle = (NpOracle(self.formula, backend=self.backend)
                  if isinstance(self.formula, CnfFormula) else None)
        cells = cell_search_for(self.formula, h, self.thresh, oracle=oracle)
        count, level = find_level(cells, self.start)
        return (count, level), oracle.calls if oracle is not None else 0

    def seed_rest(self, first_sketch: Tuple[int, int]) -> "BucketingStrategy":
        """Start later searches one level above repetition 0's crossing,
        so a repetition that crosses at the same level pays two probes."""
        _count, level = first_sketch
        return replace(self, start=max(level - 1, 0))

    def aggregate(self, tasks, sketches, oracle_calls) -> ApproxCountResult:
        raw = [count * float(1 << level) for count, level in sketches]
        return ApproxCountResult.from_repetitions(raw, sketches,
                                                  oracle_calls)


def approx_mc(
    formula: Formula,
    params: SketchParams,
    rng: RandomSource,
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
        repetitions=params.repetitions, backend=backend, hashes=hashes)
    return RepetitionEngine(strategy).run(rng, workers=workers,
                                          executor=executor)
