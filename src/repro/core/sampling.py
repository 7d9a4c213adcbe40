"""Near-uniform solution sampling via hash cells (Section 6, "Sampling").

The paper's first future-work direction: counting and almost-uniform
sampling are inter-reducible (Jerrum--Valiant--Vazirani), and the
hashing-based counters suggest the corresponding sampler.  This module
implements the standard cell-sampling construction (the UniGen family's
core idea, built from the same BoundedSAT primitive as ApproxMC):

1. Obtain a rough count estimate (one cheap ApproxMC pass).
2. Choose a level ``m`` so the expected cell holds ``~pivot`` solutions.
3. Draw a fresh hash and a *uniform random* full-width target ``alpha``;
   enumerate ``Sol(phi and h_m(x) = alpha_m)`` with a cap.
4. If the cell is non-empty and under the cap, output a uniform member.
   An over-full cell is *refined in place*: the level is deepened within
   the same :class:`~repro.core.cell_search.CellSearchEngine`, so the
   models already enumerated (all members of the prefix cell) seed the
   sub-cell count and no solver is rebuilt -- the UniGen2-style
   conditional subdivision.  An empty cell redraws a fresh hash at a
   shallower level.

Each accepted draw is uniform *within its cell*; 2-wise independent cell
partitions make the cell sizes concentrate, which is what bounds the
distribution's distance from uniform (the same leverage as Lemma 1).  The
test suite measures the empirical skew directly.
"""

from __future__ import annotations

import math
from typing import List, Optional, Union

from repro.common.errors import InvalidParameterError, UnsatisfiableError
from repro.common.rng import RandomSource
from repro.core.approxmc import approx_mc
from repro.core.cell_search import cell_search_for
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.sat.oracle import NpOracle
from repro.streaming.base import SketchParams

Formula = Union[CnfFormula, DnfFormula]

_ROUGH_PARAMS = SketchParams(eps=1.0, delta=0.3, thresh_constant=24.0,
                             repetitions_constant=3.0)


class SolutionSampler:
    """Reusable sampler for one formula (amortises the rough count)."""

    def __init__(self, formula: Formula, rng: RandomSource,
                 pivot: int = 24, max_attempts: int = 64,
                 backend: Optional[str] = None) -> None:
        if pivot < 2:
            raise InvalidParameterError("pivot must be >= 2")
        self.formula = formula
        self.rng = rng
        self.pivot = pivot
        self.max_attempts = max_attempts
        # The named oracle backend (repro.sat.backends) answers both the
        # rough count and every cell enumeration below.
        self.oracle: Optional[NpOracle] = (
            NpOracle(formula, backend=backend)
            if isinstance(formula, CnfFormula) else None)
        rough = approx_mc(formula, _ROUGH_PARAMS, rng,
                          backend=backend).estimate
        if rough == 0:
            raise UnsatisfiableError("cannot sample an empty solution set")
        self._rough = rough
        n = formula.num_vars
        ratio = rough / pivot
        self.level = (max(0, min(n, round(math.log2(ratio))))
                      if ratio > 1 else 0)
        self._family = ToeplitzHashFamily(n, n)

    def sample(self) -> int:
        """One near-uniform solution."""
        n = self.formula.num_vars
        level = self.level
        cap = 4 * self.pivot
        for _attempt in range(self.max_attempts):
            h = self._family.sample(self.rng)
            target = self.rng.getrandbits(h.out_bits)
            cells = cell_search_for(self.formula, h, cap, oracle=self.oracle,
                                    target=target)
            cell = cells.models(level, cap)
            # Refine an over-full cell in place: deeper levels reuse the
            # engine's cached models and persistent blocking clauses.
            while len(cell) >= cap and level < n:
                level += 1
                cell = cells.models(level, cap)
            if len(cell) >= cap:
                continue  # Over-full even at level n; try a fresh hash.
            if not cell:
                level = max(level - 1, 0)
                continue
            self.level = level  # Remember the level that worked.
            return cell[self.rng.randrange(len(cell))]
        raise UnsatisfiableError(
            "sampling did not converge; the rough count may be far off")

    def sample_many(self, count: int) -> List[int]:
        """``count`` independent draws."""
        if count < 0:
            raise InvalidParameterError("count must be non-negative")
        return [self.sample() for _ in range(count)]


def sample_solutions(formula: Formula, rng: RandomSource, count: int,
                     pivot: int = 24,
                     backend: Optional[str] = None) -> List[int]:
    """Draw ``count`` near-uniform solutions of ``formula`` (cell probes
    on the named oracle ``backend``)."""
    sampler = SolutionSampler(formula, rng, pivot=pivot, backend=backend)
    return sampler.sample_many(count)
