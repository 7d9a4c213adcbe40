"""Incremental cell-search engine for BoundedSAT level probes.

ApproxMC's level search issues many BoundedSAT probes against *nested*
cells of a single hash function: for a fixed target prefix,
``cell(m+1) subseteq cell(m)``.  The one-shot :func:`repro.core.bounded_sat.
bounded_sat` pays for that nesting twice on the CNF path -- every probe
builds a fresh CDCL solver from the full formula, and every probe
re-enumerates solutions the previous probe already found.

:class:`CellSearchEngine` removes both costs (the ApproxMC2-style
engineering described in DESIGN.md, "Incremental cell search"):

* **One persistent solver per repetition.**  The engine opens a single
  :class:`repro.sat.oracle.OracleSession`, attaches the hash output
  variables once (``y_r == h(x)_r``), and selects the probe level purely
  via assumptions (``y_0 = t_0, ..., y_{m-1} = t_{m-1}``).  Every probe
  of the level search, upward or downward, shares that one solver, along
  with every clause it has learned.
* **A model cache across levels.**  Each enumerated solution is stored
  with its *match level* (the length of the longest prefix of ``h(x)``
  agreeing with the target), so a model found at level ``m`` seeds the
  count at any other level its match level reaches, and the blocking
  clause that excluded it persists -- enumeration never re-finds a known
  solution.
* **Exhaustion tracking.**  Once some cell has been fully enumerated
  (the probe hit UNSAT below ``thresh``), every *deeper* cell is a subset
  of the cache and is counted with zero oracle calls.

Both implementations -- the engine and the polynomial
:class:`DnfCellSearch` -- report ``min(thresh, |cell(m)|)`` exactly, so
they produce the same sketches as one-shot :func:`repro.core.bounded_sat.
bounded_sat_cnf` probes for identical hash functions; only the oracle-call
and wall-clock costs differ (benchmark E23 measures the gap against a
per-probe fresh-solver baseline).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import InvalidParameterError
from repro.core.bounded_sat import bounded_sat_dnf
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.hashing.base import LinearHash
from repro.sat.oracle import NpOracle, OracleSession

Formula = Union[CnfFormula, DnfFormula]


class HashedSession:
    """An oracle session with one hash attached: the shared substrate of
    the cell-search engine and FindMin's prefix search.

    Owns the session, the output variables ``y_vars`` (one per attached
    row, row 0 first), and the translation from "the first ``m`` output
    bits equal this prefix" into solver assumptions.  ``lazy=True`` defers
    attaching row ``r`` until some probe actually assumes it -- level
    search rarely probes anywhere near ``out_bits``, and every attached
    row costs solver work on all later solves.  FindMin descends all rows,
    so it attaches eagerly.
    """

    def __init__(self, oracle: NpOracle, h: LinearHash,
                 lazy: bool = False) -> None:
        self.oracle = oracle
        self.h = h
        self.session: OracleSession = oracle.session()
        self.y_vars: List[int] = [] if lazy else self.session.attach_hash(h)

    def ensure_rows(self, m: int) -> None:
        """Attach hash output rows so at least ``m`` are available."""
        if not 0 <= m <= self.h.out_bits:
            raise InvalidParameterError("prefix length out of range")
        for r in range(len(self.y_vars), m):
            self.y_vars.append(self.session.new_output_var(
                self.h.rows[r], self.h.offsets[r]))

    def prefix_assumptions(self, m: int, target: int = 0) -> List[int]:
        """Assumption literals forcing ``h_m(x) == target`` (MSB-first
        ``m``-bit target, the convention of ``prefix_constraints``)."""
        self.ensure_rows(m)
        if target >> m:
            raise InvalidParameterError("target wider than prefix")
        return [y if (target >> (m - 1 - r)) & 1 else -y
                for r, y in enumerate(self.y_vars[:m])]


class CellSearch(abc.ABC):
    """Memoised ``min(thresh, |cell(m)|)`` probes for one repetition.

    Concrete subclasses differ only in how an uncached probe is answered;
    this base class provides the per-level memo (so a level search never
    pays for the same level twice -- Proposition 1's accounting) and a
    request log the regression tests use to assert probe discipline.
    """

    def __init__(self, h: LinearHash, thresh: int, target: int = 0) -> None:
        if thresh < 0:
            raise InvalidParameterError("thresh must be non-negative")
        if target >> h.out_bits:
            raise InvalidParameterError("target wider than hash output")
        self.h = h
        self.thresh = thresh
        self.out_bits = h.out_bits
        self.target = target
        self._counts: Dict[int, int] = {}
        #: Every level handed to :meth:`cell_count`, memo hits included.
        self.request_log: List[int] = []

    def target_prefix(self, m: int) -> int:
        """The first ``m`` bits of the full-width target."""
        return self.target >> (self.out_bits - m) if m else 0

    def cell_count(self, m: int) -> int:
        """``min(thresh, |cell(m)|)``; memoised per level."""
        if not 0 <= m <= self.out_bits:
            raise InvalidParameterError("level out of range")
        self.request_log.append(m)
        if m not in self._counts:
            self._counts[m] = min(self.thresh, self._count_uncached(m))
        return self._counts[m]

    @abc.abstractmethod
    def _count_uncached(self, m: int) -> int:
        """Answer a probe the memo has not seen."""

    @abc.abstractmethod
    def models(self, m: int, p: int) -> List[int]:
        """Up to ``p`` members of the level-``m`` cell (the sampler's
        enumeration primitive)."""


class CellSearchEngine(CellSearch):
    """Incremental CNF cell search: one solver, assumption-driven levels.

    See the module docstring for the three mechanisms (persistent session,
    cross-level model cache, exhaustion tracking).  Oracle calls are drawn
    from the parent :class:`NpOracle`, so ``oracle.calls`` keeps its
    meaning: one satisfiability decision per call.
    """

    def __init__(self, formula: CnfFormula, h: LinearHash, thresh: int,
                 oracle: NpOracle, target: int = 0) -> None:
        super().__init__(h, thresh, target)
        self.formula = formula
        self.oracle = oracle
        self.hashed = HashedSession(oracle, h, lazy=True)
        self._num_vars = formula.num_vars
        self._model_mask = (1 << formula.num_vars) - 1
        # model -> match level (longest target-agreeing prefix of h(x)).
        self._models: Dict[int, int] = {}
        # Shallowest level whose cell is fully enumerated; every deeper
        # cell is a subset of the cache.
        self._exhausted: Optional[int] = None

    def _match_level(self, x: int) -> int:
        diff = self.h.value(x) ^ self.target
        return self.out_bits - diff.bit_length()

    def _cached_at(self, m: int) -> List[int]:
        return [x for x, lvl in self._models.items() if lvl >= m]

    def _enumerate(self, m: int, cap: int) -> Tuple[List[int], bool]:
        """Cache-backed enumeration of the level-``m`` cell up to ``cap``.

        Returns ``(models, exact)`` where ``exact`` means the cell was
        fully enumerated (the list is the whole cell).  New models are
        blocked permanently and added to the cache with their match level.
        """
        found = self._cached_at(m)
        if self._exhausted is not None and m >= self._exhausted:
            return found, True
        if len(found) >= cap:
            return found, False
        assumptions = self.hashed.prefix_assumptions(m, self.target_prefix(m))
        session = self.hashed.session
        sat = session.solve(assumptions)
        while True:
            if not sat:
                self._exhausted = (m if self._exhausted is None
                                   else min(self._exhausted, m))
                return found, True
            x = session.model_int() & self._model_mask
            self._models[x] = self._match_level(x)
            found.append(x)
            if len(found) >= cap:
                # Still exclude the model so no later probe re-finds it
                # (the cache already counts it); the search state is
                # abandoned, so the plain blocking API suffices.
                session.block_current_model()
                return found, False
            # Enumeration-by-continuation: block the model and resume the
            # same descent instead of restarting the search.
            sat = session.next_model()

    def _count_uncached(self, m: int) -> int:
        found, _exact = self._enumerate(m, self.thresh)
        return len(found)

    def models(self, m: int, p: int) -> List[int]:
        """Up to ``p`` members of the level-``m`` cell, cache first."""
        if p < 0:
            raise InvalidParameterError("p must be non-negative")
        found, _exact = self._enumerate(m, p)
        return found[:p]


class DnfCellSearch(CellSearch):
    """Polynomial-time DNF cell search (no oracle; per-level memo only)."""

    def __init__(self, formula: DnfFormula, h: LinearHash, thresh: int,
                 target: int = 0) -> None:
        super().__init__(h, thresh, target)
        self.formula = formula

    def _count_uncached(self, m: int) -> int:
        return len(self.models(m, self.thresh))

    def models(self, m: int, p: int) -> List[int]:
        """Up to ``p`` members of the level-``m`` cell, via the per-term
        affine intersection of :func:`bounded_sat_dnf`."""
        return bounded_sat_dnf(self.formula, self.h, m, p,
                               target=self.target_prefix(m))


def cell_search_for(formula: Formula, h: LinearHash, thresh: int,
                    oracle: Optional[NpOracle] = None,
                    target: int = 0,
                    backend: Optional[str] = None) -> CellSearch:
    """Pick the cell-search implementation for a formula representation.

    DNF gets the polynomial :class:`DnfCellSearch`; CNF gets the
    incremental :class:`CellSearchEngine`.  On the CNF path the probes
    ride whatever solver backend the supplied ``oracle`` resolves
    (:mod:`repro.sat.backends`); alternatively pass a ``backend`` name
    and a fresh :class:`NpOracle` is opened on it -- its call count
    stays readable as ``cells.oracle.calls``.
    """
    if isinstance(formula, DnfFormula):
        return DnfCellSearch(formula, h, thresh, target)
    if oracle is None:
        if backend is None:
            raise InvalidParameterError(
                "cell search on CNF requires an NpOracle (or a backend "
                "name to open one on)")
        oracle = NpOracle(formula, backend=backend)
    return CellSearchEngine(formula, h, thresh, oracle, target)
