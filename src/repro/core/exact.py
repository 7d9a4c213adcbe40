"""Exact model counting -- the ground truth every experiment compares to.

Three engines, dispatched by instance shape:

* **numpy brute force** over all ``2^n`` assignments (vectorised literal
  masks; practical to ``n ~ 24``);
* **inclusion-exclusion** over DNF term subsets (practical to ``k ~ 18``
  terms, any ``n``);
* **solver enumeration** with blocking clauses (any ``n``, practical when
  the count itself is small).

Exact counting is of course #P-hard; these are deliberately small-instance
tools for validating the approximate counters, not contributions.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.common.errors import InvalidParameterError
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.sat.oracle import NpOracle

Formula = Union[CnfFormula, DnfFormula]

_MAX_BRUTEFORCE_BITS = 24
_MAX_SUBSET_TERMS = 18


def _cnf_sat_mask(formula: CnfFormula) -> np.ndarray:
    """Boolean mask over all ``2^n`` assignments (index = assignment,
    bit ``v-1`` = var ``v``): True where every clause is satisfied."""
    n = formula.num_vars
    if n > _MAX_BRUTEFORCE_BITS:
        raise InvalidParameterError(
            f"brute force limited to {_MAX_BRUTEFORCE_BITS} variables")
    xs = np.arange(1 << n, dtype=np.uint32)
    sat = np.ones(1 << n, dtype=bool)
    for clause in formula.clauses:
        clause_sat = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            bit = (xs >> np.uint32(abs(lit) - 1)) & np.uint32(1)
            clause_sat |= (bit == np.uint32(1 if lit > 0 else 0))
        sat &= clause_sat
    return sat


def cnf_models_numpy(formula: CnfFormula) -> List[int]:
    """All models of a CNF by vectorised brute force (``n <= 24``)."""
    return np.flatnonzero(_cnf_sat_mask(formula)).tolist()


def exact_cnf_count(formula: CnfFormula,
                    enumeration_cap: Optional[int] = None) -> int:
    """Exact #CNF; brute force when feasible, else solver enumeration.

    ``enumeration_cap`` bounds the fallback enumeration (raises when the
    true count exceeds it) so callers cannot accidentally loop forever.
    """
    if formula.num_vars <= _MAX_BRUTEFORCE_BITS:
        return int(_cnf_sat_mask(formula).sum())
    models = NpOracle(formula).enumerate_models(limit=enumeration_cap)
    if enumeration_cap is not None and len(models) >= enumeration_cap:
        raise InvalidParameterError(
            f"model count exceeds enumeration cap {enumeration_cap}")
    return len(models)


def exact_dnf_count(formula: DnfFormula) -> int:
    """Exact #DNF by inclusion-exclusion (small k) or brute force."""
    k = formula.num_terms
    usable = [t for t in formula.terms if not t.is_contradictory]
    if len(usable) <= _MAX_SUBSET_TERMS:
        return _dnf_inclusion_exclusion(formula.num_vars, usable)
    if formula.num_vars <= _MAX_BRUTEFORCE_BITS:
        return _count_dnf_numpy(formula)
    raise InvalidParameterError(
        f"exact #DNF needs k <= {_MAX_SUBSET_TERMS} or "
        f"n <= {_MAX_BRUTEFORCE_BITS} (got k={k}, n={formula.num_vars})")


def _dnf_inclusion_exclusion(num_vars: int, terms) -> int:
    """sum over non-empty subsets S of (-1)^(|S|+1) |intersection(S)|.

    Subset masks are enumerated with the standard lowest-bit DP so each
    subset's combined (pos, neg) masks cost O(1) from a smaller subset.
    """
    k = len(terms)
    if k == 0:
        return 0
    pos = [0] * (1 << k)
    neg = [0] * (1 << k)
    valid = [True] * (1 << k)
    total = 0
    for subset in range(1, 1 << k):
        low = subset & -subset
        rest = subset ^ low
        term = terms[low.bit_length() - 1]
        p = pos[rest] | term.pos_mask
        q = neg[rest] | term.neg_mask
        pos[subset] = p
        neg[subset] = q
        ok = valid[rest] and not (p & q)
        valid[subset] = ok
        if not ok:
            continue
        fixed = (p | q).bit_count()
        size = 1 << (num_vars - fixed)
        total += size if (subset.bit_count() & 1) else -size
    return total


def _count_dnf_numpy(formula: DnfFormula) -> int:
    n = formula.num_vars
    xs = np.arange(1 << n, dtype=np.uint32)
    sat = np.zeros(1 << n, dtype=bool)
    for term in formula.terms:
        if term.is_contradictory:
            continue
        fixed = np.uint32(term.pos_mask | term.neg_mask)
        want = np.uint32(term.pos_mask)
        sat |= (xs & fixed) == want
    return int(sat.sum())


def exact_model_count(formula: Formula, **kwargs) -> int:
    """Dispatch exact counting on the representation."""
    if isinstance(formula, DnfFormula):
        return exact_dnf_count(formula)
    return exact_cnf_count(formula, **kwargs)


def exact_count(formula: Formula) -> int:
    """Alias of :func:`exact_model_count` (reads better at call sites that
    mix formulas and streams)."""
    return exact_model_count(formula)
