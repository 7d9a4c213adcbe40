"""Exhaustive reference enumerator used to validate the CDCL implementation.

Only suitable for small variable counts (the test suite stays below 2^16
assignments); intentionally written with zero shared code with the real
solver so that bugs cannot cancel out.  The one ``2^n`` loop is
:meth:`CnfFormula.solutions_bruteforce`; this module only filters its
models by XOR rows and assumption literals.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.formulas.cnf import CnfFormula
from repro.formulas.xor_constraint import XorConstraint


def _agrees(x: int, xors: Sequence[XorConstraint],
            assumptions: Sequence[int]) -> bool:
    """True iff ``x`` satisfies every XOR row and assumption literal."""
    return (all(xc.evaluate(x) for xc in xors)
            and all(((x >> (abs(lit) - 1)) & 1) == (lit > 0)
                    for lit in assumptions))


def brute_force_models(cnf: CnfFormula,
                       xors: Iterable[XorConstraint] = (),
                       assumptions: Sequence[int] = ()) -> List[int]:
    """All models of ``cnf AND xors AND assumptions``, ascending."""
    xors = list(xors)
    return [x for x in cnf.solutions_bruteforce()
            if _agrees(x, xors, assumptions)]
