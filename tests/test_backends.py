"""Contract tests for the NP-oracle backend registry.

Every registered backend (``cdcl``, ``bruteforce``, and ``pysat`` when
python-sat is installed) must be observationally identical through the
oracle facade: same SAT/UNSAT verdicts, models that satisfy the formula
plus its XOR side constraints, and the same oracle-call counts on every
counting subroutine whose accounting depends only on verdicts
(enumeration, FindMin's prefix search, FindMaxRange's binary search).

The corpus deliberately includes the degenerate shapes -- empty-clause,
unit-only, clause-free and pure-XOR formulas -- plus a learned-clause
DB-reduction stress (LEARNT_BASE forced low) that the pre-registry suite
never reached.
"""

import os
import random

import pytest

from repro.common.errors import InvalidParameterError
from repro.core.bounded_sat import bounded_sat_cnf
from repro.core.cell_search import HashedSession, cell_search_for
from repro.core.find_max_range import find_max_range
from repro.core.find_min import find_min_cnf
from repro.formulas.cnf import CnfFormula
from repro.formulas.generators import fixed_count_cnf, random_k_cnf
from repro.formulas.xor_constraint import XorConstraint
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.hashing.xor import XorHashFamily
from repro.sat.backends import (
    DEFAULT_BACKEND,
    BruteForceSolver,
    backend_info,
    backend_names,
    create_solver,
    has_backend,
    register_backend,
)
from repro.sat.bruteforce import brute_force_models
from repro.sat.oracle import NpOracle, oracle_for
from repro.sat.solver import CdclSolver

BACKENDS = backend_names()


def corpus():
    """Small CNFs spanning the degenerate shapes; (name, formula, xors)."""
    rng = random.Random(9)
    return [
        ("rand3cnf", random_k_cnf(rng, 8, 18, k=3), ()),
        ("fixed_count", fixed_count_cnf(8, 5), ()),
        ("empty_clause", CnfFormula(3, [[]]), ()),
        ("unit_only", CnfFormula(4, [[1], [-2], [3]]), ()),
        ("contradictory_units", CnfFormula(2, [[1], [-1]]), ()),
        ("clause_free", CnfFormula(4, []), ()),
        ("pure_xor", CnfFormula(4, []),
         (XorConstraint(0b0110, 1), XorConstraint(0b1001, 0))),
        ("cnf_plus_xor", random_k_cnf(random.Random(10), 6, 12, k=3),
         (XorConstraint(0b000111, 1),)),
    ]


CORPUS = corpus()
CASES = [pytest.param(backend, name, formula, xors,
                      id=f"{backend}-{name}")
         for backend in BACKENDS
         for name, formula, xors in CORPUS]


class TestBackendContract:
    @pytest.mark.parametrize("backend,name,formula,xors", CASES)
    def test_verdicts_match_reference(self, backend, name, formula, xors):
        reference = brute_force_models(formula, xors)
        oracle = NpOracle(formula, backend=backend)
        assert oracle.is_satisfiable(xors) == bool(reference)
        assert oracle.calls == 1

    @pytest.mark.parametrize("backend,name,formula,xors", CASES)
    def test_enumeration_models_and_calls(self, backend, name, formula,
                                          xors):
        reference = brute_force_models(formula, xors)
        oracle = NpOracle(formula, backend=backend)
        models = oracle.enumerate_models(xors)
        assert sorted(models) == reference
        # Proposition 1 accounting: one call per model + the final UNSAT.
        assert oracle.calls == len(reference) + 1
        # Every reported model satisfies formula AND side constraints.
        for x in models:
            assert formula.evaluate(x)
            assert all(xc.evaluate(x) for xc in xors)

    @pytest.mark.parametrize("backend,name,formula,xors", CASES)
    def test_enumeration_respects_limit(self, backend, name, formula,
                                        xors):
        reference = brute_force_models(formula, xors)
        limit = max(1, len(reference) - 1)
        oracle = NpOracle(formula, backend=backend)
        models = oracle.enumerate_models(xors, limit=limit)
        assert len(models) == min(limit, len(reference))
        assert set(models) <= set(reference)
        assert oracle.calls == (len(models) if models else 1)

    @pytest.mark.parametrize("backend,name,formula,xors", CASES)
    def test_assumption_queries(self, backend, name, formula, xors):
        oracle = NpOracle(formula, backend=backend)
        for lit in (1, -1):
            expected = bool(brute_force_models(formula, xors, [lit]))
            assert oracle.is_satisfiable(xors, [lit]) == expected


class TestCrossBackendSubroutines:
    """The counting subroutines must agree across every backend -- values
    AND call counts (their accounting consumes only SAT/UNSAT answers)."""

    @pytest.fixture(scope="class")
    def instance(self):
        formula = random_k_cnf(random.Random(2), 8, 18, k=3)
        h = ToeplitzHashFamily(8, 8).sample(random.Random(3))
        wide = ToeplitzHashFamily(8, 16).sample(random.Random(5))
        linear = XorHashFamily(8, 8).sample(random.Random(4))
        return formula, h, wide, linear

    def _per_backend(self, instance):
        formula, h, wide, linear = instance
        out = {}
        for backend in BACKENDS:
            o1 = NpOracle(formula, backend=backend)
            values = find_min_cnf(o1, wide, 6,
                                  hashed=HashedSession(o1, wide))
            o2 = NpOracle(formula, backend=backend)
            level = find_max_range(o2, linear, 8)
            o3 = NpOracle(formula, backend=backend)
            cell = bounded_sat_cnf(o3, h, 2, 50)
            o4 = NpOracle(formula, backend=backend)
            cells = cell_search_for(formula, h, 64, oracle=o4)
            counts = tuple(cells.cell_count(m) for m in range(9))
            out[backend] = (tuple(values), o1.calls, level, o2.calls,
                            tuple(sorted(cell)), o3.calls, counts,
                            o4.calls)
        return out

    def test_identical_values_and_call_counts(self, instance):
        results = self._per_backend(instance)
        reference = results[DEFAULT_BACKEND]
        for backend, result in results.items():
            assert result == reference, f"{backend} diverged"

    def test_cell_search_backend_kwarg(self, instance):
        formula, h, _wide, _linear = instance
        for backend in BACKENDS:
            cells = cell_search_for(formula, h, 16, backend=backend)
            assert cells.cell_count(3) == \
                cell_search_for(formula, h, 16,
                                oracle=NpOracle(formula)).cell_count(3)
            assert cells.oracle.backend == backend
        with pytest.raises(InvalidParameterError):
            cell_search_for(formula, h, 16)


class TestRegistry:
    def test_default_first_and_known_backends(self):
        names = backend_names()
        assert names[0] == DEFAULT_BACKEND == "cdcl"
        assert "bruteforce" in names

    def test_pysat_registered_when_required(self):
        # The CI job that pip-installs python-sat exports REQUIRE_PYSAT=1
        # so a silently missing adapter fails loudly there.
        if os.environ.get("REQUIRE_PYSAT"):
            assert has_backend("pysat"), \
                "python-sat installed but adapter not registered"

    def test_duplicate_registration_refused(self):
        with pytest.raises(InvalidParameterError):
            register_backend("cdcl", lambda f, x: None)

    def test_unknown_backend_friendly_error(self):
        with pytest.raises(InvalidParameterError, match="registered:"):
            backend_info("no-such-solver")
        with pytest.raises(InvalidParameterError):
            NpOracle(CnfFormula(2, []), backend="no-such-solver").session()

    def test_create_solver_none_resolves_default(self):
        solver = create_solver(None, CnfFormula(2, [[1]]))
        assert isinstance(solver, CdclSolver)

    def test_oracle_for_dispatch(self):
        cnf = CnfFormula(3, [[1]])
        oracle = oracle_for(cnf, backend="bruteforce")
        assert isinstance(oracle, NpOracle)
        assert oracle.backend == "bruteforce"
        enum = oracle_for(cnf, polynomial_hashes=True)
        assert enum.solutions == set(brute_force_models(cnf))


class TestImplicitVariables:
    """Constraints over variables never handed out by ``new_var`` must
    behave like CDCL's ensure_vars on every backend -- a variable a
    clause or XOR row introduces implicitly is free, not pinned to 0."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clause_over_fresh_variable(self, backend):
        solver = create_solver(backend, CnfFormula(2, [[1, 2]]))
        solver.add_clause([3])
        assert solver.solve()
        assert solver.model_int() & 0b100

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_xor_over_fresh_variable(self, backend):
        solver = create_solver(backend, CnfFormula(2, [[1, 2]]))
        solver.add_xor(0b100, 1)
        assert solver.solve()
        assert solver.model_int() & 0b100
        solver.add_clause([-3])
        assert not solver.solve()


class TestBruteForceSolverInternals:
    """The scan-with-derived-outputs design deserves direct coverage."""

    def test_hash_attachment_does_not_grow_scan_space(self):
        formula = random_k_cnf(random.Random(7), 6, 10, k=3)
        oracle = NpOracle(formula, backend="bruteforce")
        session = oracle.session()
        h = ToeplitzHashFamily(6, 12).sample(random.Random(8))
        y_vars = session.attach_hash(h)
        assert len(y_vars) == 12
        # Scanned bits: the 6 base variables only (outputs are derived).
        assert len(session._solver._scan_bits()) == 6
        # Output assumptions behave like the real hash.
        models = brute_force_models(formula)
        target = h.value(models[0])
        assumptions = [y if (target >> (12 - 1 - r)) & 1 else -y
                       for r, y in enumerate(y_vars)]
        assert session.solve(assumptions)
        assert h.value(session.model_int() & 0b111111) == target

    def test_resume_after_block_is_permanent(self):
        formula = CnfFormula(3, [[1, 2, 3]])
        solver = BruteForceSolver.from_cnf(formula)
        seen = []
        sat = solver.solve()
        while sat:
            seen.append(solver.model_int())
            sat = solver.resume_after_block()
        assert sorted(seen) == brute_force_models(formula)
        # The models stay excluded on a fresh solve.
        assert not solver.solve()


class TestLearnedClauseReduction:
    """Force the CDCL learned-clause DB over budget during enumeration so
    the reduction path runs under contract scrutiny (the default
    LEARNT_BASE of 400 is never reached by the small corpus)."""

    def test_enumeration_correct_across_db_reductions(self, monkeypatch):
        monkeypatch.setattr(CdclSolver, "LEARNT_BASE", 8)
        monkeypatch.setattr(CdclSolver, "LEARNT_GROWTH", 1.05)
        formula = random_k_cnf(random.Random(11), 12, 44, k=3)
        xors = (XorConstraint(0b110011001100, 0),
                XorConstraint(0b001111000011, 1))
        oracle = NpOracle(formula, backend="cdcl")
        models = oracle.enumerate_models(xors)
        assert sorted(models) == brute_force_models(formula, xors)
        # The budget was actually exceeded at least once (the reduction
        # path ran, it did not just stay under LEARNT_BASE).
        probe = CdclSolver.from_cnf(formula, xors)
        sat = probe.solve()
        while sat:
            probe.add_clause([-d for d in probe.decision_literals()])
            sat = probe.solve()
        assert probe.stats.db_reductions > 0
