"""Validation of the CDCL solver against the brute-force reference.

The solver is the substrate every counting result rests on, so it gets the
heaviest property-based testing in the suite: random CNF, CNF+XOR, and
assumption queries are all cross-checked exhaustively on small instances.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formulas.cnf import CnfFormula
from repro.formulas.generators import planted_k_cnf, random_k_cnf
from repro.formulas.xor_constraint import XorConstraint
from repro.kernels.cdcl_loops import luby
from repro.sat.bruteforce import brute_force_models
from repro.sat.encode_xor import xor_to_cnf_clauses
from repro.sat.solver import CdclSolver


@st.composite
def cnf_instance(draw):
    num_vars = draw(st.integers(1, 8))
    clauses = draw(st.lists(
        st.lists(st.integers(-num_vars, num_vars).filter(lambda l: l != 0),
                 min_size=1, max_size=4),
        max_size=12))
    return CnfFormula(num_vars, clauses)


@st.composite
def cnf_xor_instance(draw):
    cnf = draw(cnf_instance())
    n = cnf.num_vars
    xors = draw(st.lists(
        st.tuples(st.integers(1, (1 << n) - 1), st.integers(0, 1)),
        max_size=5))
    return cnf, [XorConstraint(mask, rhs) for mask, rhs in xors]


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


class TestBasicSolving:
    def test_empty_formula_sat(self):
        assert CdclSolver(0).solve()

    def test_unit_propagation(self):
        s = CdclSolver(2)
        s.add_clause([1])
        s.add_clause([-1, 2])
        assert s.solve()
        assert s.model_int() == 0b11

    def test_immediate_contradiction(self):
        s = CdclSolver(1)
        s.add_clause([1])
        assert not s.add_clause([-1]) or not s.solve()
        assert not s.solve()

    def test_tautological_clause_ignored(self):
        s = CdclSolver(2)
        s.add_clause([1, -1])
        assert s.solve()

    def test_pigeonhole_3_into_2_unsat(self):
        # Variables p_{i,j} (pigeon i in hole j), i in 0..2, j in 0..1.
        def var(i, j):
            return 1 + i * 2 + j
        s = CdclSolver(6)
        for i in range(3):
            s.add_clause([var(i, 0), var(i, 1)])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    s.add_clause([-var(i1, j), -var(i2, j)])
        assert not s.solve()

    def test_pigeonhole_4_into_3_unsat(self):
        def var(i, j):
            return 1 + i * 3 + j
        s = CdclSolver(12)
        for i in range(4):
            s.add_clause([var(i, j) for j in range(3)])
        for j in range(3):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    s.add_clause([-var(i1, j), -var(i2, j)])
        assert not s.solve()

    def test_model_is_a_model(self):
        rng = random.Random(7)
        for _ in range(20):
            cnf = planted_k_cnf(rng, 12, 40, k=3)
            s = CdclSolver.from_cnf(cnf)
            assert s.solve()
            assert cnf.evaluate(s.model_int())


class TestAgainstBruteForce:
    @given(cnf_instance())
    @settings(max_examples=200, deadline=None)
    def test_sat_decision_matches(self, cnf):
        expected = bool(brute_force_models(cnf))
        solver = CdclSolver.from_cnf(cnf)
        got = solver.solve()
        assert got == expected
        if got:
            assert cnf.evaluate(solver.model_int())

    @given(cnf_xor_instance())
    @settings(max_examples=200, deadline=None)
    def test_cnf_xor_decision_matches(self, instance):
        cnf, xors = instance
        expected = bool(brute_force_models(cnf, xors))
        solver = CdclSolver.from_cnf(cnf, xors)
        got = solver.solve()
        assert got == expected
        if got:
            model = solver.model_int()
            assert cnf.evaluate(model)
            assert all(xc.evaluate(model) for xc in xors)

    @given(cnf_xor_instance(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_assumptions_match(self, instance, data):
        cnf, xors = instance
        n = cnf.num_vars
        assumptions = data.draw(st.lists(
            st.integers(-n, n).filter(lambda l: l != 0), max_size=4))
        expected = bool(brute_force_models(cnf, xors, assumptions))
        solver = CdclSolver.from_cnf(cnf, xors)
        assert solver.solve(assumptions) == expected
        # The solver must be reusable after an assumption query.
        expected_plain = bool(brute_force_models(cnf, xors))
        assert solver.solve() == expected_plain

    @given(cnf_xor_instance())
    @settings(max_examples=100, deadline=None)
    def test_enumeration_with_blocking_clauses(self, instance):
        cnf, xors = instance
        expected = set(brute_force_models(cnf, xors))
        solver = CdclSolver.from_cnf(cnf, xors)
        found = set()
        while solver.solve():
            model = solver.model_int() & ((1 << cnf.num_vars) - 1)
            assert model not in found, "enumeration repeated a model"
            found.add(model)
            solver.add_clause([
                -v if (model >> (v - 1)) & 1 else v
                for v in range(1, cnf.num_vars + 1)
            ])
            assert len(found) <= len(expected), "enumerated too many models"
        assert found == expected


class TestXorEngine:
    def test_single_xor_propagates(self):
        s = CdclSolver(3)
        s.add_xor(0b111, 1)  # x1 ^ x2 ^ x3 = 1.
        s.add_clause([1])
        s.add_clause([2])
        assert s.solve()
        assert s.model_int() & 0b100 == 0b100  # x3 forced true.

    def test_inconsistent_xors(self):
        s = CdclSolver(2)
        s.add_xor(0b11, 0)
        s.add_xor(0b11, 1)
        assert not s.solve()

    def test_empty_xor_rhs_one_unsat(self):
        s = CdclSolver(1)
        assert not s.add_xor(0, 1)
        assert not s.solve()

    def test_xor_chain_forces_unique_solution(self):
        # x1=1, x1^x2=1, x2^x3=1, ... pins everything.
        n = 10
        s = CdclSolver(n)
        s.add_xor(0b1, 1)
        for v in range(1, n):
            s.add_xor((1 << (v - 1)) | (1 << v), 1)
        assert s.solve()
        assert s.model_int() == 0b0101010101

    def test_random_xor_system_count(self):
        # Random full-rank-ish XOR systems: solver agrees with brute force
        # on satisfiability across many draws.
        rng = random.Random(11)
        for _ in range(30):
            n = 6
            xors = [XorConstraint(rng.randint(1, 63), rng.getrandbits(1))
                    for _ in range(rng.randint(1, 8))]
            cnf = CnfFormula(n, [])
            expected = bool(brute_force_models(cnf, xors))
            assert CdclSolver.from_cnf(cnf, xors).solve() == expected


class TestEncodeXor:
    @given(st.lists(st.integers(1, 8), min_size=0, max_size=8, unique=True),
           st.integers(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_encoding_preserves_projected_models(self, variables, rhs):
        clauses, next_aux = xor_to_cnf_clauses(variables, rhs,
                                               next_aux_var=9)
        cnf = CnfFormula(max(next_aux - 1, 8), clauses)
        projected = {m & 0xFF for m in brute_force_models(cnf)}
        expected = {x for x in range(256)
                    if (sum((x >> (v - 1)) & 1 for v in variables) & 1) == rhs}
        assert projected == expected

    def test_chunking_introduces_aux_vars(self):
        clauses, next_aux = xor_to_cnf_clauses(list(range(1, 11)), 0,
                                               next_aux_var=11, chunk_size=4)
        assert next_aux > 11  # Long XOR must have been chunked.

    def test_chunk_size_validation(self):
        with pytest.raises(Exception):
            xor_to_cnf_clauses([1], 0, next_aux_var=2, chunk_size=1)

    def test_native_and_encoded_agree(self):
        rng = random.Random(13)
        for _ in range(20):
            n = 7
            cnf = random_k_cnf(rng, n, 10, k=3)
            mask = rng.randint(1, (1 << n) - 1)
            rhs = rng.getrandbits(1)
            native = CdclSolver.from_cnf(cnf, [XorConstraint(mask, rhs)])
            vars_ = [i + 1 for i in range(n) if (mask >> i) & 1]
            clauses, _ = xor_to_cnf_clauses(vars_, rhs, next_aux_var=n + 1)
            encoded = CdclSolver.from_cnf(cnf)
            for c in clauses:
                encoded.add_clause(c)
            assert native.solve() == encoded.solve()


class TestIncrementalUse:
    def test_add_clause_between_solves(self):
        s = CdclSolver(3)
        s.add_clause([1, 2, 3])
        assert s.solve()
        s.add_clause([-1])
        s.add_clause([-2])
        assert s.solve()
        assert not s.model_int() & 0b011
        s.add_clause([-3])
        assert not s.solve()

    def test_ensure_vars_growth(self):
        s = CdclSolver(1)
        s.add_clause([5])  # Implicitly grows the variable table.
        assert s.num_vars >= 5
        assert s.solve()
        assert s.model_int() & 0b10000

    def test_stats_recorded(self):
        rng = random.Random(17)
        cnf = random_k_cnf(rng, 10, 42, k=3)
        s = CdclSolver.from_cnf(cnf)
        s.solve()
        assert s.stats.solve_calls == 1
        assert s.stats.propagations > 0
