"""Tests for BoundedSAT, FindMin, FindMaxRange and exact counting --
each validated against brute force on random instances."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidParameterError
from repro.core.bounded_sat import bounded_sat, bounded_sat_cnf, bounded_sat_dnf
from repro.core.exact import (
    cnf_models_numpy,
    exact_cnf_count,
    exact_dnf_count,
    exact_model_count,
)
from repro.core.find_max_range import find_max_range
from repro.core.find_min import (
    find_min,
    find_min_cnf,
    find_min_dnf,
    find_min_term_prefix_search,
)
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.formulas.generators import random_dnf, random_k_cnf
from repro.hashing.base import LinearHash
from repro.hashing.kwise import KWiseHashFamily
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.hashing.xor import XorHashFamily
from repro.sat.oracle import EnumerationOracle, NpOracle


@st.composite
def cnf_with_hash(draw):
    n = draw(st.integers(2, 7))
    cnf = CnfFormula(n, draw(st.lists(
        st.lists(st.integers(-n, n).filter(lambda l: l != 0),
                 min_size=1, max_size=3), max_size=8)))
    seed = draw(st.integers(0, 2**16))
    h = ToeplitzHashFamily(n, n).sample(random.Random(seed))
    return cnf, h


@st.composite
def dnf_with_hash(draw):
    n = draw(st.integers(2, 7))
    terms = draw(st.lists(
        st.lists(st.integers(-n, n).filter(lambda l: l != 0),
                 min_size=0, max_size=4), min_size=1, max_size=5))
    dnf = DnfFormula(n, terms)
    seed = draw(st.integers(0, 2**16))
    # Narrow hashes (m < n) are never injective, so FindMin must dedupe.
    m = draw(st.integers(1, 3 * n))
    family = draw(st.sampled_from([ToeplitzHashFamily, XorHashFamily]))
    h = family(n, m).sample(random.Random(seed))
    return dnf, h


def brute_cell(formula, h, m):
    return sorted(x for x in formula.solutions_bruteforce()
                  if h.prefix_value(x, m) == 0)


def brute_hash_values(formula, h):
    return sorted({h.value(x) for x in formula.solutions_bruteforce()})


class TestBoundedSat:
    @given(dnf_with_hash(), st.integers(0, 7), st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_dnf_matches_bruteforce(self, data, m, p):
        dnf, h = data
        m = min(m, h.out_bits)
        expected = brute_cell(dnf, h, m)
        got = bounded_sat_dnf(dnf, h, m, p)
        if len(expected) <= p:
            assert got == expected
        else:
            assert len(got) == p
            assert set(got) <= set(expected)

    @given(cnf_with_hash(), st.integers(0, 7), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_cnf_matches_bruteforce(self, data, m, p):
        cnf, h = data
        m = min(m, h.out_bits)
        oracle = NpOracle(cnf)
        expected = brute_cell(cnf, h, m)
        got = sorted(bounded_sat_cnf(oracle, h, m, p))
        if len(expected) <= p:
            assert got == expected
        else:
            assert len(got) == p
            assert set(got) <= set(expected)

    def test_cnf_oracle_call_accounting(self):
        # Proposition 1: O(p) calls -- exactly count+1 when exhaustive,
        # exactly p when capped.
        cnf = CnfFormula(4, [[1]])  # 8 models.
        h = ToeplitzHashFamily(4, 4).sample(random.Random(0))
        oracle = NpOracle(cnf)
        models = bounded_sat_cnf(oracle, h, 0, 100)
        assert oracle.calls == len(models) + 1
        oracle2 = NpOracle(cnf)
        capped = bounded_sat_cnf(oracle2, h, 0, 3)
        assert len(capped) == 3
        assert oracle2.calls == 3

    def test_dispatcher_requires_oracle_for_cnf(self):
        cnf = CnfFormula(2, [[1]])
        h = ToeplitzHashFamily(2, 2).sample(random.Random(0))
        with pytest.raises(InvalidParameterError):
            bounded_sat(cnf, h, 1, 5)

    def test_negative_p_rejected(self):
        dnf = DnfFormula(2, [[1]])
        h = ToeplitzHashFamily(2, 2).sample(random.Random(0))
        with pytest.raises(InvalidParameterError):
            bounded_sat_dnf(dnf, h, 0, -1)


class TestFindMin:
    @given(dnf_with_hash(), st.integers(0, 25))
    @settings(max_examples=80, deadline=None)
    def test_dnf_matches_bruteforce(self, data, p):
        dnf, h = data
        expected = brute_hash_values(dnf, h)[:p]
        assert find_min_dnf(dnf, h, p) == expected

    @given(cnf_with_hash(), st.integers(0, 12))
    @settings(max_examples=25, deadline=None)
    def test_cnf_matches_bruteforce(self, data, p):
        cnf, h = data
        oracle = NpOracle(cnf)
        expected = brute_hash_values(cnf, h)[:p]
        assert find_min_cnf(oracle, h, p) == expected

    @given(dnf_with_hash(), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_prefix_search_agrees_with_fast_path(self, data, p):
        dnf, h = data
        for term in dnf.terms[:2]:
            fast = find_min_dnf(DnfFormula(dnf.num_vars, [term]), h, p)
            slow = find_min_term_prefix_search(term, dnf.num_vars, h, p)
            assert fast == slow

    @pytest.mark.parametrize("num_vars,rows,offsets", [
        (4, [0b0011, 0b0011, 0b0000, 0b0101], [1, 0, 1, 0]),
        (5, [0, 0, 0], [0, 1, 1]),
        (6, [0b110000, 0b000011, 0b110011, 0, 0b110000], [0, 1, 1, 0, 0]),
        (6, [0b101101, 0b010010, 0b111111], [1, 1, 0]),
        (3, [0b111], [1]),
    ], ids=["duplicate-and-zero-rows", "constant", "rank-2", "narrow",
            "parity"])
    def test_rank_deficient_hashes(self, num_vars, rows, offsets):
        # Kernel directions of h collapse many solutions onto one value;
        # p = 100 asks for more values than the image holds.
        h = LinearHash(num_vars, rows, offsets)
        rng = random.Random(num_vars * 31 + len(rows))
        for _ in range(10):
            dnf = random_dnf(rng, num_vars, rng.randint(1, 4),
                             rng.randint(0, num_vars))
            for p in (1, 2, 3, 100):
                expected = brute_hash_values(dnf, h)[:p]
                assert find_min_dnf(dnf, h, p) == expected
                for term in dnf.terms:
                    assert (find_min_term_prefix_search(term, num_vars, h, p)
                            == find_min_dnf(DnfFormula(num_vars, [term]),
                                            h, p))

    def test_hash_width_must_match_formula(self):
        h = ToeplitzHashFamily(3, 9).sample(random.Random(4))
        with pytest.raises(ValueError):
            find_min_dnf(DnfFormula(4, [[1]]), h, 2)

    def test_unsatisfiable_formula_gives_empty(self):
        cnf = CnfFormula(2, [[1], [-1]])
        h = ToeplitzHashFamily(2, 6).sample(random.Random(1))
        assert find_min_cnf(NpOracle(cnf), h, 5) == []
        dnf = DnfFormula(2, [[1, -1]])
        assert find_min_dnf(dnf, h, 5) == []

    def test_oracle_calls_scale_with_p_and_m(self):
        # Proposition 2: O(p * m) calls.
        cnf = CnfFormula(6, [])  # Full cube: 64 models.
        h = ToeplitzHashFamily(6, 18).sample(random.Random(2))
        oracle = NpOracle(cnf)
        find_min_cnf(oracle, h, 8)
        assert oracle.calls <= 8 * (2 * 18 + 2)

    def test_dispatcher(self):
        dnf = DnfFormula(3, [[1]])
        h = ToeplitzHashFamily(3, 9).sample(random.Random(3))
        assert find_min(dnf, h, 4) == find_min_dnf(dnf, h, 4)
        cnf = CnfFormula(3, [[1]])
        with pytest.raises(InvalidParameterError):
            find_min(cnf, h, 4)


class TestFindMaxRange:
    @given(cnf_with_hash())
    @settings(max_examples=40, deadline=None)
    def test_linear_hash_matches_bruteforce(self, data):
        cnf, h = data
        sols = list(cnf.solutions_bruteforce())
        expected = max((h.trail_zeros(x) for x in sols), default=-1)
        oracle = NpOracle(cnf)
        assert find_max_range(oracle, h, h.out_bits) == expected

    @given(st.integers(2, 7), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_kwise_hash_matches_bruteforce(self, n, seed):
        rng = random.Random(seed)
        cnf = random_k_cnf(rng, n, rng.randint(0, 6), k=min(2, n))
        h = KWiseHashFamily(n, 4).sample(rng)
        sols = list(cnf.solutions_bruteforce())
        expected = max((h.trail_zeros(x) for x in sols), default=-1)
        oracle = EnumerationOracle.from_cnf(cnf)
        assert find_max_range(oracle, h, n) == expected

    def test_query_count_logarithmic(self):
        # Proposition 3: O(log n) oracle calls.
        n = 16
        cnf = CnfFormula(n, [])
        h = XorHashFamily(n, n).sample(random.Random(4))
        oracle = EnumerationOracle.from_cnf(CnfFormula(8, []))
        oracle.solutions = {x for x in range(256)}
        oracle.calls = 0
        find_max_range(oracle, h, n)
        assert oracle.calls <= 1 + n.bit_length() + 1

    def test_empty_solution_set(self):
        oracle = EnumerationOracle([])
        h = XorHashFamily(4, 4).sample(random.Random(5))
        assert find_max_range(oracle, h, 4) == -1


class TestExactCounting:
    @given(st.integers(2, 8), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_cnf_count_matches_bruteforce(self, n, seed):
        rng = random.Random(seed)
        cnf = random_k_cnf(rng, n, rng.randint(0, 10), k=min(3, n))
        expected = sum(1 for _ in cnf.solutions_bruteforce())
        assert exact_cnf_count(cnf) == expected
        assert exact_model_count(cnf) == expected

    @given(st.integers(2, 8), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_dnf_count_matches_bruteforce(self, n, seed):
        rng = random.Random(seed)
        dnf = random_dnf(rng, n, rng.randint(1, 6), width=min(2, n))
        expected = sum(1 for _ in dnf.solutions_bruteforce())
        assert exact_dnf_count(dnf) == expected
        assert exact_model_count(dnf) == expected

    def test_cnf_models_numpy_lists_models(self):
        cnf = CnfFormula(3, [[1, 2], [-3]])
        assert cnf_models_numpy(cnf) == sorted(cnf.solutions_bruteforce())

    def test_inclusion_exclusion_with_contradictory_terms(self):
        dnf = DnfFormula(4, [[1, -1], [2]])
        assert exact_dnf_count(dnf) == 8

    def test_many_term_dnf_uses_bruteforce_path(self):
        rng = random.Random(6)
        dnf = random_dnf(rng, 10, 25, width=3)  # k > subset limit.
        expected = sum(1 for _ in dnf.solutions_bruteforce())
        assert exact_dnf_count(dnf) == expected

    def test_empty_dnf(self):
        assert exact_dnf_count(DnfFormula(3, [])) == 0
