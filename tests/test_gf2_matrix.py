"""Tests for GF(2) matrix algebra, validated against numpy mod-2 arithmetic."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.matrix import (
    apply_columns,
    mat_vec_mul,
    nullspace_basis,
    random_matrix_rows,
    rank,
    reduce_modulo_basis,
    rref_msb,
    solve_affine_system,
    transpose,
)


def rows_to_numpy(rows, ncols):
    return np.array([[(r >> j) & 1 for j in range(ncols)] for r in rows],
                    dtype=np.int64)


def vec_to_numpy(x, ncols):
    return np.array([(x >> j) & 1 for j in range(ncols)], dtype=np.int64)


@st.composite
def matrix_and_vector(draw):
    ncols = draw(st.integers(1, 10))
    nrows = draw(st.integers(1, 10))
    rows = [draw(st.integers(0, (1 << ncols) - 1)) for _ in range(nrows)]
    x = draw(st.integers(0, (1 << ncols) - 1))
    return rows, x, ncols


class TestMatVecMul:
    @given(matrix_and_vector())
    def test_matches_numpy(self, data):
        rows, x, ncols = data
        a = rows_to_numpy(rows, ncols)
        v = vec_to_numpy(x, ncols)
        expected = (a @ v) % 2
        got = mat_vec_mul(rows, x)
        for r in range(len(rows)):
            assert (got >> r) & 1 == expected[r]

    @given(matrix_and_vector(), st.integers(0, 1023))
    def test_linearity(self, data, y):
        rows, x, ncols = data
        y &= (1 << ncols) - 1
        assert (mat_vec_mul(rows, x ^ y)
                == mat_vec_mul(rows, x) ^ mat_vec_mul(rows, y))

    def test_empty_matrix(self):
        assert mat_vec_mul([], 0b101) == 0


class TestTranspose:
    @given(st.integers(0, 9), st.integers(0, 9), st.data())
    def test_matches_unit_vector_products(self, nrows, ncols, data):
        # Bits at and above ncols are ignored, as mat_vec_mul with a unit
        # vector below ncols never reads them.
        rows = [data.draw(st.integers(0, (1 << (ncols + 3)) - 1))
                for _ in range(nrows)]
        assert transpose(rows, ncols) == [mat_vec_mul(rows, 1 << j)
                                          for j in range(ncols)]

    @given(matrix_and_vector())
    def test_involution(self, data):
        rows, _x, ncols = data
        assert transpose(transpose(rows, ncols), len(rows)) == rows

    def test_known(self):
        assert transpose([0b011, 0b110], 3) == [0b01, 0b11, 0b10]
        assert transpose([], 2) == [0, 0]
        assert transpose([0b1], 0) == []


class TestApplyColumns:
    @given(matrix_and_vector())
    def test_matches_row_form(self, data):
        rows, x, ncols = data
        assert apply_columns(transpose(rows, ncols), x) == mat_vec_mul(rows, x)


class TestRank:
    def test_identity_full_rank(self):
        assert rank([1, 2, 4, 8]) == 4

    def test_duplicate_rows(self):
        assert rank([0b11, 0b11, 0b11]) == 1

    def test_zero_matrix(self):
        assert rank([0, 0, 0]) == 0

    def test_dependent_triple(self):
        # Third row is the XOR of the first two.
        assert rank([0b011, 0b101, 0b110]) == 2

    @given(matrix_and_vector())
    def test_matches_numpy_gf2_rank(self, data):
        rows, _x, ncols = data
        a = rows_to_numpy(rows, ncols) % 2
        # Compute GF(2) rank by elimination in numpy.
        a = a.copy()
        r = 0
        for c in range(ncols):
            pivot = None
            for i in range(r, len(rows)):
                if a[i][c]:
                    pivot = i
                    break
            if pivot is None:
                continue
            a[[r, pivot]] = a[[pivot, r]]
            for i in range(len(rows)):
                if i != r and a[i][c]:
                    a[i] = (a[i] + a[r]) % 2
            r += 1
        assert rank(rows) == r


class TestRrefMsb:
    @given(st.lists(st.integers(0, 2**12 - 1), max_size=8))
    def test_basis_has_distinct_decreasing_pivots(self, vectors):
        basis, pivots = rref_msb(vectors)
        assert pivots == sorted(pivots, reverse=True)
        assert len(set(pivots)) == len(pivots)

    @given(st.lists(st.integers(0, 2**12 - 1), max_size=8))
    def test_pivot_bits_unique_to_owner(self, vectors):
        basis, pivots = rref_msb(vectors)
        for i, p in enumerate(pivots):
            for j, b in enumerate(basis):
                expected = 1 if i == j else 0
                assert (b >> p) & 1 == expected

    @given(st.lists(st.integers(0, 2**10 - 1), max_size=6))
    def test_span_preserved(self, vectors):
        basis, _ = rref_msb(vectors)
        # Every original vector reduces to zero against the basis.
        for v in vectors:
            assert reduce_modulo_basis(v, basis) == 0
        # Rank preserved.
        assert len(basis) == rank(vectors)


@st.composite
def dependent_vectors(draw):
    """Vectors of width 1..300 whose span is smaller than their count:
    random generators followed by XOR combinations of them, shuffled."""
    width = draw(st.integers(1, 300))
    gens = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=12))
    combos = []
    if gens:
        for mask in draw(st.lists(st.integers(0, (1 << len(gens)) - 1),
                                  max_size=12)):
            vec = 0
            for i, g in enumerate(gens):
                if (mask >> i) & 1:
                    vec ^= g
            combos.append(vec)
    return width, draw(st.permutations(gens + combos))


class TestXorBasis:
    @given(dependent_vectors())
    @settings(max_examples=200)
    def test_rref_is_canonical_and_spans_input(self, data):
        width, vectors = data
        basis, pivots = rref_msb(vectors)
        # Canonical RREF: leading bits are the pivots, strictly decreasing,
        # and each pivot bit is set in its own vector only.
        assert pivots == [b.bit_length() - 1 for b in basis]
        assert all(a > b for a, b in zip(pivots, pivots[1:]))
        assert all(b >> width == 0 for b in basis)
        for i, p in enumerate(pivots):
            assert [(b >> p) & 1 for b in basis] == \
                [int(i == j) for j in range(len(basis))]
        # Same span: every input reduces to zero, and the basis adds no
        # dimension to the input.
        for v in vectors:
            assert reduce_modulo_basis(v, basis) == 0
        assert rank(vectors) == len(basis) == rank(list(vectors) + basis)
        # The reduced form depends only on the span.
        assert rref_msb(basis) == (basis, pivots)
        assert rref_msb(list(reversed(vectors)) + basis)[0] == basis


class TestSolveAffineSystem:
    def test_inconsistent(self):
        # x1 = 0 and x1 = 1.
        assert solve_affine_system([0b1, 0b1], [0, 1], 3) is None

    def test_unique_solution(self):
        # x0 = 1, x1 = 0, x0 ^ x1 = 1.
        result = solve_affine_system([0b01, 0b10, 0b11], [1, 0, 1], 2)
        assert result is not None
        x0, basis = result
        assert x0 == 0b01
        assert basis == []

    def test_underdetermined_counts(self):
        # One equation over three vars: solution space has dim 2.
        result = solve_affine_system([0b111], [1], 3)
        assert result is not None
        x0, basis = result
        assert len(basis) == 2

    @given(matrix_and_vector(), st.data())
    @settings(max_examples=60)
    def test_solutions_satisfy_system(self, data, draw):
        rows, _x, ncols = data
        rhs = [draw.draw(st.integers(0, 1)) for _ in rows]
        result = solve_affine_system(rows, rhs, ncols)
        if result is None:
            # Verify genuinely inconsistent by brute force (small dims).
            for x in range(1 << ncols):
                assert any(((rows[r] & x).bit_count() & 1) != rhs[r]
                           for r in range(len(rows)))
            return
        x0, basis = result
        rng = random.Random(0)
        candidates = [x0] + [
            x0 ^ b for b in basis
        ] + [x0 ^ rng.choice(basis) ^ rng.choice(basis) if basis else x0]
        for x in candidates:
            for r, row in enumerate(rows):
                assert ((row & x).bit_count() & 1) == rhs[r]

    @given(matrix_and_vector(), st.data())
    @settings(max_examples=40)
    def test_solution_count_matches_bruteforce(self, data, draw):
        rows, _x, ncols = data
        rhs = [draw.draw(st.integers(0, 1)) for _ in rows]
        result = solve_affine_system(rows, rhs, ncols)
        brute = sum(
            1 for x in range(1 << ncols)
            if all(((rows[r] & x).bit_count() & 1) == rhs[r]
                   for r in range(len(rows)))
        )
        if result is None:
            assert brute == 0
        else:
            assert brute == 1 << len(result[1])


    @given(matrix_and_vector(), st.data())
    @settings(max_examples=60)
    def test_result_is_msb_first_reduced(self, data, draw):
        # The documented shape: x0 vanishes on free columns; one basis
        # vector per free column, increasing, led by that column and
        # otherwise made of pivot columns.
        rows, _x, ncols = data
        rhs = [draw.draw(st.integers(0, 1)) for _ in rows]
        result = solve_affine_system(rows, rhs, ncols)
        if result is None:
            return
        x0, basis = result
        leads = [b.bit_length() - 1 for b in basis]
        assert leads == sorted(set(leads))
        free = sum(1 << c for c in leads)
        assert x0 & free == 0
        for b, c in zip(basis, leads):
            assert b & free == 1 << c
        assert rref_msb(basis)[0] == basis[::-1]
        assert reduce_modulo_basis(x0, basis[::-1]) == x0


class TestNullspace:
    @given(matrix_and_vector())
    def test_nullspace_vectors_in_kernel(self, data):
        rows, _x, ncols = data
        for v in nullspace_basis(rows, ncols):
            assert mat_vec_mul(rows, v) == 0

    @given(matrix_and_vector())
    def test_rank_nullity(self, data):
        rows, _x, ncols = data
        assert rank(rows) + len(nullspace_basis(rows, ncols)) == ncols


class TestRandomMatrix:
    def test_density_one_gives_all_ones(self):
        rng = random.Random(1)
        rows = random_matrix_rows(rng, 4, 6, density=1.0)
        assert all(row == 0b111111 for row in rows)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            random_matrix_rows(random.Random(0), 2, 2, density=1.5)

    def test_uniform_density_statistics(self):
        rng = random.Random(42)
        rows = random_matrix_rows(rng, 200, 64)
        ones = sum(r.bit_count() for r in rows)
        # 200*64 = 12800 fair coins; expect ~6400 +- 500.
        assert 5900 < ones < 6900
