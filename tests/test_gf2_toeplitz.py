"""Tests for the Toeplitz matrix representation."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gf2.toeplitz import ToeplitzMatrix


class TestStructure:
    @given(st.integers(1, 10), st.integers(1, 10), st.data())
    def test_constant_diagonals(self, nrows, ncols, data):
        seed = data.draw(st.integers(0, (1 << (nrows + ncols - 1)) - 1))
        m = ToeplitzMatrix(nrows, ncols, seed)
        for i in range(nrows - 1):
            for j in range(ncols - 1):
                assert m.entry(i, j) == m.entry(i + 1, j + 1)

    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    def test_entry_matches_rows(self, nrows, ncols, data):
        seed = data.draw(st.integers(0, (1 << (nrows + ncols - 1)) - 1))
        m = ToeplitzMatrix(nrows, ncols, seed)
        for i in range(nrows):
            for j in range(ncols):
                assert m.entry(i, j) == (m.rows[i] >> j) & 1

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_follow_diagonal_definition(self, seed):
        # A[i][j] is bit i - j + ncols - 1 of the seed, read straight off
        # the materialised rows, for shapes with no rows or no columns too.
        rng = random.Random(seed)
        for nrows, ncols in [(0, 0), (0, 5), (4, 0), (1, 1), (7, 3),
                             (3, 7), (rng.randint(1, 40), rng.randint(1, 40))]:
            m = ToeplitzMatrix.random(rng, nrows, ncols)
            assert len(m.rows) == nrows
            for i, row in enumerate(m.rows):
                assert row >> ncols == 0
                for j in range(ncols):
                    bit = (m.diag >> (i - j + ncols - 1)) & 1
                    assert (row >> j) & 1 == bit

    def test_determined_by_first_row_and_column(self):
        # Seed bits map to first row (read right-to-left) then first column.
        m = ToeplitzMatrix(3, 3, 0b10110)
        first_row = [m.entry(0, j) for j in range(3)]
        first_col = [m.entry(i, 0) for i in range(3)]
        # Rebuild every entry from the borders.
        for i in range(3):
            for j in range(3):
                if i >= j:
                    assert m.entry(i, j) == first_col[i - j]
                else:
                    assert m.entry(i, j) == first_row[j - i]

    def test_seed_bits(self):
        m = ToeplitzMatrix(4, 6, 0)
        assert m.seed_bits == 9

    def test_oversized_seed_rejected(self):
        with pytest.raises(ValueError):
            ToeplitzMatrix(2, 2, 0b1000)

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            ToeplitzMatrix(-1, 2, 0)

    def test_entry_bounds_checked(self):
        m = ToeplitzMatrix(2, 2, 0)
        with pytest.raises(IndexError):
            m.entry(2, 0)


class TestRandom:
    def test_random_respects_dimensions(self):
        rng = random.Random(3)
        m = ToeplitzMatrix.random(rng, 5, 7)
        assert m.nrows == 5
        assert m.ncols == 7
        assert len(m.rows) == 5
        assert all(r < (1 << 7) for r in m.rows)

    def test_random_is_seed_deterministic(self):
        a = ToeplitzMatrix.random(random.Random(11), 6, 6)
        b = ToeplitzMatrix.random(random.Random(11), 6, 6)
        assert a.rows == b.rows

    def test_entry_distribution_roughly_uniform(self):
        rng = random.Random(5)
        ones = 0
        total = 0
        for _ in range(200):
            m = ToeplitzMatrix.random(rng, 4, 4)
            ones += sum(r.bit_count() for r in m.rows)
            total += 16
        assert 0.4 < ones / total < 0.6
