"""Tests for affine subspaces: solving, enumeration, images, lex-minima."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.affine import AffineSubspace
from repro.gf2.matrix import mat_vec_mul
from repro.gf2.toeplitz import ToeplitzMatrix


@st.composite
def small_system(draw):
    width = draw(st.integers(1, 8))
    nrows = draw(st.integers(0, 6))
    rows = [draw(st.integers(0, (1 << width) - 1)) for _ in range(nrows)]
    rhs = [draw(st.integers(0, 1)) for _ in range(nrows)]
    return rows, rhs, width


def columns_of(map_rows, width):
    """Column form of a row-form matrix: the image of each unit vector."""
    return [mat_vec_mul(map_rows, 1 << j) for j in range(width)]


def brute_force_solutions(rows, rhs, width):
    out = set()
    for x in range(1 << width):
        if all(((rows[r] & x).bit_count() & 1) == rhs[r]
               for r in range(len(rows))):
            out.add(x)
    return out


class TestConstruction:
    def test_full_space(self):
        space = AffineSubspace.full_space(4)
        assert space.size() == 16
        assert sorted(space) == list(range(16))

    def test_single_point(self):
        space = AffineSubspace.single_point(5, 0b10110)
        assert space.size() == 1
        assert list(space) == [0b10110]

    def test_origin_out_of_width_rejected(self):
        with pytest.raises(ValueError, match="origin 0x8 "):
            AffineSubspace(3, 0b1000, [])

    def test_basis_vector_out_of_width_rejected(self):
        with pytest.raises(ValueError, match="basis vector 0x20 "):
            AffineSubspace(4, 0, [1 << 5, 1])

    @given(small_system())
    def test_solve_matches_bruteforce(self, data):
        rows, rhs, width = data
        expected = brute_force_solutions(rows, rhs, width)
        space = AffineSubspace.solve(rows, rhs, width)
        if space is None:
            assert expected == set()
        else:
            assert set(space) == expected

    @given(small_system())
    def test_canonical_representation(self, data):
        rows, rhs, width = data
        space = AffineSubspace.solve(rows, rhs, width)
        if space is None:
            return
        rebuilt = AffineSubspace(width, space.element(space.size() - 1),
                                 space.basis)
        assert rebuilt == space
        assert hash(rebuilt) == hash(space)


class TestEnumeration:
    @given(small_system())
    def test_iteration_sorted_and_distinct(self, data):
        rows, rhs, width = data
        space = AffineSubspace.solve(rows, rhs, width)
        if space is None:
            return
        elements = list(space)
        assert elements == sorted(set(elements))
        assert len(elements) == space.size()

    @given(small_system(), st.integers(0, 20))
    def test_smallest_elements(self, data, p):
        rows, rhs, width = data
        space = AffineSubspace.solve(rows, rhs, width)
        if space is None:
            return
        smallest = space.smallest_elements(p)
        all_sorted = sorted(space)
        assert smallest == all_sorted[:p]

    @given(small_system())
    def test_contains_agrees_with_enumeration(self, data):
        rows, rhs, width = data
        space = AffineSubspace.solve(rows, rhs, width)
        if space is None:
            return
        members = set(space)
        for x in range(1 << width):
            assert space.contains(x) == (x in members)

    def test_element_rejects_bad_choice(self):
        space = AffineSubspace.full_space(2)
        with pytest.raises(ValueError):
            space.element(4)

    def test_smallest_elements_rejects_negative(self):
        with pytest.raises(ValueError):
            AffineSubspace.full_space(2).smallest_elements(-1)

    def test_iter_limited(self):
        space = AffineSubspace.full_space(4)
        assert list(space.iter_limited(3)) == [0, 1, 2]


class TestImage:
    @given(small_system(), st.data())
    @settings(max_examples=50)
    def test_image_matches_pointwise_map(self, data, draw):
        rows, rhs, width = data
        space = AffineSubspace.solve(rows, rhs, width)
        if space is None:
            return
        out_width = draw.draw(st.integers(1, 8))
        map_rows = [draw.draw(st.integers(0, (1 << width) - 1))
                    for _ in range(out_width)]
        offset = draw.draw(st.integers(0, (1 << out_width) - 1))
        image = space.image(columns_of(map_rows, width), offset, out_width)
        expected = {mat_vec_mul(map_rows, x) ^ offset for x in space}
        assert set(image) == expected

    def test_image_under_toeplitz(self):
        rng = random.Random(7)
        space = AffineSubspace.full_space(6)
        matrix = ToeplitzMatrix.random(rng, 10, 6)
        image = space.image(columns_of(matrix.rows, 6), 0, 10)
        assert set(image) == {mat_vec_mul(matrix.rows, x) for x in range(64)}
        # Image dimension equals the rank of the Toeplitz matrix.
        assert image.dimension <= 6

    def test_offset_out_of_width_rejected(self):
        space = AffineSubspace.full_space(2)
        with pytest.raises(ValueError, match="offset 0x10 "):
            space.image([0b01, 0b10], 1 << 4, 4)

    def test_column_out_of_width_rejected(self):
        space = AffineSubspace.full_space(2)
        with pytest.raises(ValueError, match="column 1 "):
            space.image([0b01, 0b100], 0, 2)

    def test_column_count_must_match_width(self):
        space = AffineSubspace.full_space(3)
        with pytest.raises(ValueError, match="2 columns for a 3-bit"):
            space.image([0b01, 0b10], 0, 2)
