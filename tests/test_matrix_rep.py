"""4x4 matrix representation, determinant identity, block diagonalization."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfield import (
    CHANGE_OF_BASIS,
    AlgebraKind,
    Matrix4,
    Quad,
    amplitude,
    block_diagonalize,
    determinant,
    mul,
    one,
    plane_split,
    represent,
)

from conftest import KINDS, quads, random_quad

IDENTITY = Matrix4((1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))


def mat_close(a, b, tol):
    return max(abs(p - q) for p, q in zip(a.entries, b.entries)) <= tol


class TestMatrix4:
    def test_entry_count_enforced(self):
        with pytest.raises(ValueError):
            Matrix4((1.0,) * 15)

    def test_accessors(self):
        m = Matrix4(tuple(float(i) for i in range(16)))
        assert m.at(2, 3) == 11.0
        assert m.row(1) == (4.0, 5.0, 6.0, 7.0)
        assert m.rows[3] == (12.0, 13.0, 14.0, 15.0)

    def test_transpose_involution(self):
        m = Matrix4(tuple(float(i * i) for i in range(16)))
        assert m.transpose().transpose() == m
        assert m.transpose().at(3, 0) == m.at(0, 3)

    def test_matmul_identity(self):
        m = Matrix4(tuple(float(i) for i in range(16)))
        assert m @ IDENTITY == m
        assert IDENTITY @ m == m

    def test_add_sub(self):
        m = Matrix4(tuple(float(i) for i in range(16)))
        assert (m + m) - m == m


class TestRepresent:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_is_identity(self, kind):
        assert represent(one(kind)) == IDENTITY

    def test_circular_gamma_pattern(self):
        g = represent(Quad(AlgebraKind.CIRCULAR, 0, 0, 0, 1))
        assert g.rows == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
                          (1, 0, 0, 0))

    def test_hyperbolic_alpha_pattern(self):
        a = represent(Quad(AlgebraKind.HYPERBOLIC, 0, 1, 0, 0))
        assert a.rows == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1),
                          (0, 0, 1, 0))

    @pytest.mark.parametrize("kind", KINDS)
    def test_additive(self, kind):
        rng = random.Random(11)
        for _ in range(50):
            u, v = random_quad(kind, rng), random_quad(kind, rng)
            assert represent(u + v) == represent(u) + represent(v)

    @pytest.mark.parametrize("kind", KINDS)
    def test_multiplicative(self, kind):
        rng = random.Random(13)
        for _ in range(250):
            u, v = random_quad(kind, rng), random_quad(kind, rng)
            lhs = represent(mul(u, v))
            rhs = represent(u) @ represent(v)
            assert mat_close(lhs, rhs, 1e-12 * max(
                1.0, max(abs(e) for e in lhs.entries)))


class TestDeterminant:
    def test_identity(self):
        assert determinant(IDENTITY) == 1.0

    def test_circular_nodal_value_vanishes(self):
        m = represent(Quad(AlgebraKind.CIRCULAR, 1, 0, 0, 1))
        assert abs(determinant(m)) < 1e-12

    def test_hyperbolic_scalar_two(self):
        m = represent(Quad(AlgebraKind.HYPERBOLIC, 2, 0, 0, 0))
        assert determinant(m) == pytest.approx(16.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_amplitude(self, kind):
        rng = random.Random(17)
        for _ in range(250):
            u = random_quad(kind, rng)
            det = determinant(represent(u))
            nu = amplitude(u).nu
            assert abs(det - nu) <= 1e-9 * max(1.0, abs(nu))

    @pytest.mark.parametrize("kind", KINDS)
    def test_multiplicative_like_amplitude(self, kind):
        rng = random.Random(19)
        for _ in range(50):
            u, v = random_quad(kind, rng), random_quad(kind, rng)
            got = determinant(represent(mul(u, v)))
            want = determinant(represent(u)) * determinant(represent(v))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def off_block_max(m, blocks):
    """Largest entry outside the given (start, size) diagonal blocks."""
    inside = set()
    for start, size in blocks:
        for i in range(start, start + size):
            for j in range(start, start + size):
                inside.add((i, j))
    return max(abs(m.at(i, j)) for i in range(4) for j in range(4)
               if (i, j) not in inside)


class TestBlockDiagonalize:
    def test_circular_blocks(self):
        u = Quad(AlgebraKind.CIRCULAR, 1.0, 2.0, 3.0, 4.0)
        b = block_diagonalize(u)
        # [[x+t, y+z], [-(y+z), x+t]] then [[x-t, y-z], [-(y-z), x-t]]
        assert b.at(0, 0) == pytest.approx(5.0)
        assert b.at(0, 1) == pytest.approx(5.0)
        assert b.at(1, 0) == pytest.approx(-5.0)
        assert b.at(2, 2) == pytest.approx(-3.0)
        assert b.at(2, 3) == pytest.approx(-1.0)
        assert b.at(3, 2) == pytest.approx(1.0)
        assert off_block_max(b, [(0, 2), (2, 2)]) <= 1e-12

    def test_hyperbolic_diagonal(self):
        u = Quad(AlgebraKind.HYPERBOLIC, 1.0, 0.5, 0.25, 0.125)
        b = block_diagonalize(u)
        assert off_block_max(b, [(0, 1), (1, 1), (2, 1), (3, 1)]) <= 1e-12
        diag = tuple(b.at(i, i) for i in range(4))
        assert diag == pytest.approx((1.875, 0.625, 1.125, 0.375))

    def test_polar_blocks(self):
        u = Quad(AlgebraKind.POLAR, 1.0, 2.0, 3.0, 4.0)
        b = block_diagonalize(u)
        assert off_block_max(b, [(0, 1), (1, 1), (2, 2)]) <= 1e-12
        assert b.at(0, 0) == pytest.approx(10.0)    # v+
        assert b.at(1, 1) == pytest.approx(-2.0)    # v-
        assert b.at(2, 2) == pytest.approx(-2.0)    # x - z
        assert b.at(2, 3) == pytest.approx(-2.0)    # y - t
        assert b.at(3, 2) == pytest.approx(2.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_blocks_carry_plane_split(self, kind):
        rng = random.Random(23)
        for _ in range(100):
            u = random_quad(kind, rng)
            b = block_diagonalize(u)
            parts = plane_split(u)
            got = []
            i = 0
            for p in parts:
                if isinstance(p, complex):
                    assert b.at(i, i) == pytest.approx(p.real, abs=1e-12)
                    assert b.at(i, i + 1) == pytest.approx(p.imag, abs=1e-12)
                    assert b.at(i + 1, i) == pytest.approx(-p.imag, abs=1e-12)
                    assert b.at(i + 1, i + 1) == pytest.approx(p.real,
                                                               abs=1e-12)
                    got.append((i, 2))
                    i += 2
                else:
                    assert b.at(i, i) == pytest.approx(p, abs=1e-12)
                    got.append((i, 1))
                    i += 1
            assert i == 4
            assert off_block_max(b, got) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100)
@given(data=st.data())
def test_block_diagonalize_matches_conjugation(kind, data):
    """The blocks read off plane_split equal T * represent(u) * T^-1."""
    u = data.draw(quads(kind))
    t, t_inv = CHANGE_OF_BASIS[kind]
    assert mat_close(block_diagonalize(u), t @ represent(u) @ t_inv, 1e-12)


def basis_rows_oracle(kind):
    """The canonical directions of each kind, written out by hand."""
    h = 0.5
    q = 1.0 / math.sqrt(2.0)
    if kind is AlgebraKind.CIRCULAR:
        return ((q, 0, 0, q), (0, q, q, 0), (q, 0, 0, -q), (0, q, -q, 0))
    if kind is AlgebraKind.HYPERBOLIC:
        return ((h, h, h, h), (h, -h, h, -h), (h, h, -h, -h), (h, -h, -h, h))
    if kind is AlgebraKind.PLANAR:
        return ((q, h, 0, -h), (0, h, q, h), (q, -h, 0, h), (0, h, -q, h))
    return ((h, h, h, h), (h, -h, h, -h), (q, 0, -q, 0), (0, q, 0, -q))


class TestChangeOfBasis:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_written_out_rows(self, kind):
        t, _ = CHANGE_OF_BASIS[kind]
        assert mat_close(t, Matrix4.from_rows(basis_rows_oracle(kind)), 1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_orthonormal(self, kind):
        t, t_inv = CHANGE_OF_BASIS[kind]
        assert t_inv == t.transpose()
        assert mat_close(t @ t_inv, IDENTITY, 1e-14)

    @pytest.mark.parametrize("kind", KINDS)
    def test_conjugation_preserves_determinant(self, kind):
        rng = random.Random(29)
        u = random_quad(kind, rng)
        det_block = determinant(block_diagonalize(u))
        det_rep = determinant(represent(u))
        assert det_block == pytest.approx(det_rep, rel=1e-9, abs=1e-12)
