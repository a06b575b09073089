"""4x4 real matrix representation of each algebra.

represent(u) is the matrix of multiplication by u, its rows the kind's
product kernel applied to u and each unit, so it is an algebra
homomorphism and its determinant equals the kind's quartic amplitude
(rho**4 or nu) — vanishing exactly on the nodal sets.  A fixed orthogonal
change of basis T (rows = the canonical directions read off the split of
the units, ``CHANGE_OF_BASIS``) block-diagonalizes every represent(u)
simultaneously: two 2x2 rotation-like blocks for circular/planar, a full
diagonal for hyperbolic, and 1+1+2 for polar.  ``block_diagonalize``
writes those blocks straight from the ``plane_split`` values instead of
forming T * represent(u) * T^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra_core import _MUL, AlgebraKind, Quad, _flatten, plane_split, units

__all__ = [
    "Matrix4",
    "represent",
    "determinant",
    "block_diagonalize",
    "CHANGE_OF_BASIS",
]

@dataclass(frozen=True, slots=True)
class Matrix4:
    """Row-major 4x4 real matrix."""

    entries: tuple[float, ...]

    def __post_init__(self) -> None:
        entries = tuple(float(v) for v in self.entries)
        if len(entries) != 16:
            raise ValueError(f"need 16 entries, got {len(entries)}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "Matrix4":
        return cls(tuple(v for row in rows for v in row))

    def at(self, i: int, j: int) -> float:
        return self.entries[4 * i + j]

    def row(self, i: int) -> tuple[float, ...]:
        return self.entries[4 * i : 4 * i + 4]

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(self.row(i) for i in range(4))

    def transpose(self) -> "Matrix4":
        return Matrix4(tuple(self.at(j, i) for i in range(4) for j in range(4)))

    def __add__(self, other: "Matrix4") -> "Matrix4":
        return Matrix4(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix4") -> "Matrix4":
        return Matrix4(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __matmul__(self, other: "Matrix4") -> "Matrix4":
        out = []
        for i in range(4):
            for j in range(4):
                out.append(
                    sum(self.at(i, k) * other.at(k, j) for k in range(4))
                )
        return Matrix4(tuple(out))


# Components of the units 1, alpha, beta, gamma (the same in every kind).
_UNIT_COMPONENTS = tuple(e.components for e in units(AlgebraKind.CIRCULAR))


def represent(u: Quad) -> Matrix4:
    """Matrix of v -> u*v in the (1, alpha, beta, gamma) basis.

    Row k holds the components of u*e_k, from the kind's product kernel.
    """
    product = _MUL[u.kind]
    x, y, z, t = u.x, u.y, u.z, u.t
    return Matrix4.from_rows(product(x, y, z, t, *e) for e in _UNIT_COMPONENTS)


def determinant(m: Matrix4) -> float:
    """LU determinant with partial pivoting."""
    a = [list(m.row(i)) for i in range(4)]
    det = 1.0
    for col in range(4):
        pivot = max(range(col, 4), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            return 0.0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, 4):
            factor = a[r][col] / a[col][col]
            for c in range(col, 4):
                a[r][c] -= factor * a[col][c]
    return det


def _build_change_of_basis() -> dict[AlgebraKind, tuple[Matrix4, Matrix4]]:
    out = {}
    for kind in AlgebraKind:
        # Column k is the split of unit k, planes flattened to (real, imag),
        # so row i is split coordinate i as a functional of (x, y, z, t).
        columns = [_flatten(plane_split(e)) for e in units(kind)]
        rows = []
        for row in zip(*columns):
            norm = math.sqrt(sum(v * v for v in row))
            rows.append([v / norm for v in row])
        t = Matrix4.from_rows(rows)
        out[kind] = (t, t.transpose())
    return out


# (T, T^-1) per kind; the rows of T are orthonormal, so T^-1 is its transpose.
CHANGE_OF_BASIS: dict[AlgebraKind, tuple[Matrix4, Matrix4]] = _build_change_of_basis()


def block_diagonalize(u: Quad) -> Matrix4:
    """T * represent(u) * T^-1 with the kind's fixed T, read off the split.

    T is orthonormal with the canonical directions as rows, so each
    complex part a + ib of ``plane_split(u)`` is the 2x2 block
    [[a, b], [-b, a]] and each real line value a diagonal entry, in split
    order.  Off-block entries are exactly zero; no matrix product is formed.
    """
    m = [0.0] * 16
    i = 0  # row/column where the next part's block starts
    for p in plane_split(u):
        if p.__class__ is complex:
            m[5 * i] = m[5 * i + 5] = p.real
            m[5 * i + 1] = p.imag
            m[5 * i + 4] = -p.imag
            i += 2
        else:
            m[5 * i] = p
            i += 1
    return Matrix4(tuple(m))
