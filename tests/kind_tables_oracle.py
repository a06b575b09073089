"""Per-kind tables written out by hand: a test oracle.

The library reads each of these off the product kernels and the split
into lines and planes.  This module keeps the literal tables and formulas
they replaced, so the tests can check the derived ones against them: the
first-order analyticity chains, the second-order equations, the residue
units, the idempotent bases, the product growth factors, the rows of
``represent`` and the component formulas of ``canonical_mul``.
"""

import math

from quadfield import AlgebraKind, Quad
from quadfield.canonical import (
    CanonicalCircular,
    CanonicalHyperbolic,
    CanonicalPlanar,
    CanonicalPolar,
)

_SQRT2 = math.sqrt(2.0)
_PI = math.pi

# Chains of first partials (component, variable, sign) equal in sequence for
# analytic f = P + alpha Q + beta R + gamma S; variables indexed x=0..t=3.
# Consecutive equalities give the kind's 12 Riemann-type relations.
FIRST_ORDER_CHAINS = {
    AlgebraKind.CIRCULAR: (
        ((0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)),
        ((1, 0, 1), (0, 1, -1), (3, 2, -1), (2, 3, 1)),
        ((2, 0, 1), (3, 1, -1), (0, 2, -1), (1, 3, 1)),
        ((3, 0, 1), (2, 1, 1), (1, 2, 1), (0, 3, 1)),
    ),
    AlgebraKind.HYPERBOLIC: (
        ((0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)),
        ((1, 0, 1), (0, 1, 1), (3, 2, 1), (2, 3, 1)),
        ((2, 0, 1), (3, 1, 1), (0, 2, 1), (1, 3, 1)),
        ((3, 0, 1), (2, 1, 1), (1, 2, 1), (0, 3, 1)),
    ),
    AlgebraKind.PLANAR: (
        ((0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)),
        ((1, 0, 1), (2, 1, 1), (3, 2, 1), (0, 3, -1)),
        ((2, 0, 1), (3, 1, 1), (0, 2, -1), (1, 3, -1)),
        ((3, 0, 1), (0, 1, -1), (1, 2, -1), (2, 3, -1)),
    ),
    AlgebraKind.POLAR: (
        ((0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)),
        ((1, 0, 1), (2, 1, 1), (3, 2, 1), (0, 3, 1)),
        ((2, 0, 1), (3, 1, 1), (0, 2, 1), (1, 3, 1)),
        ((3, 0, 1), (0, 1, 1), (1, 2, 1), (2, 3, 1)),
    ),
}

# Second-order equations d2/didj + sign * d2/dkdl = 0, applied to all four
# components; (i, j, k, l, sign) with the same variable indexing.
SECOND_ORDER_EQS = {
    AlgebraKind.CIRCULAR: (
        (0, 0, 1, 1, 1), (0, 0, 2, 2, 1), (1, 1, 3, 3, 1), (2, 2, 3, 3, 1),
        (0, 0, 3, 3, -1), (1, 1, 2, 2, -1),
        (0, 1, 2, 3, -1), (0, 2, 1, 3, -1), (0, 3, 1, 2, 1),
    ),
    AlgebraKind.HYPERBOLIC: (
        (0, 0, 1, 1, -1), (0, 0, 2, 2, -1), (1, 1, 3, 3, -1), (2, 2, 3, 3, -1),
        (0, 0, 3, 3, -1), (1, 1, 2, 2, -1),
        (0, 1, 2, 3, -1), (0, 2, 1, 3, -1), (0, 3, 1, 2, -1),
    ),
    AlgebraKind.PLANAR: (
        (0, 0, 2, 2, 1), (1, 1, 3, 3, 1),
        (0, 0, 1, 3, 1), (1, 1, 0, 2, -1), (2, 2, 1, 3, -1), (3, 3, 0, 2, 1),
        (0, 1, 2, 3, 1), (0, 3, 1, 2, -1),
    ),
    AlgebraKind.POLAR: (
        (0, 0, 2, 2, -1), (1, 1, 3, 3, -1),
        (0, 0, 1, 3, -1), (1, 1, 0, 2, -1), (2, 2, 1, 3, -1), (3, 3, 0, 2, -1),
        (0, 1, 2, 3, -1), (0, 3, 1, 2, -1),
    ),
}

# The loop integral of du/(u - u0) when the pole's projection is enclosed
# once in the plus (resp. minus) distinguished plane.  Hyperbolic loops
# carry no residue at all; polar residues arise only from the (v1, v1~)
# plane.
_C, _H, _P, _Q = (AlgebraKind.CIRCULAR, AlgebraKind.HYPERBOLIC,
                  AlgebraKind.PLANAR, AlgebraKind.POLAR)
RESIDUE_UNITS = {
    _C: (Quad(_C, 0.0, _PI, _PI, 0.0), Quad(_C, 0.0, _PI, -_PI, 0.0)),
    _P: (Quad(_P, 0.0, _PI / _SQRT2, _PI, _PI / _SQRT2),
         Quad(_P, 0.0, _PI / _SQRT2, -_PI, _PI / _SQRT2)),
    _Q: (Quad(_Q, 0.0, _PI, 0.0, -_PI), Quad(_Q, 0.0, 0.0, 0.0, 0.0)),
    _H: (Quad(_H, 0.0, 0.0, 0.0, 0.0), Quad(_H, 0.0, 0.0, 0.0, 0.0)),
}

# Idempotent bases, in the order of the public names: circular and planar
# (e1, e1~, e2, e2~), hyperbolic (e, e', e'', e'''), polar (e+, e-, e1, e1~).
_R = 0.5 / _SQRT2  # 1/(2*sqrt(2))
CANONICAL_BASES = {
    _C: (Quad(_C, 0.5, 0.0, 0.0, 0.5), Quad(_C, 0.0, 0.5, 0.5, 0.0),
         Quad(_C, 0.5, 0.0, 0.0, -0.5), Quad(_C, 0.0, 0.5, -0.5, 0.0)),
    _H: (Quad(_H, 0.25, 0.25, 0.25, 0.25), Quad(_H, 0.25, -0.25, 0.25, -0.25),
         Quad(_H, 0.25, 0.25, -0.25, -0.25),
         Quad(_H, 0.25, -0.25, -0.25, 0.25)),
    _P: (Quad(_P, 0.5, _R, 0.0, -_R), Quad(_P, 0.0, _R, 0.5, _R),
         Quad(_P, 0.5, -_R, 0.0, _R), Quad(_P, 0.0, _R, -0.5, _R)),
    _Q: (Quad(_Q, 0.25, 0.25, 0.25, 0.25), Quad(_Q, 0.25, -0.25, 0.25, -0.25),
         Quad(_Q, 0.5, 0.0, -0.5, 0.0), Quad(_Q, 0.0, 0.5, 0.0, -0.5)),
}

# The sharp growth factor c of |u*v| <= c*|u|*|v|.
GLOBAL_MUL_FACTOR = {_C: _SQRT2, _P: _SQRT2, _H: 2.0, _Q: 2.0}

BASIS_NAMES = {
    _C: ("CIRCULAR_E1", "CIRCULAR_E1_TILDE", "CIRCULAR_E2",
         "CIRCULAR_E2_TILDE"),
    _H: ("HYPERBOLIC_E", "HYPERBOLIC_E_PRIME", "HYPERBOLIC_E_DOUBLE_PRIME",
         "HYPERBOLIC_E_TRIPLE_PRIME"),
    _P: ("PLANAR_E1", "PLANAR_E1_TILDE", "PLANAR_E2", "PLANAR_E2_TILDE"),
    _Q: ("POLAR_E_PLUS", "POLAR_E_MINUS", "POLAR_E1", "POLAR_E1_TILDE"),
}


def represent_rows(u):
    """Rows of the matrix of v -> u*v in the (1, alpha, beta, gamma) basis."""
    x, y, z, t = u.components
    kind = u.kind
    if kind is AlgebraKind.CIRCULAR:
        return ((x, y, z, t), (-y, x, t, -z), (-z, t, x, -y), (t, z, y, x))
    if kind is AlgebraKind.HYPERBOLIC:
        return ((x, y, z, t), (y, x, t, z), (z, t, x, y), (t, z, y, x))
    if kind is AlgebraKind.PLANAR:
        return ((x, y, z, t), (-t, x, y, z), (-z, -t, x, y), (-y, -z, -t, x))
    return ((x, y, z, t), (t, x, y, z), (z, t, x, y), (y, z, t, x))


def canonical_mul(c1, c2):
    """Product in canonical coordinates, one hand-expanded branch per kind.

    Circular/planar: two independent complex products scaled by sqrt(2);
    hyperbolic: four real products; polar: two real products plus one
    plain complex product.
    """
    if isinstance(c1, (CanonicalCircular, CanonicalPlanar)):
        return type(c1)(
            xi=_SQRT2 * (c1.xi * c2.xi - c1.upsilon * c2.upsilon),
            upsilon=_SQRT2 * (c1.xi * c2.upsilon + c1.upsilon * c2.xi),
            tau=_SQRT2 * (c1.tau * c2.tau - c1.zeta * c2.zeta),
            zeta=_SQRT2 * (c1.tau * c2.zeta + c1.zeta * c2.tau),
        )
    if isinstance(c1, CanonicalHyperbolic):
        return CanonicalHyperbolic(
            s=c1.s * c2.s,
            s_prime=c1.s_prime * c2.s_prime,
            s_double_prime=c1.s_double_prime * c2.s_double_prime,
            s_triple_prime=c1.s_triple_prime * c2.s_triple_prime,
        )
    return CanonicalPolar(
        v_plus=c1.v_plus * c2.v_plus,
        v_minus=c1.v_minus * c2.v_minus,
        v1=c1.v1 * c2.v1 - c1.v1_tilde * c2.v1_tilde,
        v1_tilde=c1.v1 * c2.v1_tilde + c1.v1_tilde * c2.v1,
    )
