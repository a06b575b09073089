"""Oracle for the split join and the residual of `polynomial._assemble`.

These are the polynomial module's own copy of the join and its residual,
as they were before the module used `algebra_core._join` and evaluated
each residual per component: the join of complexified component roots,
and |P(root)| by a Horner loop on the 4-D product kernels with complex
components.  `tests/test_join.py` checks the core join and the roots and
residuals of `factor` against them.
"""

import math

from quadfield.algebra_core import _MUL, AlgebraKind
from quadfield.polynomial import Poly


def _join_components(kind: AlgebraKind, parts: tuple) -> tuple:
    """Component values -> (x, y, z, t) scalars, complex in general.

    Circular/planar joins are always real; hyperbolic/polar inherit any
    imaginary parts of their real-line component values.  The distinguished
    complex-plane value contributes its real/imaginary parts directly (the
    choice that keeps roots as real as the line components allow).
    """
    if kind is AlgebraKind.CIRCULAR:
        w1, w2 = parts
        return ((w1.real + w2.real) / 2.0, (w1.imag + w2.imag) / 2.0,
                (w1.imag - w2.imag) / 2.0, (w1.real - w2.real) / 2.0)
    if kind is AlgebraKind.PLANAR:
        w1, w2 = parts
        ymt = (w1.real - w2.real) / math.sqrt(2.0)
        ypt = (w1.imag + w2.imag) / math.sqrt(2.0)
        return ((w1.real + w2.real) / 2.0, (ymt + ypt) / 2.0,
                (w1.imag - w2.imag) / 2.0, (ypt - ymt) / 2.0)
    if kind is AlgebraKind.HYPERBOLIC:
        s, sp, spp, sppp = parts
        return ((s + sp + spp + sppp) / 4.0, (s - sp + spp - sppp) / 4.0,
                (s + sp - spp - sppp) / 4.0, (s - sp - spp + sppp) / 4.0)
    vp, vm, w1 = parts
    half = (vp + vm) / 4.0
    diff = (vp - vm) / 4.0
    return (half + w1.real / 2.0, diff + w1.imag / 2.0,
            half - w1.real / 2.0, diff - w1.imag / 2.0)


def _eval_complexified(p: Poly, comps: tuple, kind: AlgebraKind) -> float:
    """|P(root)| with complex-component Horner on the product kernels."""
    mulc = _MUL[kind]
    acc = p.coeffs[0].components
    for a in p.coeffs[1:]:
        acc = mulc(*acc, *comps)
        acc = tuple(q + r for q, r in zip(acc, a.components))
    return math.sqrt(sum(abs(c) ** 2 for c in acc))
