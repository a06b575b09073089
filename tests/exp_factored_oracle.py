"""The textbook assembly of exp from its component factors: a test oracle.

The library evaluates exp one decoupled plane at a time.  This module
keeps the older, independent route: exp(u) = e^x * exp(alpha y) *
exp(beta z) * exp(gamma t), with each unit-direction factor written from
the kind's closed component forms (cos/cosh, sin/sinh and the
cosexponential families f4k, g4k), multiplied out with ``mul``.
"""

import math

from quadfield import AlgebraKind, Quad, cosexp, f4, g4, mul, scale


def _exp_unit_factors(u: Quad) -> tuple[Quad, Quad, Quad]:
    """exp(alpha*y), exp(beta*z), exp(gamma*t) from the closed component forms."""
    kind = u.kind
    y, z, t = u.y, u.z, u.t
    if kind is AlgebraKind.CIRCULAR:
        return (
            Quad(kind, math.cos(y), math.sin(y), 0.0, 0.0),
            Quad(kind, math.cos(z), 0.0, math.sin(z), 0.0),
            Quad(kind, math.cosh(t), 0.0, 0.0, math.sinh(t)),
        )
    if kind is AlgebraKind.HYPERBOLIC:
        return (
            Quad(kind, math.cosh(y), math.sinh(y), 0.0, 0.0),
            Quad(kind, math.cosh(z), 0.0, math.sinh(z), 0.0),
            Quad(kind, math.cosh(t), 0.0, 0.0, math.sinh(t)),
        )
    if kind is AlgebraKind.PLANAR:
        fy = [cosexp(f4(k), y) for k in range(4)]
        ft = [cosexp(f4(k), t) for k in range(4)]
        return (
            Quad(kind, fy[0], fy[1], fy[2], fy[3]),
            Quad(kind, math.cos(z), 0.0, math.sin(z), 0.0),
            Quad(kind, ft[0], ft[3], -ft[2], ft[1]),
        )
    gy = [cosexp(g4(k), y) for k in range(4)]
    gt = [cosexp(g4(k), t) for k in range(4)]
    return (
        Quad(kind, gy[0], gy[1], gy[2], gy[3]),
        Quad(kind, math.cosh(z), 0.0, math.sinh(z), 0.0),
        Quad(kind, gt[0], gt[3], gt[2], gt[1]),
    )


def exp_factored(u: Quad) -> Quad:
    """The textbook assembly exp(x)*exp(alpha y)*exp(beta z)*exp(gamma t).

    Identical to :func:`exp` analytically; kept for auditability against
    the component factorization and used by tests as a cross-check.
    """
    ea, eb, eg = _exp_unit_factors(u)
    return scale(mul(mul(ea, eb), eg), math.exp(u.x))
