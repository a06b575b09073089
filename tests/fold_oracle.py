"""Addition-theorem fold for cos/sin/cosh/sinh: a test oracle.

The library evaluates these functions one decoupled plane at a time.  This
module keeps the older, independent route: fold the addition theorem over
x, alpha*y, beta*z, gamma*t, with each unit-direction factor written from
the kind's closed component forms (cos/cosh, sin/sinh and the
cosexponential families f4k, g4k).  It uses only ``mul``, ``Quad``
arithmetic and the scalar ``cosexp`` closed forms.
"""

import math

from quadfield import AlgebraKind, Quad, cosexp, f4, g4, mul


def unit_cos_sin(kind: AlgebraKind, idx: int, v: float) -> tuple[Quad, Quad]:
    """(cos, sin) of v times the idx-th imaginary unit (1=alpha, 2=beta, 3=gamma)."""
    if kind is AlgebraKind.CIRCULAR:
        if idx == 1:
            return (Quad(kind, math.cosh(v), 0, 0, 0),
                    Quad(kind, 0, math.sinh(v), 0, 0))
        if idx == 2:
            return (Quad(kind, math.cosh(v), 0, 0, 0),
                    Quad(kind, 0, 0, math.sinh(v), 0))
        return (Quad(kind, math.cos(v), 0, 0, 0),
                Quad(kind, 0, 0, 0, math.sin(v)))
    if kind is AlgebraKind.HYPERBOLIC:
        c = Quad(kind, math.cos(v), 0, 0, 0)
        s = math.sin(v)
        if idx == 1:
            return (c, Quad(kind, 0, s, 0, 0))
        if idx == 2:
            return (c, Quad(kind, 0, 0, s, 0))
        return (c, Quad(kind, 0, 0, 0, s))
    if kind is AlgebraKind.PLANAR:
        if idx == 1:
            f = [cosexp(f4(k), v) for k in range(4)]
            return (Quad(kind, f[0], 0, -f[2], 0),
                    Quad(kind, 0, f[1], 0, -f[3]))
        if idx == 2:
            return (Quad(kind, math.cosh(v), 0, 0, 0),
                    Quad(kind, 0, 0, math.sinh(v), 0))
        f = [cosexp(f4(k), v) for k in range(4)]
        return (Quad(kind, f[0], 0, f[2], 0),
                Quad(kind, 0, -f[3], 0, f[1]))
    if idx == 2:
        return (Quad(kind, math.cos(v), 0, 0, 0),
                Quad(kind, 0, 0, math.sin(v), 0))
    g = [cosexp(g4(k), v) for k in range(4)]
    c = Quad(kind, g[0], 0, -g[2], 0)
    if idx == 1:
        return (c, Quad(kind, 0, g[1], 0, -g[3]))
    return (c, Quad(kind, 0, -g[3], 0, g[1]))


def unit_cosh_sinh(kind: AlgebraKind, idx: int, v: float) -> tuple[Quad, Quad]:
    """(cosh, sinh) of v times the idx-th imaginary unit."""
    if kind is AlgebraKind.CIRCULAR:
        if idx == 1:
            return (Quad(kind, math.cos(v), 0, 0, 0),
                    Quad(kind, 0, math.sin(v), 0, 0))
        if idx == 2:
            return (Quad(kind, math.cos(v), 0, 0, 0),
                    Quad(kind, 0, 0, math.sin(v), 0))
        return (Quad(kind, math.cosh(v), 0, 0, 0),
                Quad(kind, 0, 0, 0, math.sinh(v)))
    if kind is AlgebraKind.HYPERBOLIC:
        c = Quad(kind, math.cosh(v), 0, 0, 0)
        s = math.sinh(v)
        if idx == 1:
            return (c, Quad(kind, 0, s, 0, 0))
        if idx == 2:
            return (c, Quad(kind, 0, 0, s, 0))
        return (c, Quad(kind, 0, 0, 0, s))
    if kind is AlgebraKind.PLANAR:
        if idx == 1:
            f = [cosexp(f4(k), v) for k in range(4)]
            return (Quad(kind, f[0], 0, f[2], 0),
                    Quad(kind, 0, f[1], 0, f[3]))
        if idx == 2:
            return (Quad(kind, math.cos(v), 0, 0, 0),
                    Quad(kind, 0, 0, math.sin(v), 0))
        f = [cosexp(f4(k), v) for k in range(4)]
        return (Quad(kind, f[0], 0, -f[2], 0),
                Quad(kind, 0, f[3], 0, f[1]))
    if idx == 2:
        return (Quad(kind, math.cosh(v), 0, 0, 0),
                Quad(kind, 0, 0, math.sinh(v), 0))
    g = [cosexp(g4(k), v) for k in range(4)]
    c = Quad(kind, g[0], 0, g[2], 0)
    if idx == 1:
        return (c, Quad(kind, 0, g[1], 0, g[3]))
    return (c, Quad(kind, 0, g[3], 0, g[1]))


def fold_cos_sin(u: Quad) -> tuple[Quad, Quad]:
    """cos/sin of x + alpha y + beta z + gamma t via the addition theorem.

    Grouping order is fixed (x, then alpha y, then beta z, then gamma t)
    so results are bit-reproducible.
    """
    kind = u.kind
    c = Quad(kind, math.cos(u.x), 0, 0, 0)
    s = Quad(kind, math.sin(u.x), 0, 0, 0)
    for idx, v in ((1, u.y), (2, u.z), (3, u.t)):
        ci, si = unit_cos_sin(kind, idx, v)
        c, s = mul(c, ci) - mul(s, si), mul(s, ci) + mul(c, si)
    return c, s


def fold_cosh_sinh(u: Quad) -> tuple[Quad, Quad]:
    kind = u.kind
    c = Quad(kind, math.cosh(u.x), 0, 0, 0)
    s = Quad(kind, math.sinh(u.x), 0, 0, 0)
    for idx, v in ((1, u.y), (2, u.z), (3, u.t)):
        ci, si = unit_cosh_sinh(kind, idx, v)
        c, s = mul(c, ci) + mul(s, si), mul(s, ci) + mul(c, si)
    return c, s
