"""Arithmetic kernels for the four algebras.

``algebra_core`` dispatches to these functions by kind.  They take plain
numbers and never check types, so the polynomial module runs the same
products on complexified components.

Products and amplitude quartics are plain component formulas — one line
per output component — so each can be audited term by term; inverses
split into the kind's lines and planes, take reciprocals and join back.
No validation happens here; callers are responsible for kind dispatch
and singularity checks.
"""

_SQRT2 = 2.0 ** 0.5


# -- products -----------------------------------------------------------
# Cross terms are grouped as (a1*b2 + b1*a2) pairs so that the expression
# tree is invariant under swapping the operands: mul(u, v) and mul(v, u)
# then round identically, making commutativity bitwise exact.

def mul_circular(x1, y1, z1, t1, x2, y2, z2, t2):
    return (
        x1 * x2 - y1 * y2 - z1 * z2 + t1 * t2,
        (x1 * y2 + y1 * x2) + (z1 * t2 + t1 * z2),
        (x1 * z2 + z1 * x2) + (y1 * t2 + t1 * y2),
        (x1 * t2 + t1 * x2) - (y1 * z2 + z1 * y2),
    )


def mul_hyperbolic(x1, y1, z1, t1, x2, y2, z2, t2):
    return (
        x1 * x2 + y1 * y2 + z1 * z2 + t1 * t2,
        (x1 * y2 + y1 * x2) + (z1 * t2 + t1 * z2),
        (x1 * z2 + z1 * x2) + (y1 * t2 + t1 * y2),
        (x1 * t2 + t1 * x2) + (y1 * z2 + z1 * y2),
    )


def mul_planar(x1, y1, z1, t1, x2, y2, z2, t2):
    return (
        x1 * x2 - z1 * z2 - (y1 * t2 + t1 * y2),
        (x1 * y2 + y1 * x2) - (z1 * t2 + t1 * z2),
        (x1 * z2 + z1 * x2) + (y1 * y2 - t1 * t2),
        (x1 * t2 + t1 * x2) + (y1 * z2 + z1 * y2),
    )


def mul_polar(x1, y1, z1, t1, x2, y2, z2, t2):
    return (
        x1 * x2 + z1 * z2 + (y1 * t2 + t1 * y2),
        (x1 * y2 + y1 * x2) + (z1 * t2 + t1 * z2),
        (x1 * z2 + z1 * x2) + (y1 * y2 + t1 * t2),
        (x1 * t2 + t1 * x2) + (y1 * z2 + z1 * y2),
    )


# -- amplitude quartics (rho^4 or nu) -----------------------------------
# Evaluated in factored form (product over the nodal-set residuals); the
# factored form is exact where the expanded quartic cancels catastrophically
# near a nodal set.

def quartic_circular(x, y, z, t):
    rp2 = (x + t) * (x + t) + (y + z) * (y + z)
    rm2 = (x - t) * (x - t) + (y - z) * (y - z)
    return rp2 * rm2


def quartic_hyperbolic(x, y, z, t):
    return (x + y + z + t) * (x - y + z - t) * (x + y - z - t) * (x - y - z + t)


def quartic_planar(x, y, z, t):
    a = (y - t) / _SQRT2
    b = (y + t) / _SQRT2
    rp2 = (x + a) * (x + a) + (z + b) * (z + b)
    rm2 = (x - a) * (x - a) + (z - b) * (z - b)
    return rp2 * rm2


def quartic_polar(x, y, z, t):
    mu2 = (x - z) * (x - z) + (y - t) * (y - t)
    return (x + y + z + t) * (x - y + z - t) * mu2


# -- inverses -------------------------------------------------------------
# Split into the kind's real lines and complex planes, take each part's
# reciprocal, 1/(a + ib) = (a - ib)/(a^2 + b^2), and join back.  Per-part
# reciprocals stay accurate near the nodal sets, where the expanded cubic
# adjugate formulas cancel.

def inv_circular(x, y, z, t):
    a1 = x + t
    b1 = y + z
    a2 = x - t
    b2 = y - z
    n1 = a1 * a1 + b1 * b1
    n2 = a2 * a2 + b2 * b2
    a1 = a1 / n1
    b1 = -b1 / n1
    a2 = a2 / n2
    b2 = -b2 / n2
    return ((a1 + a2) / 2.0, (b1 + b2) / 2.0,
            (b1 - b2) / 2.0, (a1 - a2) / 2.0)


def inv_hyperbolic(x, y, z, t):
    s0 = 1.0 / (x + y + z + t)
    s1 = 1.0 / (x - y + z - t)
    s2 = 1.0 / (x + y - z - t)
    s3 = 1.0 / (x - y - z + t)
    return ((s0 + s1 + s2 + s3) / 4.0, (s0 - s1 + s2 - s3) / 4.0,
            (s0 + s1 - s2 - s3) / 4.0, (s0 - s1 - s2 + s3) / 4.0)


def inv_planar(x, y, z, t):
    a = (y - t) / _SQRT2
    b = (y + t) / _SQRT2
    a1 = x + a
    b1 = z + b
    a2 = x - a
    b2 = -z + b
    n1 = a1 * a1 + b1 * b1
    n2 = a2 * a2 + b2 * b2
    a1 = a1 / n1
    b1 = -b1 / n1
    a2 = a2 / n2
    b2 = -b2 / n2
    ymt = (a1 - a2) / _SQRT2
    ypt = (b1 + b2) / _SQRT2
    return ((a1 + a2) / 2.0, (ymt + ypt) / 2.0,
            (b1 - b2) / 2.0, (ypt - ymt) / 2.0)


def inv_polar(x, y, z, t):
    vp = 1.0 / (x + y + z + t)
    vm = 1.0 / (x - y + z - t)
    a = x - z
    b = y - t
    n = a * a + b * b
    a = a / n
    b = -b / n
    return (vp / 4.0 + vm / 4.0 + a / 2.0, vp / 4.0 - vm / 4.0 + b / 2.0,
            vp / 4.0 + vm / 4.0 - a / 2.0, vp / 4.0 - vm / 4.0 - b / 2.0)
