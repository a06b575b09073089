"""Inverse and amplitude-quartic kernels written out by hand: a test oracle.

The library reads ``inv_<kind>`` and ``quartic_<kind>`` off the kind's
split into lines and planes and its join (``quadfield._kernels_py``).
This module keeps the component formulas they replaced, each with the
split and join inlined, so `tests/test_kernels.py` can check the derived
kernels against them bit for bit.

``inverse`` is ``algebra_core.inverse`` as it was before its nodal test
read the reciprocals' own a^2 + b^2: the normalized residuals by
``math.hypot`` first, then the reciprocals, and the result through the
public ``Quad`` constructor.

``pow_int`` is ``algebra_core.pow_int`` as it was before it ran on the
split: binary exponentiation over ``mul``, inverting first (with the
library's ``inverse``) for a negative exponent.
"""

from quadfield import algebra_core
from quadfield.algebra_core import (_JOIN, _SPLIT, DEFAULT_TOL, Quad,
                                    SingularValue, _residuals, mul, one,
                                    singularity)
from quadfield._kernels_py import reciprocals

_SQRT2 = 2.0 ** 0.5


def inverse(u, tol=DEFAULT_TOL):
    kind = u.kind
    parts = _SPLIT[kind](u.x, u.y, u.z, u.t)
    if min(_residuals(u, parts, tol)) <= tol:
        report = singularity(u, tol)
        raise SingularValue(
            f"{u.kind} value {u.components} lies on nodal set(s) "
            f"{', '.join(report.nodal_sets)} (margin {report.margin:.3e})"
        )
    return Quad(kind, *_JOIN[kind](*reciprocals(parts)))


def pow_int(u, m, tol=DEFAULT_TOL):
    if m != int(m):
        raise TypeError(f"exponent must be an integer, got {m!r}")
    m = int(m)
    if m < 0:
        return pow_int(algebra_core.inverse(u, tol), -m)
    if m == 0:
        return one(u.kind)
    result = None
    base = u
    while True:
        if m & 1:
            result = base if result is None else mul(result, base)
        m >>= 1
        if not m:
            return result
        base = mul(base, base)


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
