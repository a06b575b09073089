"""Arithmetic kernels for the four algebras.

``algebra_core`` dispatches to these functions by kind.  They take plain
numbers and never check types, so ``polynomial`` runs the same products
and joins on complexified components.  No validation happens here;
callers are responsible for kind dispatch and singularity checks.

Per kind, only the unit products ``mul_<kind>`` and the change of
coordinates ``split_<kind>``/``join_<kind>`` are written out.  The
inverse ``inv_<kind>`` and the amplitude quartic ``quartic_<kind>`` are
read off the split by one shared helper each.
"""

_SQRT2 = 2.0 ** 0.5
_NORMAL, _INF = 2.0 ** -1022, float("inf")


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


# -- the change of coordinates ------------------------------------------
# split_<kind> maps the components onto the kind's real lines and complex
# planes, each map a unital ring homomorphism; join_<kind> maps the parts
# back.  A join takes complex line entries too (a line polynomial's
# complex roots); their imaginary parts then pass into the components.

def split_circular(x, y, z, t):
    return (complex(x + t, y + z), complex(x - t, y - z))


def join_circular(w1, w2):
    return ((w1.real + w2.real) / 2.0, (w1.imag + w2.imag) / 2.0,
            (w1.imag - w2.imag) / 2.0, (w1.real - w2.real) / 2.0)


def split_hyperbolic(x, y, z, t):
    return (x + y + z + t, x - y + z - t, x + y - z - t, x - y - z + t)


def join_hyperbolic(s, sp, spp, sppp):
    return ((s + sp + spp + sppp) / 4.0, (s - sp + spp - sppp) / 4.0,
            (s + sp - spp - sppp) / 4.0, (s - sp - spp + sppp) / 4.0)


def split_planar(x, y, z, t):
    a = (y - t) / _SQRT2
    b = (y + t) / _SQRT2
    return (complex(x + a, z + b), complex(x - a, -z + b))


def join_planar(w1, w2):
    ymt = (w1.real - w2.real) / _SQRT2
    ypt = (w1.imag + w2.imag) / _SQRT2
    return ((w1.real + w2.real) / 2.0, (ymt + ypt) / 2.0,
            (w1.imag - w2.imag) / 2.0, (ypt - ymt) / 2.0)


def split_polar(x, y, z, t):
    return (x + y + z + t, x - y + z - t, complex(x - z, y - t))


def join_polar(vp, vm, w1):
    return (vp / 4.0 + vm / 4.0 + w1.real / 2.0,
            vp / 4.0 - vm / 4.0 + w1.imag / 2.0,
            vp / 4.0 + vm / 4.0 - w1.real / 2.0,
            vp / 4.0 - vm / 4.0 - w1.imag / 2.0)


# -- read off the split ---------------------------------------------------
# The inverse is the join of the parts' reciprocals, and the amplitude
# quartic (rho^4 or nu) the product of the line values and the planes'
# squared moduli.  Per part, both stay accurate near the nodal sets, where
# the expanded quartic and the cubic adjugate formulas cancel.

def reciprocals(parts, floor=None):
    """Per part: 1/s on a line, (a - ib)/(a^2 + b^2) on a plane a + ib; if
    a^2 + b^2 is not a normal double, s * 1/(s*p) with s = 2^-600 or 2^600.
    With a ``floor``, None unless each part's s^2 or a finite a^2 + b^2 is a
    double at least normal and above it."""
    out = []
    for p in parts:
        if p.__class__ is complex:
            a = p.real
            b = p.imag
            n = a * a + b * b
            if _NORMAL <= n < _INF and (floor is None or n > floor):
                out.append(complex(a / n, -b / n))
            elif floor is not None:
                return None
            else:
                s = 2.0 ** -600 if n >= 1.0 else 2.0 ** 600
                a, b = a * s, b * s
                n = a * a + b * b
                out.append(complex(a / n * s, -b / n * s))
        elif floor is None or floor < p * p >= _NORMAL:
            out.append(1.0 / p)
        else:
            return None
    return out


def quartic(parts):
    """Left-to-right product of the line values and the planes' a^2 + b^2."""
    q = 1.0
    for p in parts:
        q *= p.real * p.real + p.imag * p.imag if p.__class__ is complex else p
    return q


def _read_off(kind, split, join):
    """The kind's inverse and quartic kernels, read off its split and join."""
    def inv(x, y, z, t):
        return join(*reciprocals(split(x, y, z, t)))

    def quartic_(x, y, z, t):
        return quartic(split(x, y, z, t))

    inv.__name__ = inv.__qualname__ = f"inv_{kind}"
    quartic_.__name__ = quartic_.__qualname__ = f"quartic_{kind}"
    return inv, quartic_


inv_circular, quartic_circular = _read_off(
    "circular", split_circular, join_circular)
inv_hyperbolic, quartic_hyperbolic = _read_off(
    "hyperbolic", split_hyperbolic, join_hyperbolic)
inv_planar, quartic_planar = _read_off("planar", split_planar, join_planar)
inv_polar, quartic_polar = _read_off("polar", split_polar, join_polar)
