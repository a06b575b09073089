# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled arithmetic kernels for the four algebras.

Mirrors ``_kernels_py`` line for line (same formulas, same term grouping,
so both backends round identically); typed for doubles.
"""

DEF SQRT2 = 1.4142135623730951


# -- products -----------------------------------------------------------

def mul_circular(double x1, double y1, double z1, double t1,
                 double x2, double y2, double z2, double t2):
    return (
        x1 * x2 - y1 * y2 - z1 * z2 + t1 * t2,
        (x1 * y2 + y1 * x2) + (z1 * t2 + t1 * z2),
        (x1 * z2 + z1 * x2) + (y1 * t2 + t1 * y2),
        (x1 * t2 + t1 * x2) - (y1 * z2 + z1 * y2),
    )


def mul_hyperbolic(double x1, double y1, double z1, double t1,
                   double x2, double y2, double z2, double t2):
    return (
        x1 * x2 + y1 * y2 + z1 * z2 + t1 * t2,
        (x1 * y2 + y1 * x2) + (z1 * t2 + t1 * z2),
        (x1 * z2 + z1 * x2) + (y1 * t2 + t1 * y2),
        (x1 * t2 + t1 * x2) + (y1 * z2 + z1 * y2),
    )


def mul_planar(double x1, double y1, double z1, double t1,
               double x2, double y2, double z2, double t2):
    return (
        x1 * x2 - z1 * z2 - (y1 * t2 + t1 * y2),
        (x1 * y2 + y1 * x2) - (z1 * t2 + t1 * z2),
        (x1 * z2 + z1 * x2) + (y1 * y2 - t1 * t2),
        (x1 * t2 + t1 * x2) + (y1 * z2 + z1 * y2),
    )


def mul_polar(double x1, double y1, double z1, double t1,
              double x2, double y2, double z2, double t2):
    return (
        x1 * x2 + z1 * z2 + (y1 * t2 + t1 * y2),
        (x1 * y2 + y1 * x2) + (z1 * t2 + t1 * z2),
        (x1 * z2 + z1 * x2) + (y1 * y2 + t1 * t2),
        (x1 * t2 + t1 * x2) + (y1 * z2 + z1 * y2),
    )


# -- amplitude quartics (rho^4 or nu) -----------------------------------

def quartic_circular(double x, double y, double z, double t):
    cdef double rp2 = (x + t) * (x + t) + (y + z) * (y + z)
    cdef double rm2 = (x - t) * (x - t) + (y - z) * (y - z)
    return rp2 * rm2


def quartic_hyperbolic(double x, double y, double z, double t):
    return (x + y + z + t) * (x - y + z - t) * (x + y - z - t) * (x - y - z + t)


def quartic_planar(double x, double y, double z, double t):
    cdef double a = (y - t) / SQRT2
    cdef double b = (y + t) / SQRT2
    cdef double rp2 = (x + a) * (x + a) + (z + b) * (z + b)
    cdef double rm2 = (x - a) * (x - a) + (z - b) * (z - b)
    return rp2 * rm2


def quartic_polar(double x, double y, double z, double t):
    cdef double mu2 = (x - z) * (x - z) + (y - t) * (y - t)
    return (x + y + z + t) * (x - y + z - t) * mu2


# -- inverses -------------------------------------------------------------

def inv_circular(double x, double y, double z, double t):
    cdef double a1 = x + t
    cdef double b1 = y + z
    cdef double a2 = x - t
    cdef double b2 = y - z
    cdef double n1 = a1 * a1 + b1 * b1
    cdef double n2 = a2 * a2 + b2 * b2
    a1 = a1 / n1
    b1 = -b1 / n1
    a2 = a2 / n2
    b2 = -b2 / n2
    return ((a1 + a2) / 2.0, (b1 + b2) / 2.0,
            (b1 - b2) / 2.0, (a1 - a2) / 2.0)


def inv_hyperbolic(double x, double y, double z, double t):
    cdef double s0 = 1.0 / (x + y + z + t)
    cdef double s1 = 1.0 / (x - y + z - t)
    cdef double s2 = 1.0 / (x + y - z - t)
    cdef double s3 = 1.0 / (x - y - z + t)
    return ((s0 + s1 + s2 + s3) / 4.0, (s0 - s1 + s2 - s3) / 4.0,
            (s0 + s1 - s2 - s3) / 4.0, (s0 - s1 - s2 + s3) / 4.0)


def inv_planar(double x, double y, double z, double t):
    cdef double a = (y - t) / SQRT2
    cdef double b = (y + t) / SQRT2
    cdef double a1 = x + a
    cdef double b1 = z + b
    cdef double a2 = x - a
    cdef double b2 = -z + b
    cdef double n1 = a1 * a1 + b1 * b1
    cdef double n2 = a2 * a2 + b2 * b2
    a1 = a1 / n1
    b1 = -b1 / n1
    a2 = a2 / n2
    b2 = -b2 / n2
    cdef double ymt = (a1 - a2) / SQRT2
    cdef double ypt = (b1 + b2) / SQRT2
    return ((a1 + a2) / 2.0, (ymt + ypt) / 2.0,
            (b1 - b2) / 2.0, (ypt - ymt) / 2.0)


def inv_polar(double x, double y, double z, double t):
    cdef double vp = 1.0 / (x + y + z + t)
    cdef double vm = 1.0 / (x - y + z - t)
    cdef double a = x - z
    cdef double b = y - t
    cdef double n = a * a + b * b
    a = a / n
    b = -b / n
    return (vp / 4.0 + vm / 4.0 + a / 2.0, vp / 4.0 - vm / 4.0 + b / 2.0,
            vp / 4.0 + vm / 4.0 - a / 2.0, vp / 4.0 - vm / 4.0 - b / 2.0)
