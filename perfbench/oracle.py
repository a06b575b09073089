"""Independent oracle for the quadfield benchmark.

Written from the paper's definitions, apart from quadfield: it imports
nothing from the package and works on plain tuples ``(x, y, z, t)``
tagged with a kind name ("circular", "hyperbolic", "planar", "polar").

* ``UNIT_PRODUCTS`` is the paper's table of unit products; ``mul`` is the
  bilinear product it defines, so it shares no formula with the library's
  hand-expanded kernels.
* ``split``/``join`` are the changes of coordinates into real lines and
  complex planes.  ``join`` inverts ``split`` through a numerically
  inverted matrix rather than a second hand-written formula.
* Every analytic function is evaluated one plane at a time with
  ``math``/``cmath``; residues come from a plane-by-plane Cauchy sum.

Components may be complex: the product and the coordinate changes are
linear, which is what the factorization checks need for roots whose line
components are complex.
"""

from __future__ import annotations

import cmath
import math

KINDS = ("circular", "hyperbolic", "planar", "polar")

TWO_PI = 2.0 * math.pi
_R2 = math.sqrt(2.0)

# UNIT_PRODUCTS[kind][i][j] = (sign, k): e_i * e_j = sign * e_k in the basis
# (1, alpha, beta, gamma).
_A, _B, _G = 1, 2, 3


def _table(aa, bb, gg, ab, ag, bg):
    t = [[None] * 4 for _ in range(4)]
    for i in range(4):
        t[0][i] = t[i][0] = (1, i)
    for (i, j), v in {(_A, _A): aa, (_B, _B): bb, (_G, _G): gg,
                      (_A, _B): ab, (_A, _G): ag, (_B, _G): bg}.items():
        t[i][j] = t[j][i] = v
    return tuple(tuple(row) for row in t)


UNIT_PRODUCTS = {
    # alpha^2 = beta^2 = -1, gamma^2 = 1, alpha*beta = -gamma
    "circular": _table((-1, 0), (-1, 0), (1, 0), (-1, _G), (1, _B), (1, _A)),
    # every unit squares to 1, alpha*beta = gamma
    "hyperbolic": _table((1, 0), (1, 0), (1, 0), (1, _G), (1, _B), (1, _A)),
    # alpha^2 = beta, beta^2 = -1, gamma^2 = -beta, alpha*gamma = -1
    "planar": _table((1, _B), (-1, 0), (-1, _B), (1, _G), (-1, 0), (-1, _A)),
    # alpha^2 = beta, beta^2 = 1, gamma^2 = beta, alpha*gamma = 1
    "polar": _table((1, _B), (1, 0), (1, _B), (1, _G), (1, 0), (1, _A)),
}


def mul(kind, u, v):
    """Product of two quads from the unit-product table."""
    out = [0.0, 0.0, 0.0, 0.0]
    table = UNIT_PRODUCTS[kind]
    for i in range(4):
        for j in range(4):
            sign, k = table[i][j]
            out[k] += sign * u[i] * v[j]
    return tuple(out)


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


ONE = (1.0, 0.0, 0.0, 0.0)

# -- changes of coordinates ---------------------------------------------------
# Rows give the real coordinates (c1, c2, c3, c4) of a quad; SHAPES says how
# they form the decoupled values: "C" takes two coordinates as re + i*im of
# one complex plane, "R" takes one coordinate as a real line.

_SPLIT_ROWS = {
    "circular": ((1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, -1), (0, 1, -1, 0)),
    "hyperbolic": ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)),
    "planar": ((1, 1 / _R2, 0, -1 / _R2), (0, 1 / _R2, 1, 1 / _R2),
               (1, -1 / _R2, 0, 1 / _R2), (0, 1 / _R2, -1, 1 / _R2)),
    "polar": ((1, 1, 1, 1), (1, -1, 1, -1), (1, 0, -1, 0), (0, 1, 0, -1)),
}

SHAPES = {
    "circular": "CC",
    "hyperbolic": "RRRR",
    "planar": "CC",
    "polar": "RRC",
}


def _invert4(rows):
    """Gauss-Jordan inverse of a 4x4 matrix given by rows."""
    a = [list(map(float, r)) + [1.0 if i == j else 0.0 for j in range(4)]
         for i, r in enumerate(rows)]
    for col in range(4):
        piv = max(range(col, 4), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        for r in range(4):
            if r != col and a[r][col] != 0.0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return tuple(tuple(r[4:]) for r in a)


_JOIN_ROWS = {kind: _invert4(rows) for kind, rows in _SPLIT_ROWS.items()}


def _apply(rows, vec):
    return tuple(sum(r[j] * vec[j] for j in range(4)) for r in rows)


def split(kind, u):
    """Decoupled values: complex planes and real lines, in the paper's order."""
    c = _apply(_SPLIT_ROWS[kind], u)
    out, i = [], 0
    for shape in SHAPES[kind]:
        if shape == "C":
            out.append(c[i] + 1j * c[i + 1])
            i += 2
        else:
            out.append(c[i])
            i += 1
    return tuple(out)


def join(kind, parts):
    """Inverse of :func:`split` (real components for real line values)."""
    c = []
    for shape, p in zip(SHAPES[kind], parts):
        if shape == "C":
            p = complex(p)
            c += [p.real, p.imag]
        else:
            c.append(p)
    return _apply(_JOIN_ROWS[kind], c)


def planewise(kind, u, fc, fr=None):
    """Apply fc to every complex plane and fr (default fc) to every line."""
    fr = fc if fr is None else fr
    return join(kind, tuple(fc(p) if s == "C" else fr(p)
                            for s, p in zip(SHAPES[kind], split(kind, u))))


# -- plane-by-plane functions ----------------------------------------------------

def _log_c(w):
    if w == 0:
        raise ValueError("log of a zero plane value")
    return complex(math.log(abs(w)), math.atan2(w.imag, w.real) % TWO_PI)


def _log_r(s):
    if s <= 0.0:
        raise ValueError("log of a non-positive line value")
    return math.log(s)


def inverse(kind, u):
    return planewise(kind, u, lambda w: 1.0 / w)


def pow_int(kind, u, m):
    return planewise(kind, u, lambda w: w ** m)


def exp(kind, u):
    return planewise(kind, u, cmath.exp, math.exp)


def log(kind, u):
    """Principal logarithm, every plane angle in [0, 2*pi)."""
    return planewise(kind, u, _log_c, _log_r)


def pow_real(kind, u, n):
    return planewise(kind, u, lambda w: cmath.exp(n * _log_c(w)),
                     lambda s: math.exp(n * _log_r(s)))


FUNCTIONS = {
    "cos": (cmath.cos, math.cos),
    "sin": (cmath.sin, math.sin),
    "cosh": (cmath.cosh, math.cosh),
    "sinh": (cmath.sinh, math.sinh),
}


def elementary(kind, name, u):
    fc, fr = FUNCTIONS[name]
    return planewise(kind, u, fc, fr)


def amplitude_nu(kind, u):
    """The quartic amplitude: product of the lines and |plane|^2 of the planes."""
    nu = 1.0
    for s, p in zip(SHAPES[kind], split(kind, u)):
        nu *= abs(p) ** 2 if s == "C" else p
    return nu


def expected_blocks(kind, u):
    """T*represent(u)*T^-1: [[a, b], [-b, a]] per plane a+ib, s per line."""
    m = [[0.0] * 4 for _ in range(4)]
    i = 0
    for s, p in zip(SHAPES[kind], split(kind, u)):
        if s == "C":
            m[i][i] = m[i + 1][i + 1] = p.real
            m[i][i + 1] = p.imag
            m[i + 1][i] = -p.imag
            i += 2
        else:
            m[i][i] = p
            i += 1
    return m


def directions(kind):
    """Orthonormal rows spanning the planes and lines, in split order."""
    out = []
    for r in _SPLIT_ROWS[kind]:
        n = math.sqrt(sum(v * v for v in r))
        out.append(tuple(v / n for v in r))
    return tuple(out)


def represent(kind, u):
    """Rows are u*e_j: the matrix of v -> u*v acting on row vectors."""
    basis = [tuple(1.0 if i == j else 0.0 for i in range(4)) for j in range(4)]
    return [list(mul(kind, u, e)) for e in basis]


# -- exponential form (paper's amplitude-and-angle chart) -----------------------

def from_exp_form(kind, fields):
    """The quad an exponential form denotes, rebuilt plane by plane.

    circular/planar: rho^4 = |w+|^2 |w-|^2, tan(psi) = |w+|/|w-|, phi and
    chi the plane angles.  hyperbolic: u = mu * exp(alpha y1 + beta z1 +
    gamma t1).  polar: rho^4 = v+ v- mu+^2, tan(theta+-) = sqrt(2) mu+/v+-,
    phi the angle of the (v1, v1~) plane.
    """
    f = fields
    if kind in ("circular", "planar"):
        k = math.sqrt(math.tan(f["psi"]))
        w1 = f["rho"] * k * cmath.exp(1j * f["phi"])
        w2 = f["rho"] / k * cmath.exp(1j * f["chi"])
        return join(kind, (w1, w2))
    if kind == "hyperbolic":
        e = exp(kind, (0.0, f["y1"], f["z1"], f["t1"]))
        return tuple(f["mu"] * c for c in e)
    tp, tm = math.tan(f["theta_plus"]), math.tan(f["theta_minus"])
    mu_plus = f["rho"] * (tp * tm / 2.0) ** 0.25
    vp, vm = _R2 * mu_plus / tp, _R2 * mu_plus / tm
    return join(kind, (vp, vm, mu_plus * cmath.exp(1j * f["phi"])))


# -- residues ----------------------------------------------------------------------

def cauchy_integral(kind, windings, numerator):
    """Loop integral of a(u)/(u - u0) du by Cauchy's formula, plane by plane.

    ``windings`` gives the loop's winding number about the pole in each
    complex plane (in split order); ``numerator`` is a(u0).  Real lines
    contribute nothing: a closed path on a line encloses no pole.
    """
    parts, n = [], iter(windings)
    for s, a in zip(SHAPES[kind], split(kind, numerator)):
        parts.append(2j * math.pi * next(n) * a if s == "C" else 0.0)
    return join(kind, tuple(parts))


def planes(kind):
    """Number of complex planes of the kind."""
    return SHAPES[kind].count("C")


# -- polynomials ---------------------------------------------------------------------

def expand(kind, roots):
    """Coefficients, leading first, of prod (u - r) over the roots."""
    coeffs = [ONE]
    zero = (0.0, 0.0, 0.0, 0.0)
    for r in roots:
        nxt = []
        for i in range(len(coeffs) + 1):
            hi = coeffs[i] if i < len(coeffs) else zero
            lo = mul(kind, r, coeffs[i - 1]) if i >= 1 else zero
            nxt.append(sub(hi, lo))
        coeffs = nxt
    return coeffs


def poly_mul(kind, p, q):
    out = [(0.0, 0.0, 0.0, 0.0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = add(out[i + j], mul(kind, a, b))
    return out


def multiset_match(found, planted, tol):
    """True when the two lists of numbers agree as multisets within tol."""
    if len(found) != len(planted):
        return False
    left = list(planted)
    for z in found:
        best = min(range(len(left)), key=lambda i: abs(left[i] - z))
        if abs(left[best] - z) > tol:
            return False
        left.pop(best)
    return True


# -- cosexponential functions (mod-4 splittings of the exponential series) -------

def cosexp(family, k, x, terms=40):
    """f4k (alternating signs, family "f") or g4k (family "g") by its series."""
    sign = -1.0 if family == "f" else 1.0
    total = 0.0
    for l in range(terms):
        n = 4 * l + k
        total += sign ** l * x ** n / math.factorial(n)
    return total


def close(a, b, rel, floor=1.0):
    """Componentwise |a - b| <= rel * max(floor, |a|, |b|)."""
    scale = max([floor] + [abs(v) for v in a] + [abs(v) for v in b])
    return all(abs(p - q) <= rel * scale for p, q in zip(a, b))
