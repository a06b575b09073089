"""Power series and analyticity checks.

Horner evaluation and tail-ratio convergence estimates of power series,
and central-difference checks of the first-order (Riemann-type) relations
and second-order Laplace/wave/mixed equations that each kind's analytic
functions satisfy, read off the kind's unit products.
"""

from __future__ import annotations

import math

from .algebra_core import AlgebraKind, Quad, QuadfieldError, modulus
from .algebra_core import (_check_coeffs, _horner, _Record, _split_basis,
                           _unit_products, plane_join, plane_split)

__all__ = [
    "SeriesSpec",
    "ConvergenceBounds",
    "DegenerateSeries",
    "eval_series",
    "convergence_bounds",
    "check_analytic",
    "check_second_order",
]


class DegenerateSeries(QuadfieldError):
    """Raised when tail coefficients vanish and ratio estimates are undefined."""


# -- series ---------------------------------------------------------------

class SeriesSpec(_Record):
    """Coefficients a0..aL of sum a_l * u**l, all of one kind."""

    __slots__ = ("kind", "coeffs")

    def __post_init__(self) -> None:
        _check_coeffs(self, "series")


class ConvergenceBounds(_Record):
    """Tail-ratio estimates; `global_bound` is in modulus units |u|,
    `canonical` is one radius per decoupled plane/line (plane-projection
    units)."""

    __slots__ = ("global_bound", "canonical")


def eval_series(s: SeriesSpec, u: Quad) -> Quad:
    """Horner evaluation of the series at u."""
    return _horner(s.kind, s.coeffs[::-1], u, "series")


# |uv| <= c*|u|*|v| with the sharp c = 1/|e| for the shortest element e of
# the idempotent basis: the split parts are orthogonal, with weights |e|^2.
_GLOBAL_MUL_FACTOR = {
    kind: math.sqrt(1.0 / min(sum(c * c for c in plane_join(kind, b).components)
                              for b in _split_basis(kind)))
    for kind in AlgebraKind
}


def convergence_bounds(s: SeriesSpec) -> ConvergenceBounds:
    """Advisory convergence radii from trailing coefficient ratios.

    The global bound divides the plain ratio |a_l|/|a_{l+1}| by the
    kind's product-modulus growth factor (sqrt(2) or 2); the canonical
    radii are per-plane ratios of projected coefficient magnitudes.  The
    minimum over the last max(3, L/4) ratios is reported.  A vanishing
    plane denominator means that plane's series truncates: its ratio is
    taken as +inf.

    Raises:
        DegenerateSeries: fewer than two coefficients, or a coefficient in
            the ratio window has zero modulus.
    """
    degree = len(s.coeffs) - 1
    if degree < 1:
        raise DegenerateSeries("series needs at least two coefficients")
    window = max(3, degree // 4)
    start = max(0, degree - window)
    mods = [modulus(a) for a in s.coeffs]
    for l in range(start, degree + 1):
        if mods[l] == 0.0:
            raise DegenerateSeries(
                f"coefficient {l} vanishes inside the ratio window"
            )
    factor = _GLOBAL_MUL_FACTOR[s.kind]
    global_bound = min(
        mods[l] / (factor * mods[l + 1]) for l in range(start, degree)
    )
    coeff_parts = [plane_split(a) for a in s.coeffs]
    n_planes = len(coeff_parts[0])
    canonical = []
    for j in range(n_planes):
        best = math.inf
        for l in range(start, degree):
            num = abs(coeff_parts[l][j])
            den = abs(coeff_parts[l + 1][j])
            ratio = math.inf if den == 0.0 else num / den
            best = min(best, ratio)
        canonical.append(best)
    return ConvergenceBounds(global_bound=global_bound, canonical=tuple(canonical))


# -- analyticity checks ----------------------------------------------------

# An analytic f = P + alpha Q + beta R + gamma S has df/dx_k = e_k f' and
# d2f/dx_i dx_j = e_i e_j f'' (variables indexed x=0..t=3), so the kind's
# analyticity relations are read off its unit products.

def _first_order_chains(table: tuple) -> tuple:
    """Chain c lists (m, k, s) with e_k*e_c = s*e_m; the partials s*D[m][k]
    are equal along it, giving the kind's 12 Riemann-type relations."""
    return tuple(tuple((m, k, s) for k, (m, s) in enumerate(column))
                 for column in zip(*table))


def _second_order_relations(table: tuple) -> tuple:
    """(i, j, k, l, -s1*s2) for each two index pairs with e_i e_j = s1*e_m
    and e_k e_l = s2*e_m: d2/didj - s1*s2 * d2/dkdl = 0."""
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    return tuple((i, j, k, l, -table[i][j][1] * table[k][l][1])
                 for n, (i, j) in enumerate(pairs) for k, l in pairs[n + 1:]
                 if table[i][j][0] == table[k][l][0])


_UNIT_PRODUCTS = {kind: _unit_products(kind) for kind in AlgebraKind}
_CHAINS = {k: _first_order_chains(t) for k, t in _UNIT_PRODUCTS.items()}
_SECOND_ORDER = {k: _second_order_relations(t) for k, t in _UNIT_PRODUCTS.items()}


def _shift(u: Quad, j: int, h: float) -> Quad:
    c = list(u.components)
    c[j] += h
    return Quad(u.kind, *c)


def check_analytic(f, u0: Quad, h: float = 1e-5) -> float:
    """Max violation of the kind's 12 first-order analyticity relations.

    All 16 first partials of the components P, Q, R, S are estimated by
    central differences of step h.
    """
    if h <= 0.0:
        raise ValueError(f"step h must be positive, got {h!r}")
    # D[comp][var]
    D = [[0.0] * 4 for _ in range(4)]
    for j in range(4):
        up = f(_shift(u0, j, h)).components
        um = f(_shift(u0, j, -h)).components
        for i in range(4):
            D[i][j] = (up[i] - um[i]) / (2.0 * h)
    worst = 0.0
    for chain in _CHAINS[u0.kind]:
        vals = [sign * D[comp][var] for comp, var, sign in chain]
        for a, b in zip(vals, vals[1:]):
            worst = max(worst, abs(a - b))
    return worst


def check_second_order(f, u0: Quad, h: float = 1e-4) -> float:
    """Max residual of the kind's second-order equations on all components."""
    if h <= 0.0:
        raise ValueError(f"step h must be positive, got {h!r}")
    f0 = f(u0).components
    cache: dict[tuple[int, int], tuple[float, ...]] = {}

    def second(i: int, j: int) -> tuple[float, ...]:
        key = (min(i, j), max(i, j))
        if key in cache:
            return cache[key]
        if i == j:
            fp = f(_shift(u0, i, h)).components
            fm = f(_shift(u0, i, -h)).components
            val = tuple((fp[c] - 2.0 * f0[c] + fm[c]) / (h * h) for c in range(4))
        else:
            fpp = f(_shift(_shift(u0, i, h), j, h)).components
            fpm = f(_shift(_shift(u0, i, h), j, -h)).components
            fmp = f(_shift(_shift(u0, i, -h), j, h)).components
            fmm = f(_shift(_shift(u0, i, -h), j, -h)).components
            val = tuple(
                (fpp[c] - fpm[c] - fmp[c] + fmm[c]) / (4.0 * h * h)
                for c in range(4)
            )
        cache[key] = val
        return val

    worst = 0.0
    for i, j, k, l, sign in _SECOND_ORDER[u0.kind]:
        d1 = second(i, j)
        d2 = second(k, l)
        for c in range(4):
            worst = max(worst, abs(d1[c] + sign * d2[c]))
    return worst
