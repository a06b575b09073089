"""Series, analyticity checks, and loop integration.

* Power series with Horner evaluation, a decoupled per-plane evaluator
  (the cross-check oracle), and tail-ratio convergence estimates.
* Numerical verification of the first-order (Riemann-type) relations and
  the second-order Laplace/wave/mixed equations each kind's analytic
  functions satisfy, via central finite differences; both sets of
  relations are read off the kind's unit products.
* Trapezoidal loop integration of Quad-valued integrands with the
  closed-form residue predictions: the loop integral of du/(u - u0) picks
  up the kind's residue unit of each complex plane of the split (2*pi*i
  on that plane, joined back), times the signed winding number of the
  loop's projection about the pole's; hyperbolic loops of regular
  functions always vanish.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .algebra_core import AlgebraKind, Quad, QuadfieldError, modulus, mul, scale, zero
from .algebra_core import _split_basis, _unit_products
from .canonical import CANONICAL_BASES, plane_join, plane_split

__all__ = [
    "SeriesSpec",
    "Loop",
    "WindingQuery",
    "ConvergenceBounds",
    "DegenerateSeries",
    "SingularOnPath",
    "OnBoundary",
    "NearBoundaryWarning",
    "RESIDUE_UNITS",
    "eval_series",
    "eval_series_canonical",
    "convergence_bounds",
    "check_analytic",
    "check_second_order",
    "integrate_loop",
    "winding",
    "residue_prediction",
]

_SQRT2 = math.sqrt(2.0)
_PI = math.pi
_TWO_PI = 2.0 * _PI
_TWO_PI_I = complex(0.0, _TWO_PI)


class DegenerateSeries(QuadfieldError):
    """Raised when tail coefficients vanish and ratio estimates are undefined."""


class SingularOnPath(QuadfieldError):
    """Raised when the integrand fails to evaluate at a loop sample."""


class OnBoundary(QuadfieldError):
    """Raised when a winding query point lies on the polygon boundary."""


class NearBoundaryWarning(UserWarning):
    """A pole's plane projection is dangerously close to the loop projection."""


# -- series ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SeriesSpec:
    """Coefficients a0..aL of sum a_l * u**l, all of one kind."""

    kind: AlgebraKind
    coeffs: tuple[Quad, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least one coefficient")
        for a in self.coeffs:
            if a.kind is not self.kind:
                raise ValueError(f"kind mismatch: {a.kind} coefficient in "
                                 f"{self.kind} series")


@dataclass(frozen=True, slots=True)
class ConvergenceBounds:
    """Tail-ratio estimates; `global_bound` is in modulus units |u|,
    `canonical` is one radius per decoupled plane/line (plane-projection
    units)."""

    global_bound: float
    canonical: tuple[float, ...]


def eval_series(s: SeriesSpec, u: Quad) -> Quad:
    """Horner evaluation of the series at u."""
    if u.kind is not s.kind:
        raise ValueError(f"kind mismatch: {u.kind} point in {s.kind} series")
    acc = s.coeffs[-1]
    for a in reversed(s.coeffs[:-1]):
        acc = mul(acc, u) + a
    return acc


def eval_series_canonical(s: SeriesSpec, u: Quad) -> Quad:
    """Decoupled evaluation: per-plane scalar Horner, then rejoin.

    Mathematically identical to :func:`eval_series` because the plane
    maps are ring homomorphisms; serves as its independent oracle.
    """
    if u.kind is not s.kind:
        raise ValueError(f"kind mismatch: {u.kind} point in {s.kind} series")
    coeff_parts = [plane_split(a) for a in s.coeffs]
    u_parts = plane_split(u)
    out = []
    for j, w in enumerate(u_parts):
        acc = coeff_parts[-1][j]
        for parts in reversed(coeff_parts[:-1]):
            acc = acc * w + parts[j]
        out.append(acc)
    return plane_join(s.kind, tuple(out))


# |uv| <= c*|u|*|v| with the sharp c = 1/|e| for the shortest element e of
# the idempotent basis: the split parts are orthogonal, with weights |e|^2.
_GLOBAL_MUL_FACTOR = {
    kind: math.sqrt(1.0 / min(sum(c * c for c in e.components) for e in basis))
    for kind, basis in CANONICAL_BASES.items()
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


# -- loops and integration --------------------------------------------------

@dataclass(frozen=True, slots=True)
class Loop:
    """Closed polyline of Quad samples (first == last, >= 8 segments).

    Build with :meth:`from_points`, or :meth:`circle` which expands the
    per-kind circle parametrizations: circular/planar circles live at
    fixed angle psi, winding in the plus or minus distinguished plane
    with radii r*sin(psi) / r*cos(psi); polar circles wind in the
    (v1, v1~) plane with v+ and v- frozen at the center's values (only
    the plus plane carries residues); hyperbolic circles wind in the
    (s, s') or (s'', s''') coordinate pair.  Radii and centers are in
    canonical-chart units.
    """

    points: tuple[Quad, ...]
    plane: str | None = None
    center: Quad | None = None
    radius: float | None = None
    psi: float | None = None
    fixed_angle: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 9:
            raise ValueError(
                f"loop needs at least 8 segments, got {len(self.points) - 1}"
            )
        first, last = self.points[0], self.points[-1]
        for p in self.points:
            if p.kind is not first.kind:
                raise ValueError("loop mixes kinds")
        gap = max(abs(a - b) for a, b in zip(first.components, last.components))
        if gap > 1e-12 * max(1.0, modulus(first)):
            raise ValueError(f"loop is not closed: first/last gap {gap:.3e}")

    @property
    def kind(self) -> AlgebraKind:
        return self.points[0].kind

    @classmethod
    def from_points(cls, points) -> "Loop":
        points = list(points)
        if points:
            points[-1] = points[0]  # snap exact closure
        return cls(points=tuple(points))

    @classmethod
    def circle(
        cls,
        center: Quad,
        radius: float,
        plane: str = "plus",
        samples: int = 4096,
        psi: float = _PI / 4.0,
        fixed_angle: float = 0.0,
    ) -> "Loop":
        if plane not in ("plus", "minus"):
            raise ValueError(f"plane must be 'plus' or 'minus', got {plane!r}")
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius!r}")
        if samples < 8:
            raise ValueError(f"need at least 8 samples, got {samples!r}")
        kind = center.kind
        parts0 = plane_split(center)
        pts: list[Quad] = []
        if kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR):
            if not 0.0 < psi < _PI / 2.0:
                raise ValueError(f"psi must lie in (0, pi/2), got {psi!r}")
            # Chart radii scale by sqrt(2) in plane-projection units.
            r_plus = _SQRT2 * radius * math.sin(psi)
            r_minus = _SQRT2 * radius * math.cos(psi)
            fixed = complex(math.cos(fixed_angle), math.sin(fixed_angle))
            for i in range(samples):
                th = 2.0 * _PI * i / samples
                ring = complex(math.cos(th), math.sin(th))
                if plane == "plus":
                    w1 = parts0[0] + r_plus * ring
                    w2 = parts0[1] + r_minus * fixed
                else:
                    w1 = parts0[0] + r_plus * fixed
                    w2 = parts0[1] + r_minus * ring
                pts.append(plane_join(kind, (w1, w2)))
        elif kind is AlgebraKind.HYPERBOLIC:
            for i in range(samples):
                th = 2.0 * _PI * i / samples
                c, s = radius * math.cos(th), radius * math.sin(th)
                if plane == "plus":
                    parts = (parts0[0] + c, parts0[1] + s, parts0[2], parts0[3])
                else:
                    parts = (parts0[0], parts0[1], parts0[2] + c, parts0[3] + s)
                pts.append(plane_join(kind, parts))
        else:
            if plane != "plus":
                raise ValueError(
                    "polar circles wind only in the (v1, v1~) plane; "
                    "use plane='plus'"
                )
            for i in range(samples):
                th = 2.0 * _PI * i / samples
                w1 = parts0[2] + _SQRT2 * radius * complex(math.cos(th),
                                                           math.sin(th))
                pts.append(plane_join(kind, (parts0[0], parts0[1], w1)))
        pts.append(pts[0])
        return cls(
            points=tuple(pts),
            plane=plane,
            center=center,
            radius=float(radius),
            psi=float(psi) if kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR)
            else None,
            fixed_angle=float(fixed_angle)
            if kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR) else None,
        )


def integrate_loop(f, loop: Loop) -> Quad:
    """Trapezoidal quadrature of the loop integral of f(u) du.

    du is the Quad increment between consecutive samples; segment
    contributions use the endpoint-average of f.  Summation order is
    fixed, so results are deterministic for a given loop.

    Raises:
        SingularOnPath: f failed to evaluate at some sample.
    """
    values: list[Quad] = []
    for i, p in enumerate(loop.points[:-1]):
        try:
            values.append(f(p))
        except (QuadfieldError, ArithmeticError, ValueError) as exc:
            raise SingularOnPath(
                f"integrand failed at sample {i}: {exc}"
            ) from exc
    values.append(values[0])
    total = zero(loop.kind)
    for i in range(len(loop.points) - 1):
        du = loop.points[i + 1] - loop.points[i]
        avg = scale(values[i] + values[i + 1], 0.5)
        total = total + mul(avg, du)
    return total


# -- winding and residues ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class WindingQuery:
    """Point-in-closed-polygon query in one projection plane."""

    point2d: tuple[float, float]
    polygon2d: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "polygon2d", tuple((float(a), float(b)) for a, b in self.polygon2d)
        )
        object.__setattr__(
            self, "point2d", (float(self.point2d[0]), float(self.point2d[1]))
        )
        if len(self.polygon2d) < 4:
            raise ValueError("polygon needs at least three vertices plus closure")
        if self.polygon2d[0] != self.polygon2d[-1]:
            raise ValueError("polygon is not closed (first != last)")


def _segment_distance(px: float, py: float, x1: float, y1: float,
                      x2: float, y2: float) -> float:
    dx, dy = x2 - x1, y2 - y1
    norm2 = dx * dx + dy * dy
    if norm2 == 0.0:
        return math.hypot(px - x1, py - y1)
    s = ((px - x1) * dx + (py - y1) * dy) / norm2
    s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
    return math.hypot(px - (x1 + s * dx), py - (y1 + s * dy))


def _polygon_distance(point: tuple[float, float],
                      poly: tuple[tuple[float, float], ...]) -> float:
    px, py = point
    return min(
        _segment_distance(px, py, *poly[i], *poly[i + 1])
        for i in range(len(poly) - 1)
    )


def winding(q: WindingQuery) -> int:
    """Signed winding number of the closed polygon about the point.

    Counter-clockwise turns count +1 and clockwise turns -1 (Hormann and
    Agathos, "The point in polygon problem for arbitrary polygons", CGTA
    20(3), 2001): each edge crossing the horizontal ray to the right of
    the point adds the sign of its upward or downward direction.

    Raises:
        OnBoundary: the point lies within 1e-9 of the polygon.
    """
    if _polygon_distance(q.point2d, q.polygon2d) < 1e-9:
        raise OnBoundary(f"point {q.point2d} lies on the polygon boundary")
    px, py = q.point2d
    n = 0
    poly = q.polygon2d
    for i in range(len(poly) - 1):
        x1, y1 = poly[i]
        x2, y2 = poly[i + 1]
        if (y1 > py) != (y2 > py):
            # side of the point relative to the edge; > 0 means left
            side = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)
            if y2 > y1 and side > 0.0:
                n += 1
            elif y2 < y1 and side < 0.0:
                n -= 1
    return n


def _residue_units(kind: AlgebraKind) -> tuple[Quad, Quad]:
    """2*pi*i on one complex plane of the split, joined back; zero-padded."""
    found = [plane_join(kind, tuple(_TWO_PI * p for p in b))
             for b in _split_basis(kind) if 1j in b]
    return tuple(found + [zero(kind)] * (2 - len(found)))


# Residue units: the value of the loop integral of du/(u - u0) when the
# pole's projection is enclosed once in the plus (resp. minus)
# distinguished plane.  Hyperbolic loops carry no residue at all; polar
# residues arise only from the (v1, v1~) plane.
RESIDUE_UNITS: dict[AlgebraKind, tuple[Quad, Quad]] = {
    kind: _residue_units(kind) for kind in AlgebraKind}


def residue_prediction(poles, loop: Loop) -> Quad:
    """Closed-form prediction of the loop integral of sum a_j/(u - u_j).

    The winding planes are the complex entries of ``plane_split``; in each,
    2*pi*i times a_j's split entry counts once per signed turn of the loop's
    projection about the pole's, and the sums are joined back once.
    Hyperbolic predictions are identically 0.

    Raises:
        OnBoundary: a pole projection lies on a loop projection.
    Warns:
        NearBoundaryWarning: a pole projection is within 1e-6 of a loop
            projection (quadrature accuracy degrades).
    """
    kind = loop.kind
    splits = [plane_split(p) for p in loop.points]
    planes = [j for j, p in enumerate(splits[0]) if p.__class__ is complex]
    if not planes:
        return zero(kind)
    projections = [tuple((w[j].real, w[j].imag) for w in splits)
                   for j in planes]
    total = [0.0] * len(splits[0])
    for u_j, a_j in poles:
        if u_j.kind is not kind or a_j.kind is not kind:
            raise ValueError("pole kind does not match loop kind")
        pole_parts = plane_split(u_j)
        a_parts = plane_split(a_j)
        for plane_idx, (j, poly) in enumerate(zip(planes, projections)):
            pt = (pole_parts[j].real, pole_parts[j].imag)
            dist = _polygon_distance(pt, poly)
            if dist < 1e-6:
                warnings.warn(
                    f"pole projection {pt} is within {dist:.2e} of the loop "
                    f"projection in plane {plane_idx}",
                    NearBoundaryWarning,
                    stacklevel=2,
                )
            n = winding(WindingQuery(point2d=pt, polygon2d=poly))
            if n:
                total[j] += _TWO_PI_I * n * a_parts[j]
    return plane_join(kind, tuple(total))
