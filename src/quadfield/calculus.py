"""Series, analyticity checks, and loop integration.

* Power series with Horner evaluation, a decoupled per-plane evaluator
  (the cross-check oracle), and tail-ratio convergence estimates.
* Numerical verification of the first-order (Riemann-type) relations and
  the second-order Laplace/wave/mixed equations each kind's analytic
  functions satisfy, via central finite differences; both sets of
  relations are read off the kind's unit products.
* Loop integration, one split part at a time: the adaptive periodic
  trapezoid rule on circles (Trefethen and Weideman, SIAM Review 56(3),
  2014), the chord rule on polylines.  The integral of du/(u - u0) picks
  up the kind's residue unit of each complex plane of the split (2*pi*i
  on that plane, joined back), times the signed winding number of the
  loop's projection about the pole's; hyperbolic loops of regular
  functions always vanish.
"""

from __future__ import annotations

import math
import warnings

from .algebra_core import AlgebraKind, Quad, QuadfieldError, modulus, mul, zero
from .algebra_core import (_IS_PLANE, _overflow, _Record, _require_same_kind,
                           _split_basis, _unit_products, plane_join,
                           plane_split)

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
_LOOP_TOL = 1e-12   # relative agreement that stops the tangent rule


class DegenerateSeries(QuadfieldError):
    """Raised when tail coefficients vanish and ratio estimates are undefined."""


class SingularOnPath(QuadfieldError):
    """Raised when the integrand fails to evaluate at a loop sample."""


class OnBoundary(QuadfieldError):
    """Raised when a pole or winding query point lies on a loop projection."""


class NearBoundaryWarning(UserWarning):
    """A pole's plane projection is dangerously close to the loop projection."""


# -- series ---------------------------------------------------------------

class SeriesSpec(_Record):
    """Coefficients a0..aL of sum a_l * u**l, all of one kind."""

    __slots__ = ("kind", "coeffs")

    def __post_init__(self) -> None:
        if self.kind.__class__ is not AlgebraKind:
            raise TypeError(f"kind must be AlgebraKind, got {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least one coefficient")
        for a in self.coeffs:
            if a.kind is not self.kind:
                raise ValueError(f"kind mismatch: {a.kind} coefficient in "
                                 f"{self.kind} series")


class ConvergenceBounds(_Record):
    """Tail-ratio estimates; `global_bound` is in modulus units |u|,
    `canonical` is one radius per decoupled plane/line (plane-projection
    units)."""

    __slots__ = ("global_bound", "canonical")


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


# -- loops and integration --------------------------------------------------

def _ring(i: int, samples: int) -> complex:
    th = 2.0 * _PI * i / samples
    return complex(math.cos(th), math.sin(th))


def _circle_map(plane: str, center: Quad, radius: float, psi, fixed_angle):
    """ring -> the split parts of a circle's point (see Loop); affine."""
    kind = center.kind
    c = plane_split(center)
    if kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR):
        r_plus = _SQRT2 * radius * math.sin(psi)
        r_minus = _SQRT2 * radius * math.cos(psi)
        fixed = complex(math.cos(fixed_angle), math.sin(fixed_angle))
        if plane == "plus":
            w2 = c[1] + r_minus * fixed
            return lambda ring: (c[0] + r_plus * ring, w2)
        w1 = c[0] + r_plus * fixed
        return lambda ring: (w1, c[1] + r_minus * ring)
    if kind is AlgebraKind.HYPERBOLIC:
        k = 0 if plane == "plus" else 2
        return lambda ring: c[:k] + (c[k] + radius * ring.real,
                                     c[k + 1] + radius * ring.imag) + c[k + 2:]
    r = _SQRT2 * radius
    return lambda ring: (c[0], c[1], c[2] + r * ring)


class Loop(_Record):
    """Closed polyline of Quad samples (first == last, >= 8 segments).

    Build with :meth:`from_points`, or :meth:`circle`, whose loops keep
    their circle (the fields after ``points``, which must give the points)
    for the tangent rule and the prediction: circular/planar circles live
    at fixed angle psi, winding in the plus or minus distinguished plane
    with radii r*sin(psi) / r*cos(psi); polar circles wind in the
    (v1, v1~) plane with v+ and v- frozen at the center's values;
    hyperbolic circles wind in the (s, s') or (s'', s''') coordinate
    pair.  Radii and centers are in canonical-chart units.
    """

    __slots__ = ("points", "plane", "center", "radius", "psi", "fixed_angle")
    _optional = 5

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
        if self.radius is not None:  # the circle must give the points
            s, kind = len(self.points) - 1, first.kind
            try:
                at = _circle_map(*self._values()[1:])
                fits = all(self.points[i] == plane_join(kind, at(_ring(i, s)))
                           for i in (0, s // 3, 2 * s // 3))
            except (AttributeError, TypeError, ValueError):
                fits = False
            if not fits:
                raise ValueError("the circle fields do not give the points")

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
        charted = kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR)
        if charted and not 0.0 < psi < _PI / 2.0:
            raise ValueError(f"psi must lie in (0, pi/2), got {psi!r}")
        if kind is AlgebraKind.POLAR and plane != "plus":
            raise ValueError(
                "polar circles wind only in the (v1, v1~) plane; "
                "use plane='plus'"
            )
        at = _circle_map(plane, center, radius, psi, fixed_angle)
        pts = [plane_join(kind, at(_ring(i, samples))) for i in range(samples)]
        return cls(
            points=tuple(pts + pts[:1]),
            plane=plane,
            center=center,
            radius=float(radius),
            psi=float(psi) if charted else None,
            fixed_angle=float(fixed_angle) if charted else None,
        )


def _split_value(f, loop: Loop, i: int) -> tuple:
    p = loop.points[i]
    try:
        v = f(p)
    except (QuadfieldError, ArithmeticError, ValueError) as exc:
        raise SingularOnPath(f"integrand failed at sample {i}: {exc}") from exc
    _require_same_kind(v, p)
    return plane_split(v)


def _tangent_sums(f, loop: Loop) -> list:
    """The tangent rule's split parts; see :func:`integrate_loop`."""
    at = _circle_map(*loop._values()[1:])
    origin = at(0j)
    s = n = len(loop.points) - 1
    while n % 2 == 0 and n >= 16:
        n //= 2
    sums, sizes, last = [0.0] * len(origin), [0.0] * len(origin), None

    def add(nodes, sums, sizes):
        for i in nodes:
            du = [a - b for a, b in zip(at(1j * _ring(i, s)), origin)]
            for j, (v, d) in enumerate(zip(_split_value(f, loop, i), du)):
                term = v * d
                sums[j] += term
                sizes[j] += abs(term)
        return sums

    def close(x, y, weight=1.0):
        return all(abs(a - b) <= weight * _LOOP_TOL * h * m
                   for a, b, m in zip(x, y, sizes))

    add(range(0, s, s // n), sums, sizes)
    while True:
        h = _TWO_PI / n
        now = [h * t for t in sums]
        if n == s:
            return now
        if last and close(now, last):
            # The n/2 nodes turned by one sample see a mode at a multiple
            # of n below s, which both nested sums alias alike (1/u^17 at
            # n = 16), turned by 2*pi*n/s or more: weight bounds its part.
            turned = add(range(1, s, 2 * s // n), [0.0] * len(sums), sizes[:])
            weight = 2.0 * math.sin(_PI * n / s)
            if close([2.0 * h * t for t in turned], last, weight):
                return now
        last = now
        add(range(s // n // 2, s, s // n), sums, sizes)
        n *= 2


def integrate_loop(f, loop: Loop) -> Quad:
    """The loop integral of f(u) du, summed one split part at a time and
    joined once; results are deterministic for a given loop.

    A :meth:`Loop.circle` loop of s samples gets the periodic trapezoid
    rule on f(u) du/dtheta over every (s/n)-th sample, n doubling from the
    least s/2^k >= 8 until n = s or, in every split part, the n and n/2
    sums agree to 1e-12 of the summed moduli of the n terms, and the n/2
    sum agrees with the one turned by one sample (against aliasing) to
    2*sin(pi*n/s) times that.  Other loops add, per segment, the
    endpoint-average of f times the increment du.

    Raises:
        SingularOnPath: f failed to evaluate at sample i of loop.points.
        ResultOverflow: the integral lies beyond the range of a double.
    """
    if loop.radius is not None:
        totals = _tangent_sums(f, loop)
    else:
        values = [_split_value(f, loop, i) for i in range(len(loop.points) - 1)]
        values.append(values[0])
        totals = []
        for us, fs in zip(zip(*map(plane_split, loop.points)), zip(*values)):
            total = 0.0
            for i in range(len(us) - 1):
                total += (fs[i] + fs[i + 1]) * 0.5 * (us[i + 1] - us[i])
            totals.append(total)
    try:
        return plane_join(loop.kind, tuple(totals))
    except ValueError:
        raise _overflow(loop.kind, "loop integral") from None


# -- winding and residues ----------------------------------------------------

class WindingQuery(_Record):
    """Point-in-closed-polygon query in one projection plane."""

    __slots__ = ("point2d", "polygon2d")

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
    projection about the pole's (a circle for a :meth:`Loop.circle` loop,
    else a polygon), and the sums are joined back once.  Hyperbolic
    predictions are identically 0.

    Raises:
        OnBoundary: a pole projection lies on a loop projection.
    Warns:
        NearBoundaryWarning: a pole projection is within 1e-6 of a loop
            projection (quadrature accuracy degrades).
    """
    kind = loop.kind
    planes = [j for j, plane in enumerate(_IS_PLANE[kind]) if plane]
    if not planes:
        return zero(kind)
    if loop.radius is None:
        # Loop allows a closing gap: each projection closes on its first vertex.
        splits = [plane_split(p) for p in loop.points[:-1]]
        projections = {j: tuple((w[j].real, w[j].imag)
                                for w in splits + splits[:1]) for j in planes}
    else:
        at = _circle_map(*loop._values()[1:])
        mid, rim = at(0j), at(1 + 0j)
    total = [0.0] * len(_IS_PLANE[kind])
    for u_j, a_j in poles:
        if u_j.kind is not kind or a_j.kind is not kind:
            raise ValueError("pole kind does not match loop kind")
        pole_parts = plane_split(u_j)
        a_parts = plane_split(a_j)
        for plane_idx, j in enumerate(planes):
            w = pole_parts[j]
            pt = (w.real, w.imag)
            if loop.radius is None:
                dist = _polygon_distance(pt, projections[j])
            else:
                off, r = abs(w - mid[j]), abs(rim[j] - mid[j])
                dist = abs(off - r)
            if dist < 1e-6:
                warnings.warn(
                    f"pole projection {pt} is within {dist:.2e} of the loop "
                    f"projection in plane {plane_idx}",
                    NearBoundaryWarning,
                    stacklevel=2,
                )
            if dist < 1e-9:
                raise OnBoundary(f"point {pt} lies on the polygon boundary")
            n = (int(off < r) if loop.radius is not None else
                 winding(WindingQuery(point2d=pt, polygon2d=projections[j])))
            if n:
                total[j] += _TWO_PI_I * n * a_parts[j]
    return plane_join(kind, tuple(total))
