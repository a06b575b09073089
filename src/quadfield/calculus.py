"""Loop integration and residues (series and analyticity: ``series``).

Sums run one split part at a time: the adaptive periodic trapezoid rule
on circles, which are maps evaluated where the rule needs them
(Trefethen and Weideman, SIAM Review 56(3), 2014), the chord rule on
polylines.  The integral of du/(u - u0) picks up the kind's residue unit
of each complex plane of the split (2*pi*i on that plane, joined back),
times the signed winding number of the loop's projection about the
pole's; hyperbolic loops of regular functions always vanish.
"""

from __future__ import annotations

import math
import sys
import warnings

from .algebra_core import (_IS_PLANE, AlgebraKind, Quad, QuadfieldError,
                           _join, _quad, _Record, _require_same_kind,
                           _split_basis, modulus, plane_join, plane_split, zero)

__all__ = [
    "Loop",
    "WindingQuery",
    "SingularOnPath",
    "OnBoundary",
    "NearBoundaryWarning",
    "RESIDUE_UNITS",
    "integrate_loop",
    "winding",
    "residue_prediction",
]

_SQRT2 = math.sqrt(2.0)
_PI = math.pi
_TWO_PI = 2.0 * _PI
_TWO_PI_I = complex(0.0, _TWO_PI)
_LOOP_TOL = 1e-12   # relative agreement that stops the tangent rule
_CHARTED = (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR)   # circles with psi


def _finite(name: str, value) -> float:
    """A circle field as a float; ValueError naming the field unless it is
    a finite int or float (a bool, as JSON true loads, is not a number)."""
    if value.__class__ is bool or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:   # inf, NaN, an int past 1.8e308
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


class SingularOnPath(QuadfieldError):
    """Raised when the integrand fails to evaluate at a loop sample."""


class OnBoundary(QuadfieldError):
    """Raised when a pole or winding query point lies on a loop projection."""


class NearBoundaryWarning(UserWarning):
    """A pole's plane projection is dangerously close to the loop projection."""


# -- loops and integration --------------------------------------------------

def _ring(i: int, samples: int) -> complex:
    th = 2.0 * _PI * i / samples
    return complex(math.cos(th), math.sin(th))


def _circle_map(loop: "Loop"):
    """ring -> the split parts of a circle's point (see Loop); affine."""
    kind, radius = loop.center.kind, loop.radius
    c = plane_split(loop.center)
    if kind in _CHARTED:
        r_plus = _SQRT2 * radius * math.sin(loop.psi)
        r_minus = _SQRT2 * radius * math.cos(loop.psi)
        fixed = complex(math.cos(loop.fixed_angle), math.sin(loop.fixed_angle))
        if loop.plane == "plus":
            w2 = c[1] + r_minus * fixed
            return lambda ring: (c[0] + r_plus * ring, w2)
        w1 = c[0] + r_plus * fixed
        return lambda ring: (w1, c[1] + r_minus * ring)
    if kind is AlgebraKind.HYPERBOLIC:
        k = 0 if loop.plane == "plus" else 2
        return lambda ring: c[:k] + (c[k] + radius * ring.real,
                                     c[k + 1] + radius * ring.imag) + c[k + 2:]
    r = _SQRT2 * radius
    return lambda ring: (c[0], c[1], c[2] + r * ring)


class Loop(_Record):
    """A closed polyline of Quad samples, or a circle wound ``turns`` times.

    Build a polyline with :meth:`from_points` (first == last, >= 8
    segments), a circle with :meth:`circle`.  Circular/planar circles live
    at fixed angle psi, winding in the plus or minus distinguished plane
    with radii r*sin(psi) / r*cos(psi); polar circles wind in the (v1, v1~)
    plane with v+ and v- frozen at the center's values; hyperbolic circles
    wind in the (s, s') or (s'', s''') coordinate pair.  Radii and centers
    are in canonical-chart units.  One turn is ``samples`` points, counter-
    clockwise; negative ``turns`` run clockwise.  A circle is its map: its
    ``points`` field is None, and ``loop.points`` is built on first read.
    """

    __slots__ = ("points", "plane", "center", "radius", "psi", "fixed_angle",
                 "samples", "turns")
    _optional = 7

    def __post_init__(self) -> None:
        if self.center is not None:
            return self._check_circle()
        if any(v is not None for v in self._values()[1:]):
            raise ValueError("a polyline loop takes no circle fields; "
                             "build circles with Loop.circle")
        _POINTS.__set__(self, tuple(self.points))
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

    def _check_circle(self) -> None:
        if _POINTS.__get__(self) is not None:
            raise ValueError("a circle loop takes no points; it builds them")
        if self.plane not in ("plus", "minus"):
            raise ValueError(f"plane must be 'plus' or 'minus', got {self.plane!r}")
        object.__setattr__(self, "radius", _finite("radius", self.radius))
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if self.samples.__class__ is not int or self.samples < 8:
            raise ValueError(
                f"samples must be an integer >= 8, got {self.samples!r}")
        if self.turns.__class__ is not int or not _finite("turns", self.turns):
            raise ValueError(f"turns must be a nonzero integer, got {self.turns!r}")
        kind = self.center.kind
        if kind in _CHARTED:
            object.__setattr__(self, "psi", _finite("psi", self.psi))
            object.__setattr__(self, "fixed_angle",
                               _finite("fixed_angle", self.fixed_angle))
            if not 0.0 < self.psi < _PI / 2.0:
                raise ValueError(
                    f"psi must lie in (0, pi/2), got {self.psi!r}")
        if kind is AlgebraKind.POLAR and self.plane != "plus":
            raise ValueError(
                "polar circles wind only in the (v1, v1~) plane; "
                "use plane='plus'"
            )

    def _values(self) -> tuple:
        # A circle's points, once built, are a cache and not its field.
        points = None if self.radius is not None else self.points
        return (points,) + tuple(getattr(self, n) for n in self.__slots__[1:])

    @property
    def kind(self) -> AlgebraKind:
        return (self.points[0] if self.radius is None else self.center).kind

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
        turns: int = 1,
    ) -> "Loop":
        charted = center.kind in _CHARTED
        return cls(points=None, plane=plane, center=center,
                   radius=radius, psi=psi if charted else None,
                   fixed_angle=fixed_angle if charted else None,
                   samples=samples, turns=turns)


# The slot behind the ``points`` field: Loop.points reads it, and builds
# and stores a circle's points there on first access.
_POINTS = Loop.points


def _loop_points(loop: Loop) -> tuple:
    points = _POINTS.__get__(loop)
    if points is None:
        s, at = loop.samples, _circle_map(loop)
        turn = [plane_join(loop.kind, at(_ring(i, s))) for i in range(s)]
        if loop.turns < 0:
            turn[1:] = turn[:0:-1]
        points = tuple(turn * abs(loop.turns) + turn[:1])
        _POINTS.__set__(loop, points)
    return points


Loop.points = property(_loop_points, doc="The samples, closure included.")


def _split_value(f, p: Quad, i: int) -> tuple:
    try:
        v = f(p)
    except (QuadfieldError, ArithmeticError, ValueError) as exc:
        raise SingularOnPath(f"integrand failed at sample {i}: {exc}") from exc
    _require_same_kind(v, p)
    return plane_split(v)


def _tangent_sums(f, loop: Loop) -> list:
    """The tangent rule's split parts on one counter-clockwise turn; see
    :func:`integrate_loop`."""
    kind, at = loop.kind, _circle_map(loop)
    origin = at(0j)
    s = n = loop.samples
    while n % 2 == 0 and n >= 16:
        n //= 2
    sums, sizes, last = [0.0] * len(origin), [0.0] * len(origin), None

    def add(nodes, sums, sizes):
        for i in nodes:
            ring = _ring(i, s)
            du = [a - b for a, b in zip(at(1j * ring), origin)]
            # sample i of the turn is points[-i % s] on a clockwise loop
            value = _split_value(f, plane_join(kind, at(ring)),
                                 i if loop.turns > 0 else -i % s)
            for j, (v, d) in enumerate(zip(value, du)):
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

    A :meth:`Loop.circle` loop of s samples gets ``turns`` times the
    periodic trapezoid rule on f(u) du/dtheta over one counter-clockwise
    turn, evaluated on the circle's map (its points are not built).  The
    rule takes every (s/n)-th sample, n doubling from the least
    s/2^k >= 8 until n = s or, in every split part, the n and n/2 sums
    agree to 1e-12 of the summed moduli of the n terms, and the n/2 sum
    agrees with the one turned by one sample (against aliasing) to
    2*sin(pi*n/s) times that.  Other loops add, per segment, the
    endpoint-average of f times the increment du.

    Raises:
        SingularOnPath: f failed to evaluate at sample i of loop.points.
        ResultOverflow: the integral lies beyond the range of a double.
    """
    if loop.radius is not None:
        totals = _tangent_sums(f, loop)
    else:
        values = [_split_value(f, p, i) for i, p in enumerate(loop.points[:-1])]
        values.append(values[0])
        totals = []
        for us, fs in zip(zip(*map(plane_split, loop.points)), zip(*values)):
            total = 0.0
            for i in range(len(us) - 1):
                total += (fs[i] + fs[i + 1]) * 0.5 * (us[i + 1] - us[i])
            totals.append(total)
    return _join_turns(loop, totals, "loop integral")


def _join_turns(loop: Loop, totals: list, what: str) -> Quad:
    """Join split totals (a circle's: of one turn, times its turns)."""
    if loop.radius is not None and loop.turns != 1:
        totals = [loop.turns * t for t in totals]
    return _quad(loop.kind, *_join(loop.kind, totals), what)


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
    return _crossings(q.point2d, q.polygon2d)


def _crossings(point: tuple[float, float],
               poly: tuple[tuple[float, float], ...]) -> int:
    """:func:`winding` of a point off the closed float polygon."""
    px, py = point
    n = 0
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
    projection about the pole's, and the sums are joined back once.  A
    :meth:`Loop.circle` loop's projection is a circle run ``turns`` times,
    so a pole inside it counts ``turns`` and one outside 0; its points are
    not built.  Other loops' projections are polygons.  Hyperbolic
    predictions are identically 0.

    Raises:
        OnBoundary: a pole projection lies on a loop projection.
        ResultOverflow: the prediction lies beyond the range of a double.
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
        at = _circle_map(loop)
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
            n = (_crossings(pt, projections[j]) if loop.radius is None
                 else int(off < r))
            if n:
                total[j] += _TWO_PI_I * n * a_parts[j]
    return _join_turns(loop, total, "residue prediction")
