"""Oracle for the loop layer and the inverse exponential chart.

These are `calculus.integrate_loop`, the sample loops of `Loop.circle`
and `canonical.from_exp_form` as they were before they ran on the split:
the chord rule in 4-D `Quad` arithmetic, one join per circle sample
with the fixed plane recomputed each time, and the exponent `Quad` of an
exp form passed to `elementary.exp`.  `tangent_integral` is the periodic
trapezoid rule on all samples of a circle, every turn of it, in 4-D
`Quad` arithmetic.
`tests/test_loop_oracle.py` checks the split versions against them.
"""

import math

from quadfield import elementary
from quadfield.algebra_core import (
    AlgebraKind,
    Quad,
    QuadfieldError,
    mul,
    plane_join,
    plane_split,
    scale,
    zero,
)
from quadfield.calculus import SingularOnPath
from quadfield.canonical import ExpForm, _checked

_SQRT2 = math.sqrt(2.0)
_PI = math.pi


def circle_points(center: Quad, radius: float, plane: str = "plus",
                  samples: int = 4096, psi: float = _PI / 4.0,
                  fixed_angle: float = 0.0, turns: int = 1) -> tuple:
    """The points of `Loop.circle` on valid arguments, closure included:
    one counter-clockwise turn, reversed after its first point when turns
    is negative, run |turns| times."""
    kind = center.kind
    parts0 = plane_split(center)
    pts: list[Quad] = []
    if kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR):
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
        for i in range(samples):
            th = 2.0 * _PI * i / samples
            w1 = parts0[2] + _SQRT2 * radius * complex(math.cos(th),
                                                       math.sin(th))
            pts.append(plane_join(kind, (parts0[0], parts0[1], w1)))
    if turns < 0:
        pts = pts[:1] + pts[:0:-1]
    return tuple(pts * abs(turns) + pts[:1])


def integrate_loop(f, loop) -> Quad:
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


def tangent_integral(f, center: Quad, radius: float, plane: str = "plus",
                     samples: int = 4096, psi: float = _PI / 4.0,
                     fixed_angle: float = 0.0, turns: int = 1) -> Quad:
    """The periodic trapezoid rule on all samples of a `Loop.circle` loop,
    in 4-D `Quad` arithmetic: (2*pi/S) * sum f(u_k) u'(theta_k).

    The circle is u(theta) = m + cos(theta) A + sin(theta) B, so
    u'(theta) = -sin(theta) A + cos(theta) B, with A and B read off its
    points at theta = 0, pi/2, pi and 3*pi/2.  A loop of `turns` turns
    runs theta_k = 2*pi*k/S * sign(turns) for k < |turns|*S, every sample
    of every turn summed.
    """
    pts = circle_points(center, radius, plane, samples, psi, fixed_angle,
                        turns)
    quarter = circle_points(center, radius, plane, 4, psi, fixed_angle)
    a = scale(quarter[0] - quarter[2], 0.5)
    b = scale(quarter[1] - quarter[3], 0.5)
    sign = 1 if turns > 0 else -1
    total = zero(center.kind)
    for k in range(abs(turns) * samples):
        th = sign * 2.0 * _PI * k / samples
        du = scale(a, -math.sin(th)) + scale(b, math.cos(th))
        total = total + mul(f(pts[k]), du)
    return scale(total, sign * 2.0 * _PI / samples)


def _exponent_quad(f: ExpForm) -> Quad:
    """The Quad whose exponential reconstructs the value of an ExpForm."""
    kind = f.kind
    if kind is AlgebraKind.CIRCULAR:
        return Quad(
            kind,
            math.log(f.rho),
            (f.phi + f.chi) / 2.0,
            (f.phi - f.chi) / 2.0,
            0.5 * math.log(math.tan(f.psi)),
        )
    if kind is AlgebraKind.PLANAR:
        half_sum = (f.phi + f.chi) / (2.0 * _SQRT2)
        log_tan = math.log(math.tan(f.psi)) / (2.0 * _SQRT2)
        return Quad(
            kind,
            math.log(f.rho),
            half_sum + log_tan,
            (f.phi - f.chi) / 2.0,
            half_sum - log_tan,
        )
    if kind is AlgebraKind.HYPERBOLIC:
        return Quad(kind, math.log(f.mu), f.y1, f.z1, f.t1)
    l_plus = math.log(_SQRT2 / math.tan(f.theta_plus))
    l_minus = math.log(_SQRT2 / math.tan(f.theta_minus))
    diff = (l_plus - l_minus) / 4.0
    return Quad(
        AlgebraKind.POLAR,
        math.log(f.rho),
        diff + f.phi / 2.0,
        (l_plus + l_minus) / 4.0,
        diff - f.phi / 2.0,
    )


def from_exp_form(f: ExpForm) -> Quad:
    """Evaluate the exponential form back into a Quad (inverse of exp_form).

    Raises:
        DomainError: a field is not finite or lies outside its range,
            naming the field.
        ResultOverflow: the value lies beyond the range of a double.
    """
    return elementary.exp(_exponent_quad(_checked(f)))
