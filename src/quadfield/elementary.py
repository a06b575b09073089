"""Elementary functions on the four algebras.

exp, log, real powers and the trigonometric/hyperbolic functions, plus the
two families of four-dimensional cosexponential functions:

* f4k (planar family) — the four mod-4 splittings of the alternating
  exponential series; closed forms combine cos/cosh at argument x/sqrt(2).
* g4k (polar family) — the mod-4 splittings of the plain exponential
  series; closed forms are half-sums of cosh/cos and sinh/sin.

exp, cos, sin, cosh and sinh are evaluated one decoupled plane at a time
(the plane maps are ring homomorphisms) through ``_planewise``: split,
apply the ``cmath`` function on each complex plane and the ``math``
function on each real line, join.  ``exp_factored`` keeps the component
factorization exp(u) = e^x * exp(alpha y) * exp(beta z) * exp(gamma t) as
an oracle; the addition-theorem fold over per-unit tables is a test
oracle only and never runs here.  log also works one plane at a time and
takes every azimuthal angle in [0, 2*pi).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .algebra_core import (
    AlgebraKind,
    Quad,
    ResultOverflow,
    _domain_split,
    mul,
    plane_join,
    plane_split,
    scale,
)

__all__ = [
    "CosexpFamily",
    "CosexpKind",
    "ResultOverflow",
    "f4",
    "g4",
    "cosexp",
    "cosexp_series",
    "exp",
    "exp_factored",
    "log",
    "pow_real",
    "cos",
    "sin",
    "cosh",
    "sinh",
]

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi


class CosexpFamily(enum.Enum):
    PLANAR_F = "planar_f"
    POLAR_G = "polar_g"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class CosexpKind:
    """One of the eight cosexponential functions: family plus index k."""

    family: CosexpFamily
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.family, CosexpFamily):
            raise TypeError(f"family must be CosexpFamily, got {self.family!r}")
        if self.k not in (0, 1, 2, 3):
            raise ValueError(f"index k must be 0..3, got {self.k!r}")


def f4(k: int) -> CosexpKind:
    return CosexpKind(CosexpFamily.PLANAR_F, k)


def g4(k: int) -> CosexpKind:
    return CosexpKind(CosexpFamily.POLAR_G, k)


def cosexp(kind: CosexpKind, x: float) -> float:
    """Closed-form value of f4k(x) or g4k(x).

    Raises:
        ResultOverflow: if the value lies beyond the range of a double.
    """
    try:
        value = _cosexp_closed(kind, x)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ResultOverflow(
            f"{kind.family.value} k={kind.k} at x={x!r} exceeds the range "
            f"of a double"
        )
    return value


def _cosexp_closed(kind: CosexpKind, x: float) -> float:
    if kind.family is CosexpFamily.PLANAR_F:
        a = x / _SQRT2
        if kind.k == 0:
            return math.cos(a) * math.cosh(a)
        if kind.k == 1:
            return (math.sin(a) * math.cosh(a) + math.sinh(a) * math.cos(a)) / _SQRT2
        if kind.k == 2:
            return math.sin(a) * math.sinh(a)
        return (math.sin(a) * math.cosh(a) - math.sinh(a) * math.cos(a)) / _SQRT2
    if kind.k == 0:
        return (math.cosh(x) + math.cos(x)) / 2.0
    if kind.k == 1:
        return (math.sinh(x) + math.sin(x)) / 2.0
    if kind.k == 2:
        return (math.cosh(x) - math.cos(x)) / 2.0
    return (math.sinh(x) - math.sin(x)) / 2.0


def cosexp_series(kind: CosexpKind, x: float, terms: int) -> float:
    """Truncated defining series sum_{l<terms} (+-1)^l x^(4l+k)/(4l+k)!.

    Exists as an independent oracle for :func:`cosexp`; the closed forms
    are preferred at runtime because the series terms cancel badly for
    large |x|.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms!r}")
    k = kind.k
    sign = -1.0 if kind.family is CosexpFamily.PLANAR_F else 1.0
    term = x**k / math.factorial(k)
    total = term
    x4 = sign * x**4
    for l in range(terms - 1):
        n = 4 * l + k
        term *= x4 / ((n + 1) * (n + 2) * (n + 3) * (n + 4))
        total += term
    return total


# -- exp -------------------------------------------------------------------

def _exp_unit_factors(u: Quad) -> tuple[Quad, Quad, Quad]:
    """exp(alpha*y), exp(beta*z), exp(gamma*t) from the closed component forms."""
    kind = u.kind
    y, z, t = u.y, u.z, u.t
    if kind is AlgebraKind.CIRCULAR:
        return (
            Quad(kind, math.cos(y), math.sin(y), 0.0, 0.0),
            Quad(kind, math.cos(z), 0.0, math.sin(z), 0.0),
            Quad(kind, math.cosh(t), 0.0, 0.0, math.sinh(t)),
        )
    if kind is AlgebraKind.HYPERBOLIC:
        return (
            Quad(kind, math.cosh(y), math.sinh(y), 0.0, 0.0),
            Quad(kind, math.cosh(z), 0.0, math.sinh(z), 0.0),
            Quad(kind, math.cosh(t), 0.0, 0.0, math.sinh(t)),
        )
    if kind is AlgebraKind.PLANAR:
        fy = [cosexp(f4(k), y) for k in range(4)]
        ft = [cosexp(f4(k), t) for k in range(4)]
        return (
            Quad(kind, fy[0], fy[1], fy[2], fy[3]),
            Quad(kind, math.cos(z), 0.0, math.sin(z), 0.0),
            Quad(kind, ft[0], ft[3], -ft[2], ft[1]),
        )
    gy = [cosexp(g4(k), y) for k in range(4)]
    gt = [cosexp(g4(k), t) for k in range(4)]
    return (
        Quad(kind, gy[0], gy[1], gy[2], gy[3]),
        Quad(kind, math.cosh(z), 0.0, math.sinh(z), 0.0),
        Quad(kind, gt[0], gt[3], gt[2], gt[1]),
    )


def _planewise(u: Quad, complex_fn, real_fn) -> Quad:
    """Evaluate an analytic function on each split part of u and join.

    Each plane map is a continuous unital ring homomorphism, so it carries
    any convergent power series in u to the same series in the part.

    Raises:
        ResultOverflow: a part's value, or a component of the joined
            value, lies beyond the range of a double.
    """
    try:
        return plane_join(u.kind, [
            complex_fn(p) if p.__class__ is complex else real_fn(p)
            for p in plane_split(u)
        ])
    except (OverflowError, ValueError):
        # math/cmath raise OverflowError; an infinite joined component
        # makes Quad raise ValueError.
        raise ResultOverflow(
            f"{u.kind} {real_fn.__name__} of {u.components} exceeds the "
            f"range of a double") from None


def exp(u: Quad) -> Quad:
    """Exponential; equals e^x times the unit-direction factors.

    Evaluated per decoupling plane rather than by multiplying the factor
    quads out: the factors grow like cosh of each component and cancel
    against each other, which for large mixed components would cost up to
    half the available digits (pow_real feeds n*log(u) in here, where the
    angle components alone reach 2*pi*n).  The per-plane exponentials are
    the same analytic function with no cancellation.
    """
    return _planewise(u, cmath.exp, math.exp)


def exp_factored(u: Quad) -> Quad:
    """The textbook assembly exp(x)*exp(alpha y)*exp(beta z)*exp(gamma t).

    Identical to :func:`exp` analytically; kept for auditability against
    the component factorization and used by tests as a cross-check.
    """
    ea, eb, eg = _exp_unit_factors(u)
    return scale(mul(mul(ea, eb), eg), math.exp(u.x))


# -- log / powers ------------------------------------------------------------

def _log_plane(w: complex) -> complex:
    return complex(math.log(abs(w)), math.atan2(w.imag, w.real) % _TWO_PI)


def log(u: Quad) -> Quad:
    """Principal logarithm; angles in [0, 2*pi), defined off the nodal sets.

    Raises:
        DomainError: on or outside the kind's validity domain (same domain
            as exp_form).
    """
    return plane_join(u.kind, [
        _log_plane(p) if p.__class__ is complex else math.log(p)
        for p in _domain_split(u, "log")
    ])


def pow_real(u: Quad, n: float) -> Quad:
    """u**n as exp(n * log u) on the log domain."""
    return exp(scale(log(u), float(n)))


# -- trigonometric / hyperbolic ----------------------------------------------

def cos(u: Quad) -> Quad:
    return _planewise(u, cmath.cos, math.cos)


def sin(u: Quad) -> Quad:
    return _planewise(u, cmath.sin, math.sin)


def cosh(u: Quad) -> Quad:
    return _planewise(u, cmath.cosh, math.cosh)


def sinh(u: Quad) -> Quad:
    return _planewise(u, cmath.sinh, math.sinh)
