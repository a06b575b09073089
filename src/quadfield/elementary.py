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
function on each real line, join.  The component factorization
exp(u) = e^x * exp(alpha y) * exp(beta z) * exp(gamma t) and the
addition-theorem fold over per-unit tables are test oracles only and
never run here.  log and pow_real also work one plane at a time, and log
takes every azimuthal angle in [0, 2*pi).
"""

from __future__ import annotations

import cmath
import enum
import math

from .algebra_core import (
    AlgebraKind,
    Quad,
    ResultOverflow,
    _domain_split,
    _join,
    _overflow,
    _quad,
    _Record,
    plane_split,
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

    def __str__(self) -> str:
        return self.value


class CosexpKind(_Record):
    """One of the eight cosexponential functions: family plus index k."""

    __slots__ = ("family", "k")

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
        raise _overflow(kind.family, f"k={kind.k} at x={x!r}")
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

def _planewise(u: Quad, complex_fn, real_fn, parts=None) -> Quad:
    """Evaluate an analytic function on each split part of u (or on its
    ``parts``, split and checked by the caller) and join.

    Each plane map is a continuous unital ring homomorphism, so it carries
    any convergent power series in u to the same series in the part.

    Raises:
        ResultOverflow: a part's value, or a component of the joined
            value, lies beyond the range of a double.
    """
    try:
        return _quad(u.kind, *_join(u.kind, [
            complex_fn(p) if p.__class__ is complex else real_fn(p)
            for p in (plane_split(u) if parts is None else parts)
        ]), "value")
    except (OverflowError, ValueError):
        # also math/cmath's ValueError on a part that the split overflowed
        what = f"{real_fn.__name__} of {u.components}"
        raise _overflow(u.kind, what) from None


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


# -- log / powers ------------------------------------------------------------

def _log_plane(w: complex) -> complex:
    return complex(math.log(abs(w)), math.atan2(w.imag, w.real) % _TWO_PI)


def log(u: Quad) -> Quad:
    """Principal logarithm; angles in [0, 2*pi), defined off the nodal sets.

    Raises:
        DomainError: on or outside the kind's validity domain (same domain
            as exp_form).
    """
    return _planewise(u, _log_plane, math.log, _domain_split(u, "log"))


def pow_real(u: Quad, n: float) -> Quad:
    """u**n as exp(n * log u) one split part at a time: DomainError off
    the log domain, ResultOverflow beyond the range of a double."""
    n = float(n)
    if not math.isfinite(n):
        raise ValueError(f"exponent must be finite, got {n!r}")

    def power(x: float) -> float:
        return math.exp(n * math.log(x))

    return _planewise(u, lambda w: cmath.exp(n * _log_plane(w)), power,
                      _domain_split(u, "log"))


# -- trigonometric / hyperbolic ----------------------------------------------

def cos(u: Quad) -> Quad:
    return _planewise(u, cmath.cos, math.cos)


def sin(u: Quad) -> Quad:
    return _planewise(u, cmath.sin, math.sin)


def cosh(u: Quad) -> Quad:
    return _planewise(u, cmath.cosh, math.cosh)


def sinh(u: Quad) -> Quad:
    return _planewise(u, cmath.sinh, math.sinh)
