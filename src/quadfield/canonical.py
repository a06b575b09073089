"""Canonical coordinates, idempotent bases, and exponential/trigonometric forms.

Each algebra admits a linear change of variables in which multiplication
decouples:

* circular / planar — two scaled 2-D complex planes (xi, upsilon) and
  (tau, zeta); the idempotent pairs (e1, e1~) and (e2, e2~) span them.
* hyperbolic — four independent real lines s, s', s'', s''' spanned by the
  orthogonal idempotents e, e', e'', e'''.
* polar — two real lines v+, v- (idempotents e+, e-) plus one 2-D complex
  plane (v1, v1~) spanned by (e1, e1~).

``plane_split``/``plane_join`` (defined in ``algebra_core`` and
re-exported here) expose the decoupling as plain complex/real numbers;
every map is an exact unital ring homomorphism per plane, which is what
makes the exponential forms, logarithms, series and factorizations in the
other modules one-plane-at-a-time computations.  The canonical
coordinates are the split parts themselves, flattened and scaled;
``canonical_mul`` multiplies them part by part, and each idempotent-basis
element is the join of one split-basis vector (1, or i on a plane).  Only
the record types, their scales and the exponential/trigonometric charts
are written out per kind.  The exponential chart, both ways, runs on the
split parts, so this module imports only the core.
"""

from __future__ import annotations

import cmath
import math

from .algebra_core import (
    _IS_PLANE,
    AlgebraKind,
    DomainError,
    Quad,
    _domain_split,
    _flatten,
    _join,
    _overflow,
    _quad,
    _Record,
    _split_basis,
    modulus,
    plane_join,
    plane_split,
)

__all__ = [
    "CanonicalCircular",
    "CanonicalHyperbolic",
    "CanonicalPlanar",
    "CanonicalPolar",
    "ExpForm",
    "TrigForm",
    "DomainError",
    "to_canonical",
    "from_canonical",
    "canonical_mul",
    "plane_split",
    "plane_join",
    "exp_form",
    "from_exp_form",
    "trig_form",
    "from_trig_form",
    "expform_to_dict",
    "expform_from_dict",
    "CANONICAL_BASES",
    "CIRCULAR_E1",
    "CIRCULAR_E1_TILDE",
    "CIRCULAR_E2",
    "CIRCULAR_E2_TILDE",
    "HYPERBOLIC_E",
    "HYPERBOLIC_E_PRIME",
    "HYPERBOLIC_E_DOUBLE_PRIME",
    "HYPERBOLIC_E_TRIPLE_PRIME",
    "PLANAR_E1",
    "PLANAR_E1_TILDE",
    "PLANAR_E2",
    "PLANAR_E2_TILDE",
    "POLAR_E_PLUS",
    "POLAR_E_MINUS",
    "POLAR_E1",
    "POLAR_E1_TILDE",
]

_SQRT2 = math.sqrt(2.0)
_FOURTH_ROOT2 = 2.0 ** 0.25
_TWO_PI = 2.0 * math.pi
_NORMAL_MIN = 2.2250738585072014e-308   # smallest normal double


# -- canonical coordinate records ----------------------------------------

class CanonicalCircular(_Record):
    __slots__ = ("xi", "upsilon", "tau", "zeta")


class CanonicalHyperbolic(_Record):
    __slots__ = ("s", "s_prime", "s_double_prime", "s_triple_prime")


class CanonicalPlanar(_Record):
    __slots__ = ("xi", "upsilon", "tau", "zeta")


class CanonicalPolar(_Record):
    __slots__ = ("v_plus", "v_minus", "v1", "v1_tilde")


CanonicalCoords = (
    CanonicalCircular | CanonicalHyperbolic | CanonicalPlanar | CanonicalPolar
)

_CANONICAL_TYPE = {
    AlgebraKind.CIRCULAR: CanonicalCircular,
    AlgebraKind.HYPERBOLIC: CanonicalHyperbolic,
    AlgebraKind.PLANAR: CanonicalPlanar,
    AlgebraKind.POLAR: CanonicalPolar,
}

_KIND_OF_CANONICAL = {v: k for k, v in _CANONICAL_TYPE.items()}


# -- idempotent / canonical bases ----------------------------------------

# Each basis element is the join of one split-basis vector: 1 on a real
# line (an idempotent), 1 or i on a complex plane (an idempotent and its
# tilde partner, which squares to minus it).
CANONICAL_BASES: dict[AlgebraKind, tuple[Quad, ...]] = {
    kind: tuple(plane_join(kind, b) for b in _split_basis(kind))
    for kind in AlgebraKind
}

CIRCULAR_E1, CIRCULAR_E1_TILDE, CIRCULAR_E2, CIRCULAR_E2_TILDE = (
    CANONICAL_BASES[AlgebraKind.CIRCULAR])
(HYPERBOLIC_E, HYPERBOLIC_E_PRIME, HYPERBOLIC_E_DOUBLE_PRIME,
 HYPERBOLIC_E_TRIPLE_PRIME) = CANONICAL_BASES[AlgebraKind.HYPERBOLIC]
PLANAR_E1, PLANAR_E1_TILDE, PLANAR_E2, PLANAR_E2_TILDE = (
    CANONICAL_BASES[AlgebraKind.PLANAR])
POLAR_E_PLUS, POLAR_E_MINUS, POLAR_E1, POLAR_E1_TILDE = (
    CANONICAL_BASES[AlgebraKind.POLAR])


# -- coordinate maps ------------------------------------------------------

# The canonical coordinates are the plane_split parts, a plane flattened to
# (real, imag), divided by the kind's scale: sqrt(2) on the circular and
# planar planes, 1 on the hyperbolic and polar lines and plane.
_CANONICAL_SCALE = {
    AlgebraKind.CIRCULAR: _SQRT2,
    AlgebraKind.HYPERBOLIC: 1.0,
    AlgebraKind.PLANAR: _SQRT2,
    AlgebraKind.POLAR: 1.0,
}


def _regroup(c: CanonicalCoords, scale: float) -> tuple:
    """The record's fields, times scale, grouped back into split parts."""
    flat = iter([scale * getattr(c, name) for name in c.__match_args__])
    return tuple(complex(next(flat), next(flat)) if plane else next(flat)
                 for plane in _IS_PLANE[_KIND_OF_CANONICAL[type(c)]])


def to_canonical(u: Quad) -> CanonicalCoords:
    """Linear map into the kind's decoupling coordinates."""
    c = _CANONICAL_SCALE[u.kind]
    return _CANONICAL_TYPE[u.kind](*[v / c for v in _flatten(plane_split(u))])


def _finite_fields(record):
    """record, after a ValueError naming its first NaN or inf float field."""
    for name, v in zip(record.__match_args__, record._values()):
        if v.__class__ is float and v - v:
            raise ValueError(f"{type(record).__name__} field {name}={v!r} "
                             "is not finite")
    return record


def from_canonical(c: CanonicalCoords) -> Quad:
    """Inverse of :func:`to_canonical`; ValueError naming a field that is
    not finite, ResultOverflow past the double range."""
    kind = _KIND_OF_CANONICAL[type(c)]
    parts = _regroup(_finite_fields(c), _CANONICAL_SCALE[kind])
    return _quad(kind, *_join(kind, parts), "canonical value")


def canonical_mul(c1: CanonicalCoords, c2: CanonicalCoords) -> CanonicalCoords:
    """Product expressed directly in canonical coordinates.

    The fields regroup into the split parts, which multiply one by one
    (complex products on the planes, real ones on the lines); the result
    is scaled by the kind's scale (sqrt(2) for circular/planar, else 1).
    """
    if type(c1) is not type(c2):
        raise ValueError(f"kind mismatch: {type(c1).__name__} vs {type(c2).__name__}")
    c = _CANONICAL_SCALE[_KIND_OF_CANONICAL[type(c1)]]
    products = [p * q for p, q in zip(_regroup(c1, 1.0), _regroup(c2, 1.0))]
    return type(c1)(*[c * v for v in _flatten(products)])


# -- exponential form ------------------------------------------------------

class ExpForm(_Record):
    """Amplitude-and-angles representation on the kind's validity domain.

    Fields by kind (others None):

    * circular / planar: rho > 0, phi, chi in [0, 2*pi), psi in (0, pi/2)
    * hyperbolic: mu > 0 and the real exponents y1, z1, t1
    * polar: rho > 0, theta_plus, theta_minus in (0, pi/2), phi in [0, 2*pi)
    """

    __slots__ = ("kind", "rho", "phi", "chi", "psi", "mu", "y1", "z1", "t1",
                 "theta_plus", "theta_minus")
    _optional = 10

    def __post_init__(self) -> None:
        if self.kind.__class__ is not AlgebraKind:
            raise TypeError(f"kind must be AlgebraKind, got {self.kind!r}")
        required = _EXPFORM_FIELDS[self.kind]
        for name in self.__slots__[1:]:
            given = getattr(self, name) is not None
            if given is not (name in required):
                raise ValueError(f"{self.kind} exp form "
                                 + ("does not take" if given else "requires")
                                 + f" field {name}")


# Each kind's fields with their ranges, checked by from_exp_form and
# exp_form: the periodic phi and chi and the free y1, z1, t1 need only be
# finite.  No double equals pi/2 and math.pi / 2 rounds below it, so
# lo < v <= hi keeps every range open.
_POSITIVE = (0.0, math.inf, " > 0")
_ANGLE = (0.0, math.pi / 2.0, " in (0, pi/2)")
_FINITE = (-math.inf, math.inf, "")
_EXPFORM_FIELDS = {
    AlgebraKind.CIRCULAR: {"rho": _POSITIVE, "phi": _FINITE, "chi": _FINITE,
                           "psi": _ANGLE},
    AlgebraKind.PLANAR: {"rho": _POSITIVE, "phi": _FINITE, "chi": _FINITE,
                         "psi": _ANGLE},
    AlgebraKind.HYPERBOLIC: {"mu": _POSITIVE, "y1": _FINITE, "z1": _FINITE,
                             "t1": _FINITE},
    AlgebraKind.POLAR: {"rho": _POSITIVE, "theta_plus": _ANGLE,
                        "theta_minus": _ANGLE, "phi": _FINITE},
}


def _checked(f: ExpForm) -> ExpForm:
    """f, after checking every field against its range in _EXPFORM_FIELDS.

    Raises:
        DomainError: naming the first field that is not finite or lies
            outside its range.
    """
    for name, (lo, hi, text) in _EXPFORM_FIELDS[f.kind].items():
        v = getattr(f, name)
        if not (lo < v <= hi and math.isfinite(v)):
            raise DomainError(
                f"{f.kind} exp form requires finite {name}{text}; got {v!r}")
    return f


def expform_to_dict(f: ExpForm) -> dict:
    d: dict = {"kind": f.kind.value}
    for name in _EXPFORM_FIELDS[f.kind]:
        d[name] = getattr(f, name)
    return d


def expform_from_dict(d: dict) -> ExpForm:
    if "kind" not in d:
        raise ValueError("exp form dict needs a 'kind' entry")
    return ExpForm(kind=AlgebraKind(d["kind"]),
                   **{k: float(v) for k, v in d.items() if k != "kind"})


def _angle(y: float, x: float) -> float:
    """Two-argument arctangent normalized to [0, 2*pi)."""
    return math.atan2(y, x) % _TWO_PI


def exp_form(u: Quad) -> ExpForm:
    """Extract amplitude and angles; rejects values outside the domain.

    rho is recomputed from square roots of its factors when their product
    overflows or falls below the smallest normal double, so it is not lost
    to an intermediate result.

    Raises:
        DomainError: naming the violated condition (never clamps — a
            rejected input is always within rounding of a nodal set or on
            the wrong side of one), or naming a field that leaves its range
            at the ends of the double range (psi = atan2(rho_plus,
            rho_minus) underflows to 0 when the ratio does), so every form
            returned is one that from_exp_form accepts.
    """
    kind = u.kind
    parts = _domain_split(u, "exp form")
    if kind is AlgebraKind.HYPERBOLIC:
        x, y1, z1, t1 = _join(kind, tuple(math.log(v) for v in parts))
        return _checked(ExpForm(kind=kind, mu=math.exp(x), y1=y1, z1=z1,
                                t1=t1))
    if kind is AlgebraKind.POLAR:
        vp, vm, w1 = parts
        try:
            mu_plus = abs(w1)
        except OverflowError:   # |w1| beyond the double range: rho fails below
            mu_plus = math.inf
        nu = vp * vm * mu_plus * mu_plus
        if _NORMAL_MIN <= nu < math.inf:
            rho = nu ** 0.25
        else:   # the product under- or overflowed
            rho = math.sqrt(math.sqrt(vp) * math.sqrt(vm)) * math.sqrt(mu_plus)
        return _checked(ExpForm(
            kind=kind,
            rho=rho,
            theta_plus=math.atan2(_SQRT2 * mu_plus, vp),
            theta_minus=math.atan2(_SQRT2 * mu_plus, vm),
            phi=_angle(w1.imag, w1.real),
        ))
    w1, w2 = parts
    rho_plus = math.hypot(w1.real, w1.imag)
    rho_minus = math.hypot(w2.real, w2.imag)
    rho_sq = rho_plus * rho_minus
    if _NORMAL_MIN <= rho_sq < math.inf:
        rho = math.sqrt(rho_sq)
    else:   # the product under- or overflowed
        rho = math.sqrt(rho_plus) * math.sqrt(rho_minus)
    return _checked(ExpForm(
        kind=kind,
        rho=rho,
        phi=_angle(w1.imag, w1.real),
        chi=_angle(w2.imag, w2.real),
        psi=math.atan2(rho_plus, rho_minus),
    ))


def _exp_parts(f: ExpForm) -> tuple:
    """The split parts of f's value: the readings of exp_form, inverted.

    Circular/planar: tan(psi) = rho_plus/rho_minus and
    rho^2 = rho_plus*rho_minus; polar: tan(theta_pm) = sqrt(2)*mu_plus/v_pm
    and rho^4 = v_plus*v_minus*mu_plus^2.
    Each amplitude is rho times a factor of the angles alone, so it over-
    or underflows only where the part itself does.
    """
    kind = f.kind
    if kind is AlgebraKind.HYPERBOLIC:
        logs = plane_split(Quad(kind, math.log(f.mu), f.y1, f.z1, f.t1))
        return tuple(math.exp(v) for v in logs)
    if kind is AlgebraKind.POLAR:
        rho = float(f.rho)   # _quad takes the joined parts as they are
        q_plus = math.tan(f.theta_plus) ** 0.25
        q_minus = math.tan(f.theta_minus) ** 0.25
        return (rho * (_FOURTH_ROOT2 * q_minus / q_plus ** 3),
                rho * (_FOURTH_ROOT2 * q_plus / q_minus ** 3),
                cmath.rect(f.rho * (q_plus * q_minus / _FOURTH_ROOT2), f.phi))
    root_tan = math.sqrt(math.tan(f.psi))
    return (cmath.rect(f.rho * root_tan, f.phi),
            cmath.rect(f.rho / root_tan, f.chi))


def from_exp_form(f: ExpForm) -> Quad:
    """Evaluate the exponential form back into a Quad (inverse of exp_form).

    Raises:
        DomainError: a field is not finite or lies outside its range,
            naming the field.
        ResultOverflow: the value lies beyond the range of a double.
    """
    try:
        parts = _exp_parts(_checked(f))
    except OverflowError:   # math.exp
        raise _overflow(f.kind, "exp form value") from None
    return _quad(f.kind, *_join(f.kind, parts), "exp form value")


# -- trigonometric form ----------------------------------------------------

class TrigForm(_Record):
    """Modulus-and-angles view: d plus the kind's angle chart.

    circular/planar/hyperbolic carry (phi, chi, psi); polar carries the
    (theta, lam, phi) chart in which cos(theta) = mu_plus/(sqrt(2) d) and
    tan(lam) = v_minus/v_plus.
    """

    __slots__ = ("kind", "d", "phi", "chi", "psi", "theta", "lam")
    _optional = 5


def trig_form(u: Quad) -> TrigForm:
    """Modulus d and angle chart; same validity domain as exp_form."""
    kind = u.kind
    d = modulus(u)
    if kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR):
        f = exp_form(u)
        return TrigForm(kind=kind, d=d, phi=f.phi, chi=f.chi, psi=f.psi)
    if kind is AlgebraKind.HYPERBOLIC:
        s, sp, spp, sppp = _domain_split(u, "trig form")
        return TrigForm(
            kind=kind,
            d=d,
            phi=math.atan2(sp, s),
            chi=math.atan2(sppp, spp),
            psi=math.atan2(math.hypot(spp, sppp), math.hypot(s, sp)),
        )
    vp, vm, w1 = _domain_split(u, "trig form")
    return TrigForm(
        kind=kind,
        d=d,
        theta=math.atan2(math.hypot(vp, vm) / 2.0, abs(w1) / _SQRT2),
        lam=math.atan2(vm, vp),
        phi=_angle(w1.imag, w1.real),
    )


def from_trig_form(f: TrigForm) -> Quad:
    """Reconstruct the Quad from its trigonometric form; ValueError naming
    a field that is not finite, ResultOverflow past the double range."""
    kind = _finite_fields(f).kind
    if kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR):
        r = f.d * _SQRT2
        parts = (cmath.rect(r * math.sin(f.psi), f.phi),
                 cmath.rect(r * math.cos(f.psi), f.chi))
    elif kind is AlgebraKind.HYPERBOLIC:   # the lines in pairs, as planes
        r = 2.0 * f.d
        parts = _flatten([cmath.rect(r * math.cos(f.psi), f.phi),
                          cmath.rect(r * math.sin(f.psi), f.chi)])
    else:
        r = 2.0 * f.d * math.sin(f.theta)
        parts = (r * math.cos(f.lam), r * math.sin(f.lam),
                 cmath.rect(_SQRT2 * f.d * math.cos(f.theta), f.phi))
    return _quad(kind, *_join(kind, parts), "trig form value")
