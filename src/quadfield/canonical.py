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
coordinates are the split parts themselves, flattened and scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import elementary
from .algebra_core import (
    AlgebraKind,
    DomainError,
    Quad,
    _domain_split,
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
_TWO_PI = 2.0 * math.pi


# -- canonical coordinate records ----------------------------------------

@dataclass(frozen=True, slots=True)
class CanonicalCircular:
    xi: float
    upsilon: float
    tau: float
    zeta: float


@dataclass(frozen=True, slots=True)
class CanonicalHyperbolic:
    s: float
    s_prime: float
    s_double_prime: float
    s_triple_prime: float


@dataclass(frozen=True, slots=True)
class CanonicalPlanar:
    xi: float
    upsilon: float
    tau: float
    zeta: float


@dataclass(frozen=True, slots=True)
class CanonicalPolar:
    v_plus: float
    v_minus: float
    v1: float
    v1_tilde: float


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

_H = 0.5 / _SQRT2  # 1/(2*sqrt(2))

CIRCULAR_E1 = Quad(AlgebraKind.CIRCULAR, 0.5, 0.0, 0.0, 0.5)
CIRCULAR_E1_TILDE = Quad(AlgebraKind.CIRCULAR, 0.0, 0.5, 0.5, 0.0)
CIRCULAR_E2 = Quad(AlgebraKind.CIRCULAR, 0.5, 0.0, 0.0, -0.5)
CIRCULAR_E2_TILDE = Quad(AlgebraKind.CIRCULAR, 0.0, 0.5, -0.5, 0.0)

HYPERBOLIC_E = Quad(AlgebraKind.HYPERBOLIC, 0.25, 0.25, 0.25, 0.25)
HYPERBOLIC_E_PRIME = Quad(AlgebraKind.HYPERBOLIC, 0.25, -0.25, 0.25, -0.25)
HYPERBOLIC_E_DOUBLE_PRIME = Quad(AlgebraKind.HYPERBOLIC, 0.25, 0.25, -0.25, -0.25)
HYPERBOLIC_E_TRIPLE_PRIME = Quad(AlgebraKind.HYPERBOLIC, 0.25, -0.25, -0.25, 0.25)

PLANAR_E1 = Quad(AlgebraKind.PLANAR, 0.5, _H, 0.0, -_H)
PLANAR_E1_TILDE = Quad(AlgebraKind.PLANAR, 0.0, _H, 0.5, _H)
PLANAR_E2 = Quad(AlgebraKind.PLANAR, 0.5, -_H, 0.0, _H)
PLANAR_E2_TILDE = Quad(AlgebraKind.PLANAR, 0.0, _H, -0.5, _H)

POLAR_E_PLUS = Quad(AlgebraKind.POLAR, 0.25, 0.25, 0.25, 0.25)
POLAR_E_MINUS = Quad(AlgebraKind.POLAR, 0.25, -0.25, 0.25, -0.25)
POLAR_E1 = Quad(AlgebraKind.POLAR, 0.5, 0.0, -0.5, 0.0)
POLAR_E1_TILDE = Quad(AlgebraKind.POLAR, 0.0, 0.5, 0.0, -0.5)

CANONICAL_BASES: dict[AlgebraKind, tuple[Quad, ...]] = {
    AlgebraKind.CIRCULAR: (
        CIRCULAR_E1,
        CIRCULAR_E1_TILDE,
        CIRCULAR_E2,
        CIRCULAR_E2_TILDE,
    ),
    AlgebraKind.HYPERBOLIC: (
        HYPERBOLIC_E,
        HYPERBOLIC_E_PRIME,
        HYPERBOLIC_E_DOUBLE_PRIME,
        HYPERBOLIC_E_TRIPLE_PRIME,
    ),
    AlgebraKind.PLANAR: (
        PLANAR_E1,
        PLANAR_E1_TILDE,
        PLANAR_E2,
        PLANAR_E2_TILDE,
    ),
    AlgebraKind.POLAR: (
        POLAR_E_PLUS,
        POLAR_E_MINUS,
        POLAR_E1,
        POLAR_E1_TILDE,
    ),
}


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

# Which split parts are complex planes, read off the split of 1.
_IS_PLANE = {
    kind: tuple(p.__class__ is complex
                for p in plane_split(Quad(kind, 1.0, 0.0, 0.0, 0.0)))
    for kind in AlgebraKind
}


def to_canonical(u: Quad) -> CanonicalCoords:
    """Linear map into the kind's decoupling coordinates."""
    c = _CANONICAL_SCALE[u.kind]
    flat = []
    for p in plane_split(u):
        if p.__class__ is complex:
            flat += (p.real / c, p.imag / c)
        else:
            flat.append(p / c)
    return _CANONICAL_TYPE[u.kind](*flat)


def from_canonical(c: CanonicalCoords) -> Quad:
    """Inverse of :func:`to_canonical`."""
    kind = _KIND_OF_CANONICAL[type(c)]
    scale = _CANONICAL_SCALE[kind]
    flat = iter([scale * getattr(c, name) for name in c.__slots__])
    return plane_join(kind, tuple(
        complex(next(flat), next(flat)) if plane else next(flat)
        for plane in _IS_PLANE[kind]))


def canonical_mul(c1: CanonicalCoords, c2: CanonicalCoords) -> CanonicalCoords:
    """Product expressed directly in canonical coordinates.

    Circular/planar: two independent complex products scaled by sqrt(2);
    hyperbolic: four real products; polar: two real products plus one
    plain complex product.
    """
    if type(c1) is not type(c2):
        raise ValueError(f"kind mismatch: {type(c1).__name__} vs {type(c2).__name__}")
    if isinstance(c1, (CanonicalCircular, CanonicalPlanar)):
        return type(c1)(
            xi=_SQRT2 * (c1.xi * c2.xi - c1.upsilon * c2.upsilon),
            upsilon=_SQRT2 * (c1.xi * c2.upsilon + c1.upsilon * c2.xi),
            tau=_SQRT2 * (c1.tau * c2.tau - c1.zeta * c2.zeta),
            zeta=_SQRT2 * (c1.tau * c2.zeta + c1.zeta * c2.tau),
        )
    if isinstance(c1, CanonicalHyperbolic):
        return CanonicalHyperbolic(
            s=c1.s * c2.s,
            s_prime=c1.s_prime * c2.s_prime,
            s_double_prime=c1.s_double_prime * c2.s_double_prime,
            s_triple_prime=c1.s_triple_prime * c2.s_triple_prime,
        )
    return CanonicalPolar(
        v_plus=c1.v_plus * c2.v_plus,
        v_minus=c1.v_minus * c2.v_minus,
        v1=c1.v1 * c2.v1 - c1.v1_tilde * c2.v1_tilde,
        v1_tilde=c1.v1 * c2.v1_tilde + c1.v1_tilde * c2.v1,
    )


# -- exponential form ------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ExpForm:
    """Amplitude-and-angles representation on the kind's validity domain.

    Fields by kind (others None):

    * circular / planar: rho > 0, phi, chi in [0, 2*pi), psi in (0, pi/2)
    * hyperbolic: mu > 0 and the real exponents y1, z1, t1
    * polar: rho > 0, theta_plus, theta_minus in (0, pi/2), phi in [0, 2*pi)
    """

    kind: AlgebraKind
    rho: float | None = None
    phi: float | None = None
    chi: float | None = None
    psi: float | None = None
    mu: float | None = None
    y1: float | None = None
    z1: float | None = None
    t1: float | None = None
    theta_plus: float | None = None
    theta_minus: float | None = None

    def __post_init__(self) -> None:
        for name in _EXPFORM_FIELDS[self.kind]:
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} exp form requires field {name}")
        for name in _EXPFORM_UNUSED[self.kind]:
            if getattr(self, name) is not None:
                raise ValueError(f"{self.kind} exp form does not take field {name}")


_EXPFORM_FIELDS = {
    AlgebraKind.CIRCULAR: ("rho", "phi", "chi", "psi"),
    AlgebraKind.PLANAR: ("rho", "phi", "chi", "psi"),
    AlgebraKind.HYPERBOLIC: ("mu", "y1", "z1", "t1"),
    AlgebraKind.POLAR: ("rho", "theta_plus", "theta_minus", "phi"),
}

_EXPFORM_UNUSED = {
    kind: tuple(name for name in ExpForm.__slots__
                if name != "kind" and name not in required)
    for kind, required in _EXPFORM_FIELDS.items()
}


def expform_to_dict(f: ExpForm) -> dict:
    d: dict = {"kind": f.kind.value}
    for name in _EXPFORM_FIELDS[f.kind]:
        d[name] = getattr(f, name)
    return d


def expform_from_dict(d: dict) -> ExpForm:
    if "kind" not in d:
        raise ValueError("exp form dict needs a 'kind' entry")
    kind = AlgebraKind(d["kind"])
    required = _EXPFORM_FIELDS[kind]
    extra = set(d) - set(required) - {"kind"}
    if extra:
        raise ValueError(f"unexpected exp form field(s): {sorted(extra)}")
    missing = [name for name in required if name not in d]
    if missing:
        raise ValueError(f"{kind} exp form dict missing field(s): {missing}")
    return ExpForm(kind=kind, **{name: float(d[name]) for name in required})


def _angle(y: float, x: float) -> float:
    """Two-argument arctangent normalized to [0, 2*pi)."""
    return math.atan2(y, x) % _TWO_PI


def exp_form(u: Quad) -> ExpForm:
    """Extract amplitude and angles; rejects values outside the domain.

    Raises:
        DomainError: naming the violated condition (never clamps — a
            rejected input is always within rounding of a nodal set or on
            the wrong side of one).
    """
    kind = u.kind
    parts = _domain_split(u, "exp form")
    if kind is AlgebraKind.HYPERBOLIC:
        s, sp, spp, sppp = (math.log(v) for v in parts)
        return ExpForm(
            kind=kind,
            mu=math.exp((s + sp + spp + sppp) / 4.0),
            y1=(s - sp + spp - sppp) / 4.0,
            z1=(s + sp - spp - sppp) / 4.0,
            t1=(s - sp - spp + sppp) / 4.0,
        )
    if kind is AlgebraKind.POLAR:
        vp, vm, w1 = parts
        mu_plus = abs(w1)
        return ExpForm(
            kind=kind,
            rho=(vp * vm * mu_plus * mu_plus) ** 0.25,
            theta_plus=math.atan2(_SQRT2 * mu_plus, vp),
            theta_minus=math.atan2(_SQRT2 * mu_plus, vm),
            phi=_angle(w1.imag, w1.real),
        )
    w1, w2 = parts
    rho_plus = math.hypot(w1.real, w1.imag)
    rho_minus = math.hypot(w2.real, w2.imag)
    return ExpForm(
        kind=kind,
        rho=math.sqrt(rho_plus * rho_minus),
        phi=_angle(w1.imag, w1.real),
        chi=_angle(w2.imag, w2.real),
        psi=math.atan2(rho_plus, rho_minus),
    )


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
        ResultOverflow: the value lies beyond the range of a double.
    """
    return elementary.exp(_exponent_quad(f))


# -- trigonometric form ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class TrigForm:
    """Modulus-and-angles view: d plus the kind's angle chart.

    circular/planar/hyperbolic carry (phi, chi, psi); polar carries the
    (theta, lam, phi) chart in which cos(theta) = mu_plus/(sqrt(2) d) and
    tan(lam) = v_minus/v_plus.
    """

    kind: AlgebraKind
    d: float
    phi: float | None = None
    chi: float | None = None
    psi: float | None = None
    theta: float | None = None
    lam: float | None = None


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
    """Reconstruct the Quad from its trigonometric form."""
    kind = f.kind
    if kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR):
        w1 = f.d * _SQRT2 * math.sin(f.psi) * complex(math.cos(f.phi),
                                                      math.sin(f.phi))
        w2 = f.d * _SQRT2 * math.cos(f.psi) * complex(math.cos(f.chi),
                                                      math.sin(f.chi))
        return plane_join(kind, (w1, w2))
    if kind is AlgebraKind.HYPERBOLIC:
        cp, sp_ = math.cos(f.psi), math.sin(f.psi)
        return plane_join(
            kind,
            (
                2.0 * f.d * cp * math.cos(f.phi),
                2.0 * f.d * cp * math.sin(f.phi),
                2.0 * f.d * sp_ * math.cos(f.chi),
                2.0 * f.d * sp_ * math.sin(f.chi),
            ),
        )
    vp = 2.0 * f.d * math.sin(f.theta) * math.cos(f.lam)
    vm = 2.0 * f.d * math.sin(f.theta) * math.sin(f.lam)
    mu_plus = _SQRT2 * f.d * math.cos(f.theta)
    w1 = mu_plus * complex(math.cos(f.phi), math.sin(f.phi))
    return plane_join(kind, (vp, vm, w1))
