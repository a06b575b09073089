"""Core value type and ring operations for the four commutative algebras.

A :class:`Quad` is one hypercomplex number ``u = x + alpha*y + beta*z +
gamma*t`` tagged with the :class:`AlgebraKind` that fixes the
multiplication table of the units alpha, beta, gamma:

* ``CIRCULAR``    alpha^2 = beta^2 = -1, gamma^2 = +1, alpha*beta = -gamma
* ``HYPERBOLIC``  alpha^2 = beta^2 = gamma^2 = +1, alpha*beta = gamma
* ``PLANAR``      alpha^2 = beta, beta^2 = -1, gamma^2 = -beta, alpha*gamma = -1
* ``POLAR``       alpha^2 = beta, beta^2 = +1, gamma^2 = beta, alpha*gamma = +1

All four algebras are commutative and associative but not division
algebras: each has nodal sets (hyperplanes of divisors of zero) where the
amplitude quartic vanishes and no inverse exists.  ``singularity`` reports
the distance to those sets; ``inverse`` refuses to divide near them.

``plane_split`` maps each algebra onto its real lines and complex planes
(each map a unital ring homomorphism) and ``plane_join`` maps back; the
nodal residuals are the moduli of the split parts.  ``Quad`` is a frozen
``__slots__`` class whose ``__init__`` runs ``__post_init__`` (kind check,
float coercion, one NaN/inf test) exactly once.

The kernels — products, amplitude quartics, and inverses as per-plane
reciprocals joined back — live in ``quadfield._kernels_py``; ``BACKEND``
names it and is always ``"python"``.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

from . import _kernels_py as _impl

BACKEND = "python"

__all__ = [
    "AlgebraKind",
    "Quad",
    "Amplitude",
    "SingularityReport",
    "QuadfieldError",
    "SingularValue",
    "DomainError",
    "ResultOverflow",
    "BACKEND",
    "DEFAULT_TOL",
    "add",
    "sub",
    "neg",
    "scale",
    "mul",
    "inverse",
    "amplitude",
    "modulus",
    "singularity",
    "pow_int",
    "one",
    "zero",
    "units",
    "plane_split",
    "plane_join",
    "quad_to_dict",
    "quad_from_dict",
    "quad_to_json",
    "quad_from_json",
]

DEFAULT_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)


class QuadfieldError(Exception):
    """Base class for the library's domain errors."""


class SingularValue(QuadfieldError):
    """Raised when an inverse is requested on (or too near) a nodal set."""


class DomainError(QuadfieldError):
    """Raised when a value lies outside an operation's validity domain."""


class ResultOverflow(QuadfieldError, OverflowError):
    """Raised when finite arguments give a value beyond the double range."""


class AlgebraKind(enum.Enum):
    """Selects one of the four multiplication tables."""

    CIRCULAR = "circular"
    HYPERBOLIC = "hyperbolic"
    PLANAR = "planar"
    POLAR = "polar"

    # Members are singletons, so identity hashing agrees with equality.
    # Enum's own __hash__ hashes the name in Python code and made every
    # per-kind table lookup cost about as much as a kernel call.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


# Module-level names for the members, for the per-value dispatch chains:
# attribute lookup on an Enum class runs EnumType's __getattr__ hook and
# costs about ten global lookups.
_CIRCULAR = AlgebraKind.CIRCULAR
_HYPERBOLIC = AlgebraKind.HYPERBOLIC
_PLANAR = AlgebraKind.PLANAR


class Quad:
    """One four-dimensional hypercomplex number.

    Components are finite doubles; construction rejects NaN/inf.  The
    value is frozen.  Equality is componentwise and requires identical
    kind.  Arithmetic operators delegate to the module-level functions;
    mixing kinds raises ValueError.
    """

    __slots__ = ("kind", "x", "y", "z", "t")

    def __init__(self, kind: AlgebraKind, x: float, y: float, z: float,
                 t: float) -> None:
        self.__post_init__(kind, x, y, z, t)

    def __post_init__(self, kind, x, y, z, t) -> None:
        if kind.__class__ is not AlgebraKind:
            raise TypeError(f"kind must be AlgebraKind, got {kind!r}")
        if x.__class__ is not float:
            x = float(x)
        if y.__class__ is not float:
            y = float(y)
        if z.__class__ is not float:
            z = float(z)
        if t.__class__ is not float:
            t = float(t)
        # NaN or inf in any component makes the sum NaN.
        if (x - x) + (y - y) + (z - z) + (t - t) != 0.0:
            for name, v in zip("xyzt", (x, y, z, t)):
                if not math.isfinite(v):
                    raise ValueError(f"component {name}={v!r} is not finite")
        _set_kind(self, kind)
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)
        _set_t(self, t)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Quad:
            return NotImplemented
        return (self.kind is other.kind and self.x == other.x
                and self.y == other.y and self.z == other.z
                and self.t == other.t)

    def __hash__(self):
        return hash((self.kind, self.x, self.y, self.z, self.t))

    def __repr__(self):
        return (f"Quad(kind={self.kind!r}, x={self.x!r}, y={self.y!r}, "
                f"z={self.z!r}, t={self.t!r})")

    def __reduce__(self):
        return (Quad, (self.kind, self.x, self.y, self.z, self.t))

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.z, self.t)

    def __add__(self, other: "Quad | float") -> "Quad":
        return add(self, _coerce(other, self.kind))

    __radd__ = __add__

    def __sub__(self, other: "Quad | float") -> "Quad":
        return sub(self, _coerce(other, self.kind))

    def __rsub__(self, other: "Quad | float") -> "Quad":
        return sub(_coerce(other, self.kind), self)

    def __neg__(self) -> "Quad":
        return neg(self)

    def __mul__(self, other: "Quad | float") -> "Quad":
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "Quad":
        return pow_int(self, m)

    def __abs__(self) -> float:
        return modulus(self)


_set_kind, _set_x, _set_y, _set_z, _set_t = (
    Quad.__dict__[name].__set__ for name in Quad.__slots__)


def _coerce(v: "Quad | float", kind: AlgebraKind) -> Quad:
    if isinstance(v, Quad):
        return v
    return Quad(kind, float(v), 0.0, 0.0, 0.0)


def _require_same_kind(u: Quad, v: Quad) -> None:
    if u.kind is not v.kind:
        raise ValueError(f"kind mismatch: {u.kind} vs {v.kind}")


@dataclass(frozen=True, slots=True)
class Amplitude:
    """Signed amplitude quartic and, where defined, its fourth root.

    ``nu`` is rho^4 (circular/planar, always >= 0) or nu (hyperbolic/polar,
    either sign).  ``rho`` is nu**(1/4) — the amplitude rho, or mu for the
    hyperbolic kind — and is None when nu < 0 (a represented state, not an
    error).
    """

    nu: float
    rho: float | None


@dataclass(frozen=True, slots=True)
class SingularityReport:
    """Distance diagnosis against every nodal set of the kind.

    ``nodal_sets`` lists the identifiers of the conditions whose
    normalized residual (the kind's nodal quantity divided by
    max(modulus, tol)) is <= tol; ``margin`` is the smallest normalized
    residual; ``singular`` is ``margin <= tol``.
    """

    singular: bool
    nodal_sets: tuple[str, ...]
    margin: float


_MUL = {
    AlgebraKind.CIRCULAR: _impl.mul_circular,
    AlgebraKind.HYPERBOLIC: _impl.mul_hyperbolic,
    AlgebraKind.PLANAR: _impl.mul_planar,
    AlgebraKind.POLAR: _impl.mul_polar,
}

_INV = {
    AlgebraKind.CIRCULAR: _impl.inv_circular,
    AlgebraKind.HYPERBOLIC: _impl.inv_hyperbolic,
    AlgebraKind.PLANAR: _impl.inv_planar,
    AlgebraKind.POLAR: _impl.inv_polar,
}

_QUARTIC = {
    AlgebraKind.CIRCULAR: _impl.quartic_circular,
    AlgebraKind.HYPERBOLIC: _impl.quartic_hyperbolic,
    AlgebraKind.PLANAR: _impl.quartic_planar,
    AlgebraKind.POLAR: _impl.quartic_polar,
}


def zero(kind: AlgebraKind) -> Quad:
    return Quad(kind, 0.0, 0.0, 0.0, 0.0)


def one(kind: AlgebraKind) -> Quad:
    return Quad(kind, 1.0, 0.0, 0.0, 0.0)


def units(kind: AlgebraKind) -> tuple[Quad, Quad, Quad, Quad]:
    """The basis (1, alpha, beta, gamma) as Quads of the given kind."""
    return (
        Quad(kind, 1.0, 0.0, 0.0, 0.0),
        Quad(kind, 0.0, 1.0, 0.0, 0.0),
        Quad(kind, 0.0, 0.0, 1.0, 0.0),
        Quad(kind, 0.0, 0.0, 0.0, 1.0),
    )


def _unit_products(kind: AlgebraKind) -> tuple:
    """Entry [i][j] is (m, s) with e_i*e_j = s*e_m, read off the kernel.

    Every product of two of the units 1, alpha, beta, gamma is exactly one
    signed unit.
    """
    basis = [e.components for e in units(kind)]
    table = [[_MUL[kind](*a, *b) for b in basis] for a in basis]
    return tuple(tuple((m, int(p[m])) for p in row for m in range(4) if p[m])
                 for row in table)


# The operands of add, sub and mul are finite Quads, so a non-finite result
# component (Quad raises ValueError on it) can only be an overflow; each
# raises ResultOverflow for it.

def _overflow(kind: AlgebraKind, what: str) -> ResultOverflow:
    return ResultOverflow(f"{kind} {what} exceeds the range of a double")


def add(u: Quad, v: Quad) -> Quad:
    """Componentwise sum; kinds must match."""
    _require_same_kind(u, v)
    try:
        return Quad(u.kind, u.x + v.x, u.y + v.y, u.z + v.z, u.t + v.t)
    except ValueError:
        raise _overflow(u.kind, "sum") from None


def sub(u: Quad, v: Quad) -> Quad:
    """Componentwise difference; kinds must match."""
    _require_same_kind(u, v)
    try:
        return Quad(u.kind, u.x - v.x, u.y - v.y, u.z - v.z, u.t - v.t)
    except ValueError:
        raise _overflow(u.kind, "difference") from None


def neg(u: Quad) -> Quad:
    return Quad(u.kind, -u.x, -u.y, -u.z, -u.t)


def scale(u: Quad, c: float) -> Quad:
    """Real scalar multiple c*u."""
    c = float(c)
    return Quad(u.kind, c * u.x, c * u.y, c * u.z, c * u.t)


def mul(u: Quad, v: Quad) -> Quad:
    """Product under the kind's multiplication table.

    Commutative (bitwise exactly), associative and distributive up to
    rounding.
    """
    _require_same_kind(u, v)
    try:
        return Quad(u.kind,
                    *_MUL[u.kind](u.x, u.y, u.z, u.t, v.x, v.y, v.z, v.t))
    except ValueError:
        raise _overflow(u.kind, "product") from None


def modulus(u: Quad) -> float:
    """Euclidean length d = sqrt(x^2 + y^2 + z^2 + t^2)."""
    return math.sqrt(u.x * u.x + u.y * u.y + u.z * u.z + u.t * u.t)


def amplitude(u: Quad) -> Amplitude:
    """Signed amplitude quartic and its fourth root where defined.

    Circular/planar: nu = rho^4 = rho_plus^2 * rho_minus^2 >= 0, rho always
    defined.  Hyperbolic: nu = s*s'*s''*s''', mu = nu**(1/4) only when
    nu >= 0.  Polar: nu = v_plus*v_minus*mu_plus^2, rho = nu**(1/4) only
    when nu >= 0.
    """
    nu = _QUARTIC[u.kind](u.x, u.y, u.z, u.t)
    if nu < 0.0:
        return Amplitude(nu=nu, rho=None)
    return Amplitude(nu=nu, rho=nu ** 0.25)


def plane_split(u: Quad) -> tuple:
    """The kind's decoupling as plain complex/real numbers.

    Returns (w1, w2) complex for circular/planar, (s, s', s'', s''') real
    for hyperbolic, (v+, v-, w1) with w1 complex for polar.  Each entry is
    a unital ring homomorphism of the algebra, so any polynomial (and any
    convergent power-series) identity may be evaluated per entry and
    rejoined with :func:`plane_join`.
    """
    kind = u.kind
    x, y, z, t = u.x, u.y, u.z, u.t
    if kind is _CIRCULAR:
        return (complex(x + t, y + z), complex(x - t, y - z))
    if kind is _HYPERBOLIC:
        return (x + y + z + t, x - y + z - t, x + y - z - t, x - y - z + t)
    if kind is _PLANAR:
        a = (y - t) / _SQRT2
        b = (y + t) / _SQRT2
        return (complex(x + a, z + b), complex(x - a, -z + b))
    return (x + y + z + t, x - y + z - t, complex(x - z, y - t))


def plane_join(kind: AlgebraKind, parts: tuple) -> Quad:
    """Inverse of :func:`plane_split`."""
    if kind is _CIRCULAR:
        w1, w2 = parts
        return Quad(kind, (w1.real + w2.real) / 2.0, (w1.imag + w2.imag) / 2.0,
                    (w1.imag - w2.imag) / 2.0, (w1.real - w2.real) / 2.0)
    if kind is _HYPERBOLIC:
        s, sp, spp, sppp = parts
        return Quad(kind, (s + sp + spp + sppp) / 4.0,
                    (s - sp + spp - sppp) / 4.0, (s + sp - spp - sppp) / 4.0,
                    (s - sp - spp + sppp) / 4.0)
    if kind is _PLANAR:
        w1, w2 = parts
        ymt = (w1.real - w2.real) / _SQRT2
        ypt = (w1.imag + w2.imag) / _SQRT2
        return Quad(kind, (w1.real + w2.real) / 2.0, (ymt + ypt) / 2.0,
                    (w1.imag - w2.imag) / 2.0, (ypt - ymt) / 2.0)
    vp, vm, w1 = parts
    return Quad(kind, vp / 4.0 + vm / 4.0 + w1.real / 2.0,
                vp / 4.0 - vm / 4.0 + w1.imag / 2.0,
                vp / 4.0 + vm / 4.0 - w1.real / 2.0,
                vp / 4.0 - vm / 4.0 - w1.imag / 2.0)


def _split_basis(kind: AlgebraKind) -> tuple:
    """The split-space basis in :func:`plane_split` order: 1 on each real
    line, 1 and then i on each complex plane, zero elsewhere."""
    zeros = tuple(0j if p.__class__ is complex else 0.0
                  for p in plane_split(one(kind)))
    return tuple(zeros[:j] + (v,) + zeros[j + 1:]
                 for j, p in enumerate(zeros)
                 for v in ((1 + 0j, 1j) if p.__class__ is complex else (1.0,)))


def _flatten(parts) -> list:
    """Split parts as reals, each plane flattened to (real, imag)."""
    return [v for p in parts
            for v in ((p.real, p.imag) if p.__class__ is complex else (p,))]


# Nodal sets named in plane_split order: each set is where one split part
# vanishes, and its residual is that part's modulus (rho+/-, |s..|, |v+/-|,
# mu+), so the scalar unit sits at residual 1 from every set.
_NODAL_SETS = {
    AlgebraKind.CIRCULAR: ("rho_plus", "rho_minus"),
    AlgebraKind.HYPERBOLIC: ("s", "s_prime", "s_double_prime",
                             "s_triple_prime"),
    AlgebraKind.PLANAR: ("rho_plus", "rho_minus"),
    AlgebraKind.POLAR: ("v_plus", "v_minus", "mu_plus"),
}


def _domain_split(u: Quad, what: str) -> tuple:
    """plane_split(u) after checking that u lies in the exp-form domain.

    The domain is every real line part > 0 and every plane part != 0.

    Raises:
        DomainError: naming the first violated condition, for ``what``.
    """
    parts = plane_split(u)
    for name, p in zip(_NODAL_SETS[u.kind], parts):
        if p.__class__ is complex:
            if p == 0:
                raise DomainError(f"{u.kind} {what} requires {name} > 0; got 0")
        elif p <= 0.0:
            raise DomainError(f"{u.kind} {what} requires {name} > 0; got {p!r}")
    return parts


def _residuals(u: Quad, tol: float) -> list[float]:
    """Nodal residuals of u normalized by max(modulus(u), tol)."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    scale_ref = max(modulus(u), tol)
    # math.hypot, not abs(): complex abs rounds differently in the last bit.
    return [(math.hypot(p.real, p.imag) if p.__class__ is complex else abs(p))
            / scale_ref for p in plane_split(u)]


def singularity(u: Quad, tol: float = DEFAULT_TOL) -> SingularityReport:
    """Check u against every nodal condition of its kind.

    Residuals are normalized by max(modulus(u), tol) so the report is
    scale-free; a condition fires when its normalized residual <= tol.
    """
    residuals = _residuals(u, tol)
    margin = min(residuals)
    fired = tuple(name for name, r in zip(_NODAL_SETS[u.kind], residuals)
                  if r <= tol)
    return SingularityReport(singular=margin <= tol, nodal_sets=fired,
                             margin=margin)


def inverse(u: Quad, tol: float = DEFAULT_TOL) -> Quad:
    """Multiplicative inverse: the join of the per-plane reciprocals.

    Raises:
        SingularValue: if u is within tol (normalized) of any nodal set.
    """
    if min(_residuals(u, tol)) <= tol:
        report = singularity(u, tol)
        raise SingularValue(
            f"{u.kind} value {u.components} lies on nodal set(s) "
            f"{', '.join(report.nodal_sets)} (margin {report.margin:.3e})"
        )
    return Quad(u.kind, *_INV[u.kind](u.x, u.y, u.z, u.t))


def pow_int(u: Quad, m: int, tol: float = DEFAULT_TOL) -> Quad:
    """Integer power by binary exponentiation.

    Negative exponents invert first and therefore raise SingularValue on
    nodal sets; u**0 is 1 for every u including 0.
    """
    if m != int(m):
        raise TypeError(f"exponent must be an integer, got {m!r}")
    m = int(m)
    if m < 0:
        return pow_int(inverse(u, tol), -m)
    if m == 0:
        return one(u.kind)
    result = None
    base = u
    while True:
        if m & 1:
            result = base if result is None else mul(result, base)
        m >>= 1
        if not m:
            return result
        base = mul(base, base)


# -- JSON interchange ----------------------------------------------------

def quad_to_dict(u: Quad) -> dict:
    return {"kind": u.kind.value, "x": u.x, "y": u.y, "z": u.z, "t": u.t}


def quad_from_dict(d: dict) -> Quad:
    try:
        kind = AlgebraKind(d["kind"])
        return Quad(kind, d["x"], d["y"], d["z"], d["t"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"not a valid quad object: {d!r}") from exc


def quad_to_json(u: Quad) -> str:
    """Compact JSON; float repr round-trips bit-for-bit."""
    return json.dumps(quad_to_dict(u), separators=(",", ":"))


def quad_from_json(s: str) -> Quad:
    return quad_from_dict(json.loads(s))
