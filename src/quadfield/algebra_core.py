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
nodal residuals are the moduli of the split parts, ``inverse`` joins the
parts' reciprocals, ``pow_int`` their powers, and ``amplitude`` multiplies
the parts, each plane by its squared modulus.  ``_Record`` is the one base
of every record type in the package (``Quad``, ``Amplitude`` and
``SingularityReport`` here, the forms, loops, matrices and polynomials in
the other modules): a frozen ``__slots__`` class with a frozen dataclass's
behaviour, so no module of the package imports ``dataclasses``.  ``Quad``
keeps its own ``__init__``, which runs ``__post_init__`` (kind check,
float coercion, one NaN/inf test; a ValueError names a bool or an int past
the double range) exactly once, on outside input: a result computed from
valid values is built by ``_quad``, which tests only for overflow and
raises ``ResultOverflow`` for it.  ``_check_coeffs`` and ``_horner`` are
the one check and the one Horner loop of the coefficient sequences of
``polynomial.Poly`` and ``series.SeriesSpec``.

The formulas — per kind the unit products and the split and join, and
the inverse and amplitude quartic read off the split — live in
``quadfield._kernels_py``, and every operation here dispatches through
one kind -> kernel table (``_MUL``, ``_SPLIT``, ``_JOIN``, ``_QUARTIC``);
``BACKEND`` names that module and is always ``"python"``.
"""

from __future__ import annotations

import enum
import math

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


class _Record:
    """Frozen ``__slots__`` record with a frozen dataclass's behaviour.

    A subclass names its fields once, in ``__slots__``; the last
    ``_optional`` of them default to None.  Defining the subclass builds
    its ``__init__`` from the fields, unless it defines its own, so it
    takes them by position and by keyword (``TypeError`` on a missing or
    unknown argument), sets each through its slot and then calls
    ``__post_init__`` if the subclass has one; validation there writes a
    field with ``object.__setattr__``.  ``__match_args__`` is the field
    tuple.  repr, equality and hash are by fields; pickle and copy rebuild
    the record from its fields.  Assignment and deletion of any name raise
    ``dataclasses.FrozenInstanceError``, imported only to be raised.
    """

    __slots__ = ()
    _optional = 0

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__ = cls.__slots__
        if "__init__" in cls.__dict__:
            return
        body = "".join(f"\n    _set_{n}(self, {n})" for n in names)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        scope = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
        exec(f"def __init__(self, {', '.join(names)}):{body}", scope)
        init = cls.__init__ = scope["__init__"]
        init.__defaults__ = (None,) * cls._optional
        init.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._values())


class Quad(_Record):
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
            x = _real("x", x)
        if y.__class__ is not float:
            y = _real("y", y)
        if z.__class__ is not float:
            z = _real("z", z)
        if t.__class__ is not float:
            t = _real("t", t)
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
_new = object.__new__


def _real(name: str, v) -> float:
    """A component that is not a float as one; a ValueError naming it for
    a bool (as JSON true loads) or an int past the double range."""
    if v.__class__ is bool:
        raise ValueError(f"component {name}={v!r} is not a number")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"component {name}={v!r} is not finite") from None


def _quad(kind: AlgebraKind, x: float, y: float, z: float, t: float,
          what: str) -> Quad:
    """Quad(kind, x, y, z, t) for floats computed from valid values, where
    NaN or inf can only be an overflow: _overflow(kind, what) for it."""
    if (x - x) + (y - y) + (z - z) + (t - t) != 0.0:
        raise _overflow(kind, what)
    u = _new(Quad)
    _set_kind(u, kind)
    _set_x(u, x)
    _set_y(u, y)
    _set_z(u, z)
    _set_t(u, t)
    return u


def _overflow(kind: enum.Enum, what: str) -> ResultOverflow:
    return ResultOverflow(f"{kind} {what} exceeds the range of a double")


def _coerce(v: "Quad | float", kind: AlgebraKind) -> Quad:
    if isinstance(v, Quad):
        return v
    return Quad(kind, float(v), 0.0, 0.0, 0.0)


def _require_same_kind(u: Quad, v: Quad) -> None:
    if u.kind is not v.kind:
        raise ValueError(f"kind mismatch: {u.kind} vs {v.kind}")


class Amplitude(_Record):
    """Signed amplitude quartic and, where defined, its fourth root.

    ``nu`` is rho^4 (circular/planar, always >= 0) or nu (hyperbolic/polar,
    either sign).  ``rho`` is nu**(1/4) — the amplitude rho, or mu for the
    hyperbolic kind — and is None when nu < 0 (a represented state, not an
    error).
    """

    __slots__ = ("nu", "rho")


class SingularityReport(_Record):
    """Distance diagnosis against every nodal set of the kind.

    ``nodal_sets`` lists the identifiers of the conditions whose
    normalized residual (the kind's nodal quantity divided by
    max(modulus, tol)) is <= tol; ``margin`` is the smallest normalized
    residual; ``singular`` is ``margin <= tol``.
    """

    __slots__ = ("singular", "nodal_sets", "margin")


# One table per kernel: kind -> _impl.<op>_<kind>.
_MUL, _SPLIT, _JOIN, _QUARTIC = (
    {kind: getattr(_impl, f"{op}_{kind.value}") for kind in AlgebraKind}
    for op in ("mul", "split", "join", "quartic"))


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


def add(u: Quad, v: Quad) -> Quad:
    """Componentwise sum; kinds must match."""
    if u.kind is not v.kind:
        _require_same_kind(u, v)
    return _quad(u.kind, u.x + v.x, u.y + v.y, u.z + v.z, u.t + v.t, "sum")


def sub(u: Quad, v: Quad) -> Quad:
    """Componentwise difference; kinds must match."""
    if u.kind is not v.kind:
        _require_same_kind(u, v)
    return _quad(u.kind, u.x - v.x, u.y - v.y, u.z - v.z, u.t - v.t,
                 "difference")


def neg(u: Quad) -> Quad:
    return _quad(u.kind, -u.x, -u.y, -u.z, -u.t, "negation")


def scale(u: Quad, c: float) -> Quad:
    """Real scalar multiple c*u."""
    c = float(c)
    return _quad(u.kind, c * u.x, c * u.y, c * u.z, c * u.t, "product")


def mul(u: Quad, v: Quad) -> Quad:
    """Product under the kind's multiplication table.

    Commutative (bitwise exactly), associative and distributive up to
    rounding.
    """
    if u.kind is not v.kind:
        _require_same_kind(u, v)
    return _quad(u.kind, *_MUL[u.kind](u.x, u.y, u.z, u.t, v.x, v.y, v.z, v.t),
                 "product")


def modulus(u: Quad) -> float:
    """Euclidean length d = sqrt(x^2 + y^2 + z^2 + t^2).

    When the sum of squares over- or underflows (inf, or below the
    smallest normal double) d comes from ``math.hypot``, which scales.
    """
    s = u.x * u.x + u.y * u.y + u.z * u.z + u.t * u.t
    if 2.2250738585072014e-308 <= s <= 1.7976931348623157e308:  # normal
        return math.sqrt(s)
    return math.hypot(u.x, u.y, u.z, u.t)


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
    return _SPLIT[u.kind](u.x, u.y, u.z, u.t)


def _join(kind: AlgebraKind, parts: tuple) -> tuple:
    """Inverse of :func:`plane_split` as the components (x, y, z, t), which
    are complex where a line entry is (a line polynomial's complex root)."""
    return _JOIN[kind](*parts)


def plane_join(kind: AlgebraKind, parts: tuple) -> Quad:
    """Inverse of :func:`plane_split`."""
    return Quad(kind, *_join(kind, parts))


# Per kind and in plane_split order, True for a complex plane and False
# for a real line, read off the split of 1.
_IS_PLANE = {kind: tuple(p.__class__ is complex for p in plane_split(one(kind)))
             for kind in AlgebraKind}


def _split_basis(kind: AlgebraKind) -> tuple:
    """The split-space basis in :func:`plane_split` order: 1 on each real
    line, 1 and then i on each complex plane, zero elsewhere."""
    planes = _IS_PLANE[kind]
    zeros = tuple(0j if plane else 0.0 for plane in planes)
    return tuple(zeros[:j] + (v,) + zeros[j + 1:]
                 for j, plane in enumerate(planes)
                 for v in ((1 + 0j, 1j) if plane else (1.0,)))


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


def _residuals(u: Quad, parts: tuple, tol: float) -> list[float]:
    """Nodal residuals of u, from its split ``parts``, normalized by
    max(modulus(u), tol)."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    scale_ref = max(modulus(u), tol)
    # math.hypot, not abs(): complex abs rounds differently in the last bit.
    return [(math.hypot(p.real, p.imag) if p.__class__ is complex else abs(p))
            / scale_ref for p in parts]


def singularity(u: Quad, tol: float = DEFAULT_TOL) -> SingularityReport:
    """Check u against every nodal condition of its kind.

    Residuals are normalized by max(modulus(u), tol) so the report is
    scale-free; a condition fires when its normalized residual <= tol.
    """
    residuals = _residuals(u, plane_split(u), tol)
    margin = min(residuals)
    fired = tuple(name for name, r in zip(_NODAL_SETS[u.kind], residuals)
                  if r <= tol)
    return SingularityReport(singular=margin <= tol, nodal_sets=fired,
                             margin=margin)


def _reciprocals(u: Quad, tol: float) -> list:
    """The reciprocals of u's split parts, after inverse's nodal test.

    One split gives both the nodal residuals and the reciprocals, whose
    a^2 + b^2 decide alone when each is a normal double above
    4 tol^2 max(|u|^2, tol^2): every residual is then above 2 tol.  Where
    a part passes the double range, u/4 is split and its reciprocals are
    scaled by 1/4, both exactly outside the subnormals.
    """
    kind = u.kind
    x, y, z, t = u.x, u.y, u.z, u.t
    parts = _SPLIT[kind](x, y, z, t)
    s = x * x + y * y + z * z + t * t
    inv = tol > 0.0 and _impl.reciprocals(
        parts, 4.0 * tol * (tol * (s if s > tol * tol else tol * tol)))
    if inv:
        return inv
    q = u
    if any(p - p for p in parts):   # an inf part; s is inf, so inv is None
        q = scale(u, 0.25)
        parts = plane_split(q)
    if min(_residuals(q, parts, tol)) <= tol:
        report = singularity(q, tol)
        raise SingularValue(
            f"{kind} value {u.components} lies on nodal set(s) "
            f"{', '.join(report.nodal_sets)} (margin {report.margin:.3e})")
    inv = _impl.reciprocals(parts)
    return inv if q is u else [r / 4.0 if r.__class__ is float else
                               complex(r.real / 4.0, r.imag / 4.0) for r in inv]


def inverse(u: Quad, tol: float = DEFAULT_TOL) -> Quad:
    """Multiplicative inverse: SingularValue within tol (normalized) of a
    nodal set, ResultOverflow past the double range."""
    return _quad(u.kind, *_JOIN[u.kind](*_reciprocals(u, tol)), "inverse")


def pow_int(u: Quad, m: int, tol: float = DEFAULT_TOL) -> Quad:
    """Integer power: each split part (for m < 0 its reciprocal, so
    SingularValue on the nodal sets) raised to |m|, joined once; u**0 is 1
    for every u including 0, and u**1 is u.  ResultOverflow only past the
    double range: an overflow retries at parts/4, the join times 4^|m|."""
    if m != int(m):
        raise TypeError(f"exponent must be an integer, got {m!r}")
    m = int(m)
    kind = u.kind
    if m in (0, 1):
        return u if m else one(kind)
    n = abs(m)
    parts = _reciprocals(u, tol) if m < 0 else plane_split(u)
    try:
        x, y, z, t = _JOIN[kind](*[p ** n for p in parts])
    except OverflowError:   # float **; complex ** gives nan or inf instead
        x = y = z = t = math.inf
    if (x - x) + (y - y) + (z - z) + (t - t) != 0.0:
        try:
            x, y, z, t = (math.ldexp(c, 2 * n) for c in
                          _JOIN[kind](*[(p * 0.25) ** n for p in parts]))
        except OverflowError:
            raise _overflow(kind, "product") from None
    return _quad(kind, x, y, z, t, "product")


# -- coefficient sequences (polynomial.Poly, series.SeriesSpec) ----------

def _check_coeffs(record, what: str) -> None:
    """Check that a record's kind is an AlgebraKind and its coefficients
    are at least one Quad of that kind, and store them as a tuple;
    ``what`` names the record in the messages."""
    kind = record.kind
    if kind.__class__ is not AlgebraKind:
        raise TypeError(f"kind must be AlgebraKind, got {kind!r}")
    coeffs = tuple(record.coeffs)
    object.__setattr__(record, "coeffs", coeffs)
    if not coeffs:
        raise ValueError(f"{what} needs at least one coefficient")
    for a in coeffs:
        if a.kind is not kind:
            raise ValueError(f"kind mismatch: {a.kind} coefficient in "
                             f"{kind} {what}")


def _horner(kind: AlgebraKind, coeffs, u: Quad, what: str) -> Quad:
    """coeffs[0]*u**m + ... + coeffs[m] by Horner's rule; u must be of
    ``kind``, and ``what`` names the sequence in the message."""
    if u.kind is not kind:
        raise ValueError(f"kind mismatch: {u.kind} point in {kind} {what}")
    acc = coeffs[0]
    for a in coeffs[1:]:
        acc = mul(acc, u) + a
    return acc


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
    import json
    return json.dumps(quad_to_dict(u), separators=(",", ":"))


def quad_from_json(s: str) -> Quad:
    import json
    return quad_from_dict(json.loads(s))
