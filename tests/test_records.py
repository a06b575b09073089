"""Every record type keeps the contract of a frozen dataclass.

All 18 record types subclass ``algebra_core._Record``.  The repr strings
and field tuples pinned below are those of the ``@dataclass(frozen=True)``
records they replaced (the field tuples are the old ``dataclasses.fields``
names; ``Loop`` has since gained ``samples`` and ``turns``), and for
``Quad`` those of the hand-written class it was before.  Each record
also refuses assignment and deletion of every field and of one non-field
name with ``dataclasses.FrozenInstanceError``,
compares and hashes by its fields, survives copy, deepcopy and pickle, and
raises ``TypeError`` on a missing or an unknown constructor argument.
"""

import copy
import dataclasses
import pickle

import pytest

import quadfield
from quadfield import (
    AlgebraKind,
    Amplitude,
    ComplexQuad,
    ConvergenceBounds,
    ExpForm,
    Factorization,
    Loop,
    Poly,
    Quad,
    SeriesSpec,
    SingularityReport,
    TrigForm,
    WindingQuery,
    exp_form,
    f4,
    one,
    represent,
    to_canonical,
    trig_form,
    zero,
)
from quadfield.algebra_core import _Record

from conftest import record_fields

C = AlgebraKind.CIRCULAR
H = AlgebraKind.HYPERBOLIC

_QUAD_C = ("Quad(kind=<AlgebraKind.CIRCULAR: 'circular'>, x={!r}, y={!r}, "
           "z=0.0, t=0.0)")
_SQUARE = [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (-1.0, 0.0),
           (-1.0, -1.0), (0.0, -1.0), (1.0, -1.0), (1.0, 0.0)]

# (record, repr, field names)
PINNED = [
    (Quad(C, 1.0, 0.5, 0.0, 0.0), _QUAD_C.format(1.0, 0.5),
     ("kind", "x", "y", "z", "t")),
    (SeriesSpec(C, (one(C),)),
     "SeriesSpec(kind=<AlgebraKind.CIRCULAR: 'circular'>, coeffs=("
     + _QUAD_C.format(1.0, 0.0) + ",))",
     ("kind", "coeffs")),
    (ConvergenceBounds(1.0, (1.0, 2.0)),
     "ConvergenceBounds(global_bound=1.0, canonical=(1.0, 2.0))",
     ("global_bound", "canonical")),
    (Loop.from_points([Quad(C, x, y, 0.0, 0.0) for x, y in _SQUARE]),
     "Loop(points=(" + ", ".join(_QUAD_C.format(x, y) for x, y in _SQUARE)
     + "), plane=None, center=None, radius=None, psi=None, fixed_angle=None, "
     "samples=None, turns=None)",
     ("points", "plane", "center", "radius", "psi", "fixed_angle", "samples",
      "turns")),
    (WindingQuery((0.0, 0.0),
                  ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (1.0, 0.0))),
     "WindingQuery(point2d=(0.0, 0.0), "
     "polygon2d=((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (1.0, 0.0)))",
     ("point2d", "polygon2d")),
    (to_canonical(Quad(C, 1, 2, 3, 4)),
     "CanonicalCircular(xi=3.5355339059327373, upsilon=3.5355339059327373, "
     "tau=-2.1213203435596424, zeta=-0.7071067811865475)",
     ("xi", "upsilon", "tau", "zeta")),
    (to_canonical(Quad(H, 1, 2, 3, 4)),
     "CanonicalHyperbolic(s=10.0, s_prime=-2.0, s_double_prime=-4.0, "
     "s_triple_prime=0.0)",
     ("s", "s_prime", "s_double_prime", "s_triple_prime")),
    (to_canonical(Quad(AlgebraKind.PLANAR, 1, 2, 3, 4)),
     "CanonicalPlanar(xi=-0.29289321881345237, upsilon=5.121320343559642, "
     "tau=1.7071067811865472, zeta=0.8786796564403571)",
     ("xi", "upsilon", "tau", "zeta")),
    (to_canonical(Quad(AlgebraKind.POLAR, 1, 2, 3, 4)),
     "CanonicalPolar(v_plus=10.0, v_minus=-2.0, v1=-2.0, v1_tilde=-2.0)",
     ("v_plus", "v_minus", "v1", "v1_tilde")),
    (ExpForm(C, rho=2.0, phi=0.5, chi=1.5, psi=0.25),
     "ExpForm(kind=<AlgebraKind.CIRCULAR: 'circular'>, rho=2.0, phi=0.5, "
     "chi=1.5, psi=0.25, mu=None, y1=None, z1=None, t1=None, "
     "theta_plus=None, theta_minus=None)",
     ("kind", "rho", "phi", "chi", "psi", "mu", "y1", "z1", "t1",
      "theta_plus", "theta_minus")),
    (TrigForm(H, 1.0, phi=0.5, chi=1.5, psi=0.25),
     "TrigForm(kind=<AlgebraKind.HYPERBOLIC: 'hyperbolic'>, d=1.0, phi=0.5, "
     "chi=1.5, psi=0.25, theta=None, lam=None)",
     ("kind", "d", "phi", "chi", "psi", "theta", "lam")),
    (f4(0),
     "CosexpKind(family=<CosexpFamily.PLANAR_F: 'planar_f'>, k=0)",
     ("family", "k")),
    (represent(one(C)),
     "Matrix4(entries=(1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, "
     "1.0, 0.0, 0.0, 0.0, 0.0, 1.0))",
     ("entries",)),
    (Poly(C, (one(C), zero(C))),
     "Poly(kind=<AlgebraKind.CIRCULAR: 'circular'>, coeffs=("
     + _QUAD_C.format(1.0, 0.0) + ", " + _QUAD_C.format(0.0, 0.0) + "))",
     ("kind", "coeffs")),
    (ComplexQuad(H, 1j, 0j, 0j, 0j),
     "ComplexQuad(kind=<AlgebraKind.HYPERBOLIC: 'hyperbolic'>, x=1j, y=0j, "
     "z=0j, t=0j)",
     ("kind", "x", "y", "z", "t")),
    (Factorization((), 0.0, ((), ())),
     "Factorization(roots=(), residual=0.0, multiplicities=((), ()))",
     ("roots", "residual", "multiplicities")),
    (Amplitude(16.0, 2.0),
     "Amplitude(nu=16.0, rho=2.0)",
     ("nu", "rho")),
    (SingularityReport(True, ("s", "s_prime"), 0.0),
     "SingularityReport(singular=True, nodal_sets=('s', 's_prime'), "
     "margin=0.0)",
     ("singular", "nodal_sets", "margin")),
]

# The same types, built by the library's own functions.
BUILT = [
    Loop.circle(one(C), 0.5, samples=16),
    *(to_canonical(one(kind)) for kind in AlgebraKind),
    exp_form(one(C)),
    trig_form(one(C)),
    represent(Quad(C, 1, 2, 3, 4)),
    quadfield.amplitude(one(AlgebraKind.POLAR)),
    quadfield.singularity(one(AlgebraKind.PLANAR)),
    quadfield.factor(Poly(H, (one(H), zero(H), one(H)))),
]

RECORDS = [record for record, _, _ in PINNED] + BUILT

# Every record of each type, one test case per type.
BY_TYPE = {}
for _record in RECORDS:
    BY_TYPE.setdefault(type(_record).__name__, []).append(_record)
by_type = pytest.mark.parametrize("records", BY_TYPE.values(), ids=BY_TYPE)


def _record_types():
    modules = [quadfield.algebra_core, quadfield.calculus,
               quadfield.canonical, quadfield.elementary,
               quadfield.matrix_rep, quadfield.polynomial, quadfield.series]
    return {obj for mod in modules for obj in vars(mod).values()
            if isinstance(obj, type) and issubclass(obj, _Record)
            and obj is not _Record}


def test_every_record_type_is_pinned_once():
    types = [type(record) for record, _, _ in PINNED]
    assert len(set(types)) == len(types) == len(BY_TYPE) == 18
    assert set(types) == _record_types()


@pytest.mark.parametrize("record,text,names", PINNED,
                         ids=[type(r).__name__ for r, _, _ in PINNED])
def test_repr_and_fields(record, text, names):
    assert repr(record) == text
    assert type(record).__match_args__ == names


@by_type
def test_assign_and_delete_raise_frozen_instance_error(records):
    for record in records:
        before = repr(record)
        for name in type(record).__match_args__ + ("not_a_field",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert repr(record) == before


@by_type
def test_eq_and_hash_are_by_fields(records):
    for record in records:
        values = record_fields(record)
        twin = type(record)(*values)
        assert twin == record and twin is not record
        assert hash(twin) == hash(record) == hash(values)
        assert record != values
        for other in RECORDS:
            same = (type(other) is type(record)
                    and record_fields(other) == values)
            assert (other == record) is same


@by_type
def test_copy_and_pickle_round_trip(records):
    for record in records:
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert twin == record and twin is not record
            assert type(twin) is type(record)
            assert hash(twin) == hash(record)
            assert repr(twin) == repr(record)


@by_type
def test_missing_or_unknown_argument_is_type_error(records):
    cls, values = type(records[0]), record_fields(records[0])
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1.0)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{cls.__match_args__[0]: values[0]})


@pytest.mark.parametrize("build", [
    lambda kind: ExpForm(kind, rho=1.0, phi=0.0, chi=0.0, psi=0.5),
    lambda kind: Poly(kind, (one(C),)),
    lambda kind: SeriesSpec(kind, (one(C),)),
], ids=["ExpForm", "Poly", "SeriesSpec"])
def test_a_kind_that_is_not_an_algebra_kind_is_type_error(build):
    build(C)
    with pytest.raises(TypeError, match="must be AlgebraKind, got 'circular'"):
        build("circular")
