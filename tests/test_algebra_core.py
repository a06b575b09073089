"""Arithmetic layer: multiplication tables, laws, amplitudes, inverses."""

import copy
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from quadfield import (
    AlgebraKind,
    Amplitude,
    Quad,
    QuadfieldError,
    ResultOverflow,
    SingularityReport,
    SingularValue,
    amplitude,
    inverse,
    modulus,
    mul,
    one,
    pow_int,
    quad_from_json,
    quad_to_json,
    singularity,
    units,
    zero,
)
from quadfield.algebra_core import BACKEND, _unit_products

import kernels_oracle
from conftest import (
    COMPONENTS,
    KINDS,
    any_kind_quads,
    max_abs_diff,
    nonsingular_quads,
    quads,
    rel_diff,
)

# Unit products per kind: (i, j) -> (sign, basis index); index 0 is the
# scalar unit, so alpha*beta = -gamma reads (1, 2): (-1, 3).
MUL_TABLE = {
    AlgebraKind.CIRCULAR: {(1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (+1, 0),
                           (1, 2): (-1, 3), (1, 3): (+1, 2), (2, 3): (+1, 1)},
    AlgebraKind.HYPERBOLIC: {(1, 1): (+1, 0), (2, 2): (+1, 0), (3, 3): (+1, 0),
                             (1, 2): (+1, 3), (1, 3): (+1, 2), (2, 3): (+1, 1)},
    AlgebraKind.PLANAR: {(1, 1): (+1, 2), (2, 2): (-1, 0), (3, 3): (-1, 2),
                         (1, 2): (+1, 3), (1, 3): (-1, 0), (2, 3): (-1, 1)},
    AlgebraKind.POLAR: {(1, 1): (+1, 2), (2, 2): (+1, 0), (3, 3): (+1, 2),
                        (1, 2): (+1, 3), (1, 3): (+1, 0), (2, 3): (+1, 1)},
}


def signed_unit(kind, code):
    sign, index = code
    return units(kind)[index] * float(sign)


@pytest.mark.parametrize("kind", KINDS)
def test_unit_products(kind):
    basis = units(kind)
    for (i, j), code in MUL_TABLE[kind].items():
        expected = signed_unit(kind, code)
        assert mul(basis[i], basis[j]).components == expected.components, (
            f"{kind}: e{i}*e{j}"
        )
        # the table is symmetric
        assert mul(basis[j], basis[i]).components == expected.components


@pytest.mark.parametrize("kind", KINDS)
def test_unit_products_table_read_off_the_kernel(kind):
    table = _unit_products(kind)
    for i in range(4):
        assert table[0][i] == table[i][0] == (i, 1)
    for (i, j), (sign, index) in MUL_TABLE[kind].items():
        assert table[i][j] == table[j][i] == (index, sign)


@pytest.mark.parametrize("kind", KINDS)
def test_scalar_unit_is_identity(kind):
    u = Quad(kind, 0.3, -1.2, 0.7, 2.0)
    assert mul(one(kind), u) == u
    assert mul(u, one(kind)) == u


def test_kind_mismatch_rejected():
    a = Quad(AlgebraKind.CIRCULAR, 1, 0, 0, 0)
    b = Quad(AlgebraKind.POLAR, 1, 0, 0, 0)
    with pytest.raises(ValueError, match="kind mismatch"):
        mul(a, b)


class TestQuadContract:
    def test_frozen(self):
        u = Quad(AlgebraKind.CIRCULAR, 1.0, 2.0, 3.0, 4.0)
        for name in ("kind", "x", "y", "z", "t"):
            with pytest.raises(AttributeError):
                setattr(u, name, 0.0)
            with pytest.raises(AttributeError):
                delattr(u, name)
        with pytest.raises(AttributeError):
            u.w = 0.0
        assert u.components == (1.0, 2.0, 3.0, 4.0)

    def test_eq_and_hash(self):
        u = Quad(AlgebraKind.POLAR, 1.0, -0.5, 0.25, 2.0)
        same = Quad(AlgebraKind.POLAR, 1.0, -0.5, 0.25, 2.0)
        assert u == same and not u != same
        assert hash(u) == hash(same)
        assert len({u, same}) == 1
        assert u != Quad(AlgebraKind.HYPERBOLIC, 1.0, -0.5, 0.25, 2.0)
        assert u != Quad(AlgebraKind.POLAR, 1.0, -0.5, 0.25, 2.5)
        assert u != (AlgebraKind.POLAR, 1.0, -0.5, 0.25, 2.0)
        # -0.0 == 0.0, so the hashes must agree too
        assert Quad(AlgebraKind.POLAR, -0.0, 0, 0, 0) == zero(AlgebraKind.POLAR)
        assert hash(Quad(AlgebraKind.POLAR, -0.0, 0, 0, 0)) == hash(
            zero(AlgebraKind.POLAR))

    def test_int_components_coerced_to_float(self):
        u = Quad(AlgebraKind.PLANAR, 1, -2, 0, 3)
        assert u.components == (1.0, -2.0, 0.0, 3.0)
        assert all(type(c) is float for c in u.components)

    @pytest.mark.parametrize("index,name", list(enumerate("xyzt")))
    @pytest.mark.parametrize("bad,text", [
        (True, "=True is not a number"), (False, "=False is not a number"),
        (10 ** 400, "=1000.* is not finite"), (-10 ** 309, "=-1000.* is not finite"),
    ], ids=["true", "false", "int-1e400", "int-minus-1e309"])
    def test_bool_or_out_of_range_int_names_component(self, index, name, bad,
                                                       text):
        comps = [0.5, 0.5, 0.5, 0.5]
        comps[index] = bad
        with pytest.raises(ValueError, match=f"^component {name}{text}$"):
            Quad(AlgebraKind.PLANAR, *comps)

    def test_kind_must_be_algebra_kind(self):
        with pytest.raises(TypeError, match="kind must be AlgebraKind"):
            Quad("circular", 1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("index,name", list(enumerate("xyzt")))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_names_component(self, index, name, bad):
        comps = [0.5, 0.5, 0.5, 0.5]
        comps[index] = bad
        with pytest.raises(ValueError,
                           match=f"component {name}=.* is not finite"):
            Quad(AlgebraKind.HYPERBOLIC, *comps)

    def test_repr_shape(self):
        u = Quad(AlgebraKind.CIRCULAR, 1.0, 0.0, -2.5, 0.125)
        assert repr(u) == ("Quad(kind=<AlgebraKind.CIRCULAR: 'circular'>, "
                           "x=1.0, y=0.0, z=-2.5, t=0.125)")

    def test_copy_and_pickle_round_trip(self):
        u = Quad(AlgebraKind.PLANAR, 0.1, 0.2, 0.3, 0.4)
        assert copy.copy(u) == u
        assert copy.deepcopy(u) == u
        assert pickle.loads(pickle.dumps(u)) == u

    def test_validation_runs_once_per_construction(self, monkeypatch):
        assert "__post_init__" in Quad.__dict__
        hook = Quad.__dict__["__post_init__"]
        calls = []

        def counting(self, *args):
            calls.append(args)
            return hook(self, *args)

        monkeypatch.setattr(Quad, "__post_init__", counting)
        product = mul(Quad(AlgebraKind.CIRCULAR, 1, 2, 3, 4),
                      Quad(AlgebraKind.CIRCULAR, 5, 6, 7, 8))
        # Each Quad(...) validates once; the product, computed from them,
        # is not validated again.
        assert len(calls) == 2
        assert type(product) is Quad
        assert product == Quad(AlgebraKind.CIRCULAR, *product.components)


class TestRecordContract:
    """Amplitude and SingularityReport keep a frozen dataclass's contract."""

    RECORDS = [
        (Amplitude(nu=16.0, rho=2.0), "Amplitude(nu=16.0, rho=2.0)"),
        (Amplitude(nu=-1.0, rho=None), "Amplitude(nu=-1.0, rho=None)"),
        (SingularityReport(singular=True, nodal_sets=("s", "s_prime"),
                           margin=0.0),
         "SingularityReport(singular=True, nodal_sets=('s', 's_prime'), "
         "margin=0.0)"),
    ]

    @pytest.mark.parametrize("record,text", RECORDS)
    def test_repr(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("record,text", RECORDS)
    def test_frozen(self, record, text):
        for name in record.__slots__ + ("other",):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, name, 1.0)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(record, name)
        assert repr(record) == text

    @pytest.mark.parametrize("record,text", RECORDS)
    def test_copy_and_pickle_round_trip(self, record, text):
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert twin == record and twin is not record
            assert type(twin) is type(record)
            assert hash(twin) == hash(record)

    def test_eq_and_hash_are_by_fields(self):
        assert Amplitude(1.0, 2.0) == Amplitude(nu=1.0, rho=2.0)
        assert Amplitude(1, 2.0) == Amplitude(1.0, 2.0)
        assert hash(Amplitude(1.0, 2.0)) == hash((1.0, 2.0))
        assert len({Amplitude(1.0, None), Amplitude(1.0, None)}) == 1
        assert Amplitude(1.0, 2.0) != Amplitude(1.0, None)
        assert Amplitude(1.0, 2.0) != (1.0, 2.0)
        report = singularity(one(AlgebraKind.PLANAR))
        assert report == SingularityReport(report.singular, report.nodal_sets,
                                           report.margin)
        assert report != SingularityReport(True, report.nodal_sets,
                                           report.margin)
        assert hash(report) == hash((report.singular, report.nodal_sets,
                                     report.margin))

    def test_match_args(self):
        match amplitude(one(AlgebraKind.POLAR)):
            case Amplitude(nu, rho):
                assert (nu, rho) == (1.0, 1.0)


def test_nonfinite_components_rejected():
    with pytest.raises(ValueError):
        Quad(AlgebraKind.CIRCULAR, math.nan, 0, 0, 0)
    with pytest.raises(ValueError):
        Quad(AlgebraKind.CIRCULAR, 0, math.inf, 0, 0)


class TestRingLaws:
    @pytest.mark.parametrize("kind", KINDS)
    def test_commutativity_exact(self, kind):
        rng = random.Random(1001)
        for _ in range(500):
            u = Quad(kind, *[rng.uniform(-2, 2) for _ in range(4)])
            v = Quad(kind, *[rng.uniform(-2, 2) for _ in range(4)])
            assert mul(u, v).components == mul(v, u).components

    @pytest.mark.parametrize("kind", KINDS)
    def test_associativity(self, kind):
        rng = random.Random(1002)
        for _ in range(500):
            u, v, w = (Quad(kind, *[rng.uniform(-2, 2) for _ in range(4)])
                       for _ in range(3))
            assert rel_diff(mul(mul(u, v), w), mul(u, mul(v, w))) < 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_distributivity(self, kind):
        rng = random.Random(1003)
        for _ in range(500):
            u, v, w = (Quad(kind, *[rng.uniform(-2, 2) for _ in range(4)])
                       for _ in range(3))
            assert rel_diff(mul(u, v + w), mul(u, v) + mul(u, w)) < 1e-10


# Hypothesis sweeps the same laws with adversarial inputs.
@settings(max_examples=200)
@given(u=quads(AlgebraKind.CIRCULAR), v=quads(AlgebraKind.CIRCULAR))
def test_commutativity_circular_hypothesis(u, v):
    assert mul(u, v).components == mul(v, u).components


@settings(max_examples=200)
@given(u=quads(AlgebraKind.POLAR), v=quads(AlgebraKind.POLAR))
def test_commutativity_polar_hypothesis(u, v):
    assert mul(u, v).components == mul(v, u).components


@settings(max_examples=100)
@given(u=quads(AlgebraKind.HYPERBOLIC), v=quads(AlgebraKind.HYPERBOLIC),
       w=quads(AlgebraKind.HYPERBOLIC))
def test_associativity_hyperbolic_hypothesis(u, v, w):
    assert rel_diff(mul(mul(u, v), w), mul(u, mul(v, w))) < 1e-10


@settings(max_examples=100)
@given(u=quads(AlgebraKind.PLANAR), v=quads(AlgebraKind.PLANAR),
       w=quads(AlgebraKind.PLANAR))
def test_distributivity_planar_hypothesis(u, v, w):
    assert rel_diff(mul(u, v + w), mul(u, v) + mul(u, w)) < 1e-10


class TestAmplitude:
    def test_circular_factored_form(self):
        u = Quad(AlgebraKind.CIRCULAR, 1.0, 2.0, -0.5, 0.25)
        x, y, z, t = u.components
        expected = (((x + t) ** 2 + (y + z) ** 2)
                    * ((x - t) ** 2 + (y - z) ** 2))
        amp = amplitude(u)
        assert amp.nu == pytest.approx(expected, rel=1e-14)
        assert amp.rho == pytest.approx(expected ** 0.25, rel=1e-14)

    def test_hyperbolic_sign_and_rho_none(self):
        pos = Quad(AlgebraKind.HYPERBOLIC, 2.0, 0.1, 0.1, 0.1)
        # (s, s', s'', s''') = (-1, 1, 1, 1): one negative factor
        neg = Quad(AlgebraKind.HYPERBOLIC, 0.5, -0.5, -0.5, -0.5)
        assert amplitude(pos).nu > 0
        assert amplitude(pos).rho is not None
        assert amplitude(neg).nu == pytest.approx(-1.0)
        assert amplitude(neg).rho is None

    def test_polar_factored_form(self):
        u = Quad(AlgebraKind.POLAR, 1.3, 0.2, -0.4, 0.9)
        x, y, z, t = u.components
        vp = x + y + z + t
        vm = x - y + z - t
        mu2 = (x - z) ** 2 + (y - t) ** 2
        assert amplitude(u).nu == pytest.approx(vp * vm * mu2, rel=1e-13)

    @pytest.mark.parametrize("kind", KINDS)
    def test_product_amplitude_multiplicative(self, kind):
        rng = random.Random(77)
        for _ in range(200):
            u = Quad(kind, *[rng.uniform(-2, 2) for _ in range(4)])
            v = Quad(kind, *[rng.uniform(-2, 2) for _ in range(4)])
            lhs = amplitude(mul(u, v)).nu
            rhs = amplitude(u).nu * amplitude(v).nu
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestModulus:
    @pytest.mark.parametrize("kind,factor", [
        (AlgebraKind.CIRCULAR, math.sqrt(2.0)),
        (AlgebraKind.PLANAR, math.sqrt(2.0)),
        (AlgebraKind.HYPERBOLIC, 2.0),
        (AlgebraKind.POLAR, 2.0),
    ])
    def test_product_inequality(self, kind, factor):
        rng = random.Random(99)
        for _ in range(500):
            u = Quad(kind, *[rng.uniform(-2, 2) for _ in range(4)])
            v = Quad(kind, *[rng.uniform(-2, 2) for _ in range(4)])
            bound = factor * modulus(u) * modulus(v)
            assert modulus(mul(u, v)) <= bound * (1 + 1e-12)

    def test_euclidean(self):
        u = Quad(AlgebraKind.CIRCULAR, 3.0, 0.0, 4.0, 0.0)
        assert modulus(u) == pytest.approx(5.0)
        assert abs(u) == pytest.approx(5.0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("x", [1e160, 1e-170, 1e300, 1e-320])
    def test_sum_of_squares_over_or_underflow(self, kind, x):
        # x * x is inf or below the smallest normal double
        assert modulus(Quad(kind, x, 0.0, 0.0, 0.0)) == x
        assert modulus(Quad(kind, x, x, x, x)) == pytest.approx(
            2.0 * x, rel=1e-15, abs=0.0)

    @given(u=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)
                         for _ in range(4)]))
    def test_normal_sum_of_squares_is_bitwise_unchanged(self, u):
        s = sum(c * c for c in u)
        if 2.2250738585072014e-308 <= s < math.inf:
            assert modulus(Quad(AlgebraKind.CIRCULAR, *u)) == math.sqrt(s)
        else:
            assert modulus(Quad(AlgebraKind.CIRCULAR, *u)) == math.hypot(*u)


class TestInverse:
    @pytest.mark.parametrize("kind", KINDS)
    def test_inverse_well_conditioned(self, kind):
        rng = random.Random(13)
        count = 0
        while count < 200:
            u = Quad(kind, *[rng.uniform(-2, 2) for _ in range(4)])
            if singularity(u).margin < 1e-1:
                continue
            count += 1
            assert max_abs_diff(mul(u, inverse(u)), one(kind)) < 1e-12

    @settings(max_examples=150)
    @given(u=nonsingular_quads(AlgebraKind.PLANAR))
    def test_inverse_planar_hypothesis(self, u):
        assert rel_diff(mul(u, inverse(u)), one(u.kind)) < 1e-10

    @settings(max_examples=150)
    @given(u=nonsingular_quads(AlgebraKind.HYPERBOLIC))
    # margin 2.5e-3: the expanded cubic adjugates cancelled to 4.3e-10 here
    @example(u=Quad(AlgebraKind.HYPERBOLIC, -1.90625, -1.90625, -1.90625,
                    -1.8967303425961388))
    def test_inverse_hyperbolic_hypothesis(self, u):
        assert rel_diff(mul(u, inverse(u)), one(u.kind)) < 1e-10

    @pytest.mark.parametrize("kind,u_comps,set_name", [
        (AlgebraKind.CIRCULAR, (1.0, 0.0, 0.0, 1.0), "rho_minus"),
        (AlgebraKind.CIRCULAR, (1.0, 0.0, 0.0, -1.0), "rho_plus"),
        (AlgebraKind.HYPERBOLIC, (2.0, 1.0, -1.0, 0.0), "s_prime"),
        (AlgebraKind.PLANAR, (-1.0, math.sqrt(2), -1.0, 0.0), "rho_plus"),
        (AlgebraKind.POLAR, (1.0, -1.0, 1.0, -1.0), "v_plus"),
        (AlgebraKind.POLAR, (1.0, 0.0, 1.0, 0.0), "mu_plus"),
    ])
    def test_nodal_inputs_raise_named(self, kind, u_comps, set_name):
        u = Quad(kind, *u_comps)
        report = singularity(u)
        assert report.singular
        assert set_name in report.nodal_sets
        with pytest.raises(SingularValue, match=set_name):
            inverse(u)

    def test_zero_divisor_pairs_multiply_to_zero(self):
        pairs = [
            (Quad(AlgebraKind.CIRCULAR, 1.0, 2.0, 2.0, 1.0),
             Quad(AlgebraKind.CIRCULAR, 3.0, 4.0, -4.0, -3.0)),
            (Quad(AlgebraKind.HYPERBOLIC, 1.0, -1.0, 2.0, -2.0),
             Quad(AlgebraKind.HYPERBOLIC, 3.0, 3.0, 4.0, 4.0)),
            (Quad(AlgebraKind.PLANAR, -1.0, math.sqrt(2), -1.0, 0.0),
             Quad(AlgebraKind.PLANAR, 1.0, math.sqrt(2), 1.0, 0.0)),
            (Quad(AlgebraKind.POLAR, 1.0, -1.0, 1.0, -1.0),
             Quad(AlgebraKind.POLAR, 2.0, 2.0, 2.0, 2.0)),
            (Quad(AlgebraKind.POLAR, 1.0, 2.0, 1.0, 2.0),
             Quad(AlgebraKind.POLAR, 1.0, 1.0, -1.0, -1.0)),
        ]
        for u, v in pairs:
            prod = mul(u, v)
            assert max(abs(c) for c in prod.components) <= 1e-12, (u, v)
            assert singularity(u).singular
            assert singularity(v).singular

    # y + z overflows in the split; y - z is 0, or one ulp of y, on rho_minus
    @pytest.mark.parametrize("y", [1.2711610061536464e308,
                                   math.nextafter(1.2711610061536464e308,
                                                  math.inf)])
    @pytest.mark.parametrize("m", [-1, -2])
    def test_nodal_value_whose_split_overflows_is_singular(self, y, m):
        u = Quad(AlgebraKind.CIRCULAR, 0.0, y, 1.2711610061536464e308, 0.0)
        for call in (lambda: inverse(u), lambda: pow_int(u, m)):
            with pytest.raises(SingularValue, match="rho_minus"):
                call()

    def test_inverse_where_a_line_part_overflows(self):
        # s = x + y + z + t is inf: its reciprocal must not be read as 0
        u = Quad(AlgebraKind.HYPERBOLIC, 1e308, 5e307, 3e307, 1e307)
        x, y, z, t = map(Fraction, u.components)
        r = [1 / p for p in (x + y + z + t, x - y + z - t, x + y - z - t,
                             x - y - z + t)]
        want = [(r[0] + r[1] + r[2] + r[3]) / 4, (r[0] - r[1] + r[2] - r[3]) / 4,
                (r[0] + r[1] - r[2] - r[3]) / 4, (r[0] - r[1] - r[2] + r[3]) / 4]
        for got in (inverse(u), pow_int(u, -1)):
            err = max(abs(Fraction(g) - w) for g, w in zip(got.components, want))
            assert err <= Fraction(1e-12) * max(map(abs, want))


class TestSingularityReport:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_margin(self, kind):
        report = singularity(one(kind))
        assert not report.singular
        assert report.nodal_sets == ()
        assert report.margin == pytest.approx(1.0, rel=0.05)

    def test_zero_flags_everything(self):
        report = singularity(zero(AlgebraKind.HYPERBOLIC))
        assert report.singular
        assert set(report.nodal_sets) == {
            "s", "s_prime", "s_double_prime", "s_triple_prime"}


def nodal_residuals(u):
    """(name, residual) per nodal set, from the kind's own formulas."""
    x, y, z, t = u.components
    if u.kind is AlgebraKind.CIRCULAR:
        return [("rho_plus", math.hypot(x + t, y + z)),
                ("rho_minus", math.hypot(x - t, y - z))]
    if u.kind is AlgebraKind.HYPERBOLIC:
        return [("s", abs(x + y + z + t)), ("s_prime", abs(x - y + z - t)),
                ("s_double_prime", abs(x + y - z - t)),
                ("s_triple_prime", abs(x - y - z + t))]
    if u.kind is AlgebraKind.PLANAR:
        a = (y - t) / math.sqrt(2.0)
        b = (y + t) / math.sqrt(2.0)
        return [("rho_plus", math.hypot(x + a, z + b)),
                ("rho_minus", math.hypot(x - a, z - b))]
    return [("v_plus", abs(x + y + z + t)), ("v_minus", abs(x - y + z - t)),
            ("mu_plus", math.hypot(x - z, y - t))]


NODAL_COMPONENTS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, math.sqrt(2)])


@settings(max_examples=300)
@given(u=st.one_of(any_kind_quads(),
                   st.sampled_from(KINDS).flatmap(
                       lambda k: quads(k, NODAL_COMPONENTS))),
       tol=st.sampled_from([1e-12, 1e-6, 0.1]))
def test_singularity_matches_nodal_formulas_bitwise(u, tol):
    scale = max(modulus(u), tol)
    want = [(name, r / scale) for name, r in nodal_residuals(u)]
    report = singularity(u, tol)
    assert report.margin == min(r for _, r in want)
    assert report.nodal_sets == tuple(n for n, r in want if r <= tol)
    assert report.singular == (report.margin <= tol)


class TestPowInt:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_repeated_mul(self, kind):
        u = Quad(kind, 0.9, -0.3, 0.2, 0.4)
        acc = one(kind)
        for m in range(7):
            assert max_abs_diff(pow_int(u, m), acc) < 1e-12 * max(
                1.0, max(abs(c) for c in acc.components))
            acc = mul(acc, u)

    def test_negative_power(self):
        u = Quad(AlgebraKind.CIRCULAR, 1.5, 0.3, -0.2, 0.1)
        assert max_abs_diff(mul(pow_int(u, -2), pow_int(u, 2)),
                            one(u.kind)) < 1e-12

    def test_negative_power_singular_raises(self):
        u = Quad(AlgebraKind.CIRCULAR, 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(SingularValue):
            pow_int(u, -1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_zeroth_and_first_powers(self, kind):
        for u in (zero(kind), Quad(kind, 1e308, 1e308, -1e308, 1e308)):
            assert pow_int(u, 0) == one(kind)
            assert pow_int(u, 1) is u
        with pytest.raises(TypeError, match="integer"):
            pow_int(one(kind), 2.5)

    def test_power_finite_where_a_split_part_of_it_overflows(self):
        # s^2 = 5.76e308 overflows; the join divides it by 4
        u = Quad(AlgebraKind.HYPERBOLIC, 6e153, 6e153, 6e153, 6e153)
        assert rel_diff(pow_int(u, 2), kernels_oracle.pow_int(u, 2)) < 1e-15

    def test_power_finite_where_the_oracle_overflows_in_a_product(self):
        # x^2 = 1.809e308 overflows inside mul; x^2 - y^2 = 1.559e308 does not
        x, y = 1.345e154, 0.5e154
        u = Quad(AlgebraKind.CIRCULAR, x, y, 0.0, 0.0)
        with pytest.raises(ResultOverflow):
            kernels_oracle.pow_int(u, 2)
        want = (Fraction(x) ** 2 - Fraction(y) ** 2, 2 * Fraction(x) * Fraction(y))
        got = pow_int(u, 2)
        assert got.z == got.t == 0.0
        for g, w in zip((got.x, got.y), want):
            assert abs(Fraction(g) - w) <= Fraction(1e-15) * w

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.integers(-8, 16))
    def test_matches_the_binary_exponentiation_oracle(self, kind, data, m):
        u = data.draw(nonsingular_quads(kind) if m < 0 else quads(kind))
        assert rel_diff(pow_int(u, m), kernels_oracle.pow_int(u, m)) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(-8, 16))
    def test_fails_as_the_oracle_does_on_wide_inputs(self, kind, data, m):
        u = data.draw(quads(kind, WIDE))
        outcomes = []
        for fn in (pow_int, kernels_oracle.pow_int):
            try:
                outcomes.append(fn(u, m))
            except (QuadfieldError, ArithmeticError, ValueError) as exc:
                outcomes.append(type(exc))
        got, want = outcomes
        if want is ResultOverflow and type(got) is Quad:
            # the oracle overflowed in an intermediate product
            event("oracle overflow where the split power is finite")
        elif type(want) is Quad:
            assert type(got) is Quad and rel_diff(got, want) <= 1e-12, got
        else:
            assert got is want


class TestSerialization:
    @settings(max_examples=100)
    @given(u=quads(AlgebraKind.PLANAR))
    def test_json_round_trip_bit_for_bit(self, u):
        reread = quad_from_json(quad_to_json(u))
        assert reread == u
        assert reread.components == u.components

    def test_json_shape(self):
        u = Quad(AlgebraKind.POLAR, 1.0, 0.25, -0.5, 0.125)
        d = json.loads(quad_to_json(u))
        assert d == {"kind": "polar", "x": 1.0, "y": 0.25,
                     "z": -0.5, "t": 0.125}


def test_backend_reports_selection():
    assert BACKEND == "python"


def test_kernel_module_exposes_twelve_kernels():
    from quadfield import _kernels_py
    for op in ("mul", "inv", "quartic", "split", "join"):
        for kind in KINDS:
            assert callable(getattr(_kernels_py, f"{op}_{kind.value}"))


@pytest.mark.parametrize("kind", KINDS)
def test_overflowing_results_are_typed(kind):
    big = Quad(kind, 1e308, 0.0, 0.0, 0.0)
    with pytest.raises(ResultOverflow, match="product exceeds"):
        mul(big, big)
    with pytest.raises(ResultOverflow, match="product exceeds"):
        pow_int(Quad(kind, 10.0, 0.0, 0.0, 0.0), 400)
    with pytest.raises(ResultOverflow, match="sum exceeds"):
        big + big
    with pytest.raises(ResultOverflow, match="difference exceeds"):
        big - (-big)
    # a non-finite input is still rejected by Quad itself
    with pytest.raises(ValueError, match="not finite"):
        Quad(kind, math.inf, 0.0, 0.0, 0.0)


# -- computed results are built without re-validation ----------------------
# add, sub, neg, scale, mul, pow_int, inverse, the plane-wise functions,
# from_exp_form, from_trig_form, from_canonical and block_diagonalize build
# their results from components computed from valid values, through a
# constructor that tests finiteness only and raises ResultOverflow.  Each
# result must be exactly what the public constructor builds, and each
# failure a QuadfieldError.

WIDE = st.one_of(COMPONENTS, st.floats(allow_nan=False, allow_infinity=False),
                 st.integers(-300, 300).map(lambda e: 1.5 * 10.0 ** e))


def computed_results(kind, u, v, c, m):
    """(name, call) for every function that builds a computed result."""
    from quadfield import canonical, elementary, matrix_rep
    return [
        ("add", lambda: u + v), ("sub", lambda: u - v), ("neg", lambda: -u),
        ("scale", lambda: c * u), ("mul", lambda: mul(u, v)),
        ("pow_int", lambda: pow_int(u, m)), ("inverse", lambda: inverse(u)),
        ("exp", lambda: elementary.exp(u)), ("log", lambda: elementary.log(u)),
        ("pow_real", lambda: elementary.pow_real(u, c)),
        ("cos", lambda: elementary.cos(u)), ("sin", lambda: elementary.sin(u)),
        ("cosh", lambda: elementary.cosh(u)),
        ("sinh", lambda: elementary.sinh(u)),
        ("from_exp_form",
         lambda: canonical.from_exp_form(canonical.exp_form(u))),
        ("from_trig_form", lambda: canonical.from_trig_form(
            trig_fields(kind, abs(u.x), u.y, u.z, u.t))),
        ("from_canonical", lambda: canonical.from_canonical(
            canonical._CANONICAL_TYPE[kind](*u.components))),
        ("block_diagonalize", lambda: matrix_rep.block_diagonalize(u)),
    ]


def trig_fields(kind, d, *angles):
    """The TrigForm of the kind with modulus d and the three angles of its
    chart, in field order."""
    from quadfield.canonical import TrigForm
    names = (("theta", "lam", "phi") if kind is AlgebraKind.POLAR
             else ("phi", "chi", "psi"))
    return TrigForm(kind, d, **dict(zip(names, angles)))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_computed_results_are_what_the_public_constructor_builds(kind, data):
    from quadfield.matrix_rep import Matrix4
    u, v = (data.draw(quads(kind, WIDE)) for _ in range(2))
    c = data.draw(st.floats(-3.0, 3.0))
    m = data.draw(st.integers(-3, 5))
    for name, call in computed_results(kind, u, v, c, m):
        try:
            r = call()
        except QuadfieldError:   # overflow, domain and nodal sets
            continue
        rebuilt = (Matrix4(r.entries) if name == "block_diagonalize"
                   else Quad(kind, *r.components))
        assert type(r) is type(rebuilt) and r == rebuilt, name
        assert stored(r) == stored(rebuilt), name


def stored(record):
    """The numbers a Quad or Matrix4 holds, as (type, float.hex) pairs."""
    values = record.components if type(record) is Quad else record.entries
    return [(type(x), float.hex(x)) for x in values]


@pytest.mark.parametrize("kind", KINDS)
def test_overflowing_computed_results_keep_their_messages(kind):
    from quadfield import canonical, elementary
    big = Quad(kind, 1e200, 1e200, 0.0, 0.0)
    far = Quad(kind, 800.0, 0.0, 0.0, 0.0)
    form = {
        AlgebraKind.CIRCULAR: dict(rho=1e308, phi=0.0, chi=0.0, psi=0.1),
        AlgebraKind.PLANAR: dict(rho=1e308, phi=0.0, chi=0.0, psi=0.1),
        AlgebraKind.HYPERBOLIC: dict(mu=1e308, y1=1.0, z1=1.0, t1=1.0),
        AlgebraKind.POLAR: dict(rho=1e308, theta_plus=0.1, theta_minus=0.1,
                                phi=0.0),
    }[kind]
    suffix = "exceeds the range of a double"
    for call, text in [
        (lambda: mul(big, big), f"{kind} product {suffix}"),
        (lambda: pow_int(big, 3), f"{kind} product {suffix}"),
        (lambda: Quad(kind, 1e308, 0, 0, 0) + Quad(kind, 1e308, 0, 0, 0),
         f"{kind} sum {suffix}"),
        (lambda: Quad(kind, 1e308, 0, 0, 0) - Quad(kind, -1e308, 0, 0, 0),
         f"{kind} difference {suffix}"),
        (lambda: elementary.exp(far),
         f"{kind} exp of (800.0, 0.0, 0.0, 0.0) {suffix}"),
        (lambda: elementary.cosh(far),
         f"{kind} cosh of (800.0, 0.0, 0.0, 0.0) {suffix}"),
        (lambda: canonical.from_exp_form(canonical.ExpForm(kind, **form)),
         f"{kind} exp form value {suffix}"),
        (lambda: 2.0 * Quad(kind, 1e308, 0, 0, 0), f"{kind} product {suffix}"),
        (lambda: inverse(Quad(kind, 1e-310, 0, 0, 0), 1e-300),
         f"{kind} inverse {suffix}"),
        (lambda: canonical.from_trig_form(
            trig_fields(kind, 1.5e308, 0.1, 0.2, 0.7)),
         f"{kind} trig form value {suffix}"),
    ] + [
        # a polar component is at most the largest field
        (lambda: canonical.from_canonical(canonical._CANONICAL_TYPE[kind](
            1.7e308, 0.0, 1.7e308, 0.0)), f"{kind} canonical value {suffix}"),
    ] * (kind is not AlgebraKind.POLAR):
        with pytest.raises(ResultOverflow) as info:
            call()
        assert str(info.value) == text


@pytest.mark.parametrize("kind", KINDS)
def test_non_finite_form_fields_are_refused_by_name(kind):
    from quadfield import canonical
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="TrigForm field d=.* not finite"):
            canonical.from_trig_form(trig_fields(kind, bad, 0.1, 0.2, 0.7))
        name = canonical._CANONICAL_TYPE[kind].__slots__[2]
        with pytest.raises(ValueError, match=f"field {name}=.* not finite"):
            canonical.from_canonical(
                canonical._CANONICAL_TYPE[kind](1.0, 0.0, bad, 0.0))
