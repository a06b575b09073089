"""Arithmetic layer: multiplication tables, laws, amplitudes, inverses."""

import copy
import json
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadfield import (
    AlgebraKind,
    Quad,
    ResultOverflow,
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

from conftest import (
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
        u = Quad(AlgebraKind.PLANAR, 1, -2, 0, True)
        assert u.components == (1.0, -2.0, 0.0, 1.0)
        assert all(type(c) is float for c in u.components)

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
        mul(Quad(AlgebraKind.CIRCULAR, 1, 2, 3, 4),
            Quad(AlgebraKind.CIRCULAR, 5, 6, 7, 8))
        assert len(calls) == 3


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
    for op in ("mul", "inv", "quartic"):
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
