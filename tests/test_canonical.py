"""Decoupling coordinates, idempotent bases, exponential/trig forms."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfield import (
    CANONICAL_BASES,
    AlgebraKind,
    DomainError,
    ExpForm,
    Quad,
    ResultOverflow,
    canonical_mul,
    exp,
    exp_form,
    expform_from_dict,
    expform_to_dict,
    from_canonical,
    from_exp_form,
    from_trig_form,
    mul,
    one,
    plane_join,
    plane_split,
    to_canonical,
    trig_form,
)

from conftest import (
    KINDS,
    angles_close_mod,
    exp_domain_quad,
    max_abs_diff,
    quads,
    random_quad,
    record_fields,
)

TWO_PI = 2.0 * math.pi


def test_plane_maps_are_reexported_from_algebra_core():
    from quadfield import algebra_core, canonical
    assert canonical.plane_split is algebra_core.plane_split
    assert canonical.plane_join is algebra_core.plane_join


def test_domain_error_is_reexported_from_algebra_core():
    from quadfield import algebra_core, canonical
    assert canonical.DomainError is algebra_core.DomainError


def to_canonical_oracle(u):
    """The canonical coordinates of each kind, written out by hand."""
    x, y, z, t = u.components
    r = math.sqrt(2.0)
    if u.kind is AlgebraKind.CIRCULAR:
        return ((x + t) / r, (y + z) / r, (x - t) / r, (y - z) / r)
    if u.kind is AlgebraKind.HYPERBOLIC:
        return (x + y + z + t, x - y + z - t, x + y - z - t, x - y - z + t)
    if u.kind is AlgebraKind.PLANAR:
        a = (y - t) / 2.0
        b = (y + t) / 2.0
        return (x / r + a, z / r + b, x / r - a, -z / r + b)
    return (x + y + z + t, x - y + z - t, x - z, y - t)


class TestCoordinateMaps:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_written_out_formulas(self, kind):
        rng = random.Random(1)
        for _ in range(300):
            u = random_quad(kind, rng)
            got = record_fields(to_canonical(u))
            want = to_canonical_oracle(u)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15

    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip(self, kind):
        rng = random.Random(2)
        for _ in range(300):
            u = random_quad(kind, rng)
            assert max_abs_diff(from_canonical(to_canonical(u)), u) < 1e-14

    @pytest.mark.parametrize("kind", KINDS)
    def test_canonical_mul_matches_direct(self, kind):
        rng = random.Random(3)
        for _ in range(300):
            u, v = random_quad(kind, rng), random_quad(kind, rng)
            via_canonical = from_canonical(
                canonical_mul(to_canonical(u), to_canonical(v)))
            assert max_abs_diff(via_canonical, mul(u, v)) < 1e-12

    def test_canonical_mul_kind_mismatch(self):
        a = to_canonical(one(AlgebraKind.CIRCULAR))
        b = to_canonical(one(AlgebraKind.HYPERBOLIC))
        with pytest.raises(ValueError):
            canonical_mul(a, b)

    @settings(max_examples=200)
    @given(u=quads(AlgebraKind.PLANAR), v=quads(AlgebraKind.PLANAR))
    def test_canonical_mul_planar_hypothesis(self, u, v):
        via = from_canonical(canonical_mul(to_canonical(u), to_canonical(v)))
        assert max_abs_diff(via, mul(u, v)) < 1e-12


class TestPlaneSplit:
    @pytest.mark.parametrize("kind", KINDS)
    def test_join_inverts_split(self, kind):
        rng = random.Random(5)
        for _ in range(200):
            u = random_quad(kind, rng)
            assert max_abs_diff(plane_join(kind, plane_split(u)), u) < 1e-14

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_entry_is_ring_homomorphism(self, kind):
        rng = random.Random(6)
        for _ in range(200):
            u, v = random_quad(kind, rng), random_quad(kind, rng)
            pu, pv, puv = plane_split(u), plane_split(v), plane_split(mul(u, v))
            for a, b, ab in zip(pu, pv, puv):
                assert abs(a * b - ab) < 1e-12
            for a, b, apb in zip(pu, pv, plane_split(u + v)):
                assert abs(a + b - apb) < 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_maps_to_ones(self, kind):
        for entry in plane_split(one(kind)):
            assert abs(entry - 1.0) < 1e-15


class TestIdempotentBases:
    @pytest.mark.parametrize("kind", KINDS)
    def test_idempotents_square_to_themselves(self, kind):
        # planar basis entries contain 1/(2*sqrt(2)): one-ulp slack there
        tol = 1e-15 if kind is AlgebraKind.PLANAR else 0.0
        e_list = CANONICAL_BASES[kind]
        idempotent_idx = ((0, 2) if kind in (AlgebraKind.CIRCULAR,
                                             AlgebraKind.PLANAR)
                          else (0, 1, 2, 3) if kind is AlgebraKind.HYPERBOLIC
                          else (0, 1))
        for i in idempotent_idx:
            e = e_list[i]
            assert max_abs_diff(mul(e, e), e) <= tol

    def test_circular_pair_relations(self):
        e1, e1t, e2, e2t = CANONICAL_BASES[AlgebraKind.CIRCULAR]
        assert mul(e1t, e1t) == -e1          # tilde squares to -idempotent
        assert mul(e2t, e2t) == -e2
        assert mul(e1, e2).components == (0, 0, 0, 0)
        assert mul(e1, e2t).components == (0, 0, 0, 0)
        assert max_abs_diff(e1 + e2, one(AlgebraKind.CIRCULAR)) == 0

    def test_hyperbolic_orthogonal_partition(self):
        basis = CANONICAL_BASES[AlgebraKind.HYPERBOLIC]
        total = basis[0]
        for e in basis[1:]:
            total = total + e
        assert total == one(AlgebraKind.HYPERBOLIC)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                if i != j:
                    assert mul(a, b).components == (0, 0, 0, 0)

    def test_planar_pair_relations(self):
        e1, e1t, e2, e2t = CANONICAL_BASES[AlgebraKind.PLANAR]
        assert max_abs_diff(mul(e1t, e1t), -e1) <= 1e-15
        assert max_abs_diff(mul(e2t, e2t), -e2) <= 1e-15
        assert max_abs_diff(mul(e1, e2), Quad(AlgebraKind.PLANAR, 0, 0, 0, 0)) <= 1e-15
        assert max_abs_diff(e1 + e2, one(AlgebraKind.PLANAR)) <= 1e-15

    def test_polar_relations(self):
        ep, em, e1, e1t = CANONICAL_BASES[AlgebraKind.POLAR]
        assert mul(e1t, e1t) == -e1
        assert mul(ep, em).components == (0, 0, 0, 0)
        assert mul(ep, e1).components == (0, 0, 0, 0)
        assert mul(em, e1t).components == (0, 0, 0, 0)
        assert max_abs_diff(ep + em + e1, one(AlgebraKind.POLAR)) == 0


class TestExpForm:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_on_domain(self, kind):
        rng = random.Random(11)
        for _ in range(150):
            u = exp_domain_quad(kind, rng)
            back = from_exp_form(exp_form(u))
            scale = max(1.0, max(abs(c) for c in u.components))
            assert max_abs_diff(back, u) < 1e-10 * scale

    def test_fields_checked_per_kind(self):
        with pytest.raises(ValueError, match="requires field psi"):
            ExpForm(kind=AlgebraKind.CIRCULAR, rho=1.0, phi=0.0, chi=0.0)
        with pytest.raises(ValueError, match="does not take field mu"):
            ExpForm(kind=AlgebraKind.PLANAR, rho=1.0, phi=0.0, chi=0.0,
                    psi=0.5, mu=1.0)
        with pytest.raises(ValueError, match="does not take field rho"):
            ExpForm(kind=AlgebraKind.HYPERBOLIC, mu=1.0, y1=0.0, z1=0.0,
                    t1=0.0, rho=1.0)

    def test_circular_unit_angles(self):
        f = exp_form(one(AlgebraKind.CIRCULAR))
        assert f.rho == pytest.approx(1.0)
        assert f.phi == pytest.approx(0.0, abs=1e-15)
        assert f.chi == pytest.approx(0.0, abs=1e-15)
        assert f.psi == pytest.approx(math.pi / 4)

    def test_polar_unit_angles(self):
        f = exp_form(one(AlgebraKind.POLAR))
        assert f.rho == pytest.approx(1.0)
        assert math.cos(f.theta_plus) == pytest.approx(1 / math.sqrt(3))
        assert f.theta_minus == pytest.approx(f.theta_plus)
        assert f.phi == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kind,comps,condition", [
        (AlgebraKind.CIRCULAR, (1.0, 0.0, 0.0, 1.0), "rho_minus"),
        (AlgebraKind.CIRCULAR, (0.0, 0.0, 0.0, 0.0), "rho_plus"),
        (AlgebraKind.HYPERBOLIC, (0.0, 1.0, 0.0, 0.0), "s"),
        (AlgebraKind.HYPERBOLIC, (-1.0, 0.0, 0.0, 0.0), "s"),
        (AlgebraKind.PLANAR, (-1.0, math.sqrt(2), -1.0, 0.0), "rho_plus"),
        (AlgebraKind.POLAR, (1.0, -1.0, 1.0, -1.0), "v_plus"),
        (AlgebraKind.POLAR, (1.0, 0.0, 1.0, 0.0), "mu_plus"),
    ])
    def test_rejects_outside_domain(self, kind, comps, condition):
        with pytest.raises(DomainError, match=condition):
            exp_form(Quad(kind, *comps))

    @pytest.mark.parametrize("kind,comps,field", [
        # psi = atan2(rho_plus, rho_minus) underflows to 0
        (AlgebraKind.CIRCULAR, (5e299, 5e-301, 5e-301, -5e299), "psi"),
        # theta_plus = atan2(sqrt(2) mu_plus, v_plus) underflows to 0
        (AlgebraKind.POLAR, (1e150, 5e-301, 1e150, -5e-301), "theta_plus"),
        # |w1| itself is beyond the double range (abs() raises OverflowError)
        (AlgebraKind.POLAR, (0.0, 0.0, 1.7976931348623157e308, 1.9e300), "rho"),
        # s and s' overflow to inf, so mu = exp(inf)
        (AlgebraKind.HYPERBOLIC, (1.5e308, 0.0, 0.5e308, 0.0), "mu"),
    ])
    def test_field_out_of_range_is_domain_error(self, kind, comps, field):
        with pytest.raises(DomainError, match=rf"finite {field} "):
            exp_form(Quad(kind, *comps))

    @pytest.mark.parametrize("kind,comps,rho", [
        # rho_plus * rho_minus (circular, planar) or vp * vm * mu_plus**2
        # (polar) under- or overflows although rho itself is a double
        (AlgebraKind.CIRCULAR, (1e-170, 0.0, 0.0, 0.0), 1e-170),
        (AlgebraKind.CIRCULAR, (1e160, 0.0, 0.0, 0.0), 1e160),
        (AlgebraKind.PLANAR, (1e-170, 0.0, 0.0, 0.0), 1e-170),
        (AlgebraKind.PLANAR, (1e160, 0.0, 0.0, 0.0), 1e160),
        (AlgebraKind.POLAR, (1e80, 0.0, 0.0, 0.0), 1e80),
        (AlgebraKind.POLAR, (1e-90, 0.0, 0.0, 0.0), 1e-90),
    ])
    def test_rho_survives_an_intermediate_over_or_underflow(self, kind, comps,
                                                            rho):
        f = exp_form(Quad(kind, *comps))
        assert f.rho == pytest.approx(rho, rel=1e-14, abs=0.0)
        assert from_exp_form(f).x == pytest.approx(rho, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind,x", [
        # the product under rho is subnormal, not 0
        (AlgebraKind.POLAR, 1e-80),
        (AlgebraKind.CIRCULAR, 1e-160),
        (AlgebraKind.PLANAR, 1e-160),
    ])
    def test_rho_survives_a_subnormal_product(self, kind, x):
        assert exp_form(Quad(kind, x, 0.0, 0.0, 0.0)).rho == pytest.approx(
            x, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("x", [1e-170, 1e160])
    def test_trig_form_modulus_at_the_ends_of_the_double_range(self, kind, x):
        # modulus squares the components; d must not under- or overflow
        assert trig_form(Quad(kind, x, 0.0, 0.0, 0.0)).d == x

    @pytest.mark.parametrize("kind", [AlgebraKind.CIRCULAR, AlgebraKind.PLANAR])
    @pytest.mark.parametrize("x", [1e-170, 1e160])
    def test_trig_form_at_the_ends_of_the_double_range(self, kind, x):
        # trig_form reads phi, chi and psi from exp_form, which must not
        # reject these values on account of rho
        f = trig_form(Quad(kind, x, 0.0, 0.0, 0.0))
        assert (f.phi, f.chi) == (0.0, 0.0)
        assert f.psi == pytest.approx(math.pi / 4.0, rel=1e-15)

    @settings(max_examples=400)
    @given(kind=st.sampled_from(KINDS),
           comps=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)
                             for _ in range(4)]))
    def test_every_form_is_accepted_by_from_exp_form(self, kind, comps):
        try:
            f = exp_form(Quad(kind, *comps))
        except DomainError:
            return
        try:
            from_exp_form(f)
        except ResultOverflow:   # the fields passed; evaluating overflowed
            pass

    @pytest.mark.parametrize("kind", [AlgebraKind.CIRCULAR, AlgebraKind.PLANAR])
    def test_angle_additivity_phi_chi(self, kind):
        rng = random.Random(13)
        for _ in range(100):
            u, v = exp_domain_quad(kind, rng), exp_domain_quad(kind, rng)
            fu, fv, fuv = exp_form(u), exp_form(v), exp_form(mul(u, v))
            assert angles_close_mod(fuv.phi, fu.phi + fv.phi, TWO_PI, 1e-9)
            assert angles_close_mod(fuv.chi, fu.chi + fv.chi, TWO_PI, 1e-9)

    def test_angle_additivity_polar(self):
        rng = random.Random(14)
        for _ in range(100):
            u = exp_domain_quad(AlgebraKind.POLAR, rng)
            v = exp_domain_quad(AlgebraKind.POLAR, rng)
            fu, fv, fuv = exp_form(u), exp_form(v), exp_form(mul(u, v))
            assert angles_close_mod(fuv.phi, fu.phi + fv.phi, TWO_PI, 1e-9)

    def test_hyperbolic_exponents_add(self):
        rng = random.Random(15)
        for _ in range(100):
            u = exp_domain_quad(AlgebraKind.HYPERBOLIC, rng)
            v = exp_domain_quad(AlgebraKind.HYPERBOLIC, rng)
            fu, fv, fuv = exp_form(u), exp_form(v), exp_form(mul(u, v))
            assert fuv.y1 == pytest.approx(fu.y1 + fv.y1, abs=1e-9)
            assert fuv.z1 == pytest.approx(fu.z1 + fv.z1, abs=1e-9)
            assert fuv.t1 == pytest.approx(fu.t1 + fv.t1, abs=1e-9)
            assert fuv.mu == pytest.approx(fu.mu * fv.mu, rel=1e-9)

    def test_dict_round_trip_bit_for_bit(self):
        rng = random.Random(16)
        for kind in KINDS:
            for _ in range(50):
                f = exp_form(exp_domain_quad(kind, rng))
                assert expform_from_dict(expform_to_dict(f)) == f

    def test_expform_field_validation(self):
        with pytest.raises((ValueError, TypeError)):
            expform_from_dict({"kind": "circular", "rho": 1.0})  # missing angles
        with pytest.raises((ValueError, TypeError)):
            expform_from_dict({"kind": "circular", "rho": 1.0, "phi": 0.0,
                               "chi": 0.0, "psi": 0.5, "mu": 3.0})  # stray field

    def test_expform_from_dict_unknown_key_is_type_error(self):
        with pytest.raises(TypeError, match="'nope'"):
            expform_from_dict({"kind": "circular", "rho": 1.0, "phi": 0.0,
                               "chi": 0.0, "psi": 0.5, "nope": 1.0})


# A valid exp form of each kind; each case below spoils one field.
VALID_FIELDS = {
    AlgebraKind.CIRCULAR: dict(rho=1.5, phi=0.3, chi=5.0, psi=0.7),
    AlgebraKind.PLANAR: dict(rho=1.5, phi=0.3, chi=5.0, psi=0.7),
    AlgebraKind.HYPERBOLIC: dict(mu=1.5, y1=0.3, z1=-0.2, t1=0.1),
    AlgebraKind.POLAR: dict(rho=1.5, theta_plus=0.6, theta_minus=0.9,
                            phi=0.3),
}
FIELD_CASES = [(kind, name) for kind, fields in VALID_FIELDS.items()
               for name in fields]
OUT_OF_RANGE = {
    "rho": (0.0, -1.0, -math.inf),
    "mu": (0.0, -1.0),
    "psi": (0.0, -0.1, 1.6, math.pi),
    "theta_plus": (0.0, -0.1, 1.6),
    "theta_minus": (0.0, -0.1, 1.6),
}


class TestExpFormRanges:
    @pytest.mark.parametrize("kind", KINDS)
    def test_other_number_types_give_float_components(self, kind):
        # from_exp_form builds its Quad without converting the components,
        # so the fields' number type must not reach them.
        np = pytest.importorskip("numpy")
        want = from_exp_form(ExpForm(kind=kind, **VALID_FIELDS[kind]))
        for convert in (np.float64, np.float32):
            u = from_exp_form(ExpForm(kind=kind, **{
                name: convert(v) for name, v in VALID_FIELDS[kind].items()}))
            assert all(type(c) is float for c in u.components), convert
            if convert is np.float64:
                assert u.components == want.components

    @pytest.mark.parametrize("kind,name", FIELD_CASES)
    def test_non_finite_field_is_domain_error(self, kind, name):
        for bad in (math.inf, -math.inf, math.nan):
            f = ExpForm(kind=kind, **{**VALID_FIELDS[kind], name: bad})
            with pytest.raises(DomainError, match=rf"finite {name}\b"):
                from_exp_form(f)

    @pytest.mark.parametrize("kind,name", [
        case for case in FIELD_CASES if case[1] in OUT_OF_RANGE])
    def test_out_of_range_field_is_domain_error(self, kind, name):
        for bad in OUT_OF_RANGE[name]:
            f = ExpForm(kind=kind, **{**VALID_FIELDS[kind], name: bad})
            with pytest.raises(DomainError, match=rf"finite {name}\b"):
                from_exp_form(f)

    @pytest.mark.parametrize("kind", KINDS)
    def test_open_range_ends_and_periodic_angles_accepted(self, kind):
        base = from_exp_form(ExpForm(kind=kind, **VALID_FIELDS[kind]))
        # no double equals pi/2: the one nearest it lies inside (0, pi/2)
        for name in ("psi", "theta_plus", "theta_minus"):
            if name in VALID_FIELDS[kind]:
                from_exp_form(ExpForm(kind=kind, **{**VALID_FIELDS[kind],
                                                    name: math.pi / 2}))
        # phi and chi are periodic, not range-checked
        for name in ("phi", "chi"):
            if name in VALID_FIELDS[kind]:
                v = VALID_FIELDS[kind][name]
                f = ExpForm(kind=kind, **{**VALID_FIELDS[kind],
                                          name: v - 3 * TWO_PI})
                assert max_abs_diff(from_exp_form(f), base) < 1e-12


class TestTrigForm:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_on_domain(self, kind):
        rng = random.Random(21)
        for _ in range(150):
            u = exp_domain_quad(kind, rng)
            back = from_trig_form(trig_form(u))
            scale = max(1.0, max(abs(c) for c in u.components))
            assert max_abs_diff(back, u) < 1e-10 * scale

    def test_unit_reference_angles(self):
        f = trig_form(one(AlgebraKind.CIRCULAR))
        assert f.d == pytest.approx(1.0)
        assert f.psi == pytest.approx(math.pi / 4)
        assert f.phi == pytest.approx(0.0, abs=1e-15)
        assert f.chi == pytest.approx(0.0, abs=1e-15)

        g = trig_form(one(AlgebraKind.POLAR))
        assert g.d == pytest.approx(1.0)
        assert math.cos(g.theta) == pytest.approx(1 / math.sqrt(2))
        assert g.lam == pytest.approx(math.pi / 4)

    def test_modulus_equals_d(self):
        rng = random.Random(22)
        for kind in KINDS:
            for _ in range(50):
                u = exp_domain_quad(kind, rng)
                assert trig_form(u).d == pytest.approx(abs(u), rel=1e-12)


class TestExpConsistency:
    """exp_form of exp(v) recovers v's data (cross-module consistency)."""

    def test_circular_exponent_recovery(self):
        v = Quad(AlgebraKind.CIRCULAR, 0.3, 0.4, -0.2, 0.1)
        f = exp_form(exp(v))
        # ln rho = x, (phi+chi)/2 = y (mod pi adjustments stay small here)
        assert math.log(f.rho) == pytest.approx(v.x, abs=1e-12)

    def test_hyperbolic_exponent_recovery(self):
        v = Quad(AlgebraKind.HYPERBOLIC, 0.2, 0.15, -0.1, 0.05)
        f = exp_form(exp(v))
        assert math.log(f.mu) == pytest.approx(v.x, abs=1e-12)
        assert f.y1 == pytest.approx(v.y, abs=1e-12)
        assert f.z1 == pytest.approx(v.z, abs=1e-12)
        assert f.t1 == pytest.approx(v.t, abs=1e-12)
