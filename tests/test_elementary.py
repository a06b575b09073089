"""Elementary functions: cosexponentials, exp/log, trig/hyperbolic."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfield import (
    AlgebraKind,
    CosexpKind,
    DomainError,
    Quad,
    QuadfieldError,
    ResultOverflow,
    cos,
    cosexp,
    cosexp_series,
    cosh,
    exp,
    f4,
    g4,
    log,
    modulus,
    mul,
    one,
    plane_split,
    pow_int,
    pow_real,
    scale,
    sin,
    sinh,
    zero,
)

from conftest import (
    KINDS,
    exp_domain_quad,
    max_abs_diff,
    quads,
    random_quad,
    rel_diff,
)
from exp_factored_oracle import exp_factored
from fold_oracle import fold_cos_sin, fold_cosh_sinh

TWO_PI = 2.0 * math.pi


# -- independent series oracles (only use mul/add, tested elsewhere) ---------

def exp_series(u: Quad, terms: int = 60) -> Quad:
    acc = one(u.kind)
    term = one(u.kind)
    for n in range(1, terms):
        term = scale(mul(term, u), 1.0 / n)
        acc = acc + term
    return acc


def cos_series(u: Quad, terms: int = 30) -> Quad:
    acc = one(u.kind)
    term = one(u.kind)
    u2 = mul(u, u)
    for k in range(1, terms):
        term = scale(mul(term, u2), -1.0 / ((2 * k - 1) * (2 * k)))
        acc = acc + term
    return acc


def sin_series(u: Quad, terms: int = 30) -> Quad:
    acc = u
    term = u
    u2 = mul(u, u)
    for k in range(1, terms):
        term = scale(mul(term, u2), -1.0 / ((2 * k) * (2 * k + 1)))
        acc = acc + term
    return acc


def cosh_series(u: Quad, terms: int = 30) -> Quad:
    acc = one(u.kind)
    term = one(u.kind)
    u2 = mul(u, u)
    for k in range(1, terms):
        term = scale(mul(term, u2), 1.0 / ((2 * k - 1) * (2 * k)))
        acc = acc + term
    return acc


def sinh_series(u: Quad, terms: int = 30) -> Quad:
    acc = u
    term = u
    u2 = mul(u, u)
    for k in range(1, terms):
        term = scale(mul(term, u2), 1.0 / ((2 * k) * (2 * k + 1)))
        acc = acc + term
    return acc


def F(k, x):
    return cosexp(f4(k), x)


def G(k, x):
    return cosexp(g4(k), x)


XGRID = [i * 0.25 for i in range(-12, 13)]       # [-3, 3]
XWIDE = [i * 0.5 for i in range(-10, 11)]        # [-5, 5]


class TestCosexp:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            f4(4)
        with pytest.raises(ValueError):
            g4(-1)

    @pytest.mark.parametrize("k", range(4))
    def test_closed_vs_series_f(self, k):
        for x in XGRID:
            assert abs(F(k, x) - cosexp_series(f4(k), x, 40)) < 1e-12

    @pytest.mark.parametrize("k", range(4))
    def test_closed_vs_series_g(self, k):
        for x in XGRID:
            assert abs(G(k, x) - cosexp_series(g4(k), x, 40)) < 1e-12

    @settings(max_examples=200)
    @given(x=st.floats(min_value=-3, max_value=3), k=st.integers(0, 3),
           fam=st.sampled_from(["f", "g"]))
    def test_closed_vs_series_hypothesis(self, x, k, fam):
        kind = f4(k) if fam == "f" else g4(k)
        assert abs(cosexp(kind, x) - cosexp_series(kind, x, 40)) < 1e-12

    def test_values_at_zero(self):
        assert [F(k, 0.0) for k in range(4)] == [1.0, 0.0, 0.0, 0.0]
        assert [G(k, 0.0) for k in range(4)] == [1.0, 0.0, 0.0, 0.0]

    def test_g_values_at_one(self):
        assert G(0, 1.0) == pytest.approx((math.cosh(1) + math.cos(1)) / 2)
        assert G(1, 1.0) == pytest.approx((math.sinh(1) + math.sin(1)) / 2)
        assert G(2, 1.0) == pytest.approx((math.cosh(1) - math.cos(1)) / 2)
        assert G(3, 1.0) == pytest.approx(0.16686510441795244, abs=1e-15)

    def test_parity(self):
        for x in XWIDE:
            assert F(0, -x) == pytest.approx(F(0, x), abs=1e-14)
            assert F(2, -x) == pytest.approx(F(2, x), abs=1e-14)
            assert F(1, -x) == pytest.approx(-F(1, x), abs=1e-14)
            assert F(3, -x) == pytest.approx(-F(3, x), abs=1e-14)
            assert G(0, -x) == pytest.approx(G(0, x), abs=1e-14)
            assert G(1, -x) == pytest.approx(-G(1, x), abs=1e-14)

    def test_addition_theorems_f(self):
        rng = random.Random(31)
        for _ in range(200):
            x, y = rng.uniform(-5, 5), rng.uniform(-5, 5)
            a = [F(k, x) for k in range(4)]
            b = [F(k, y) for k in range(4)]
            c = [F(k, x + y) for k in range(4)]
            assert abs(c[0] - (a[0]*b[0] - a[1]*b[3] - a[2]*b[2] - a[3]*b[1])) < 1e-10
            assert abs(c[1] - (a[0]*b[1] + a[1]*b[0] - a[2]*b[3] - a[3]*b[2])) < 1e-10
            assert abs(c[2] - (a[0]*b[2] + a[1]*b[1] + a[2]*b[0] - a[3]*b[3])) < 1e-10
            assert abs(c[3] - (a[0]*b[3] + a[1]*b[2] + a[2]*b[1] + a[3]*b[0])) < 1e-10

    def test_addition_theorems_g(self):
        rng = random.Random(32)
        for _ in range(200):
            x, y = rng.uniform(-5, 5), rng.uniform(-5, 5)
            a = [G(k, x) for k in range(4)]
            b = [G(k, y) for k in range(4)]
            c = [G(k, x + y) for k in range(4)]
            assert abs(c[0] - (a[0]*b[0] + a[1]*b[3] + a[2]*b[2] + a[3]*b[1])) < 1e-10
            assert abs(c[1] - (a[0]*b[1] + a[1]*b[0] + a[2]*b[3] + a[3]*b[2])) < 1e-10
            assert abs(c[2] - (a[0]*b[2] + a[1]*b[1] + a[2]*b[0] + a[3]*b[3])) < 1e-10
            assert abs(c[3] - (a[0]*b[3] + a[1]*b[2] + a[2]*b[1] + a[3]*b[0])) < 1e-10

    def test_pair_identities(self):
        for x in XWIDE:
            a = [F(k, x) for k in range(4)]
            assert abs(a[0]**2 - a[2]**2 + 2*a[1]*a[3] - 1.0) < 1e-10
            assert abs(a[1]**2 - a[3]**2 - 2*a[0]*a[2]) < 1e-10
            b = [G(k, x) for k in range(4)]
            assert abs(b[0]**2 + b[2]**2 - 2*b[1]*b[3] - 1.0) < 1e-10
            assert abs(b[1]**2 + b[3]**2 - 2*b[0]*b[2]) < 1e-10

    def test_quartic_identity_f(self):
        # tolerance is relative to the term magnitude: the quartic terms
        # cancel from ~max(f)^4 down to 1, which costs that many digits
        for x in XWIDE:
            a0, a1, a2, a3 = (F(k, x) for k in range(4))
            value = (a0**4 + a1**4 + a2**4 + a3**4
                     + 2 * (a0**2 * a2**2 + a1**2 * a3**2)
                     + 4 * (a0**2 * a1 * a3 + a0 * a2 * a3**2
                            - a0 * a1**2 * a2 - a1 * a2**2 * a3))
            scale = max(1.0, max(abs(a0), abs(a1), abs(a2), abs(a3)) ** 4)
            assert abs(value - 1.0) < 1e-10 * scale

    def test_quartic_identity_g(self):
        for x in XWIDE:
            b0, b1, b2, b3 = (G(k, x) for k in range(4))
            value = (b0**4 - b1**4 + b2**4 - b3**4
                     - 2 * (b0**2 * b2**2 - b1**2 * b3**2)
                     - 4 * (b0**2 * b1 * b3 + b2**2 * b1 * b3
                            - b1**2 * b0 * b2 - b3**2 * b0 * b2))
            scale = max(1.0, max(abs(b0), abs(b1), abs(b2), abs(b3)) ** 4)
            assert abs(value - 1.0) < 1e-10 * scale

    def test_quartic_identity_factored_forms_exact(self):
        # the factored equivalents cancel nothing and sit at ~1e-15
        for x in XWIDE:
            b = [G(k, x) for k in range(4)]
            factored = (sum(b) * (b[0] - b[1] + b[2] - b[3])
                        * ((b[0] - b[2]) ** 2 + (b[1] - b[3]) ** 2))
            # e^{-x} factor is an alternating sum of ~e^{x}/2-sized terms,
            # so its relative error grows like e^{2x} ulp
            assert abs(factored - 1.0) < 1e-11
            a = [F(k, x) for k in range(4)]
            h = math.sqrt(2.0)
            factored_f = (((a[0] + (a[1] - a[3]) / h) ** 2
                           + (a[2] + (a[1] + a[3]) / h) ** 2)
                          * ((a[0] - (a[1] - a[3]) / h) ** 2
                             + (a[2] - (a[1] + a[3]) / h) ** 2))
            assert abs(factored_f - 1.0) < 1e-12

    def test_sum_identities_g(self):
        for x in XWIDE:
            b = [G(k, x) for k in range(4)]
            assert abs(sum(b) - math.exp(x)) < 1e-10 * max(1, math.exp(x))
            assert abs(b[0] - b[1] + b[2] - b[3] - math.exp(-x)) < 1e-10 * max(
                1, math.exp(-x))
            assert abs(b[0] - b[2] - math.cos(x)) < 1e-10
            assert abs(b[1] - b[3] - math.sin(x)) < 1e-10

    @pytest.mark.parametrize("fam,sign", [("f", -1.0), ("g", +1.0)])
    def test_derivative_chain(self, fam, sign):
        # f40'=-f43, f41'=f40, f42'=f41, f43'=f42; g40'=+g43, rest identical
        fn = F if fam == "f" else G
        h = 1e-5
        pred = {0: lambda x: sign * fn(3, x), 1: lambda x: fn(0, x),
                2: lambda x: fn(1, x), 3: lambda x: fn(2, x)}
        for x in XWIDE:
            for k in range(4):
                d = (fn(k, x + h) - fn(k, x - h)) / (2 * h)
                assert abs(d - pred[k](x)) < 1e-7

    @pytest.mark.parametrize("fam,sign", [("f", -1.0), ("g", +1.0)])
    def test_fourth_order_ode(self, fam, sign):
        # stencil truncation is (h^2/6)*f^(6) and |f^(6)| ~ 1 near 0, while
        # rounding grows as 16*eps/h^4; h=5e-3 balances both under 1e-5
        fn = F if fam == "f" else G
        h = 5e-3
        for x in [i * 0.25 for i in range(-4, 5)]:
            for k in range(4):
                d4 = (fn(k, x + 2*h) - 4*fn(k, x + h) + 6*fn(k, x)
                      - 4*fn(k, x - h) + fn(k, x - 2*h)) / h**4
                assert abs(d4 - sign * fn(k, x)) < 1e-5

    @pytest.mark.parametrize("kind,x", [(g4(0), 1000.0), (g4(3), -711.0),
                                        (f4(1), 1005.0)])
    def test_overflow_is_typed(self, kind, x):
        with pytest.raises(ResultOverflow, match="range of a double"):
            cosexp(kind, x)
        assert issubclass(ResultOverflow, QuadfieldError)
        assert issubclass(ResultOverflow, OverflowError)

    def test_series_requires_positive_terms(self):
        with pytest.raises(ValueError):
            cosexp_series(f4(0), 1.0, 0)


class TestExp:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_series(self, kind):
        rng = random.Random(41)
        for _ in range(100):
            u = random_quad(kind, rng, span=1.0)
            if modulus(u) > 2.0:
                continue
            assert max_abs_diff(exp(u), exp_series(u)) < 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_addition(self, kind):
        rng = random.Random(42)
        for _ in range(100):
            u = random_quad(kind, rng, span=0.5)
            v = random_quad(kind, rng, span=0.5)
            assert max_abs_diff(exp(u + v), mul(exp(u), exp(v))) < 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_exp_zero(self, kind):
        assert exp(Quad(kind, 0, 0, 0, 0)) == one(kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_factored_assembly(self, kind):
        rng = random.Random(43)
        for _ in range(100):
            u = random_quad(kind, rng, span=1.0)
            if modulus(u) > 2.0:
                continue
            assert max_abs_diff(exp(u), exp_factored(u)) < 1e-12

    def test_circular_unit_directions(self):
        # exp(alpha*y) = cos y + alpha sin y, etc.
        y = 0.7
        k = AlgebraKind.CIRCULAR
        assert max_abs_diff(exp(Quad(k, 0, y, 0, 0)),
                            Quad(k, math.cos(y), math.sin(y), 0, 0)) < 1e-15
        assert max_abs_diff(exp(Quad(k, 0, 0, y, 0)),
                            Quad(k, math.cos(y), 0, math.sin(y), 0)) < 1e-15
        assert max_abs_diff(exp(Quad(k, 0, 0, 0, y)),
                            Quad(k, math.cosh(y), 0, 0, math.sinh(y))) < 1e-15

    def test_planar_alpha_direction_is_cosexp(self):
        y = 1.3
        k = AlgebraKind.PLANAR
        expected = Quad(k, F(0, y), F(1, y), F(2, y), F(3, y))
        assert max_abs_diff(exp(Quad(k, 0, y, 0, 0)), expected) < 1e-14

    def test_polar_alpha_direction_is_cosexp(self):
        y = -0.8
        k = AlgebraKind.POLAR
        expected = Quad(k, G(0, y), G(1, y), G(2, y), G(3, y))
        assert max_abs_diff(exp(Quad(k, 0, y, 0, 0)), expected) < 1e-14


class TestLog:
    @pytest.mark.parametrize("kind", KINDS)
    def test_exp_log_round_trip(self, kind):
        rng = random.Random(51)
        for _ in range(150):
            u = exp_domain_quad(kind, rng)
            scale_ref = max(1.0, max(abs(c) for c in u.components))
            assert max_abs_diff(exp(log(u)), u) < 1e-10 * scale_ref

    @pytest.mark.parametrize("kind", KINDS)
    def test_log_one_is_zero(self, kind):
        assert max_abs_diff(log(one(kind)), Quad(kind, 0, 0, 0, 0)) == 0.0

    @pytest.mark.parametrize("kind,comps", [
        (AlgebraKind.CIRCULAR, (1.0, 0.0, 0.0, 1.0)),
        (AlgebraKind.HYPERBOLIC, (-1.0, 0.0, 0.0, 0.0)),
        (AlgebraKind.POLAR, (1.0, 0.0, 1.0, 0.0)),
    ])
    def test_log_rejects_outside_domain(self, kind, comps):
        with pytest.raises(DomainError):
            log(Quad(kind, *comps))

    @pytest.mark.parametrize("kind", KINDS)
    def test_log_of_product_mod_lattice(self, kind):
        """log(uv) - log u - log v lies in the period lattice."""
        rng = random.Random(52)
        for _ in range(100):
            u = exp_domain_quad(kind, rng)
            v = exp_domain_quad(kind, rng)
            delta = log(mul(u, v)) - log(u) - log(v)
            for entry in plane_split(delta):
                if isinstance(entry, complex):
                    assert abs(entry.real) < 1e-9
                    turns = entry.imag / TWO_PI
                    assert abs(turns - round(turns)) < 1e-9
                else:
                    assert abs(entry) < 1e-9


class TestPowReal:
    @pytest.mark.parametrize("kind", KINDS)
    def test_agrees_with_pow_int(self, kind):
        rng = random.Random(61)
        for _ in range(50):
            u = exp_domain_quad(kind, rng)
            for n in (1, 2, 3):
                scale_ref = max(1.0, modulus(pow_int(u, n)))
                assert max_abs_diff(pow_real(u, float(n)),
                                    pow_int(u, n)) < 1e-9 * scale_ref

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_exp_of_the_scaled_log(self, kind):
        rng = random.Random(63)
        for _ in range(200):
            u = exp_domain_quad(kind, rng)
            n = rng.uniform(-3.0, 3.0)
            want = exp(scale(log(u), n))
            assert max_abs_diff(pow_real(u, n), want) <= 1e-12 * max(
                map(abs, want.components))

    @pytest.mark.parametrize("kind", KINDS)
    def test_log_domain_and_overflow_errors(self, kind):
        with pytest.raises(DomainError) as by_log:
            log(zero(kind))
        with pytest.raises(DomainError) as by_pow:
            pow_real(zero(kind), 0.5)
        assert str(by_pow.value) == str(by_log.value)
        with pytest.raises(ResultOverflow):
            pow_real(Quad(kind, 10.0, 0.0, 0.0, 0.0), 400.0)
        with pytest.raises(ValueError, match="finite"):
            pow_real(one(kind), math.nan)

    @pytest.mark.parametrize("kind", KINDS)
    def test_square_root(self, kind):
        rng = random.Random(62)
        for _ in range(50):
            u = exp_domain_quad(kind, rng)
            r = pow_real(u, 0.5)
            assert max_abs_diff(mul(r, r), u) < 1e-10 * max(1.0, modulus(u))


class TestTrigHyperbolic:
    @pytest.mark.parametrize("kind", KINDS)
    def test_match_series(self, kind):
        rng = random.Random(71)
        for _ in range(60):
            u = random_quad(kind, rng, span=1.0)
            if modulus(u) > 2.0:
                continue
            assert max_abs_diff(cos(u), cos_series(u)) < 1e-9
            assert max_abs_diff(sin(u), sin_series(u)) < 1e-9
            assert max_abs_diff(cosh(u), cosh_series(u)) < 1e-9
            assert max_abs_diff(sinh(u), sinh_series(u)) < 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_pythagorean(self, kind):
        rng = random.Random(72)
        for _ in range(60):
            u = random_quad(kind, rng, span=1.0)
            c, s = cos(u), sin(u)
            assert max_abs_diff(mul(c, c) + mul(s, s), one(kind)) < 1e-10
            ch, sh = cosh(u), sinh(u)
            assert max_abs_diff(mul(ch, ch) - mul(sh, sh), one(kind)) < 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("fn", [exp, cosh, sinh])
    def test_overflow_is_typed(self, kind, fn):
        # every split part has real part 800
        with pytest.raises(ResultOverflow, match="range of a double"):
            fn(Quad(kind, 800.0, 0.0, 0.0, 0.0))
        with pytest.raises(ResultOverflow, match="range of a double"):
            fn(Quad(AlgebraKind.CIRCULAR, 0.0, 0.0, 0.0, 800.0))

    @pytest.mark.parametrize("kind", [AlgebraKind.CIRCULAR,
                                      AlgebraKind.HYPERBOLIC])
    def test_overflow_in_the_join_is_typed(self, kind):
        # each part is e^709.7, about 1.65e308, but the join adds them
        with pytest.raises(ResultOverflow, match="range of a double"):
            exp(Quad(kind, 709.7, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("kind,u", [
        (AlgebraKind.CIRCULAR, (0.0, 800.0, 0.0, 0.0)),
        (AlgebraKind.PLANAR, (0.0, 0.0, 800.0, 0.0)),
        (AlgebraKind.POLAR, (0.0, 800.0, 0.0, 0.0)),
    ])
    def test_trig_overflow_is_typed(self, kind, u):
        # the imaginary part of a plane is 800, so cos and sin grow like cosh
        for fn in (cos, sin):
            with pytest.raises(ResultOverflow, match="range of a double"):
                fn(Quad(kind, *u))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100)
@given(data=st.data())
def test_trig_hyperbolic_match_fold(kind, data):
    """Plane-wise cos/sin/cosh/sinh against the addition-theorem fold."""
    u = data.draw(quads(kind))
    c, s = fold_cos_sin(u)
    ch, sh = fold_cosh_sinh(u)
    assert rel_diff(cos(u), c) < 1e-12
    assert rel_diff(sin(u), s) < 1e-12
    assert rel_diff(cosh(u), ch) < 1e-12
    assert rel_diff(sinh(u), sh) < 1e-12


class TestDeMoivre:
    """Unit-direction exponential factors raised to integer powers."""

    MS = (2, 3, 5)

    def _check(self, kind, factor_at, x=0.6180339887):
        for m in self.MS:
            lhs = pow_int(factor_at(kind, x), m)
            rhs = factor_at(kind, m * x)
            assert max_abs_diff(lhs, rhs) < 1e-9

    def test_circular(self):
        k = AlgebraKind.CIRCULAR
        self._check(k, lambda k, v: Quad(k, math.cos(v), math.sin(v), 0, 0))
        self._check(k, lambda k, v: Quad(k, math.cos(v), 0, math.sin(v), 0))
        self._check(k, lambda k, v: Quad(k, math.cosh(v), 0, 0, math.sinh(v)))

    def test_hyperbolic(self):
        k = AlgebraKind.HYPERBOLIC
        self._check(k, lambda k, v: Quad(k, math.cosh(v), math.sinh(v), 0, 0))
        self._check(k, lambda k, v: Quad(k, math.cosh(v), 0, math.sinh(v), 0))
        self._check(k, lambda k, v: Quad(k, math.cosh(v), 0, 0, math.sinh(v)))

    def test_planar(self):
        k = AlgebraKind.PLANAR
        self._check(k, lambda k, v: Quad(k, F(0, v), F(1, v), F(2, v), F(3, v)))
        self._check(k, lambda k, v: Quad(k, F(0, v), F(3, v), -F(2, v), F(1, v)))

    def test_polar(self):
        k = AlgebraKind.POLAR
        self._check(k, lambda k, v: Quad(k, G(0, v), G(1, v), G(2, v), G(3, v)))
        self._check(k, lambda k, v: Quad(k, G(0, v), G(3, v), G(2, v), G(1, v)))
