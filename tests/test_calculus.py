"""Series, analyticity checks, loop integration and residues."""

import math
import random
import warnings

import pytest

from quadfield import (
    AlgebraKind,
    ConvergenceBounds,
    DegenerateSeries,
    Loop,
    NearBoundaryWarning,
    OnBoundary,
    Quad,
    SeriesSpec,
    SingularOnPath,
    WindingQuery,
    check_analytic,
    check_second_order,
    convergence_bounds,
    eval_series,
    eval_series_canonical,
    exp,
    integrate_loop,
    inverse,
    mul,
    one,
    plane_join,
    pow_int,
    residue_prediction,
    scale,
    winding,
    zero,
)
from quadfield.calculus import RESIDUE_UNITS

from conftest import KINDS, max_abs_diff, random_quad

PI = math.pi
SQRT2 = math.sqrt(2.0)


def ones_series(kind, n):
    return SeriesSpec(kind, tuple(one(kind) for _ in range(n)))


class TestSeries:
    @pytest.mark.parametrize("kind", KINDS)
    def test_horner_matches_canonical_oracle(self, kind):
        rng = random.Random(81)
        for _ in range(100):
            coeffs = tuple(random_quad(kind, rng, span=1.0) for _ in range(6))
            s = SeriesSpec(kind, coeffs)
            u = random_quad(kind, rng, span=0.7)
            a, b = eval_series(s, u), eval_series_canonical(s, u)
            assert max_abs_diff(a, b) < 1e-10 * max(
                1.0, max(abs(c) for c in a.components))

    def test_geometric_series_sums(self):
        # sum u^l for l<40 at small u equals inverse(1-u)
        kind = AlgebraKind.CIRCULAR
        u = Quad(kind, 0.1, 0.05, -0.04, 0.08)
        s = ones_series(kind, 40)
        expected = inverse(one(kind) - u)
        assert max_abs_diff(eval_series(s, u), expected) < 1e-12

    def test_kind_mismatch(self):
        s = ones_series(AlgebraKind.POLAR, 4)
        with pytest.raises(ValueError):
            eval_series(s, one(AlgebraKind.CIRCULAR))
        with pytest.raises(ValueError):
            SeriesSpec(AlgebraKind.POLAR,
                       (one(AlgebraKind.POLAR), one(AlgebraKind.PLANAR)))


class TestConvergenceBounds:
    def test_all_ones_circular(self):
        b = convergence_bounds(ones_series(AlgebraKind.CIRCULAR, 8))
        assert isinstance(b, ConvergenceBounds)
        assert b.global_bound == pytest.approx(1 / SQRT2)
        assert b.canonical == pytest.approx((1.0, 1.0))

    def test_halving_hyperbolic(self):
        kind = AlgebraKind.HYPERBOLIC
        coeffs = tuple(scale(one(kind), 2.0 ** -l) for l in range(9))
        b = convergence_bounds(SeriesSpec(kind, coeffs))
        assert b.global_bound == pytest.approx(1.0)
        assert b.canonical == pytest.approx((2.0, 2.0, 2.0, 2.0))

    def test_polar_has_three_canonical_radii(self):
        b = convergence_bounds(ones_series(AlgebraKind.POLAR, 8))
        assert len(b.canonical) == 3

    def test_degenerate_cases(self):
        kind = AlgebraKind.CIRCULAR
        with pytest.raises(DegenerateSeries):
            convergence_bounds(ones_series(kind, 1))
        coeffs = (one(kind), zero(kind), one(kind))
        with pytest.raises(DegenerateSeries):
            convergence_bounds(SeriesSpec(kind, coeffs))

    def test_canonical_inf_when_plane_dies(self):
        # circular coefficient with w2 = 0: tau/zeta plane sees only zeros
        kind = AlgebraKind.CIRCULAR
        a = plane_join(kind, (1.0 + 0.0j, 0.0j))
        with pytest.raises(DegenerateSeries):
            # modulus of a is fine but the plane ratio would be 0/0 only if
            # the whole coefficient dies; a zero plane gives inf instead
            convergence_bounds(SeriesSpec(kind, (zero(kind), a)))
        b = convergence_bounds(SeriesSpec(kind, (a, a, a)))
        assert b.canonical[0] == pytest.approx(1.0)
        assert b.canonical[1] == math.inf


class TestAnalyticityChecks:
    FUNCS = {
        "square": lambda u: mul(u, u),
        "cube": lambda u: pow_int(u, 3),
        "exp": exp,
    }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", ["square", "cube", "exp"])
    def test_analytic_functions_pass(self, kind, name):
        rng = random.Random(91)
        f = self.FUNCS[name]
        for _ in range(10):
            u0 = random_quad(kind, rng, span=1.0)
            assert check_analytic(f, u0) <= 1e-6
            assert check_second_order(f, u0) <= 1e-4

    @pytest.mark.parametrize("kind", KINDS)
    def test_component_flip_fails(self, kind):
        def not_analytic(u):
            return Quad(u.kind, u.x, -u.y, u.z, u.t)
        u0 = Quad(kind, 0.4, 0.3, -0.2, 0.1)
        assert check_analytic(not_analytic, u0) > 1e-2
        assert check_second_order(lambda u: Quad(u.kind, u.x * u.y, 0, 0, 0),
                                  u0) > 1e-2

    @pytest.mark.parametrize("kind", KINDS)
    def test_constant_is_flat(self, kind):
        c = Quad(kind, 1.0, 2.0, 3.0, 4.0)
        u0 = Quad(kind, 0.3, -0.1, 0.2, 0.5)
        assert check_analytic(lambda u: c, u0) == 0.0
        assert check_second_order(lambda u: c, u0) == 0.0


class TestLoopConstruction:
    def test_from_points_requires_enough_segments(self):
        kind = AlgebraKind.CIRCULAR
        pts = [Quad(kind, math.cos(a), math.sin(a), 0, 0)
               for a in [i * 2 * PI / 4 for i in range(4)]]
        with pytest.raises(ValueError):
            Loop.from_points(pts + [pts[0]])

    def test_from_points_snaps_closure(self):
        kind = AlgebraKind.CIRCULAR
        pts = [Quad(kind, math.cos(a), math.sin(a), 0, 0)
               for a in [i * 2 * PI / 16 for i in range(16)]]
        loop = Loop.from_points(pts + [pts[0] + Quad(kind, 1e-14, 0, 0, 0)])
        assert loop.points[0] is loop.points[-1]

    def test_constructor_rejects_open(self):
        kind = AlgebraKind.CIRCULAR
        pts = [Quad(kind, math.cos(a), math.sin(a), 0, 0)
               for a in [i * 2 * PI / 16 for i in range(16)]]
        with pytest.raises(ValueError, match="not closed"):
            Loop(points=tuple(pts + [pts[0] + Quad(kind, 0.1, 0, 0, 0)]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_circle_is_closed_exactly(self, kind):
        loop = Loop.circle(one(kind), 0.5, samples=64)
        assert len(loop.points) == 65
        assert loop.points[0] is loop.points[-1]

    def test_polar_minus_plane_rejected(self):
        with pytest.raises(ValueError, match="plus"):
            Loop.circle(one(AlgebraKind.POLAR), 0.5, plane="minus")

    def test_mixed_kind_points_rejected(self):
        a = one(AlgebraKind.CIRCULAR)
        b = one(AlgebraKind.POLAR)
        with pytest.raises(ValueError):
            Loop.from_points([a] * 8 + [b, a])


class TestWinding:
    SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))

    def test_interior(self):
        assert winding(WindingQuery((0.5, 0.5), self.SQUARE)) == 1

    def test_exterior(self):
        assert winding(WindingQuery((3.0, 0.5), self.SQUARE)) == 0
        assert winding(WindingQuery((-1.0, 0.5), self.SQUARE)) == 0

    def test_boundary_raises(self):
        with pytest.raises(OnBoundary):
            winding(WindingQuery((0.5, 0.0), self.SQUARE))
        with pytest.raises(OnBoundary):
            winding(WindingQuery((1.0, 1.0), self.SQUARE))

    def test_cavity_of_c_shape(self):
        c_shape = ((0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2),
                   (3, 3), (0, 3), (0, 0))
        poly = tuple((float(a), float(b)) for a, b in c_shape)
        assert winding(WindingQuery((2.0, 1.5), poly)) == 0   # in the cavity
        assert winding(WindingQuery((0.5, 1.5), poly)) == 1   # in the arm

    def test_clockwise_counts_minus_one(self):
        clockwise = tuple(reversed(self.SQUARE))
        assert winding(WindingQuery((0.5, 0.5), clockwise)) == -1
        assert winding(WindingQuery((3.0, 0.5), clockwise)) == 0

    def test_twice_wound_counts_two(self):
        twice = self.SQUARE[:-1] + self.SQUARE
        assert winding(WindingQuery((0.5, 0.5), twice)) == 2
        assert winding(WindingQuery((-1.0, 0.5), twice)) == 0

    def test_polygon_validation(self):
        with pytest.raises(ValueError):
            WindingQuery((0, 0), ((0, 0), (1, 0), (0, 0)))
        with pytest.raises(ValueError):
            WindingQuery((0, 0), ((0, 0), (1, 0), (1, 1), (0, 1)))


class TestIntegration:
    def test_circular_pole_plus_circle(self):
        kind = AlgebraKind.CIRCULAR
        u0 = Quad(kind, 0.2, 0.1, -0.05, 0.15)
        loop = Loop.circle(u0, 1.0, plane="plus", samples=4096)
        f = lambda u: inverse(u - u0)
        result = integrate_loop(f, loop)
        expected = Quad(kind, 0.0, PI, PI, 0.0)
        assert residue_prediction([(u0, one(kind))], loop) == expected
        assert max_abs_diff(result, expected) <= 1e-5

    def test_circular_pole_minus_circle(self):
        kind = AlgebraKind.CIRCULAR
        u0 = Quad(kind, -0.3, 0.2, 0.1, 0.05)
        loop = Loop.circle(u0, 0.8, plane="minus", samples=4096)
        result = integrate_loop(lambda u: inverse(u - u0), loop)
        expected = Quad(kind, 0.0, PI, -PI, 0.0)
        assert max_abs_diff(result, expected) <= 1e-5

    def test_planar_pole_plus_circle(self):
        kind = AlgebraKind.PLANAR
        u0 = Quad(kind, 0.1, 0.0, 0.2, 0.0)
        loop = Loop.circle(u0, 1.0, plane="plus", samples=4096)
        result = integrate_loop(lambda u: inverse(u - u0), loop)
        expected = Quad(kind, 0.0, PI / SQRT2, PI, PI / SQRT2)
        assert max_abs_diff(result, expected) <= 1e-5

    def test_polar_pole_parallel_circle(self):
        kind = AlgebraKind.POLAR
        u0 = Quad(kind, 1.0, 0.2, 0.1, -0.1)
        center = u0 + Quad(kind, 0.2, 0.0, 0.2, 0.0)   # offset in v+ and v-
        loop = Loop.circle(center, 1.0, samples=4096)
        result = integrate_loop(lambda u: inverse(u - u0), loop)
        expected = Quad(kind, 0.0, PI, 0.0, -PI)
        assert max_abs_diff(result, expected) <= 1e-5

    def test_pole_outside_gives_zero(self):
        kind = AlgebraKind.CIRCULAR
        center = zero(kind)
        u0 = Quad(kind, 5.0, 0.0, 0.0, 0.0)    # both projections far outside
        loop = Loop.circle(center, 1.0, samples=4096)
        assert residue_prediction([(u0, one(kind))], loop) == zero(kind)
        result = integrate_loop(lambda u: inverse(u - u0), loop)
        assert max_abs_diff(result, zero(kind)) <= 1e-5

    def test_both_projections_enclosed_gives_two_pi_alpha(self):
        kind = AlgebraKind.CIRCULAR
        u0 = Quad(kind, 0.3, -0.1, 0.2, 0.0)
        n = 4096
        pts = []
        for i in range(n):
            w = 0.9 * complex(math.cos(2 * PI * i / n),
                              math.sin(2 * PI * i / n))
            pts.append(u0 + plane_join(kind, (w, w)))
        loop = Loop.from_points(pts + [pts[0]])
        expected = Quad(kind, 0.0, 2 * PI, 0.0, 0.0)
        assert max_abs_diff(residue_prediction([(u0, one(kind))], loop),
                            expected) < 1e-12
        result = integrate_loop(lambda u: inverse(u - u0), loop)
        assert max_abs_diff(result, expected) <= 1e-5

    def test_hyperbolic_regular_loop_vanishes(self):
        kind = AlgebraKind.HYPERBOLIC
        loop = Loop.circle(Quad(kind, 2.0, 0.1, 0.2, 0.0), 0.5, samples=4096)
        result = integrate_loop(lambda u: mul(u, u), loop)
        assert max_abs_diff(result, zero(kind)) <= 1e-8
        assert residue_prediction(
            [(zero(kind), one(kind))], loop) == zero(kind)

    def test_regular_power_vanishes(self):
        kind = AlgebraKind.PLANAR
        u0 = Quad(kind, 0.1, 0.2, 0.0, -0.1)
        loop = Loop.circle(u0, 0.7, samples=2048)
        result = integrate_loop(lambda u: pow_int(u - u0, 2), loop)
        assert max_abs_diff(result, zero(kind)) <= 1e-8

    def test_path_independence_for_square_map(self):
        # two polyline routes between the same endpoints, closed into one
        # loop; path independence of integral u^2 du means it vanishes
        kind = AlgebraKind.CIRCULAR
        a = Quad(kind, -1.0, -0.5, 0.3, 0.0)
        b = Quad(kind, 1.0, 0.8, -0.2, 0.4)
        via1 = Quad(kind, 0.0, 1.5, 0.0, 0.0)
        via2 = Quad(kind, 0.5, -1.0, 0.5, -0.5)

        def segment(p, q, n):
            return [p + scale(q - p, i / n) for i in range(n)]

        n = 32768
        pts = (segment(a, via1, n) + segment(via1, b, n)
               + segment(b, via2, n) + segment(via2, a, n))
        loop = Loop.from_points(pts + [a])
        result = integrate_loop(lambda u: mul(u, u), loop)
        assert max_abs_diff(result, zero(kind)) <= 1e-8

    def test_refinement_doubling(self):
        kind = AlgebraKind.POLAR
        center = Quad(kind, 1.0, 0.0, 0.0, 0.0)
        f = exp
        r1 = integrate_loop(f, Loop.circle(center, 0.5, samples=2048))
        r2 = integrate_loop(f, Loop.circle(center, 0.5, samples=4096))
        assert max_abs_diff(r1, r2) < 1e-8

    def test_singular_on_path(self):
        kind = AlgebraKind.CIRCULAR
        center = zero(kind)
        loop = Loop.circle(center, 1.0, samples=64)
        u0 = loop.points[3]
        with pytest.raises(SingularOnPath):
            integrate_loop(lambda u: inverse(u - u0), loop)

    def test_cauchy_formula_exp(self):
        kind = AlgebraKind.CIRCULAR
        u0 = Quad(kind, 0.1, 0.2, 0.05, -0.1)
        loop = Loop.circle(u0, 1.0, samples=4096)
        result = integrate_loop(lambda u: mul(exp(u), inverse(u - u0)), loop)
        prediction = residue_prediction([(u0, exp(u0))], loop)
        assert max_abs_diff(result, prediction) <= 1e-5

    def test_derivative_formula_order_two_pole(self):
        # loop integral of u^3/(u-u0)^2 equals prediction with a = 3*u0^2
        kind = AlgebraKind.CIRCULAR
        u0 = Quad(kind, 0.4, -0.2, 0.1, 0.3)
        loop = Loop.circle(u0, 1.0, samples=4096)
        result = integrate_loop(
            lambda u: mul(pow_int(u, 3), inverse(pow_int(u - u0, 2))), loop)
        prediction = residue_prediction(
            [(u0, scale(pow_int(u0, 2), 3.0))], loop)
        assert max_abs_diff(result, prediction) <= 1e-4


# A pole at the centre of a plus-plane circle; polar circles keep v+ and v-
# off the pole's, as in test_polar_pole_parallel_circle.
SIGNED_CASES = [
    (AlgebraKind.CIRCULAR, (0.2, 0.1, -0.05, 0.15), (0.0, 0.0, 0.0, 0.0)),
    (AlgebraKind.PLANAR, (0.1, 0.0, 0.2, 0.0), (0.0, 0.0, 0.0, 0.0)),
    (AlgebraKind.POLAR, (1.0, 0.2, 0.1, -0.1), (0.2, 0.0, 0.2, 0.0)),
]


class TestSignedWinding:
    """Orientation and winding count scale the residue unit."""

    @staticmethod
    def _check(kind, u0, loop, turns):
        unit = RESIDUE_UNITS[kind][0]
        pred = residue_prediction([(u0, one(kind))], loop)
        assert max_abs_diff(pred, scale(unit, turns)) < 1e-12
        result = integrate_loop(lambda u: inverse(u - u0), loop)
        assert max_abs_diff(result, pred) <= 1e-5

    @pytest.mark.parametrize("kind,pole,offset", SIGNED_CASES)
    def test_clockwise_predicts_minus_unit(self, kind, pole, offset):
        u0 = Quad(kind, *pole)
        loop = Loop.circle(u0 + Quad(kind, *offset), 1.0, samples=4096)
        clockwise = Loop.from_points(reversed(loop.points))
        self._check(kind, u0, clockwise, -1)

    @pytest.mark.parametrize("kind,pole,offset", SIGNED_CASES)
    def test_twice_wound_predicts_two_units(self, kind, pole, offset):
        u0 = Quad(kind, *pole)
        loop = Loop.circle(u0 + Quad(kind, *offset), 1.0, samples=4096)
        twice = Loop.from_points(loop.points[:-1] + loop.points)
        self._check(kind, u0, twice, 2)


class TestResiduePrediction:
    def test_kind_mismatch(self):
        loop = Loop.circle(one(AlgebraKind.CIRCULAR), 1.0, samples=16)
        with pytest.raises(ValueError):
            residue_prediction([(one(AlgebraKind.POLAR),
                                 one(AlgebraKind.POLAR))], loop)

    def test_on_boundary_propagates(self):
        kind = AlgebraKind.CIRCULAR
        center = zero(kind)
        loop = Loop.circle(center, 1.0, samples=256)
        # place the pole exactly on the plus-plane circle; the zero-distance
        # warning fires before the boundary error
        u0 = loop.points[0]
        with pytest.warns(NearBoundaryWarning):
            with pytest.raises(OnBoundary):
                residue_prediction([(u0, one(kind))], loop)

    def test_near_boundary_warns(self):
        kind = AlgebraKind.CIRCULAR
        center = zero(kind)
        loop = Loop.circle(center, 1.0, samples=256, psi=PI / 4)
        # plus-projection circle: w1 = sqrt(2)*sin(psi)*e^{i theta}, radius 1
        # with a vertex at w1 = 1; park the pole 1e-7 inside that vertex
        almost = (1.0 - 1e-7) / 2.0
        u0 = Quad(kind, almost, 0.0, 0.0, almost)
        with pytest.warns(NearBoundaryWarning):
            residue_prediction([(u0, one(kind))], loop)

    def test_scaling_by_residue_coefficient(self):
        kind = AlgebraKind.POLAR
        u0 = Quad(kind, 1.0, 0.0, 0.0, 0.0)
        center = u0 + Quad(kind, 0.2, 0.0, 0.2, 0.0)
        loop = Loop.circle(center, 1.0, samples=16)
        a = Quad(kind, 2.0, 0.0, 0.0, 0.0)
        pred = residue_prediction([(u0, a)], loop)
        base = residue_prediction([(u0, one(kind))], loop)
        assert max_abs_diff(pred, scale(base, 2.0)) < 1e-12

    @pytest.mark.parametrize("kind", [AlgebraKind.CIRCULAR,
                                      AlgebraKind.PLANAR, AlgebraKind.POLAR])
    def test_general_coefficient_times_residue_unit(self, kind):
        # a pole at the centre of a plus-plane circle, with a coefficient
        # that is not a real multiple of 1
        rng = random.Random(31)
        u0 = Quad(kind, 1.0, 0.2, 0.1, -0.1)
        loop = Loop.circle(u0 + Quad(kind, 0.2, 0.0, 0.2, 0.0), 1.0,
                           samples=64)
        for _ in range(20):
            a = random_quad(kind, rng)
            pred = residue_prediction([(u0, a)], loop)
            assert max_abs_diff(pred, mul(RESIDUE_UNITS[kind][0], a)) < 1e-14

    def test_two_poles_sum(self):
        kind = AlgebraKind.CIRCULAR
        loop = Loop.circle(zero(kind), 1.0, samples=64)
        inside = Quad(kind, 0.01, 0.02, 0.0, 0.0)
        outside = Quad(kind, 7.0, 0.0, 0.0, 0.0)
        pred = residue_prediction(
            [(inside, one(kind)), (outside, one(kind))], loop)
        assert pred == residue_prediction([(inside, one(kind))], loop)


def test_warning_is_not_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception):
            warnings.warn("x", NearBoundaryWarning)
