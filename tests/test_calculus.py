"""Series, analyticity checks, loop integration and residues."""

import cmath
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    exp,
    integrate_loop,
    inverse,
    modulus,
    mul,
    one,
    plane_join,
    plane_split,
    pow_int,
    residue_prediction,
    scale,
    winding,
    zero,
)
from quadfield import calculus
from quadfield.calculus import RESIDUE_UNITS

import loop_oracle as O
from conftest import KINDS, max_abs_diff, random_quad, record_fields
from series_oracle import eval_series_canonical

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


@st.composite
def circles_with_poles(draw):
    """A 1,024-sample circle of any kind, plane, radius, psi and fixed
    angle, and a pole whose split parts all lie at least 0.2 of the loop's
    reach in that part off its projection: inside or outside a winding
    circle, beyond the segment a line sweeps, or, on a fixed part, at
    least 0.2 * radius off its point."""
    kind = draw(st.sampled_from(KINDS))
    planes = ["plus"] if kind is AlgebraKind.POLAR else ["plus", "minus"]
    radius = draw(st.floats(min_value=0.05, max_value=1.5))
    loop = Loop.circle(
        Quad(kind, *[draw(st.floats(min_value=-1.0, max_value=1.0))
                     for _ in range(4)]),
        radius, plane=draw(st.sampled_from(planes)), samples=1024,
        psi=draw(st.floats(min_value=0.05, max_value=PI / 2 - 0.05)),
        fixed_angle=draw(st.floats(min_value=-7.0, max_value=7.0)))
    inside = st.floats(min_value=0.0, max_value=0.8)
    outside = st.floats(min_value=1.2, max_value=2.5)
    angle = st.floats(min_value=0.0, max_value=2 * PI)
    parts = []
    for projection in zip(*map(plane_split, loop.points[:-1])):
        mid = sum(projection) / len(projection)
        reach = max(abs(w - mid) for w in projection)
        plane = isinstance(mid, complex)
        if reach < 1e-9:
            reach, t = radius, draw(st.floats(min_value=0.2, max_value=2.5))
        else:
            t = draw(st.one_of(inside, outside) if plane else outside)
        direction = (cmath.exp(1j * draw(angle)) if plane
                     else draw(st.sampled_from([-1.0, 1.0])))
        parts.append(mid + t * reach * direction)
    return loop, plane_join(kind, tuple(parts))


class TestCircleLoops:
    """Loop.circle loops are integrated and predicted as exact circles."""

    @settings(max_examples=100, deadline=None)
    @given(circles_with_poles(),
           st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 4))
    def test_integrals_match_the_prediction(self, case, coeff):
        loop, u0 = case
        a = Quad(loop.kind, *coeff)
        for f, residue in ((lambda u: mul(a, inverse(u - u0)), a),
                           (lambda u: mul(exp(u), inverse(u - u0)), exp(u0))):
            pred = residue_prediction([(u0, residue)], loop)
            got = integrate_loop(f, loop)
            assert max_abs_diff(got, pred) <= 1e-10 * max(
                1.0, max(map(abs, pred.components)))

    @pytest.mark.parametrize("kind,integrand,budget", [
        (AlgebraKind.CIRCULAR, "pole", 24), (AlgebraKind.POLAR, "exp", 48)])
    def test_benchmark_shape_in_few_evaluations(self, kind, integrand,
                                                budget):
        # The shape of `quadfield integrate` in the benchmark's cli
        # workload: radius 0.5, 1,024 samples, the pole at the centre
        # (polar: v+ and v- moved off it by 0.5).
        center = u0 = Quad(kind, 0.31, -0.12, 0.24, 0.07)
        if kind is AlgebraKind.POLAR:
            vp, vm, w = plane_split(center)
            u0 = plane_join(kind, (vp + 0.5, vm - 0.5, w))
        loop = Loop.circle(center, 0.5, samples=1024)
        evaluations = []

        def f(u):
            evaluations.append(u)
            return (inverse(u - u0) if integrand == "pole"
                    else mul(exp(u), inverse(u - u0)))

        residue = one(kind) if integrand == "pole" else exp(u0)
        got = integrate_loop(f, loop)
        assert max_abs_diff(got, residue_prediction([(u0, residue)], loop)
                            ) <= 1e-12
        # 16 (polar: 32) nested nodes and half as many turned ones
        assert len(evaluations) == budget
        # on the circle's map, bitwise at its samples
        assert all(u in loop.points for u in evaluations)

    @pytest.mark.parametrize("kind", [AlgebraKind.CIRCULAR,
                                      AlgebraKind.PLANAR, AlgebraKind.POLAR])
    @pytest.mark.parametrize("m", [17, 33, 65, 129])
    @pytest.mark.parametrize("offset", [0.0, 1e-4])
    def test_modes_that_the_nested_grids_alias(self, kind, m, offset):
        # 1/(u - u0)^m about the centre is one Fourier mode, m - 1, which
        # every nested sum of up to m - 1 nodes aliases alike: they agree
        # on a nonzero value while the integral vanishes.  All parts of
        # u - u0 have modulus about 1 (polar: v+ and v- moved by 1).
        center = Quad(kind, 0.3, -0.2, 0.1, 0.4)
        parts = list(plane_split(center))
        polar = kind is AlgebraKind.POLAR
        if polar:
            parts[0], parts[1] = parts[0] + 1.0, parts[1] - 1.0
        parts[2 if polar else 0] += offset
        u0 = plane_join(kind, tuple(parts))
        loop = Loop.circle(center, 0.5 ** 0.5 if polar else 1.0, samples=1024)
        got = integrate_loop(lambda u: pow_int(inverse(u - u0), m), loop)
        assert max(map(abs, got.components)) < 1e-10

    @pytest.mark.parametrize("samples", [1024, 16384])
    @pytest.mark.parametrize("eps", [1e-10, 1e-11])
    def test_a_small_aliased_mode_is_not_missed(self, samples, eps):
        # 1/u + eps/u^17 on the unit circle: the 8- and 16-node sums both
        # read 2*pi*i*(1 + eps) in the plus plane, and the 8 nodes turned
        # by one sample differ from them by only 2*sin(16*pi/samples)*eps.
        c = zero(AlgebraKind.CIRCULAR)
        loop = Loop.circle(c, 1.0, samples=samples)
        got = integrate_loop(
            lambda u: inverse(u) + scale(pow_int(inverse(u), 17), eps), loop)
        assert max_abs_diff(got, Quad(c.kind, 0.0, PI, PI, 0.0)) < 1e-12

    def test_a_circle_is_its_map_not_points(self):
        c = zero(AlgebraKind.CIRCULAR)
        circle = Loop.circle(c, 3.0, samples=16)
        fields = dict(plane="plus", center=c, radius=3.0, psi=PI / 4,
                      fixed_angle=0.0, samples=16, turns=1)
        assert Loop(None, **fields) == circle
        with pytest.raises(ValueError, match="takes no points"):
            Loop(points=circle.points, **fields)
        with pytest.raises(ValueError, match="no circle fields"):
            Loop(points=circle.points, samples=16)
        for wrong in (dict(samples=7), dict(samples=16.0), dict(turns=0),
                      dict(turns=1.0), dict(turns=True), dict(psi=PI / 2),
                      dict(plane="up"), dict(radius=0.0)):
            with pytest.raises(ValueError):
                Loop(None, **{**fields, **wrong})
        with pytest.raises(ValueError, match="plus"):
            Loop(None, **{**fields, "center": zero(AlgebraKind.POLAR),
                          "plane": "minus"})

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_or_non_number_circle_fields_are_refused(self, kind):
        for radius in (math.inf, -math.inf, math.nan, 10 ** 400):
            with pytest.raises(ValueError, match="^radius must be finite"):
                Loop.circle(one(kind), radius)
        for radius in (True, False, "0.5", None, 0.5j):
            with pytest.raises(ValueError, match="^radius must be a number"):
                Loop.circle(one(kind), radius)
        with pytest.raises(ValueError, match="radius must be positive"):
            Loop.circle(one(kind), -0.5)
        assert Loop.circle(one(kind), 2).radius.__class__ is float
        if kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR):
            for angle in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match="fixed_angle must be finite"):
                    Loop.circle(one(kind), 0.5, fixed_angle=angle)
            for name in ("psi", "fixed_angle"):
                with pytest.raises(ValueError, match=f"^{name} must be a number"):
                    Loop.circle(one(kind), 0.5, **{name: True})
            loop = Loop.circle(one(kind), 0.5, psi=1, fixed_angle=-2)
            assert (loop.psi, loop.fixed_angle) == (1.0, -2.0)
            assert loop.psi.__class__ is loop.fixed_angle.__class__ is float
        else:   # no psi or fixed angle: the values given are not read
            assert Loop.circle(one(kind), 0.5, fixed_angle=math.inf) \
                == Loop.circle(one(kind), 0.5)

    @pytest.mark.parametrize("kind", KINDS)
    def test_integral_and_prediction_build_no_points(self, kind):
        center = Quad(kind, 0.3, -0.2, 0.1, 0.4)
        loop = Loop.circle(center, 0.5, samples=1024, turns=-2)
        integrate_loop(lambda u: mul(exp(u), u - center), loop)
        residue_prediction([(center + Quad(kind, 5.0, 0, 0, 0), one(kind))],
                           loop)
        assert calculus._POINTS.__get__(loop) is None
        assert len(loop.points) == 2 * 1024 + 1
        assert calculus._POINTS.__get__(loop) is loop.points

    @settings(max_examples=60, deadline=None)
    @given(circles_with_poles(), st.sampled_from([-2, -1, 1, 2, 3]),
           st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 4))
    def test_turns_scale_the_integral_and_the_prediction(self, case, turns,
                                                         coeff):
        loop, u0 = case
        args = dict(zip(Loop.__match_args__[1:-1], record_fields(loop)[1:-1]))
        wound = Loop.circle(**args, turns=turns)
        a = Quad(loop.kind, *coeff)

        def f(u):
            return mul(a, inverse(u - u0))

        pred = residue_prediction([(u0, a)], wound)
        size = max(1.0, max(map(abs, pred.components)))
        assert max_abs_diff(pred, scale(residue_prediction([(u0, a)], loop),
                                        turns)) <= 1e-14 * size
        got = integrate_loop(f, wound)
        assert max_abs_diff(got, pred) <= 1e-10 * size
        want = O.tangent_integral(f, **args, turns=turns)
        points = O.circle_points(**args, turns=turns)
        terms = sum(modulus(f(p)) * modulus(q - p)
                    for p, q in zip(points, points[1:]))
        assert max_abs_diff(got, want) <= 1e-11 * terms

    @pytest.mark.parametrize("kind", [AlgebraKind.CIRCULAR,
                                      AlgebraKind.PLANAR, AlgebraKind.POLAR])
    def test_pole_between_the_polygon_and_the_circle_is_enclosed(self, kind):
        # The 16-gon's edges pass within cos(pi/16) = 0.981 of the centre.
        loop = Loop.circle(zero(kind), 1.0, samples=16)
        j = 2 if kind is AlgebraKind.POLAR else 0
        parts = list(plane_split(zero(kind)))
        r = abs(plane_split(loop.points[0])[j])
        parts[j] = 0.99 * r * cmath.exp(1j * PI / 16)
        u0 = plane_join(kind, tuple(parts))
        poles = [(u0, one(kind))]
        assert max_abs_diff(residue_prediction(poles, loop),
                            RESIDUE_UNITS[kind][0]) < 1e-12
        polygon = Loop.from_points(loop.points)
        assert residue_prediction(poles, polygon) == zero(kind)


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

    @pytest.mark.parametrize("kind", [AlgebraKind.CIRCULAR,
                                      AlgebraKind.PLANAR, AlgebraKind.POLAR])
    def test_closing_gap_predicts_as_snapped(self, kind):
        # Loop accepts a last point within 1e-12*max(1, |first|) of the
        # first; each projection must still close on its first vertex.
        snapped = Loop.circle(zero(kind), 0.5, samples=16)
        x, y, z, t = snapped.points[-1].components
        gapped = Loop(points=snapped.points[:-1] + (Quad(kind, x + 1e-13, y,
                                                         z, t),))
        poles = [(zero(kind), one(kind))]
        assert (residue_prediction(poles, gapped)
                == residue_prediction(poles, snapped))

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
