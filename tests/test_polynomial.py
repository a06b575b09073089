"""Polynomial factorization through the canonical components."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enumerate_oracle
from quadfield import (
    AlgebraKind,
    ComplexQuad,
    EnumerationBudgetExceeded,
    Factorization,
    NoConvergence,
    Poly,
    Quad,
    QuadfieldError,
    SingularValue,
    enumerate_factorizations,
    eval_poly,
    factor,
    one,
    pair_conjugates,
    plane_join,
    quadratic_factor,
    reconstruct,
    zero,
)
from quadfield import polynomial

from conftest import KINDS, max_abs_diff, quads, random_quad

SQRT2 = math.sqrt(2.0)


def upoly(kind, *tail):
    """Monic polynomial with constant tail given as plain floats."""
    coeffs = [one(kind)]
    coeffs += [Quad(kind, float(c), 0.0, 0.0, 0.0) for c in tail]
    return Poly(kind, tuple(coeffs))


def coeffs_close(p, q, tol):
    assert p.kind is q.kind and p.degree == q.degree
    worst = 0.0
    for a, b in zip(p.coeffs, q.coeffs):
        scale = max(1.0, max(abs(c) for c in a.components))
        worst = max(worst, max_abs_diff(a, b) / scale)
    return worst <= tol


class TestPoly:
    def test_monic_required(self):
        kind = AlgebraKind.CIRCULAR
        with pytest.raises(ValueError, match="monic"):
            Poly(kind, (Quad(kind, 2, 0, 0, 0), one(kind)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Poly(AlgebraKind.CIRCULAR, ())

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Poly(AlgebraKind.CIRCULAR,
                 (one(AlgebraKind.CIRCULAR), one(AlgebraKind.POLAR)))

    def test_degree(self):
        assert upoly(AlgebraKind.POLAR, 0.0, -1.0).degree == 2

    def test_from_coefficients_normalizes(self):
        kind = AlgebraKind.HYPERBOLIC
        lead = Quad(kind, 2.0, 0.0, 0.0, 0.0)
        p = Poly.from_coefficients(kind, (lead, Quad(kind, 4, 0, 0, 0)))
        assert p.coeffs[0] == one(kind)
        assert max_abs_diff(p.coeffs[1], Quad(kind, 2, 0, 0, 0)) < 1e-15

    def test_from_coefficients_singular_lead(self):
        kind = AlgebraKind.HYPERBOLIC
        nodal = Quad(kind, 1.0, 1.0, 1.0, 1.0)   # s' = s''' = 0
        with pytest.raises(SingularValue):
            Poly.from_coefficients(kind, (nodal, one(kind)))


class TestEvalPoly:
    def test_identity_poly(self):
        kind = AlgebraKind.PLANAR
        p = Poly(kind, (one(kind), zero(kind)))
        u = Quad(kind, 1, 2, 3, 4)
        assert eval_poly(p, u) == u

    def test_circular_alpha_root_of_u2_plus_1(self):
        p = upoly(AlgebraKind.CIRCULAR, 0.0, 1.0)
        alpha = Quad(AlgebraKind.CIRCULAR, 0, 1, 0, 0)
        assert eval_poly(p, alpha) == zero(AlgebraKind.CIRCULAR)

    def test_hyperbolic_one_root_of_u2_minus_1(self):
        p = upoly(AlgebraKind.HYPERBOLIC, 0.0, -1.0)
        assert eval_poly(p, one(AlgebraKind.HYPERBOLIC)) == zero(
            AlgebraKind.HYPERBOLIC)

    def test_kind_mismatch(self):
        p = upoly(AlgebraKind.CIRCULAR, 0.0, 1.0)
        with pytest.raises(ValueError):
            eval_poly(p, one(AlgebraKind.POLAR))


class TestFactorWorkedExamples:
    def test_circular_u2_plus_1(self):
        kind = AlgebraKind.CIRCULAR
        f = factor(upoly(kind, 0.0, 1.0))
        assert f.residual < 1e-12
        assert not f.has_complex_roots
        got = sorted(r.components for r in f.roots)
        assert got == [(0, -1, 0, 0), (0, 1, 0, 0)]   # -alpha, +alpha

    def test_hyperbolic_u2_minus_1(self):
        kind = AlgebraKind.HYPERBOLIC
        f = factor(upoly(kind, 0.0, -1.0))
        got = sorted(r.components for r in f.roots)
        assert got == [(-1, 0, 0, 0), (1, 0, 0, 0)]

    def test_polar_u2_minus_1(self):
        kind = AlgebraKind.POLAR
        f = factor(upoly(kind, 0.0, -1.0))
        got = sorted(r.components for r in f.roots)
        assert got == [(-1, 0, 0, 0), (1, 0, 0, 0)]

    def test_planar_u2_plus_1(self):
        kind = AlgebraKind.PLANAR
        f = factor(upoly(kind, 0.0, 1.0))
        h = 1.0 / SQRT2
        got = sorted(r.components for r in f.roots)
        want = [(0.0, -h, 0.0, -h), (0.0, h, 0.0, h)]   # +-(alpha+gamma)/sqrt2
        for g, w in zip(got, want):
            assert max(abs(a - b) for a, b in zip(g, w)) < 1e-12

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(Poly(AlgebraKind.CIRCULAR, (one(AlgebraKind.CIRCULAR),)))

    def test_no_convergence_is_reportable(self):
        assert issubclass(NoConvergence, QuadfieldError)


class TestEnumerate:
    COUNTS = {
        AlgebraKind.CIRCULAR: (1.0, 2),    # u^2+1 -> 2
        AlgebraKind.PLANAR: (1.0, 2),      # u^2+1 -> 2
        AlgebraKind.HYPERBOLIC: (-1.0, 8),  # u^2-1 -> 8
        AlgebraKind.POLAR: (-1.0, 4),      # u^2-1 -> 4
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_worked_example_counts(self, kind):
        const, count = self.COUNTS[kind]
        p = upoly(kind, 0.0, const)
        facts = enumerate_factorizations(p)
        assert len(facts) == count
        for f in facts:
            assert coeffs_close(reconstruct(f, kind), p, 1e-8)

    def test_circular_pairings_are_alpha_and_beta(self):
        kind = AlgebraKind.CIRCULAR
        facts = enumerate_factorizations(upoly(kind, 0.0, 1.0))
        seen = {tuple(sorted(r.components for r in f.roots)) for f in facts}
        assert ((0, -1, 0, 0), (0, 1, 0, 0)) in seen      # +-alpha
        assert ((0, 0, -1, 0), (0, 0, 1, 0)) in seen      # +-beta

    def test_cap_truncates(self):
        p = upoly(AlgebraKind.HYPERBOLIC, 0.0, -1.0)
        assert len(enumerate_factorizations(p, cap=3)) == 3
        with pytest.raises(ValueError):
            enumerate_factorizations(p, cap=0)

    def test_random_cubic_enumeration_reconstructs(self):
        kind = AlgebraKind.HYPERBOLIC
        rng = random.Random(7)
        coeffs = [one(kind)] + [random_quad(kind, rng, span=0.8)
                                for _ in range(3)]
        p = Poly(kind, tuple(coeffs))
        facts = enumerate_factorizations(p, cap=50)
        assert facts
        for f in facts:
            assert coeffs_close(reconstruct(f, kind), p, 1e-8)


class TestReconstruct:
    def test_alpha_pair_gives_u2_plus_1(self):
        kind = AlgebraKind.CIRCULAR
        f = Factorization(roots=(Quad(kind, 0, 1, 0, 0),
                                 Quad(kind, 0, -1, 0, 0)), residual=0.0)
        assert reconstruct(f, kind).coeffs == upoly(kind, 0.0, 1.0).coeffs

    def test_gamma_pair_gives_u2_minus_1(self):
        kind = AlgebraKind.CIRCULAR
        f = Factorization(roots=(Quad(kind, 0, 0, 0, 1),
                                 Quad(kind, 0, 0, 0, -1)), residual=0.0)
        assert reconstruct(f, kind).coeffs == upoly(kind, 0.0, -1.0).coeffs

    def test_unpaired_complex_root_rejected(self):
        kind = AlgebraKind.HYPERBOLIC
        lone = ComplexQuad(kind, 1j, 0j, 0j, 0j)
        with pytest.raises(ValueError, match="conjugate"):
            reconstruct(Factorization(roots=(lone,), residual=0.0), kind)


class TestRandomRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_reconstruct_factor_round_trip(self, kind):
        rng = random.Random(hash(kind.value) & 0xFFFF)
        for _ in range(25):
            degree = rng.randint(1, 5)
            coeffs = [one(kind)] + [random_quad(kind, rng, span=1.0)
                                    for _ in range(degree)]
            p = Poly(kind, tuple(coeffs))
            f = factor(p)
            assert len(f.roots) == degree
            assert coeffs_close(reconstruct(f, kind), p, 1e-7)
            for r in f.roots:
                if isinstance(r, Quad):
                    v = eval_poly(p, r)
                    assert max(abs(c) for c in v.components) <= 1e-7

    def test_double_root(self):
        # (u-1)^2: repeated component roots converge more slowly but the
        # reconstruction still lands well inside the contract
        for kind in KINDS:
            p = upoly(kind, -2.0, 1.0)
            f = factor(p)
            assert coeffs_close(reconstruct(f, kind), p, 1e-7)
            for r in f.roots:
                assert max_abs_diff(r, one(kind)) < 1e-5


class TestConjugatePairs:
    def test_hyperbolic_u2_plus_1_pairs(self):
        kind = AlgebraKind.HYPERBOLIC
        p = upoly(kind, 0.0, 1.0)
        f = factor(p)
        assert f.has_complex_roots
        reals, pairs, leftovers = pair_conjugates(f)
        assert reals == [] and leftovers == []
        assert len(pairs) == 1
        s, q = quadratic_factor(pairs[0], kind)
        assert max_abs_diff(s, zero(kind)) < 1e-12   # u^2 - 0u + 1
        assert max_abs_diff(q, one(kind)) < 1e-12

    def test_polar_quartic_leftovers(self):
        # u^4 - 1 over polar: the distinguished-plane root bound to each
        # +-i line root is consumed once, so no componentwise-conjugate
        # partner exists; the complex roots come back unpaired but the
        # per-line closure still reconstructs real coefficients
        kind = AlgebraKind.POLAR
        p = upoly(kind, 0.0, 0.0, 0.0, -1.0)
        f = factor(p)
        assert len(f.roots) == 4
        assert f.residual < 1e-10
        reals, pairs, leftovers = pair_conjugates(f)
        assert len(reals) == 2 and not pairs and len(leftovers) == 2
        assert sorted(r.components for r in reals) == [
            (-1, 0, 0, 0), (1, 0, 0, 0)]
        assert coeffs_close(reconstruct(f, kind), p, 1e-8)
        assert enumerate_factorizations(p) == []

    def test_polar_quadratic_with_conjugate_pair(self):
        # v-line components l^2+1 (roots +-i), distinguished plane (w-1)^2:
        # the shared w root makes the two roots componentwise conjugates
        kind = AlgebraKind.POLAR
        p = Poly(kind, (one(kind), Quad(kind, -1, 0, 1, 0), one(kind)))
        f = factor(p)
        assert f.has_complex_roots
        reals, pairs, leftovers = pair_conjugates(f)
        assert not reals and not leftovers and len(pairs) == 1
        s, q = quadratic_factor(pairs[0], kind)
        # (u - r)(u - conj r) = u^2 - s u + q reproduces p
        assert max_abs_diff(s, Quad(kind, 1, 0, -1, 0)) < 1e-7
        assert max_abs_diff(q, one(kind)) < 1e-7

    def test_real_roots_pass_through(self):
        kind = AlgebraKind.CIRCULAR
        f = factor(upoly(kind, 0.0, -1.0))   # u^2-1, gamma-free real pair
        reals, pairs, leftovers = pair_conjugates(f)
        assert len(reals) == 2 and not pairs and not leftovers


# -- the pruned enumeration against the brute-force oracle ---------------------

HYPERBOLIC = AlgebraKind.HYPERBOLIC


def line_root(values):
    """The hyperbolic root whose four line values are `values` (complex
    allowed; the join is real-linear, so real and imaginary parts join
    apart)."""
    re = plane_join(HYPERBOLIC, tuple(complex(v).real for v in values))
    im = plane_join(HYPERBOLIC, tuple(complex(v).imag for v in values))
    if not any(im.components):
        return re
    return ComplexQuad(HYPERBOLIC, *(complex(a, b) for a, b in
                                     zip(re.components, im.components)))


def conjugate_poly(rng, n_real):
    """Hyperbolic: a real quadratic with a conjugate pair of roots on every
    line, times n_real real linear factors whose line values fall one per
    equal bin of [-1.5, 1.5] (the factor benchmark's conjugate inputs)."""
    pair = []
    for _ in range(4):
        s = rng.uniform(-1.5, 1.5)
        q = s * s / 4.0 + rng.uniform(0.3, 1.2)
        pair.append((s + cmath.sqrt(s * s - 4.0 * q)) / 2.0)
    root = line_root(pair)
    width = 3.0 / n_real
    columns = []
    for _ in range(4):
        col = [-1.5 + (i + rng.uniform(0.25, 0.75)) * width
               for i in range(n_real)]
        rng.shuffle(col)
        columns.append(col)
    roots = [root, root.conjugate()] + [line_root(v) for v in zip(*columns)]
    return reconstruct(Factorization(tuple(roots), 0.0), HYPERBOLIC)


def near_coincident_poly(rng, eps):
    """Hyperbolic degree 3.  On each line roots 0 and 1 are a conjugate
    pair or a real double root split by at most eps, and root 2 is real.
    Line values come from a few grid points, so distinct roots can share a
    9-decimal key."""
    first, second = [], []
    for _ in range(4):
        a = rng.choice((-1.0, 0.5))
        if rng.random() < 0.5:
            first.append(complex(a, 0.6))
            second.append(complex(a, -0.6))
        else:
            first.append(a)
            second.append(a + rng.uniform(-eps, eps))
    third = [rng.choice((-1.0, 0.5, 1.0)) for _ in range(4)]
    roots = (line_root(first), line_root(second), line_root(third))
    return reconstruct(Factorization(roots, 0.0), HYPERBOLIC)


def enumerations(p, cap):
    """(pruned, brute force) results, or the NoConvergence both raise."""
    try:
        want = enumerate_oracle.enumerate_factorizations(p, cap)
    except NoConvergence:
        with pytest.raises(NoConvergence):
            enumerate_factorizations(p, cap)
        return [], []
    return enumerate_factorizations(p, cap), want


def assert_same_results(got, want):
    """Equal lists: roots by ==, residuals by float.hex, order included."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.roots == w.roots
        assert g.residual.hex() == w.residual.hex()


class TestPrunedEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(KINDS),
           degree=st.integers(1, 4), cap=st.integers(1, 100))
    def test_matches_brute_force(self, data, kind, degree, cap):
        tail = data.draw(st.lists(quads(kind), min_size=degree,
                                  max_size=degree))
        p = Poly(kind, (one(kind), *tail))
        assert_same_results(*enumerations(p, cap))

    def test_matches_brute_force_on_conjugate_inputs(self):
        rng = random.Random(2000)
        for n in range(4):
            p = conjugate_poly(rng, 2)
            for cap in ((1, 2, 100) if n == 0 else (2,)):
                got, want = enumerations(p, cap)
                assert want
                assert_same_results(got, want)

    def test_matches_brute_force_on_near_coincident_roots(self):
        # The prefix test's tolerance matters here: an exact prefix test
        # cuts leaves whose 9-decimal keys the leaf check accepts.
        rng = random.Random(2001)
        compared = 0
        for _ in range(60):
            p = near_coincident_poly(rng, rng.choice((1e-12, 1e-10, 1e-9)))
            got, want = enumerations(p, 100)
            assert_same_results(got, want)
            compared += bool(want)
        assert compared >= 10

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_brute_force_on_worked_examples(self, kind):
        for tail in ((0.0, -1.0), (0.0, 1.0), (0.0, -1.0, 0.0),
                     (0.0, 0.0, 0.0, -1.0), (0.0, 0.0, 0.0, 1.0)):
            p = upoly(kind, *tail)
            for cap in (1, 3, 100):
                assert_same_results(*enumerations(p, cap))

    def test_polar_quartic_stays_empty(self):
        p = upoly(AlgebraKind.POLAR, 0.0, 0.0, 0.0, -1.0)
        got, want = enumerations(p, 100)
        assert got == want == []


class TestEnumerationBudget:
    def test_degree_six_within_default_budget(self, monkeypatch):
        # a conjugate pair on every line times four real linear factors:
        # the exhaustive walk would visit 720**3 pairings
        p = conjugate_poly(random.Random(6), 4)
        assert p.degree == 6
        facts = enumerate_factorizations(p, cap=2)
        assert len(facts) == 2
        for f in facts:
            assert coeffs_close(reconstruct(f, HYPERBOLIC), p, 1e-8)
            assert not pair_conjugates(f)[2]
        monkeypatch.setattr(polynomial, "_MAX_VISITS", 1)
        with pytest.raises(EnumerationBudgetExceeded,
                           match=r"budget of 1 visits with 0 of cap=2"):
            enumerate_factorizations(p, cap=2)

    def test_budget_error_is_typed(self):
        assert issubclass(EnumerationBudgetExceeded, QuadfieldError)

    def test_budget_counts_tests_and_leaves(self, monkeypatch):
        # u^2 - 1 hyperbolic: 1 pinned order, 2 orders on each of the three
        # other lines, all kept, and 8 leaves: 1 + 2 + 4 + 8 + 8 visits
        p = upoly(AlgebraKind.HYPERBOLIC, 0.0, -1.0)
        monkeypatch.setattr(polynomial, "_MAX_VISITS", 23)
        assert len(enumerate_factorizations(p)) == 8
        monkeypatch.setattr(polynomial, "_MAX_VISITS", 22)
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_factorizations(p)
