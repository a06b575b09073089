"""Acceptance gate: the ten primary criteria, one pass/fail line each.

Each criterion prints a single line
    PASS criterion N: <label> (<worst residuals / counts>)
or FAIL with the same shape.  Runnable under pytest or standalone:

    python3 tests/test_acceptance.py
"""

import math
import random
import sys
import time

from quadfield import (
    AlgebraKind,
    Loop,
    Poly,
    Quad,
    SingularValue,
    amplitude,
    canonical_mul,
    check_analytic,
    check_second_order,
    cosexp,
    cosexp_series,
    determinant,
    enumerate_factorizations,
    exp,
    exp_form,
    f4,
    factor,
    from_exp_form,
    g4,
    integrate_loop,
    inverse,
    log,
    modulus,
    mul,
    one,
    plane_join,
    pow_int,
    reconstruct,
    represent,
    residue_prediction,
    singularity,
    to_canonical,
)

KINDS = tuple(AlgebraKind)
PI = math.pi
SQRT2 = math.sqrt(2.0)


def _rand_quad(kind, rng, span=2.0):
    return Quad(kind, *(rng.uniform(-span, span) for _ in range(4)))


def _maxdiff(u, v):
    return max(abs(a - b) for a, b in zip(u.components, v.components))


def _rel(u, v):
    scale = max(1.0, max(abs(c) for c in u.components),
                max(abs(c) for c in v.components))
    return _maxdiff(u, v) / scale


def _fields(record):
    return tuple(getattr(record, name) for name in record.__match_args__)


# -- criteria ------------------------------------------------------------


def crit_1_algebra_laws():
    """10^4 random quads/kind in [-2,2]: commutativity exact,
    associativity/distributivity <= 1e-10 relative, runtime < 5 s."""
    rng = random.Random(1001)
    start = time.perf_counter()
    worst = 0.0
    for kind in KINDS:
        for _ in range(10_000):
            u, v, w = (_rand_quad(kind, rng) for _ in range(3))
            if mul(u, v).components != mul(v, u).components:
                return False, f"{kind.value} commutativity broken at {u}, {v}"
            worst = max(worst, _rel(mul(mul(u, v), w), mul(u, mul(v, w))))
            worst = max(worst, _rel(mul(u, v + w), mul(u, v) + mul(u, w)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    return ok, f"worst residual {worst:.2e}, {elapsed:.2f}s"


# one representative point per named nodal set
_NODAL_POINTS = {
    AlgebraKind.CIRCULAR: [(1, 2, -2, -1), (1, 2, 2, 1)],
    AlgebraKind.HYPERBOLIC: [(1, 1, 1, -3), (2, 1, -1, 0), (1, 3, 2, 2),
                             (3, 1, 2, 0)],
    AlgebraKind.PLANAR: [(-1, SQRT2, -1, 0), (1, SQRT2, 1, 0)],
    AlgebraKind.POLAR: [(1, -2, 1, 0), (1, 2, 1, 0), (1, 0, 1, 0)],
}

# divisor-of-zero pair families (hyperbolic and polar nodal hyperplanes)
_ZERO_DIVISOR_PAIRS = {
    AlgebraKind.HYPERBOLIC: [((1, -1, 2, -2), (3, 3, 4, 4)),
                             ((1, 1, 1, 1), (1, -1, 1, -1))],
    AlgebraKind.POLAR: [((1, -1, 1, -1), (2, 2, 2, 2)),
                        ((1, 2, 1, 2), (1, 1, -1, -1))],
}


def crit_2_inverse():
    """u*inverse(u)=1 <= 1e-10 relative off the nodal sets; nodal points
    flagged singular; divisor-of-zero pairs multiply to <= 1e-12."""
    rng = random.Random(1002)
    worst = 0.0
    for kind in KINDS:
        count = 0
        while count < 2000:
            u = _rand_quad(kind, rng)
            if singularity(u).margin <= 1e-2:
                continue
            count += 1
            worst = max(worst, _maxdiff(mul(u, inverse(u)), one(kind)))
        for comps in _NODAL_POINTS[kind]:
            u = Quad(kind, *[float(c) for c in comps])
            if not singularity(u).singular:
                return False, f"{kind.value} nodal point {comps} not flagged"
            try:
                inverse(u)
            except SingularValue:
                pass
            else:
                return False, f"{kind.value} inverse({comps}) did not raise"
    worst_pair = 0.0
    for kind, pairs in _ZERO_DIVISOR_PAIRS.items():
        for a, b in pairs:
            p = mul(Quad(kind, *map(float, a)), Quad(kind, *map(float, b)))
            worst_pair = max(worst_pair, max(abs(c) for c in p.components))
    ok = worst <= 1e-10 and worst_pair <= 1e-12
    return ok, f"inverse residual {worst:.2e}, divisor products {worst_pair:.2e}"


def crit_3_determinant():
    """det(represent(u)) equals the quartic amplitude to 1e-9 relative
    on 10^3 samples per kind."""
    rng = random.Random(1003)
    worst = 0.0
    for kind in KINDS:
        for _ in range(1000):
            u = _rand_quad(kind, rng)
            nu = amplitude(u).nu
            det = determinant(represent(u))
            worst = max(worst, abs(det - nu) / max(1.0, abs(nu)))
    return worst <= 1e-9, f"worst relative gap {worst:.2e}"


def crit_4_cosexponentials():
    """Closed forms vs 40-term series 1e-12 on [-3,3]; addition, quartic,
    pair and sum identities 1e-10; derivative chains 1e-7 at h=1e-5."""
    grid = [x * 0.1 for x in range(-30, 31)]
    worst_series = 0.0
    for x in grid:
        for k in range(4):
            worst_series = max(
                worst_series,
                abs(cosexp(f4(k), x) - cosexp_series(f4(k), x, 40)),
                abs(cosexp(g4(k), x) - cosexp_series(g4(k), x, 40)),
            )

    rng = random.Random(1004)
    worst_id = 0.0
    for _ in range(1000):
        x, y = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        f = [cosexp(f4(k), x) for k in range(4)]
        h = [cosexp(f4(k), y) for k in range(4)]
        fs = [cosexp(f4(k), x + y) for k in range(4)]
        worst_id = max(
            worst_id,
            abs(fs[0] - (f[0] * h[0] - f[1] * h[3] - f[2] * h[2] - f[3] * h[1])),
            abs(fs[1] - (f[0] * h[1] + f[1] * h[0] - f[2] * h[3] - f[3] * h[2])),
            abs(fs[2] - (f[0] * h[2] + f[1] * h[1] + f[2] * h[0] - f[3] * h[3])),
            abs(fs[3] - (f[0] * h[3] + f[1] * h[2] + f[2] * h[1] + f[3] * h[0])),
        )
        g = [cosexp(g4(k), x) for k in range(4)]
        gh = [cosexp(g4(k), y) for k in range(4)]
        gs = [cosexp(g4(k), x + y) for k in range(4)]
        for k in range(4):
            conv = sum(g[j] * gh[(k - j) % 4] for j in range(4))
            worst_id = max(worst_id, abs(gs[k] - conv))

    for x in grid:
        f = [cosexp(f4(k), x) for k in range(4)]
        g = [cosexp(g4(k), x) for k in range(4)]
        worst_id = max(
            worst_id,
            abs(f[0] ** 2 - f[2] ** 2 + 2 * f[1] * f[3] - 1.0),
            abs(f[1] ** 2 - f[3] ** 2 - 2 * f[0] * f[2]),
            abs(g[0] ** 2 + g[2] ** 2 - 2 * g[1] * g[3] - 1.0),
            abs(g[1] ** 2 + g[3] ** 2 - 2 * g[0] * g[2]),
            abs(f[0] ** 4 + f[1] ** 4 + f[2] ** 4 + f[3] ** 4
                + 2 * (f[0] ** 2 * f[2] ** 2 + f[1] ** 2 * f[3] ** 2)
                + 4 * (f[0] ** 2 * f[1] * f[3] + f[0] * f[2] * f[3] ** 2
                       - f[0] * f[1] ** 2 * f[2] - f[1] * f[2] ** 2 * f[3])
                - 1.0),
            abs(g[0] ** 4 - g[1] ** 4 + g[2] ** 4 - g[3] ** 4
                - 2 * (g[0] ** 2 * g[2] ** 2 - g[1] ** 2 * g[3] ** 2)
                - 4 * (g[0] ** 2 * g[1] * g[3] + g[2] ** 2 * g[1] * g[3]
                       - g[1] ** 2 * g[0] * g[2] - g[3] ** 2 * g[0] * g[2])
                - 1.0),
            abs(sum(g) - math.exp(x)),
            abs(g[0] - g[1] + g[2] - g[3] - math.exp(-x)),
            abs(g[0] - g[2] - math.cos(x)),
            abs(g[1] - g[3] - math.sin(x)),
        )

    step_h = 1e-5
    worst_diff = 0.0
    f_chain = {0: (3, -1.0), 1: (0, 1.0), 2: (1, 1.0), 3: (2, 1.0)}
    g_chain = {0: (3, 1.0), 1: (0, 1.0), 2: (1, 1.0), 3: (2, 1.0)}
    for x in [v * 0.5 for v in range(-6, 7)]:
        for k in range(4):
            for fam, chain in ((f4, f_chain), (g4, g_chain)):
                d = (cosexp(fam(k), x + step_h)
                     - cosexp(fam(k), x - step_h)) / (2 * step_h)
                src, sign = chain[k]
                worst_diff = max(worst_diff,
                                 abs(d - sign * cosexp(fam(src), x)))

    ok = worst_series <= 1e-12 and worst_id <= 1e-10 and worst_diff <= 1e-7
    return ok, (f"series {worst_series:.2e}, identities {worst_id:.2e}, "
                f"derivatives {worst_diff:.2e}")


def crit_5_exp_log():
    """exp addition 1e-9 for |u|,|v|<=1; log(exp(w))=w on principal
    windows 1e-9; de Moivre forms for m in {2,3,5} to 1e-9."""
    rng = random.Random(1005)
    worst_add = 0.0
    for kind in KINDS:
        for _ in range(500):
            u = _rand_quad(kind, rng, span=0.5)
            v = _rand_quad(kind, rng, span=0.5)
            worst_add = max(worst_add, _rel(exp(u + v), mul(exp(u), exp(v))))

    worst_log = 0.0
    for kind in KINDS:
        for _ in range(200):
            w = plane_join(kind, _principal_parts(kind, rng))
            worst_log = max(worst_log, _rel(log(exp(w)), w))

    worst_dm = _de_moivre_worst()
    ok = worst_add <= 1e-9 and worst_log <= 1e-9 and worst_dm <= 1e-9
    return ok, (f"addition {worst_add:.2e}, log-exp {worst_log:.2e}, "
                f"de Moivre {worst_dm:.2e}")


def _principal_parts(kind, rng):
    """Random exponent whose plane arguments stay in (0, 2pi)."""
    def c():
        return complex(rng.uniform(-1, 1), rng.uniform(0.1, 2 * PI - 0.1))

    def r():
        return rng.uniform(-1, 1)

    if kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR):
        return (c(), c())
    if kind is AlgebraKind.HYPERBOLIC:
        return (r(), r(), r(), r())
    return (r(), r(), c())


_DE_MOIVRE_V = 0.6180339887


def _de_moivre_forms(kind, v):
    """Unit-amplitude quads u(v) with pow_int(u(v), m) == u(m*v)."""
    cos, sin = math.cos(v), math.sin(v)
    cosh, sinh = math.cosh(v), math.sinh(v)
    f = [cosexp(f4(k), v) for k in range(4)]
    g = [cosexp(g4(k), v) for k in range(4)]
    if kind is AlgebraKind.CIRCULAR:
        return [(cos, sin, 0.0, 0.0), (cos, 0.0, sin, 0.0),
                (cosh, 0.0, 0.0, sinh)]
    if kind is AlgebraKind.HYPERBOLIC:
        return [(cosh, sinh, 0.0, 0.0), (cosh, 0.0, sinh, 0.0),
                (cosh, 0.0, 0.0, sinh)]
    if kind is AlgebraKind.PLANAR:
        return [tuple(f), (f[0], f[3], -f[2], f[1])]
    return [tuple(g), (g[0], g[3], g[2], g[1])]


def _de_moivre_worst():
    worst = 0.0
    for kind in KINDS:
        for idx in range(len(_de_moivre_forms(kind, 0.0))):
            for m in (2, 3, 5):
                u = Quad(kind, *_de_moivre_forms(kind, _DE_MOIVRE_V)[idx])
                want = Quad(kind,
                            *_de_moivre_forms(kind, m * _DE_MOIVRE_V)[idx])
                worst = max(worst, _rel(pow_int(u, m), want))
    return worst


def _angle_gap(a, b):
    """Distance between angles mod 2pi."""
    d = (a - b) % (2 * PI)
    return min(d, 2 * PI - d)


def crit_6_exp_form():
    """from_exp_form(exp_form(u))=u to 1e-10 on valid samples; the cyclic
    angles add under multiplication to 1e-9 mod 2pi."""
    rng = random.Random(1006)
    worst_rt = 0.0
    worst_angle = 0.0
    for kind in KINDS:
        for _ in range(500):
            u = exp(_rand_quad(kind, rng, span=0.8))
            back = from_exp_form(exp_form(u))
            worst_rt = max(worst_rt, _rel(back, u))
        if kind is AlgebraKind.HYPERBOLIC:
            continue   # no cyclic angles; exponents checked via crit 5
        for _ in range(300):
            u = exp(_rand_quad(kind, rng, span=0.6))
            v = exp(_rand_quad(kind, rng, span=0.6))
            fu, fv, fuv = exp_form(u), exp_form(v), exp_form(mul(u, v))
            worst_angle = max(worst_angle,
                              _angle_gap(fuv.phi, fu.phi + fv.phi))
            if kind is not AlgebraKind.POLAR:
                worst_angle = max(worst_angle,
                                  _angle_gap(fuv.chi, fu.chi + fv.chi))
    ok = worst_rt <= 1e-10 and worst_angle <= 1e-9
    return ok, f"round trip {worst_rt:.2e}, angle additivity {worst_angle:.2e}"


def crit_7_residues():
    """du/(u-u0) loop integrals reproduce the per-kind residue units to
    1e-5 at N=4096; hyperbolic regular loops vanish to 1e-8; Cauchy
    formula with f=exp to 1e-5; runtime < 10 s."""
    start = time.perf_counter()
    n = 4096
    cases = [
        (AlgebraKind.CIRCULAR, "plus", (0.0, PI, PI, 0.0)),
        (AlgebraKind.CIRCULAR, "minus", (0.0, PI, -PI, 0.0)),
        (AlgebraKind.PLANAR, "plus", (0.0, PI / SQRT2, PI, PI / SQRT2)),
        # minus circle traversed counterclockwise in its own chart, so the
        # beta component carries the opposite sign from the plus circle
        (AlgebraKind.PLANAR, "minus", (0.0, PI / SQRT2, -PI, PI / SQRT2)),
        (AlgebraKind.POLAR, "plus", (0.0, PI, 0.0, -PI)),
    ]
    worst_pole = 0.0
    for kind, plane, unit in cases:
        u0 = Quad(kind, 0.15, 0.1, -0.05, 0.2)
        center = (u0 + Quad(kind, 0.2, 0.0, 0.2, 0.0)
                  if kind is AlgebraKind.POLAR else u0)
        loop = Loop.circle(center, 1.0, plane=plane, samples=n)
        got = integrate_loop(lambda u: inverse(u - u0), loop)
        pred = residue_prediction([(u0, one(kind))], loop)
        if _maxdiff(pred, Quad(kind, *unit)) > 1e-12:
            return False, f"{kind.value} {plane} prediction != residue unit"
        worst_pole = max(worst_pole, _maxdiff(got, Quad(kind, *unit)))

    kind = AlgebraKind.HYPERBOLIC
    worst_hyp = 0.0
    for plane in ("plus", "minus"):
        loop = Loop.circle(Quad(kind, 2.0, 0.1, 0.2, 0.0), 0.5,
                           plane=plane, samples=n)
        got = integrate_loop(lambda u: mul(u, u), loop)
        worst_hyp = max(worst_hyp, max(abs(c) for c in got.components))

    worst_cauchy = 0.0
    for kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR, AlgebraKind.POLAR):
        u0 = Quad(kind, 0.1, 0.2, 0.05, -0.1)
        center = (u0 + Quad(kind, 0.2, 0.0, 0.2, 0.0)
                  if kind is AlgebraKind.POLAR else u0)
        loop = Loop.circle(center, 1.0, samples=n)
        got = integrate_loop(lambda u: mul(exp(u), inverse(u - u0)), loop)
        pred = residue_prediction([(u0, exp(u0))], loop)
        worst_cauchy = max(worst_cauchy, _maxdiff(got, pred))

    elapsed = time.perf_counter() - start
    ok = (worst_pole <= 1e-5 and worst_hyp <= 1e-8
          and worst_cauchy <= 1e-5 and elapsed < 10.0)
    return ok, (f"poles {worst_pole:.2e}, hyperbolic {worst_hyp:.2e}, "
                f"Cauchy {worst_cauchy:.2e}, {elapsed:.2f}s")


def crit_8_analyticity():
    """check_analytic <= 1e-6 and check_second_order <= 1e-4 for u^2, u^3
    and exp at 10 random base points per kind."""
    rng = random.Random(1008)
    funcs = (lambda u: mul(u, u), lambda u: pow_int(u, 3), exp)
    worst_first = worst_second = 0.0
    for kind in KINDS:
        for _ in range(10):
            u0 = _rand_quad(kind, rng, span=1.0)
            for f in funcs:
                worst_first = max(worst_first, check_analytic(f, u0))
                worst_second = max(worst_second, check_second_order(f, u0))
    ok = worst_first <= 1e-6 and worst_second <= 1e-4
    return ok, f"first order {worst_first:.2e}, second order {worst_second:.2e}"


def crit_9_factorization():
    """reconstruct(factor(p)) = p to 1e-7 on random monic degree <= 5;
    the worked examples count 2 / 2 / 8 / 4 factorizations exactly."""
    counts = {AlgebraKind.CIRCULAR: (1.0, 2), AlgebraKind.PLANAR: (1.0, 2),
              AlgebraKind.HYPERBOLIC: (-1.0, 8), AlgebraKind.POLAR: (-1.0, 4)}
    for kind, (const, want) in counts.items():
        p = Poly(kind, (one(kind), Quad(kind, 0, 0, 0, 0),
                        Quad(kind, const, 0, 0, 0)))
        got = len(enumerate_factorizations(p))
        if got != want:
            return False, f"{kind.value} count {got} != {want}"

    rng = random.Random(1009)
    worst = 0.0
    for kind in KINDS:
        for _ in range(10):
            degree = rng.randint(1, 5)
            coeffs = [one(kind)] + [_rand_quad(kind, rng, span=1.0)
                                    for _ in range(degree)]
            p = Poly(kind, tuple(coeffs))
            q = reconstruct(factor(p), kind)
            for a, b in zip(p.coeffs, q.coeffs):
                worst = max(worst, _rel(a, b))
    return worst <= 1e-7, f"counts exact, reconstruction residual {worst:.2e}"


def crit_10_canonical():
    """to_canonical(mul(u,v)) = canonical_mul(...) to 1e-12 and the
    modulus bounds |uv| <= sqrt(2)|u||v| / 2|u||v| on 10^4 samples."""
    rng = random.Random(1010)
    worst_mul = 0.0
    factor_of = {AlgebraKind.CIRCULAR: SQRT2, AlgebraKind.PLANAR: SQRT2,
                 AlgebraKind.HYPERBOLIC: 2.0, AlgebraKind.POLAR: 2.0}
    for kind in KINDS:
        bound = factor_of[kind]
        for _ in range(10_000):
            u, v = _rand_quad(kind, rng), _rand_quad(kind, rng)
            direct = _fields(to_canonical(mul(u, v)))
            split = _fields(canonical_mul(to_canonical(u), to_canonical(v)))
            scale = max(1.0, max(abs(c) for c in direct))
            worst_mul = max(
                worst_mul,
                max(abs(a - b) for a, b in zip(direct, split)) / scale)
            if modulus(mul(u, v)) > bound * modulus(u) * modulus(v) * (
                    1.0 + 1e-12):
                return False, f"{kind.value} modulus bound violated"
    return worst_mul <= 1e-12, f"canonical mul residual {worst_mul:.2e}"


CRITERIA = [
    (1, "algebra laws", crit_1_algebra_laws),
    (2, "inverses and nodal sets", crit_2_inverse),
    (3, "determinant = amplitude", crit_3_determinant),
    (4, "cosexponential suite", crit_4_cosexponentials),
    (5, "exp/log and de Moivre", crit_5_exp_log),
    (6, "exponential form", crit_6_exp_form),
    (7, "residues", crit_7_residues),
    (8, "analyticity checks", crit_8_analyticity),
    (9, "factorization", crit_9_factorization),
    (10, "canonical consistency", crit_10_canonical),
]


def _report(num, label, fn):
    ok, detail = fn()
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_01():
    _report(*CRITERIA[0])


def test_criterion_02():
    _report(*CRITERIA[1])


def test_criterion_03():
    _report(*CRITERIA[2])


def test_criterion_04():
    _report(*CRITERIA[3])


def test_criterion_05():
    _report(*CRITERIA[4])


def test_criterion_06():
    _report(*CRITERIA[5])


def test_criterion_07():
    _report(*CRITERIA[6])


def test_criterion_08():
    _report(*CRITERIA[7])


def test_criterion_09():
    _report(*CRITERIA[8])


def test_criterion_10():
    _report(*CRITERIA[9])


def main() -> int:
    failed = 0
    for num, label, fn in CRITERIA:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} ({detail})")
        failed += 0 if ok else 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
