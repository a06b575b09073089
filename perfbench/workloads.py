"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (data only), and
``make_round`` turns them into one round: a fixed list of operations that
every run repeats whole, so the share of failed operations is the same in
every run.  An operation is a callable ``op(clock)``: it calls quadfield
only through ``clock`` (which times the call and switches tracing on for
it), then checks the result against the oracle outside the timed region.

An operation raises ``Expected(tag)`` when it fails because of one of the
named faults below, and ``CheckError`` when a result is wrong in any other
way.  Inputs of the operations that fail today do not depend on the seed.

======================  ==================================================
tag                     fault
======================  ==================================================
``winding``             ``calculus.winding`` is an even-odd parity, so
                        ``residue_prediction`` is wrong on clockwise and
                        twice-wound loops.
``multiple_root``       ``polynomial._durand_kerner`` converges linearly at
                        a multiple root and raises ``NoConvergence``.
``conjugate_pairing``   ``factor`` zips line roots sorted by (re, im), so
                        the roots of a planted real quadratic factor are
                        left unpaired by ``pair_conjugates``.
======================  ==================================================
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

import oracle as O

KINDS = O.KINDS
FIXED_SEED = 2000  # inputs of the operations that fail today


class CheckError(Exception):
    """A result contradicts the oracle or a property the method must have."""


class Expected(Exception):
    """The operation failed because of a named fault (see module doc)."""

    def __init__(self, tag):
        super().__init__(tag)
        self.tag = tag


def _require(ok, what):
    if not ok:
        raise CheckError(what)


def _rand_plane(rng, lo, hi, margin=0.05):
    """Complex value with modulus in [lo, hi], angle kept off the log cut."""
    r = rng.uniform(lo, hi)
    a = rng.uniform(margin, 2.0 * math.pi - margin)
    return cmath.rect(r, a)


def _rand_quad(rng, kind, lo, hi, positive_lines=False):
    parts = []
    for shape in O.SHAPES[kind]:
        if shape == "C":
            parts.append(_rand_plane(rng, lo, hi))
        else:
            s = rng.uniform(lo, hi)
            parts.append(s if positive_lines or rng.random() < 0.5 else -s)
    return O.join(kind, tuple(parts))


# =============================================================================
# arith: a stream of value-level calls
# =============================================================================

# Operations per round of 416, each split evenly over the four kinds.  The
# mix is synthetic: no caller of the library was measured to choose it.  It
# follows "mostly mul, add/sub, inverse and pow_int", keeps every other
# public value-level function at least once per kind, and was weighted so
# that the median falls inside the `mul` calls and the 99th percentile
# inside the trigonometric functions (the slowest 4 % of calls).  So p50
# and p99 read those operations by construction, not as a profile of use.
ARITH_WEIGHTS = (
    ("add", 48), ("sub", 48), ("mul", 160), ("inverse", 60), ("pow_int", 32),
    ("exp", 12), ("log", 12), ("pow_real", 8), ("exp_form", 8),
    ("block_diagonalize", 12), ("cos", 4), ("sin", 4), ("cosh", 4), ("sinh", 4),
)
ARITH_POOL = 64


class Arith:
    name = "arith"
    tail_pct = 99.0

    def setup(self, qf, seed):
        rng = random.Random(seed)
        pools = {}
        for kind in KINDS:
            K = qf.AlgebraKind(kind)
            make = {
                # general values, well away from the nodal sets
                "gen": lambda: _rand_quad(rng, kind, 0.5, 1.5),
                # inside the log / exp-form domain (positive lines)
                "dom": lambda: _rand_quad(rng, kind, 0.5, 1.5, True),
                # moderate arguments for exp and the trigonometric functions
                "small": lambda: _rand_quad(rng, kind, 0.1, 1.2),
            }
            for pool, gen in make.items():
                comps = [gen() for _ in range(ARITH_POOL)]
                pools[kind, pool] = [(c, qf.Quad(K, *c)) for c in comps]
        schedule = [(name, kind) for name, count in ARITH_WEIGHTS
                    for kind in KINDS for _ in range(count // 4)]
        rng.shuffle(schedule)
        ops = []
        for name, kind in schedule:
            pick = lambda pool: rng.choice(pools[kind, pool])
            if name in ("mul", "add", "sub"):
                args = (pick("gen"), pick("gen"))
            elif name in ("inverse", "block_diagonalize"):
                args = (pick("gen"),)
            elif name == "pow_int":
                args = (pick("gen"), rng.choice((-3, -2, 2, 3, 4, 5)))
            elif name in ("log", "exp_form"):
                args = (pick("dom"),)
            elif name == "pow_real":
                args = (pick("dom"), rng.uniform(-1.5, 2.5))
            else:  # exp and the trigonometric functions
                args = (pick("small"),)
            ops.append((name, kind, args))
        return ops

    def make_round(self, qf, ops, ctx):
        return [_ARITH_OPS[name](qf, kind, *args) for name, kind, args in ops]


def _binary(fn_name, want_fn):
    def make(qf, kind, a, b):
        fn = getattr(qf, fn_name)
        want = want_fn(kind, a[0], b[0])

        def op(clock):
            r = clock(fn, a[1], b[1])
            _require(O.close(r.components, want, 1e-12), f"{fn_name} {kind}")
        return op
    return make


def _unary(fn_name, want_fn, rel=1e-10):
    def make(qf, kind, a):
        fn = getattr(qf, fn_name)
        want = want_fn(kind, a[0])

        def op(clock):
            r = clock(fn, a[1])
            _require(O.close(r.components, want, rel), f"{fn_name} {kind}")
        return op
    return make


def _make_inverse(qf, kind, a):
    inverse = qf.inverse

    def op(clock):
        r = clock(inverse, a[1])
        _require(O.close(O.mul(kind, a[0], r.components), O.ONE, 1e-10),
                 f"u*inverse(u) != 1 in {kind}")
    return op


def _make_pow_int(qf, kind, a, m):
    pow_int = qf.pow_int
    want = O.pow_int(kind, a[0], m)

    def op(clock):
        r = clock(pow_int, a[1], m)
        _require(O.close(r.components, want, 1e-10), f"pow_int {kind} {m}")
    return op


def _make_pow_real(qf, kind, a, n):
    pow_real = qf.pow_real
    want = O.pow_real(kind, a[0], n)

    def op(clock):
        r = clock(pow_real, a[1], n)
        _require(O.close(r.components, want, 1e-10), f"pow_real {kind} {n}")
    return op


def _make_exp_form(qf, kind, a):
    exp_form, from_exp_form = qf.exp_form, qf.from_exp_form
    to_dict = qf.expform_to_dict

    def round_trip(u):
        f = exp_form(u)
        return f, from_exp_form(f)

    def op(clock):
        f, back = clock(round_trip, a[1])
        fields = to_dict(f)
        _require(O.close(O.from_exp_form(kind, fields), a[0], 1e-10),
                 f"exp_form fields {kind}")
        _require(O.close(back.components, a[0], 1e-10),
                 f"from_exp_form(exp_form(u)) != u in {kind}")
    return op


def _make_block_diagonalize(qf, kind, a):
    block_diagonalize = qf.block_diagonalize
    determinant, represent, amplitude = qf.determinant, qf.represent, qf.amplitude
    want = O.expected_blocks(kind, a[0])
    nu = O.amplitude_nu(kind, a[0])

    def op(clock):
        m = clock(block_diagonalize, a[1])
        got = [m.row(i) for i in range(4)]
        _require(all(O.close(g, w, 1e-12) for g, w in zip(got, want)),
                 f"block_diagonalize {kind}")
        _require(O.close((determinant(represent(a[1])), amplitude(a[1]).nu),
                         (nu, nu), 1e-10), f"determinant != nu in {kind}")
    return op


_ARITH_OPS = {
    "mul": _binary("mul", O.mul),
    "add": _binary("add", lambda k, a, b: O.add(a, b)),
    "sub": _binary("sub", lambda k, a, b: O.sub(a, b)),
    "inverse": _make_inverse,
    "pow_int": _make_pow_int,
    "exp": _unary("exp", O.exp),
    "log": _unary("log", O.log),
    "pow_real": _make_pow_real,
    "exp_form": _make_exp_form,
    "block_diagonalize": _make_block_diagonalize,
}
for _name in O.FUNCTIONS:
    _ARITH_OPS[_name] = _unary(
        _name, lambda k, a, _n=_name: O.elementary(k, _n, a))


# =============================================================================
# residue: loop integrals solved to a stated accuracy
# =============================================================================

RESIDUE_TOL = 1e-6
RESIDUE_N0 = 64
RESIDUE_NMAX = 1 << 16
RESIDUE_RADIUS = 0.5


class Residue:
    name = "residue"
    tail_pct = 75.0

    def setup(self, qf, seed):
        rng = random.Random(seed)
        cases = []
        for kind in KINDS:
            # Plane values of the centre have a non-negative real part, so
            # |exp(u0)| >= 1 in every plane and every circle, whatever the
            # seed, needs the same sample count to reach RESIDUE_TOL.
            c = tuple(cmath.rect(rng.uniform(0.05, 0.4), rng.uniform(-1.0, 1.0))
                      if shape == "C" else rng.uniform(-0.4, 0.4)
                      for shape in O.SHAPES[kind])
            center = O.join(kind, c)
            if kind == "hyperbolic":
                # the pole sits off every line the loop sweeps
                pole = O.join(kind, tuple(
                    s + rng.choice((-1, 1)) * (RESIDUE_RADIUS + rng.uniform(0.3, 0.8))
                    for s in c))
            elif kind == "polar":
                pole = O.join(kind, (c[0] + rng.uniform(0.3, 0.8),
                                     c[1] - rng.uniform(0.3, 0.8), c[2]))
            else:
                pole = center
            for integrand in ("pole", "exp"):
                cases.append(dict(kind=kind, center=center, pole=pole,
                                  integrand=integrand, turns=1))
        # The clockwise and twice-wound polylines are where residue_prediction
        # fails today, so their inputs are fixed.
        fixed = random.Random(FIXED_SEED)
        center = _rand_quad(fixed, "circular", 0.05, 0.4)
        for turns in (-1, 2):
            cases.append(dict(kind="circular", center=center, pole=center,
                              integrand="pole", turns=turns))
        return cases

    def make_round(self, qf, cases, ctx):
        return [self._case(qf, case, ctx) for case in cases]

    def _case(self, qf, case, ctx):
        kind = case["kind"]
        K = qf.AlgebraKind(kind)
        u0 = qf.Quad(K, *case["pole"])
        center = qf.Quad(K, *case["center"])
        turns = case["turns"]
        inverse, mul, exp = qf.inverse, qf.mul, qf.exp
        integrate_loop, residue_prediction = qf.integrate_loop, qf.residue_prediction
        if case["integrand"] == "pole":
            numerator = O.ONE

            def f(u):
                return inverse(u - u0)
        else:
            numerator = O.exp(kind, case["pole"])

            def f(u):
                return mul(exp(u), inverse(u - u0))
        if ctx.traced:
            raw = f

            def f(u):
                ctx.counts["integrand_evals"] += 1
                return raw(u)
        a = qf.Quad(K, *numerator)
        windings = (turns,) + (0,) * (O.planes(kind) - 1)
        want = O.cauchy_integral(kind, windings, numerator)

        if turns == 1:
            circle = qf.Loop.circle

            def build(n):
                return circle(center, RESIDUE_RADIUS, samples=n)
        else:
            from_points = qf.Loop.from_points
            cache = {}

            def build(n):
                return from_points(cache[n])

        def op(clock):
            n = RESIDUE_N0
            while True:
                if turns != 1 and n not in cache:
                    cache[n] = _polyline(qf, kind, case["center"], turns, n)
                loop = clock(build, n)
                got = clock(integrate_loop, f, loop).components
                if max(abs(p - q) for p, q in zip(got, want)) <= RESIDUE_TOL:
                    break
                n *= 2
                if n > RESIDUE_NMAX:
                    raise CheckError(f"{kind} loop integral missed {RESIDUE_TOL} "
                                     f"at {RESIDUE_NMAX} samples")
            ctx.counts["samples_to_tol"] += n
            pred = clock(residue_prediction, [(u0, a)], loop).components
            if not O.close(pred, want, 1e-12):
                if turns != 1:
                    raise Expected("winding")
                raise CheckError(f"residue_prediction {kind}")
        return op


def _polyline(qf, kind, center, turns, n):
    """n samples (plus closure) of a circle wound `turns` times in the plus
    plane; negative turns run clockwise.  Radius in plane units matches
    Loop.circle at psi = pi/4."""
    w1, w2 = O.split(kind, center)
    r = RESIDUE_RADIUS
    K = qf.AlgebraKind(kind)
    pts = []
    for i in range(n + 1):
        th = 2.0 * math.pi * turns * i / n
        pts.append(qf.Quad(K, *O.join(kind, (w1 + r * cmath.exp(1j * th), w2 + r))))
    return pts


# =============================================================================
# factor: polynomial factorization
# =============================================================================

FACTOR_DEGREES = (2, 3, 4, 5, 6)
FACTOR_PER_DEGREE = 2
FACTOR_CONJ_POLYS = 4
ENUMERATE_CAP = 2


def _planted_roots(rng, kind, m):
    """m real roots whose values are distinct in every plane and line.

    Line values take one random point from each of m equal bins of
    [-1.5, 1.5], kept off the bin edges; plane values are drawn in the disk
    of radius 1.5 at least 0.3 apart (m <= 8 points always fit).
    """
    columns = []
    for shape in O.SHAPES[kind]:
        if shape == "C":
            col = []
            while len(col) < m:
                v = cmath.rect(1.5 * math.sqrt(rng.random()),
                               rng.uniform(0.0, 2.0 * math.pi))
                if all(abs(v - w) >= 0.3 for w in col):
                    col.append(v)
        else:
            width = 3.0 / m
            col = [-1.5 + (i + rng.uniform(0.25, 0.75)) * width for i in range(m)]
            rng.shuffle(col)
        columns.append(col)
    return [O.join(kind, parts) for parts in zip(*columns)]


def _conjugate_poly(rng):
    """Hyperbolic degree 4: a real quadratic with a conjugate pair of roots
    on every line, times two real linear factors."""
    kind = "hyperbolic"
    s = [rng.uniform(-1.5, 1.5) for _ in range(4)]
    q = [v * v / 4.0 + rng.uniform(0.3, 1.2) for v in s]
    quad = [O.ONE, tuple(-c for c in O.join(kind, s)), O.join(kind, q)]
    reals = _planted_roots(rng, kind, 2)
    coeffs = O.poly_mul(kind, quad, O.expand(kind, reals))
    lines = []
    for j in range(4):
        d = cmath.sqrt(s[j] * s[j] - 4.0 * q[j])
        lines.append([(s[j] + d) / 2.0, (s[j] - d) / 2.0]
                     + [O.split(kind, r)[j] for r in reals])
    return coeffs, lines


class Factor:
    name = "factor"
    tail_pct = 99.0

    def setup(self, qf, seed):
        rng = random.Random(seed)
        cases = []
        for kind in KINDS:
            for m in FACTOR_DEGREES:
                for _ in range(FACTOR_PER_DEGREE):
                    roots = _planted_roots(rng, kind, m)
                    cases.append(("factor", kind, O.expand(kind, roots),
                                  _columns(kind, roots), "real"))
        # Inputs of the operations that fail today are fixed.
        fixed = random.Random(FIXED_SEED)
        conj = [_conjugate_poly(fixed) for _ in range(FACTOR_CONJ_POLYS)]
        for coeffs, lines in conj:
            cases.append(("factor", "hyperbolic", coeffs, lines, "conjugate"))
        for kind in KINDS:
            for m in (3, 4):
                roots = [O.ONE] * m
                cases.append(("factor", kind, O.expand(kind, roots),
                              _columns(kind, roots), "multiple"))
        for coeffs, lines in conj:
            cases.append(("enumerate", "hyperbolic", coeffs, lines, "conjugate"))
        return [(op, kind, _poly(qf, kind, coeffs), coeffs, planted, what)
                for op, kind, coeffs, planted, what in cases]

    def make_round(self, qf, cases, ctx):
        return [(_make_factor if op == "factor" else _make_enumerate)(qf, ctx, *rest)
                for op, *rest in cases]


def _columns(kind, roots):
    return [list(col) for col in zip(*(O.split(kind, r) for r in roots))]


def _poly(qf, kind, coeffs):
    K = qf.AlgebraKind(kind)
    return qf.Poly(K, tuple(qf.Quad(K, *c) for c in coeffs))


def _check_roots(kind, roots, coeffs, planted):
    """Roots (component tuples) must expand back to p and match the planted
    per-plane root multisets."""
    comps = [tuple(complex(c) for c in r) for r in roots]
    _require(len(comps) == len(coeffs) - 1, f"{kind}: wrong root count")
    scale = max(1.0, max(abs(v) for c in coeffs for v in c))
    _require(O.close([v for c in O.expand(kind, comps) for v in c],
                     [v for c in coeffs for v in c], 1e-9, scale),
             f"{kind}: prod(u - r) does not reproduce p")
    found = _columns(kind, comps)
    for j, (f, p) in enumerate(zip(found, planted)):
        _require(O.multiset_match(f, p, 1e-7), f"{kind}: roots in plane {j}")


def _make_factor(qf, ctx, kind, poly, coeffs, planted, what):
    factor, pair_conjugates = qf.factor, qf.pair_conjugates
    NoConvergence, Quad = qf.NoConvergence, qf.Quad

    def op(clock):
        try:
            f = clock(factor, poly)
        except NoConvergence:
            if what == "multiple":
                raise Expected("multiple_root")
            raise
        _check_roots(kind, [r.components for r in f.roots], coeffs, planted)
        if what == "real":
            _require(all(isinstance(r, Quad) for r in f.roots),
                     f"{kind}: planted real roots came back complex")
        elif what == "conjugate":
            _, _, unpaired = pair_conjugates(f)
            if unpaired:
                raise Expected("conjugate_pairing")
    return op


def _make_enumerate(qf, ctx, kind, poly, coeffs, planted, what):
    enumerate_factorizations, pair_conjugates = (qf.enumerate_factorizations,
                                                 qf.pair_conjugates)

    def op(clock):
        found = clock(enumerate_factorizations, poly, ENUMERATE_CAP)
        _require(found, f"{kind}: no conjugate-closed factorization found")
        keys = set()
        for f in found:
            roots = [r.components for r in f.roots]
            _check_roots(kind, roots, coeffs, planted)
            _require(not pair_conjugates(f)[2],
                     f"{kind}: enumerated factorization leaves roots unpaired")
            keys.add(tuple(sorted(tuple((round(complex(c).real, 9),
                                         round(complex(c).imag, 9)) for c in r)
                                  for r in roots)))
        _require(len(keys) == len(found), f"{kind}: repeated factorization")
        ctx.counts["factorizations_found"] += len(found)
    return op


# =============================================================================
# cli: one `python -m quadfield` process per operation
# =============================================================================

# Enough samples that the two `integrate` processes are clearly the slowest
# of a round, so the p90 of `cli` reads them and not spawn noise of the rest.
CLI_SAMPLES = 1024
CLI_INTEGRAL_TOL = 1e-3   # the chord rule's O(N^-2) error at CLI_SAMPLES
                          # was at most 2.6e-5 over seeds 1-40


def _q(c):
    return ",".join(repr(float(v)) for v in c)


class Cli:
    name = "cli"
    tail_pct = 90.0

    def setup(self, qf, seed):
        rng = random.Random(seed)
        kinds = iter(KINDS * 4)
        ops = []

        def add(argv, check):
            ops.append((argv, check))

        k = next(kinds)
        a, b = _rand_quad(rng, k, 0.5, 1.5), _rand_quad(rng, k, 0.5, 1.5)
        add(["eval", f"--kind={k}", "--op=mul", f"--a={_q(a)}", f"--b={_q(b)}",
             "--format=json"], _quad_check(k, O.mul(k, a, b), 1e-12))

        k = next(kinds)
        a = _rand_quad(rng, k, 0.5, 1.5)
        add(["eval", f"--kind={k}", "--op=inverse", f"--a={_q(a)}",
             "--format=json"], _inverse_check(k, a))

        k = next(kinds)
        a, m = _rand_quad(rng, k, 0.5, 1.5), rng.choice((-2, 3, 4))
        add(["eval", f"--kind={k}", "--op=pow", f"--m={m}", f"--a={_q(a)}",
             "--format=json"], _quad_check(k, O.pow_int(k, a, m), 1e-10))

        k = next(kinds)
        nodal = list(O.split(k, _rand_quad(rng, k, 0.5, 1.5)))
        nodal[0] = 0.0  # a divisor of zero: its first plane or line vanishes
        add(["eval", f"--kind={k}", "--op=inverse",
             f"--a={_q(O.join(k, tuple(nodal)))}"], _error_check("SingularValue"))

        k = next(kinds)
        a = _rand_quad(rng, k, 0.5, 1.5, True)
        add(["expform", f"--kind={k}", f"--u={_q(a)}"], _expform_check(k, a))

        k = next(kinds)
        form = _rand_exp_form(rng, k)
        add(["expform", f"--kind={k}", f"--json={json.dumps(form)}",
             "--format=json"],
            _quad_check(k, O.from_exp_form(k, form), 1e-10))

        k = next(kinds)
        a = _rand_quad(rng, k, 0.5, 1.5)
        add(["matrix", f"--kind={k}", f"--u={_q(a)}", "--format=json"],
            _matrix_check(k, a))

        k = next(kinds)
        roots = _planted_roots(rng, k, 3)
        coeffs = O.expand(k, roots)
        add(["factor", f"--kind={k}", f"--coeffs={json.dumps(coeffs)}"],
            _factor_check(k, coeffs, _columns(k, roots)))

        k = "hyperbolic"
        roots = _planted_roots(rng, k, 2)
        coeffs = O.expand(k, roots)
        add(["factor", f"--kind={k}", f"--coeffs={json.dumps(coeffs)}",
             "--enumerate=3"], _factor_check(k, coeffs, _columns(k, roots)))

        for k, integrand in (("circular", "pole"), ("polar", "exp")):
            center = _rand_quad(rng, k, 0.05, 0.4)
            pole = center
            if k == "polar":  # the polar circle keeps v+ and v- fixed
                vp, vm, w = O.split(k, center)
                pole = O.join(k, (vp + 0.5, vm - 0.5, w))
            spec = {"center": list(center), "radius": 0.5, "samples": CLI_SAMPLES}
            numerator = O.ONE if integrand == "pole" else O.exp(k, pole)
            want = O.cauchy_integral(k, (1,) + (0,) * (O.planes(k) - 1), numerator)
            add(["integrate", f"--kind={k}", f"--loop={json.dumps(spec)}",
                 f"--integrand={integrand}", f"--pole={_q(pole)}"],
                _integrate_check(k, want))

        family = rng.choice("fg")
        add(["cosexp", f"--family={family}", "--from=0", "--to=2", "--step=0.25",
             "--format=json"], _cosexp_check(family))
        return ops

    def make_round(self, qf, ops, ctx):
        if ctx.traced:
            main = qf.cli.main
            invoke = lambda argv: _in_process(main, argv)
        else:
            env = dict(os.environ, PYTHONPATH=ctx.src)
            invoke = lambda argv: _subprocess(argv, env, ctx.root)
        return [_make_cli(invoke, argv, check) for argv, check in ops]


def _rand_exp_form(rng, kind):
    """Random fields of the paper's exponential form, inside its chart."""
    angle = lambda: rng.uniform(0.1, 2.0 * math.pi - 0.1)
    if kind in ("circular", "planar"):
        f = {"rho": rng.uniform(0.5, 2.0), "phi": angle(), "chi": angle(),
             "psi": rng.uniform(0.2, 1.3)}
    elif kind == "hyperbolic":
        f = {"mu": rng.uniform(0.5, 2.0), "y1": rng.uniform(-1, 1),
             "z1": rng.uniform(-1, 1), "t1": rng.uniform(-1, 1)}
    else:
        f = {"rho": rng.uniform(0.5, 2.0), "theta_plus": rng.uniform(0.2, 1.3),
             "theta_minus": rng.uniform(0.2, 1.3), "phi": angle()}
    return dict(kind=kind, **f)


def _subprocess(argv, env, cwd):
    p = subprocess.run([sys.executable, "-m", "quadfield", *argv], env=env,
                       cwd=cwd, capture_output=True, text=True, timeout=60)
    return p.returncode, p.stdout


def _in_process(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _make_cli(invoke, argv, check):
    def op(clock):
        code, out = clock(invoke, argv)
        check(code, out)
    return op


def _json_out(code, out, want_code=0):
    _require(code == want_code, f"exit code {code}, want {want_code}")
    return json.loads(out)


def _quad_check(kind, want, rel):
    def check(code, out):
        d = _json_out(code, out)
        _require(d["kind"] == kind and O.close((d["x"], d["y"], d["z"], d["t"]),
                                               want, rel), f"cli result {kind}")
    return check


def _inverse_check(kind, a):
    def check(code, out):
        d = _json_out(code, out)
        r = (d["x"], d["y"], d["z"], d["t"])
        _require(O.close(O.mul(kind, a, r), O.ONE, 1e-10), "cli u*inverse(u) != 1")
    return check


def _error_check(name):
    def check(code, out):
        d = _json_out(code, out, 2)
        _require(d.get("error") == name, f"cli error {d!r}, want {name}")
    return check


def _expform_check(kind, a):
    def check(code, out):
        d = _json_out(code, out)
        _require(O.close(O.from_exp_form(kind, d), a, 1e-10), "cli expform")
    return check


def _matrix_check(kind, a):
    def check(code, out):
        d = _json_out(code, out)
        _require(all(O.close(g, w, 1e-12) for g, w in
                     zip(d["represent"], O.represent(kind, a))), "cli represent")
        _require(all(O.close(g, w, 1e-12) for g, w in
                     zip(d["blocks"], O.expected_blocks(kind, a))), "cli blocks")
        nu = O.amplitude_nu(kind, a)
        _require(O.close((d["determinant"],), (nu,), 1e-10), "cli determinant")
    return check


def _factor_check(kind, coeffs, planted):
    def roots_of(items):
        return [tuple(complex(*c) if isinstance(c, list) else c
                      for c in r["components"]) for r in items]

    def check(code, out):
        d = _json_out(code, out)
        _check_roots(kind, roots_of(d["roots"]), coeffs, planted)
        for fx in d.get("factorizations", []):
            _check_roots(kind, roots_of(fx), coeffs, planted)
        if "count" in d:
            _require(d["count"] == len(d["factorizations"]) >= 1,
                     "cli enumerate count")
    return check


def _integrate_check(kind, want):
    def check(code, out):
        d = _json_out(code, out)
        _require(O.close(d["prediction"], want, 1e-12), "cli prediction")
        _require(max(abs(p - q) for p, q in zip(d["result"], want))
                 <= CLI_INTEGRAL_TOL, "cli loop integral")
    return check


def _cosexp_check(family):
    def check(code, out):
        d = _json_out(code, out)
        _require(len(d["rows"]) == 9, "cli cosexp rows")
        for x, *vals in d["rows"]:
            want = [O.cosexp(family, k, x) for k in range(4)]
            _require(O.close(vals, want, 1e-12), f"cli cosexp at {x}")
    return check


WORKLOADS = {w.name: w for w in (Arith(), Residue(), Factor(), Cli())}
