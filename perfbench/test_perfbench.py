"""Tests of the benchmark itself: the oracle, then every workload at reduced
length.  Run with ``python3 -m pytest perfbench`` from the repository root."""

import json
import math
import random
import subprocess
import sys

import pytest

import oracle as O
import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import quadfield  # noqa: E402  (from the checkout's src/)
import workloads  # noqa: E402

NAMED_FAULTS = {"winding", "multiple_root", "conjugate_pairing"}
ALPHA, BETA, GAMMA = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def _rand(rng):
    return tuple(rng.uniform(-2.0, 2.0) for _ in range(4))


# -- oracle ---------------------------------------------------------------------

def test_unit_products_from_the_paper():
    assert O.mul("circular", ALPHA, BETA) == (0, 0, 0, -1)      # alpha*beta = -gamma
    assert O.mul("circular", GAMMA, GAMMA) == (1, 0, 0, 0)
    assert O.mul("hyperbolic", ALPHA, BETA) == (0, 0, 0, 1)
    assert O.mul("planar", ALPHA, ALPHA) == (0, 0, 1, 0)       # alpha^2 = beta
    assert O.mul("planar", ALPHA, GAMMA) == (-1, 0, 0, 0)
    assert O.mul("polar", ALPHA, GAMMA) == (1, 0, 0, 0)
    assert O.mul("polar", GAMMA, GAMMA) == (0, 0, 1, 0)


@pytest.mark.parametrize("kind", O.KINDS)
def test_product_is_commutative_and_associative(kind):
    rng = random.Random(7)
    for _ in range(50):
        u, v, w = _rand(rng), _rand(rng), _rand(rng)
        assert O.close(O.mul(kind, u, v), O.mul(kind, v, u), 1e-15)
        assert O.close(O.mul(kind, O.mul(kind, u, v), w),
                       O.mul(kind, u, O.mul(kind, v, w)), 1e-13)


@pytest.mark.parametrize("kind", O.KINDS)
def test_split_is_a_ring_homomorphism(kind):
    rng = random.Random(8)
    assert O.close(O.split(kind, O.ONE), (1,) * len(O.SHAPES[kind]), 1e-15)
    for _ in range(50):
        u, v = _rand(rng), _rand(rng)
        assert O.close(O.join(kind, O.split(kind, u)), u, 1e-14)
        prod = [a * b for a, b in zip(O.split(kind, u), O.split(kind, v))]
        assert O.close(O.split(kind, O.mul(kind, u, v)), prod, 1e-13)


@pytest.mark.parametrize("kind", O.KINDS)
def test_planewise_functions_satisfy_their_identities(kind):
    rng = random.Random(9)
    for _ in range(20):
        u = tuple(0.5 * c for c in _rand(rng))
        assert O.close(O.mul(kind, u, O.inverse(kind, u)), O.ONE, 1e-10)
        assert O.close(O.pow_int(kind, u, 3), O.mul(kind, u, O.mul(kind, u, u)), 1e-12)
        c, s = O.elementary(kind, "cos", u), O.elementary(kind, "sin", u)
        assert O.close(O.add(O.mul(kind, c, c), O.mul(kind, s, s)), O.ONE, 1e-12)
        e, m = O.exp(kind, u), O.exp(kind, tuple(-x for x in u))
        assert O.close(O.mul(kind, e, m), O.ONE, 1e-12)
        assert O.close(O.exp(kind, O.log(kind, e)), e, 1e-12)
        half_log = tuple(0.5 * c for c in O.log(kind, e))
        assert O.close(O.pow_real(kind, e, 0.5), O.exp(kind, half_log), 1e-12)


def test_residue_units():
    assert O.close(O.cauchy_integral("circular", (1, 0), O.ONE),
                   (0, math.pi, math.pi, 0), 1e-15)
    assert O.close(O.cauchy_integral("circular", (0, 1), O.ONE),
                   (0, math.pi, -math.pi, 0), 1e-15)
    assert O.close(O.cauchy_integral("polar", (1,), O.ONE),
                   (0, math.pi, 0, -math.pi), 1e-15)
    assert O.cauchy_integral("hyperbolic", (), O.ONE) == (0, 0, 0, 0)
    # winding numbers scale the residue: clockwise -1, twice wound 2
    assert O.close(O.cauchy_integral("circular", (-1, 0), O.ONE),
                   (0, -math.pi, -math.pi, 0), 1e-15)


@pytest.mark.parametrize("kind", O.KINDS)
def test_expected_blocks_are_the_change_of_basis(kind):
    rng = random.Random(10)
    d = O.directions(kind)
    for _ in range(20):
        u = _rand(rng)
        m = O.represent(kind, u)
        got = [[sum(d[i][a] * m[a][b] * d[j][b] for a in range(4) for b in range(4))
                for j in range(4)] for i in range(4)]
        want = O.expected_blocks(kind, u)
        assert all(O.close(g, w, 1e-13) for g, w in zip(got, want))


@pytest.mark.parametrize("kind", O.KINDS)
def test_exp_form_rebuilds_the_value(kind):
    f = {"circular": dict(rho=1.0, phi=0.0, chi=0.0, psi=math.pi / 4),
         "planar": dict(rho=1.0, phi=0.0, chi=0.0, psi=math.pi / 4),
         "hyperbolic": dict(mu=1.0, y1=0.0, z1=0.0, t1=0.0),
         "polar": dict(rho=1.0, theta_plus=math.atan(math.sqrt(2)),
                       theta_minus=math.atan(math.sqrt(2)), phi=0.0)}[kind]
    assert O.close(O.from_exp_form(kind, f), O.ONE, 1e-14)


def test_cosexponential_series():
    for x in (0.0, 0.7, 2.0):
        assert math.isclose(sum(O.cosexp("g", k, x) for k in range(4)), math.exp(x))
        a = x / math.sqrt(2.0)
        assert math.isclose(O.cosexp("f", 0, x), math.cos(a) * math.cosh(a),
                            abs_tol=1e-15)
        assert math.isclose(O.cosexp("f", 2, x), math.sin(a) * math.sinh(a),
                            abs_tol=1e-15)


def test_expand_and_multiset_match():
    roots = [O.join("circular", (1 + 1j, 2 - 1j)), O.join("circular", (-1j, 0.5))]
    p = O.expand("circular", roots)
    # p vanishes at each root
    for r in roots:
        acc = p[0]
        for c in p[1:]:
            acc = O.add(O.mul("circular", acc, r), c)
        assert O.close(acc, (0, 0, 0, 0), 1e-13)
    assert O.multiset_match([1, 2j], [2j, 1 + 1e-12], 1e-9)
    assert not O.multiset_match([1, 1], [1, 2], 1e-9)


# -- workloads at reduced length ------------------------------------------------

def _one_round(name, seed):
    wl = workloads.WORKLOADS[name]
    qf = quadfield  # not re-imported: other test modules share its classes
    ops = wl.make_round(qf, wl.setup(qf, seed), run.Context(traced=False))
    n, lat, _, failures, errors, _ = run.run_rounds(ops, 0.0, len(ops), None)
    assert n == len(lat) == len(ops)
    return failures, errors


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_checks_pass_but_named_faults(name):
    first, errors = _one_round(name, 3)
    assert not errors and "unexpected" not in first, errors
    assert set(first) <= NAMED_FAULTS
    second, _ = _one_round(name, 3)
    assert second == first


def test_sample_keeps_a_fixed_size():
    s = run.Sample(8)
    for v in range(5):
        s.add(v)
    assert s.sorted() == [0, 1, 2, 3, 4]
    for v in range(5, 1000):
        s.add(v)
    assert s.seen == 1000 and len(s) == 8 and len(s.values) == 8
    assert len(set(s.sorted())) == 8 and max(s.sorted()) > 100


def test_command_prints_the_declared_metrics(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        p = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload",
                            "arith", "--seed", "5", "--seconds", "0.3",
                            "--trace", str(trace), "--out", str(tmp_path)],
                           capture_output=True, text=True, timeout=170)
        assert p.returncode == 0, p.stderr
        res = json.loads(p.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        assert all(isinstance(v["value"], float) for v in res["metrics"].values())
        assert (tmp_path / f"run-arith-seed5-trace{trace}.json").is_file()


def test_command_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in run.HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    p = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "arith",
                        "--seconds", "1"], capture_output=True, text=True,
                       timeout=60, cwd=tmp_path)
    assert p.returncode != 0 and p.stdout == ""
