"""CLI surface: golden outputs, exit codes, JSON round trips."""

import json
import math
import os
import subprocess
import sys

import pytest

import quadfield
from quadfield import AlgebraKind, Quad, cosexp, exp_form, expform_to_dict, f4
from quadfield import cli, polynomial
from quadfield.cli import COSEXP_MAX_ROWS, LOOP_MAX_SAMPLES, main

# The directory the tests import quadfield from, so that a child process
# runs the same package, installed or not.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(quadfield.__file__))

# A JSON integer of 401 digits, past the double range.
BIG_INT = "1" + "0" * 400


def run_python(*args, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def run_pkg(*args, env=None):
    return run_python("-m", "quadfield", *args, env=env)


def run_main(capsys, *args):
    """In-process invocation; returns (exit_code, stdout, stderr)."""
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntryPoints:
    def test_pkg_help(self):
        cp = run_pkg("--help")
        assert cp.returncode == 0, cp.stderr
        assert "quadfield" in cp.stdout
        for name in ("eval", "expform", "factor", "integrate", "cosexp",
                     "matrix"):
            assert name in cp.stdout

    def test_module_help(self):
        cp = run_python("-m", "quadfield.cli", "--help")
        assert cp.returncode == 0, cp.stderr

    def test_no_command_is_usage_error(self):
        cp = run_pkg()
        assert cp.returncode == 1
        assert "usage error" in cp.stderr

    @pytest.mark.parametrize("argv", [
        ["--help"], ["nope"], ["nope", "--help"], [],
        *([name, "--help"] for name in cli._COMMANDS),
        ["eval", "--kind", "bogus", "--op", "mul", "--a", "1,0,0,0"],
        ["integrate", "--kind", "circular"],
        ["matrix", "--kind", "polar", "--u", "1,2,3,4", "--extra"],
    ], ids=" ".join)
    def test_one_subcommand_parser_prints_as_the_full_one(self, capsys,
                                                          monkeypatch, argv):
        build, built = cli._build_parser, []

        def run(only_named):
            def make(names):
                built.append(list(names))
                return build(names if only_named else tuple(cli._COMMANDS))

            monkeypatch.setattr(cli, "_build_parser", make)
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        assert run(only_named=True) == run(only_named=False)
        named = argv[:1] if argv and argv[0] in cli._COMMANDS else None
        assert built[0] == (named or list(cli._COMMANDS))


# Runs the CLI as `python -m quadfield` does, then prints the loaded modules.
_RUN_AND_LIST_MODULES = """\
import json, runpy, sys
sys.argv = ["quadfield", *sys.argv[1:]]
try:
    runpy.run_module("quadfield", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""

_CORE = {"quadfield", "quadfield._kernels_py", "quadfield.algebra_core"}


class TestImportFootprint:
    """Each entry point loads only the modules it uses (no timing)."""

    def test_import_quadfield_loads_only_the_core(self):
        cp = run_python("-c", "import json, sys, quadfield; "
                              "print(json.dumps(sorted(sys.modules)))")
        assert cp.returncode == 0, cp.stderr
        loaded = set(json.loads(cp.stdout))
        assert {m for m in loaded if m.startswith("quadfield")} == _CORE
        assert "dataclasses" not in loaded

    def test_import_quadfield_loads_no_json(self):
        # The snippet above imports json itself, so it cannot see this.
        cp = run_python("-c", "import sys, quadfield; "
                              "print('json' in sys.modules)")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "False"

    @pytest.mark.parametrize("module", ["calculus", "canonical", "elementary",
                                        "matrix_rep", "polynomial", "series"])
    def test_library_module_loads_only_the_core(self, module):
        cp = run_python("-c", f"import json, sys, quadfield.{module}; "
                              "print(json.dumps(sorted(sys.modules)))")
        assert cp.returncode == 0, cp.stderr
        loaded = set(json.loads(cp.stdout))
        assert ({m for m in loaded if m.startswith("quadfield")}
                == _CORE | {f"quadfield.{module}"})
        assert "dataclasses" not in loaded

    # argv of one valid command, and the modules it needs beyond the core
    COMMANDS = [
        pytest.param(["eval", "--kind=circular", "--op=mul", "--a=1,2,3,4",
                      "--b=0,1,0,0"], set(), id="eval"),
        pytest.param(["expform", "--kind=circular", "--u=1,0.1,0.2,0.1"],
                     {"canonical"}, id="expform"),
        pytest.param(["factor", "--kind=hyperbolic", "--coeffs=[1,0,-1]",
                      "--enumerate=2"], {"polynomial"}, id="factor"),
        pytest.param(["integrate", "--kind=circular",
                      '--loop={"center":[0,0,0,0],"radius":0.5,"samples":64}',
                      "--integrand=exp", "--pole=0,0,0,0"],
                     {"calculus", "elementary"}, id="integrate"),
        pytest.param(["integrate", "--kind=circular",
                      '--loop={"center":[0,0,0,0],"radius":0.5,"samples":64}',
                      "--integrand=pole", "--pole=0,0,0,0"],
                     {"calculus"}, id="integrate_pole"),
        pytest.param(["cosexp", "--family=f", "--from=0", "--to=1",
                      "--step=0.5"], {"elementary"}, id="cosexp"),
        pytest.param(["matrix", "--kind=polar", "--u=1,2,3,4"],
                     {"matrix_rep"}, id="matrix"),
    ]

    @pytest.mark.parametrize("argv,modules", COMMANDS)
    def test_subcommand_loads_only_its_modules(self, argv, modules):
        cp = run_python("-c", _RUN_AND_LIST_MODULES, *argv)
        assert cp.returncode == 0, cp.stderr
        code, loaded = json.loads(cp.stdout.splitlines()[-1])
        assert code == 0
        want = _CORE | {"quadfield.cli"} | {f"quadfield.{m}" for m in modules}
        assert {m for m in loaded if m.startswith("quadfield")} == want
        assert "dataclasses" not in loaded


class TestEval:
    def test_golden_alpha_times_beta(self):
        cp = run_pkg("eval", "--kind", "circular", "--op", "mul",
                     "--a", "0,1,0,0", "--b", "0,0,1,0")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "0,0,0,-1"

    def test_add_sub(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--kind", "polar", "--op",
                                "add", "--a", "1,2,3,4", "--b", "4,3,2,1")
        assert code == 0 and out.strip() == "5,5,5,5"
        code, out, _ = run_main(capsys, "eval", "--kind", "polar", "--op",
                                "sub", "--a", "1,2,3,4", "--b", "4,3,2,1")
        assert code == 0 and out.strip() == "-3,-1,1,3"

    def test_pow(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--kind", "hyperbolic",
                                "--op", "pow", "--a", "2,0,0,0", "--m", "3")
        assert code == 0 and out.strip() == "8,0,0,0"

    def test_inverse_json(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--kind", "circular", "--op",
                                "inverse", "--a", "2,0,0,0", "--format",
                                "json")
        assert code == 0
        assert json.loads(out) == {"kind": "circular", "x": 0.5, "y": -0.0,
                                   "z": -0.0, "t": -0.0}

    @pytest.mark.parametrize("kind", ["circular", "planar", "polar"])
    def test_inverse_where_a_plane_modulus_squared_overflows(self, capsys,
                                                             kind):
        # a^2 + b^2 of the plane part 1e200 overflows a double
        code, out, _ = run_main(capsys, "eval", "--kind", kind, "--op",
                                "inverse", "--a", "1e200,0,0,0", "--format",
                                "json")
        assert code == 0
        assert json.loads(out) == {"kind": kind, "x": 1e-200, "y": 0.0,
                                   "z": 0.0, "t": 0.0}

    def test_amplitude_with_undefined_rho(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--kind", "hyperbolic",
                                "--op", "amplitude",
                                "--a", "0.5,-0.5,-0.5,-0.5",
                                "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["nu"] == pytest.approx(-1.0)
        assert payload["rho"] is None

    def test_amplitude_text(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--kind", "circular",
                                "--op", "amplitude", "--a", "1,0,0,0")
        assert code == 0 and out.strip() == "nu=1 rho=1"

    def test_modulus(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--kind", "planar", "--op",
                                "modulus", "--a", "3,0,4,0", "--format",
                                "json")
        assert code == 0 and json.loads(out) == {"modulus": 5.0}

    def test_singularity_report(self, capsys):
        code, out, _ = run_main(capsys, "eval", "--kind", "circular", "--op",
                                "singularity", "--a", "1,0,0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["singular"] is True
        assert payload["nodal_sets"] == ["rho_minus"]
        assert payload["margin"] == 0.0

    def test_singular_inverse_exits_2(self):
        cp = run_pkg("eval", "--kind", "circular", "--op", "inverse",
                     "--a", "1,0,0,1")
        assert cp.returncode == 2
        payload = json.loads(cp.stdout)
        assert payload["error"] == "SingularValue"
        assert "rho_minus" in payload["message"]

    def test_missing_b_is_usage_error(self, capsys):
        code, _, err = run_main(capsys, "eval", "--kind", "circular", "--op",
                                "mul", "--a", "1,0,0,0")
        assert code == 1 and "usage error" in err

    def test_bad_kind_is_usage_error(self):
        cp = run_pkg("eval", "--kind", "spherical", "--op", "modulus",
                     "--a", "1,0,0,0")
        assert cp.returncode == 1
        assert "usage error" in cp.stderr

    def test_bad_quad_is_usage_error(self, capsys):
        code, _, err = run_main(capsys, "eval", "--kind", "circular", "--op",
                                "modulus", "--a", "1,0,0")
        assert code == 1 and "4 components" in err

    def test_overflowing_result_is_domain_error(self):
        cp = run_pkg("eval", "--kind", "circular", "--op", "pow", "--m", "400",
                     "--a", "10,0,0,0")
        assert cp.returncode == 2, cp.stderr
        assert json.loads(cp.stdout)["error"] == "ResultOverflow"

    def test_inverse_past_the_double_range_is_a_json_error(self):
        cp = run_pkg("eval", "--kind", "circular", "--op", "inverse",
                     "--a", "1e-310,0,0,0",
                     env={**os.environ, "QUADFIELD_TOL": "1e-300"})
        assert cp.returncode == 2, cp.stderr
        assert json.loads(cp.stdout) == {
            "error": "ResultOverflow",
            "message": "circular inverse exceeds the range of a double"}
        assert "Traceback" not in cp.stderr

    def test_non_finite_input_is_usage_error(self, capsys):
        code, out, err = run_main(capsys, "eval", "--kind", "circular",
                                  "--op", "pow", "--m", "2",
                                  "--a", "1e999,0,0,0")
        assert code == 1 and out == ""
        assert "usage error" in err and "not finite" in err


class TestExpform:
    @pytest.mark.parametrize("kind,u", [
        ("circular", "1.2,0.3,-0.2,0.4"),
        ("polar", "2.0,0.3,0.5,0.1"),
    ])
    def test_round_trip(self, capsys, kind, u):
        code, out, _ = run_main(capsys, "expform", "--kind", kind, "--u", u)
        assert code == 0
        form = json.loads(out)
        assert form["kind"] == kind
        code, out, _ = run_main(capsys, "expform", "--kind", kind,
                                "--json", json.dumps(form),
                                "--format", "json")
        assert code == 0
        got = json.loads(out)
        want = [float(v) for v in u.split(",")]
        for name, w in zip("xyzt", want):
            assert got[name] == pytest.approx(w, abs=1e-12)

    def test_reader_matches_library_writer(self, capsys):
        u = Quad(AlgebraKind.CIRCULAR, 1.0, 0.25, -0.5, 0.125)
        form = expform_to_dict(exp_form(u))
        code, out, _ = run_main(capsys, "expform", "--kind", "circular",
                                "--u", "1,0.25,-0.5,0.125")
        assert code == 0
        got = json.loads(out)
        for key, val in form.items():
            if key == "kind":
                assert got[key] == val
            else:
                assert got[key] == pytest.approx(val, abs=1e-15)

    def test_exactly_one_input(self, capsys):
        code, _, err = run_main(capsys, "expform", "--kind", "circular")
        assert code == 1 and "exactly one" in err
        code, _, err = run_main(capsys, "expform", "--kind", "circular",
                                "--u", "1,0,0,0", "--json", "{}")
        assert code == 1 and "exactly one" in err

    def test_kind_mismatch(self, capsys):
        code, out, _ = run_main(capsys, "expform", "--kind", "circular",
                                "--u", "1,0,0,0")
        form = out.strip()
        code, _, err = run_main(capsys, "expform", "--kind", "polar",
                                "--json", form)
        assert code == 1 and "does not match" in err

    def test_domain_violation_exits_2(self, capsys):
        # hyperbolic s' = x - y + z - t <= 0
        code, out, _ = run_main(capsys, "expform", "--kind", "hyperbolic",
                                "--u", "1,2,0,0")
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    def test_unknown_field_is_usage_error(self, capsys):
        payload = {"kind": "circular", "rho": 1, "phi": 0, "chi": 0,
                   "psi": 0.5, "nope": 1}
        code, out, err = run_main(capsys, "expform", "--kind", "circular",
                                  "--json", json.dumps(payload))
        assert code == 1 and out == ""
        assert "usage error" in err and "'nope'" in err

    @pytest.mark.parametrize("kind,payload,field", [
        ("polar", {"kind": "polar", "rho": 1, "theta_plus": 0,
                   "theta_minus": 1, "phi": 0}, "theta_plus"),
        ("circular", {"kind": "circular", "rho": 1, "phi": 0, "chi": 0,
                      "psi": 0}, "psi"),
        ("circular", {"kind": "circular", "rho": -1, "phi": 0, "chi": 0,
                      "psi": 0.5}, "rho"),
    ])
    def test_field_out_of_range_is_json_domain_error(self, kind, payload,
                                                      field):
        cp = run_pkg("expform", "--kind", kind, "--json", json.dumps(payload))
        assert cp.returncode == 2, cp.stderr
        assert cp.stderr == ""
        error = json.loads(cp.stdout)
        assert error["error"] == "DomainError"
        assert f"finite {field} " in error["message"]

    def test_underflowing_angle_is_json_domain_error(self):
        # psi = atan2(rho_plus, rho_minus) underflows to 0, which the
        # --json reader would reject
        cp = run_pkg("expform", "--kind", "circular",
                     "--u", "5e299,5e-301,5e-301,-5e299")
        assert cp.returncode == 2, cp.stderr
        assert cp.stderr == ""
        error = json.loads(cp.stdout)
        assert error["error"] == "DomainError"
        assert "finite psi " in error["message"]

    def test_overflow_is_json_error_exit_2(self):
        payload = {"kind": "hyperbolic", "mu": 1.0, "y1": 800, "z1": 0,
                   "t1": 0}
        cp = run_pkg("expform", "--kind", "hyperbolic",
                     "--json", json.dumps(payload))
        assert cp.returncode == 2, cp.stderr
        assert "Traceback" not in cp.stderr
        assert json.loads(cp.stdout)["error"] == "ResultOverflow"


class TestFactor:
    def test_golden_hyperbolic_enumeration(self):
        cp = run_pkg("factor", "--kind", "hyperbolic", "--coeffs", "[1,0,-1]",
                     "--enumerate", "10")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["count"] == 8
        assert payload["residual"] == 0.0
        roots = sorted(tuple(r["components"]) for r in payload["roots"])
        assert roots == [(-1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)]
        assert len(payload["factorizations"]) == 8

    def test_overflowing_root_iteration_is_a_json_error(self, capsys):
        coeffs = [[1, 0, 0, 0]] + [[1e120, 3e119, -1e119, 0]] * 4
        code, out, _ = run_main(capsys, "factor", "--kind", "hyperbolic",
                                "--coeffs", json.dumps(coeffs))
        assert code == 2
        assert json.loads(out)["error"] == "NoConvergence"

    def test_coefficient_modulus_past_the_double_range_is_a_json_error(
            self, capsys):
        # finite parts; the modulus of the rho_plus coefficient overflows
        code, out, _ = run_main(capsys, "factor", "--kind", "circular",
                                "--coeffs", "[1, [0.75e308, 0.75e308, "
                                "0.75e308, 0.75e308]]")
        assert code == 2
        assert json.loads(out) == {
            "error": "NoConvergence",
            "message": "root finder left the double range on the rho_plus "
                       "component"}

    def test_triple_root_prints_its_multiplicity(self, capsys):
        code, out, _ = run_main(capsys, "factor", "--kind", "polar",
                                "--coeffs", "[1, -3, 3, -1]")
        assert code == 0
        payload = json.loads(out)
        assert [r["components"] for r in payload["roots"]] == [[1, 0, 0, 0]] * 3
        assert payload["multiplicities"] == {
            "v_plus": [3, 3, 3], "v_minus": [3, 3, 3], "mu_plus": [3, 3, 3]}

    def test_planar_quadratic_roots(self, capsys):
        code, out, _ = run_main(capsys, "factor", "--kind", "planar",
                                "--coeffs", "[1,0,1]")
        assert code == 0
        payload = json.loads(out)
        h = 1.0 / math.sqrt(2.0)
        roots = sorted(tuple(r["components"]) for r in payload["roots"])
        for got, want in zip(roots, [(0, -h, 0, -h), (0, h, 0, h)]):
            assert got == pytest.approx(want, abs=1e-12)
        assert len(payload["factors"]) == 2

    def test_conjugate_pair_renders_quadratic(self, capsys):
        code, out, _ = run_main(capsys, "factor", "--kind", "hyperbolic",
                                "--coeffs", "[1,0,1]")
        assert code == 0
        payload = json.loads(out)
        assert all(r.get("complex") for r in payload["roots"])
        assert len(payload["factors"]) == 1
        assert payload["factors"][0].startswith("(u^2")

    def test_quad_coefficients(self, capsys):
        code, out, _ = run_main(capsys, "factor", "--kind", "circular",
                                "--coeffs", "[[2,0,0,0],[0,0,0,0],[2,0,0,0]]")
        assert code == 0   # normalized to u^2 + 1
        payload = json.loads(out)
        roots = sorted(tuple(r["components"]) for r in payload["roots"])
        assert roots == [(0.0, -1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)]

    def test_deterministic_output(self):
        args = ("factor", "--kind", "polar", "--coeffs", "[1,0,-1]",
                "--enumerate", "10")
        assert run_pkg(*args).stdout == run_pkg(*args).stdout

    @pytest.mark.parametrize("coeffs,entry", [
        ("[1, true]", "got True"), ("[1, [true, 0, 0, 0]]", "got [True, 0, 0, 0]"),
        ("[1, [1, 0, false, 0]]", "got [1, 0, False, 0]"),
        ('[1, ["1", 0, 0, 0]]', "got ['1', 0, 0, 0]")])
    def test_non_number_coefficient_is_usage_error(self, coeffs, entry):
        cp = run_pkg("factor", "--kind", "circular", "--coeffs", coeffs)
        assert cp.returncode == 1 and cp.stdout == ""
        assert "Traceback" not in cp.stderr
        assert ("coefficient must be a number or a 4-element list, " + entry
                in cp.stderr)

    @pytest.mark.parametrize("coeffs,named", [
        (f"[1, {BIG_INT}]", "component x=1000"),
        (f"[1, [0, 0, -{BIG_INT}, 0]]", "component z=-1000"),
        (f"[{BIG_INT}0, 1]", "component x=1000")],
        ids=["scalar", "list-entry", "leading"])
    def test_int_past_the_double_range_is_usage_error(self, coeffs, named):
        cp = run_pkg("factor", "--kind", "circular", "--coeffs", coeffs)
        assert cp.returncode == 1 and cp.stdout == ""
        assert "usage error" in cp.stderr and "Traceback" not in cp.stderr
        assert named in cp.stderr and cp.stderr.endswith("0 is not finite\n")

    def test_bad_coeffs(self, capsys):
        code, _, err = run_main(capsys, "factor", "--kind", "circular",
                                "--coeffs", "[1,0,")
        assert code == 1 and "not valid JSON" in err
        code, _, err = run_main(capsys, "factor", "--kind", "circular",
                                "--coeffs", "[1]")
        assert code == 1
        code, _, err = run_main(capsys, "factor", "--kind", "circular",
                                "--coeffs", "[1,[1,2]]")
        assert code == 1 and "4-element" in err

    def test_enumeration_budget_is_json_error_exit_2(self, capsys,
                                                     monkeypatch):
        # polar u^8 + 1: the pinned v+ order, the first v- order and the
        # first mu+ order use the budget, lowered here, before the first
        # leaf is assembled
        monkeypatch.setattr(polynomial, "_MAX_VISITS", 3)
        code, out, err = run_main(capsys, "factor", "--kind", "polar",
                                  "--coeffs", "[1,0,0,0,0,0,0,0,1]",
                                  "--enumerate", "3")
        assert code == 2, err
        assert "Traceback" not in err
        error = json.loads(out)
        assert error["error"] == "EnumerationBudgetExceeded"
        assert f"budget of {polynomial._MAX_VISITS} visits" in error["message"]

    def test_enumerate_must_be_positive(self, capsys):
        code, _, err = run_main(capsys, "factor", "--kind", "circular",
                                "--coeffs", "[1,0,1]", "--enumerate", "0")
        assert code == 1

    def test_enumerate_is_checked_before_factoring(self, capsys):
        # factoring this polynomial overflows (exit 2); the bad --enumerate
        # is reported first
        code, out, err = run_main(
            capsys, "factor", "--kind", "circular", "--coeffs",
            "[1, [0.75e308, 0.75e308, 0.75e308, 0.75e308]]",
            "--enumerate", "0")
        assert code == 1 and out == ""
        assert "--enumerate must be >= 1" in err


class TestIntegrate:
    def test_circular_pole_matches_prediction(self, capsys):
        code, out, _ = run_main(
            capsys, "integrate", "--kind", "circular",
            "--loop", '{"center": [0,0,0,0], "radius": 1.0, "samples": 8192}',
            "--integrand", "pole", "--pole", "0,0,0,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["prediction"] == pytest.approx(
            [0.0, math.pi, math.pi, 0.0])
        for got, want in zip(payload["result"], payload["prediction"]):
            assert got == pytest.approx(want, abs=1e-6)

    def test_points_loop(self, capsys):
        pts = []
        n = 256
        for i in range(n + 1):
            a = 2 * math.pi * i / n
            pts.append([math.cos(a), math.sin(a), 0.0, 0.0])
        code, out, _ = run_main(
            capsys, "integrate", "--kind", "hyperbolic",
            "--loop", json.dumps({"points": pts}),
            "--integrand", "square", "--pole", "0,0,0,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == pytest.approx([0.0] * 4, abs=1e-4)
        assert payload["prediction"] == [0.0] * 4

    def test_pole_m_two_has_zero_prediction(self, capsys):
        code, out, _ = run_main(
            capsys, "integrate", "--kind", "circular",
            "--loop", '{"center": [0.2,0.1,0,0.1], "radius": 1.0}',
            "--integrand", "pole_m", "--m", "2", "--pole", "0.2,0.1,0,0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["prediction"] == [0.0] * 4
        assert payload["result"] == pytest.approx([0.0] * 4, abs=1e-8)

    @pytest.mark.parametrize("m", [17, 33, 65])
    def test_pole_m_whose_mode_aliases_on_nested_grids(self, capsys, m):
        # In the plus plane the integrand is i*exp(-(m - 1)i*theta): the
        # 8-, 16- (and for m = 33, 32-) node sums all read 2*pi*i, though
        # the integral is 0.
        code, out, _ = run_main(
            capsys, "integrate", "--kind", "circular",
            "--loop", '{"center": [0,0,0,0], "radius": 1, "samples": 1024}',
            "--integrand", "pole_m", "--m", str(m), "--pole", "0,0,0,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["prediction"] == [0.0] * 4
        assert payload["result"] == pytest.approx([0.0] * 4, abs=1e-12)

    def test_exp_cauchy(self, capsys):
        code, out, _ = run_main(
            capsys, "integrate", "--kind", "circular",
            "--loop", '{"center": [0.1,0.2,0,0], "radius": 1.0}',
            "--integrand", "exp", "--pole", "0.1,0.2,0,0")
        assert code == 0
        payload = json.loads(out)
        for got, want in zip(payload["result"], payload["prediction"]):
            assert got == pytest.approx(want, abs=1e-5)

    def test_coeff_scales_prediction(self, capsys):
        code, out, _ = run_main(
            capsys, "integrate", "--kind", "circular",
            "--loop", '{"center": [0,0,0,0], "radius": 1.0, "samples": 16}',
            "--integrand", "pole", "--pole", "0,0,0,0", "--coeff", "2,0,0,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["prediction"] == pytest.approx([0, 2 * math.pi,
                                                       2 * math.pi, 0])

    def test_pole_on_path_exits_2(self, capsys):
        # m=2 skips the winding prediction, so the failure surfaces from
        # the quadrature itself
        code, out, _ = run_main(
            capsys, "integrate", "--kind", "circular",
            "--loop", '{"center": [0,0,0,0], "radius": 1.0, "samples": 16}',
            "--integrand", "pole_m", "--m", "2", "--pole", "1,0,0,0")
        assert code == 2
        assert json.loads(out)["error"] == "SingularOnPath"

    def test_pole_on_projection_boundary_exits_2(self, capsys):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run_main(
                capsys, "integrate", "--kind", "circular",
                "--loop", '{"center": [0,0,0,0], "radius": 1.0, '
                          '"samples": 16}',
                "--integrand", "pole", "--pole", "1,0,0,0")
        assert code == 2
        assert json.loads(out)["error"] == "OnBoundary"

    def test_missing_m(self, capsys):
        code, _, err = run_main(
            capsys, "integrate", "--kind", "circular",
            "--loop", '{"center": [0,0,0,0], "radius": 1.0, "samples": 16}',
            "--integrand", "pole_m", "--pole", "0,0,0,0")
        assert code == 1 and "--m" in err

    def test_bad_loop_spec(self, capsys):
        code, _, err = run_main(capsys, "integrate", "--kind", "circular",
                                "--loop", '{"radius": 1.0}',
                                "--integrand", "pole", "--pole", "0,0,0,0")
        assert code == 1 and "center" in err
        code, _, err = run_main(capsys, "integrate", "--kind", "circular",
                                "--loop", "[1,2]",
                                "--integrand", "pole", "--pole", "0,0,0,0")
        assert code == 1 and "JSON object" in err

    def test_samples_cap(self, capsys):
        # 1024 (the benchmark) and 8192 (the README) stay within the cap
        assert LOOP_MAX_SAMPLES >= 8192
        spec = json.dumps({"center": [0, 0, 0, 0], "radius": 1.0,
                           "samples": LOOP_MAX_SAMPLES + 1})
        code, out, err = run_main(capsys, "integrate", "--kind", "circular",
                                  "--loop", spec, "--integrand", "pole",
                                  "--pole", "0,0,0,0")
        assert code == 1 and out == ""
        assert "usage error" in err and str(LOOP_MAX_SAMPLES) in err

    @pytest.mark.parametrize("kind", ["circular", "planar", "polar"])
    def test_turns_scale_result_and_prediction(self, capsys, kind):
        def integrate(**turns):
            spec = {"center": [0.3, 0.1, 0.2, 0.05], "radius": 0.5,
                    "samples": 1024, **turns}
            code, out, _ = run_main(
                capsys, "integrate", "--kind", kind, "--integrand", "exp",
                "--pole", "0.8,0.1,0.2,0.05" if kind == "polar"
                else "0.3,0.1,0.2,0.05", "--loop", json.dumps(spec))
            assert code == 0
            payload = json.loads(out)
            return payload["result"], payload["prediction"]

        result, prediction = integrate()
        assert max(map(abs, prediction)) > 1.0
        assert integrate(turns=1) == (result, prediction)
        for turns in (-1, 2, -3):
            got, pred = integrate(turns=turns)
            assert got == pytest.approx([turns * r for r in result],
                                        rel=1e-15, abs=1e-15)
            assert pred == pytest.approx([turns * p for p in prediction],
                                         rel=1e-15, abs=1e-15)
            assert max(abs(g - p) for g, p in zip(got, pred)) <= 1e-10

    @pytest.mark.parametrize("turns", ["1.0", "1.5", "true", "0", '"2"',
                                       "null"])
    def test_turns_must_be_a_nonzero_integer(self, capsys, turns):
        code, out, err = run_main(
            capsys, "integrate", "--kind", "circular", "--integrand", "pole",
            "--pole", "0,0,0,0", "--loop",
            '{"center": [0,0,0,0], "radius": 0.5, "turns": %s}' % turns)
        assert code == 1 and out == ""
        assert "usage error" in err and "turns" in err

    def test_bad_turns_exit_without_traceback(self):
        cp = run_pkg("integrate", "--kind", "circular", "--integrand", "pole",
                     "--pole", "0,0,0,0", "--loop",
                     '{"center":[0,0,0,0],"radius":0.5,"turns":0.5}')
        assert cp.returncode == 1 and cp.stdout == ""
        assert "usage error" in cp.stderr and "Traceback" not in cp.stderr

    def test_infinite_samples_is_usage_error(self):
        # JSON reads 1e400 as infinity, which has no integer value
        cp = run_pkg("integrate", "--kind", "circular", "--integrand", "pole",
                     "--pole", "0,0,0,0", "--loop",
                     '{"center":[0,0,0,0],"radius":0.5,"samples":1e400}')
        assert cp.returncode == 1 and cp.stdout == ""
        assert "usage error" in cp.stderr and "Traceback" not in cp.stderr
        assert "samples must be an integer >= 8, got inf" in cp.stderr

    @pytest.mark.parametrize("spec,named", [
        ('{"center": [0,0,0,0], "radius": 0.5, "samples": 64, "turn": -1}',
         "'turn'"),
        ('{"center": [0,0,0,0], "radius": 0.5, "samples": 64.7}',
         "samples must be an integer >= 8, got 64.7"),
        ('{"center": [0,0,0,0], "radius": 0.5, "samples": true}',
         "samples must be an integer >= 8, got True"),
        ('{"center": [0,0,0,0], "radius": 0.5, "samples": 64.0}',
         "samples must be an integer >= 8, got 64.0"),
        ('{"points": [[1,0,0,0], [0,1,0,0], [-1,0,0,0], [1,0,0,0]], '
         '"turns": -1}', "'turns'"),
        ('{"center": [0,0,0,0], "radius": 1e400}',
         "radius must be finite, got inf"),
        ('{"center": [0,0,0,0], "radius": true}',
         "radius must be a number, got True"),
        ('{"center": [0,0,0,0], "radius": 0.5, "fixed_angle": -1e400}',
         "fixed_angle must be finite, got -inf"),
        ('{"center": [0,0,0,0], "radius": "0.5"}',
         "radius must be a number, got '0.5'"),
        ('{"center": [true,0,0,0], "radius": 0.5, "samples": 64}',
         "component x=True is not a number"),
        ('{"points": [[1,0,0,0], [0,1,0,false], [-1,0,0,0], [1,0,0,0]]}',
         "component t=False is not a number"),
        ('{"center": [0,%s,0,0], "radius": 0.5}' % BIG_INT,
         "component y=1000"),
        ('{"center": [0,0,0,0], "radius": 0.5, "turns": -%s}' % BIG_INT,
         "turns must be finite, got -1000"),
    ], ids=["mistyped-key", "fractional-samples", "boolean-samples",
            "float-samples", "points-with-turns", "infinite-radius",
            "boolean-radius", "infinite-fixed-angle", "string-radius",
            "boolean-center", "boolean-point", "center-int-past-range",
            "turns-past-range"])
    def test_bad_loop_spec_names_the_key_or_rule(self, spec, named):
        cp = run_pkg("integrate", "--kind", "circular", "--integrand", "pole",
                     "--pole", "0,0,0,0", "--loop", spec)
        assert cp.returncode == 1 and cp.stdout == ""
        assert "usage error" in cp.stderr and "Traceback" not in cp.stderr
        assert named in cp.stderr

    @pytest.mark.parametrize("kind", ["circular", "hyperbolic", "polar"])
    def test_circle_spec_is_loop_circle_with_its_defaults(self, kind):
        from quadfield.calculus import Loop

        center = Quad(AlgebraKind(kind), 0.25, 0.0, 0.5, 0.0)
        spec = json.dumps({"center": list(center.components), "radius": 0.5})
        assert (cli._parse_loop(AlgebraKind(kind), spec)
                == Loop.circle(center, 0.5))
        spec = json.dumps({"center": list(center.components), "radius": 2,
                           "samples": 64, "turns": -2, "psi": 0.5,
                           "fixed_angle": 1.0, "plane": "plus"})
        assert cli._parse_loop(AlgebraKind(kind), spec) == Loop.circle(
            center, 2.0, samples=64, turns=-2, psi=0.5, fixed_angle=1.0)


class TestCosexp:
    def test_golden_g_table(self):
        cp = run_pkg("cosexp", "--family", "g", "--from", "0", "--to", "1",
                     "--step", "1", "--format", "csv")
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "x,g40,g41,g42,g43"
        assert lines[1] == "0,1,0,0,0"
        assert lines[2] == "1,1.04169147,1.00833609,0.501389164,0.166865104"

    def test_f_table_values(self, capsys):
        code, out, _ = run_main(capsys, "cosexp", "--family", "planar_f",
                                "--from", "-1", "--to", "1", "--step", "0.5",
                                "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["x", "f40", "f41", "f42", "f43"]
        assert len(payload["rows"]) == 5
        for row in payload["rows"]:
            x = row[0]
            for k in range(4):
                assert row[1 + k] == pytest.approx(cosexp(f4(k), x),
                                                   abs=1e-15)

    def test_endpoint_included_despite_rounding(self, capsys):
        code, out, _ = run_main(capsys, "cosexp", "--family", "g",
                                "--from", "0", "--to", "0.3", "--step", "0.1")
        assert code == 0
        assert len(out.strip().splitlines()) == 5   # header + 4 rows

    def test_bad_family_and_ranges(self, capsys):
        code, _, err = run_main(capsys, "cosexp", "--family", "h",
                                "--from", "0", "--to", "1", "--step", "1")
        assert code == 1 and "--family" in err
        code, _, err = run_main(capsys, "cosexp", "--family", "g",
                                "--from", "0", "--to", "1", "--step", "0")
        assert code == 1 and "positive" in err
        code, _, err = run_main(capsys, "cosexp", "--family", "g",
                                "--from", "1", "--to", "0", "--step", "1")
        assert code == 1
        for bad in (("--from", "nan"), ("--to", "inf"), ("--step", "nan")):
            argv = dict([("--from", "0"), ("--to", "1"), ("--step", "1"),
                         bad])
            code, _, err = run_main(capsys, "cosexp", "--family", "g",
                                    *[v for kv in argv.items() for v in kv])
            assert code == 1 and "finite" in err

    def test_row_cap(self, capsys):
        assert COSEXP_MAX_ROWS >= 9   # the benchmark's tables
        step = 2.0 ** -10             # exact, so row counts are exact too
        code, out, _ = run_main(capsys, "cosexp", "--family", "f",
                                "--from", "0",
                                "--to", repr((COSEXP_MAX_ROWS - 1) * step),
                                "--step", repr(step), "--format", "json")
        assert code == 0
        assert len(json.loads(out)["rows"]) == COSEXP_MAX_ROWS
        code, out, err = run_main(capsys, "cosexp", "--family", "f",
                                  "--from", "0",
                                  "--to", repr(COSEXP_MAX_ROWS * step),
                                  "--step", repr(step))
        assert code == 1 and out == ""
        assert "usage error" in err and str(COSEXP_MAX_ROWS) in err

    def test_overflow_is_json_error_exit_2(self):
        cp = run_pkg("cosexp", "--family=g", "--from=0", "--to=1000",
                     "--step=0.5")
        assert cp.returncode == 2, cp.stderr
        assert "Traceback" not in cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["error"] == "ResultOverflow"
        assert "x=710.5" in payload["message"]


class TestMatrix:
    def test_hyperbolic_blocks_json(self, capsys):
        code, out, _ = run_main(capsys, "matrix", "--kind", "hyperbolic",
                                "--u", "1,0.5,0.25,0.125", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        diag = [payload["blocks"][i][i] for i in range(4)]
        assert diag == pytest.approx([1.875, 0.625, 1.125, 0.375])
        assert payload["determinant"] == pytest.approx(
            1.875 * 0.625 * 1.125 * 0.375)
        assert payload["represent"][0] == [1.0, 0.5, 0.25, 0.125]

    def test_circular_text(self, capsys):
        code, out, _ = run_main(capsys, "matrix", "--kind", "circular",
                                "--u", "1,2,3,4")
        assert code == 0
        assert "represent:" in out and "blocks:" in out
        assert out.strip().endswith("determinant: 500")


class TestEnvTolerance:
    def test_env_tightens_inverse(self):
        args = ("eval", "--kind", "circular", "--op", "inverse",
                "--a", "1,0,0,0.999")
        cp = run_pkg(*args)
        assert cp.returncode == 0, cp.stderr
        import os
        env = dict(os.environ, QUADFIELD_TOL="0.1")
        cp = run_pkg(*args, env=env)
        assert cp.returncode == 2
        assert json.loads(cp.stdout)["error"] == "SingularValue"

    def test_invalid_env_value(self):
        import os
        env = dict(os.environ, QUADFIELD_TOL="honk")
        cp = run_pkg("eval", "--kind", "circular", "--op", "inverse",
                     "--a", "1,0,0,0", env=env)
        assert cp.returncode == 1
        assert "QUADFIELD_TOL" in cp.stderr
