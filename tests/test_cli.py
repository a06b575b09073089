"""CLI surface: golden outputs, exit codes, JSON round trips."""

import json
import math
import os
import subprocess
import sys

import pytest

import quadfield
from quadfield import AlgebraKind, Quad, cosexp, exp_form, expform_to_dict, f4
from quadfield.cli import COSEXP_MAX_ROWS, LOOP_MAX_SAMPLES, main
from quadfield.polynomial import _MAX_VISITS

# The directory the tests import quadfield from, so that a child process
# runs the same package, installed or not.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(quadfield.__file__))


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

    def test_enumeration_budget_is_json_error_exit_2(self):
        # polar u^8 + 1: no conjugate-closed pairing exists, and the walk
        # over the 8!**2 orders of the other two components stops at the
        # default budget
        cp = run_pkg("factor", "--kind", "polar",
                     "--coeffs", "[1,0,0,0,0,0,0,0,1]", "--enumerate", "3")
        assert cp.returncode == 2, cp.stderr
        assert "Traceback" not in cp.stderr
        error = json.loads(cp.stdout)
        assert error["error"] == "EnumerationBudgetExceeded"
        assert f"budget of {_MAX_VISITS} visits" in error["message"]

    def test_enumerate_must_be_positive(self, capsys):
        code, _, err = run_main(capsys, "factor", "--kind", "circular",
                                "--coeffs", "[1,0,1]", "--enumerate", "0")
        assert code == 1


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
