"""Command-line front end.

Subcommands: eval, expform, factor, integrate, cosexp, matrix.  Quads are
passed inline as comma-separated x,y,z,t; structured payloads are JSON.
Exit codes: 0 success, 1 usage errors, 2 domain errors (the error is
printed as a one-line JSON object so scripts can parse it).  Asking for
a cosexp table past ``COSEXP_MAX_ROWS`` rows, or an ``integrate --loop``
circle past ``LOOP_MAX_SAMPLES`` samples, is a usage error.  A ``--loop``
spec is ``{"points": [...]}`` alone, or a circle: ``center`` and
``radius`` and any other keyword of ``Loop.circle`` (``plane``,
``samples``, ``psi``, ``fixed_angle``, ``turns``), which owns their
defaults and checks; ``samples`` and ``turns`` are JSON integers.  Any
other key is a usage error.  A circle's ``samples`` only caps the
adaptive quadrature of one turn, and its ``turns`` multiplies it.  The
env var QUADFIELD_TOL overrides the default singularity tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .algebra_core import (
    _NODAL_SETS,
    DEFAULT_TOL,
    AlgebraKind,
    Quad,
    QuadfieldError,
    amplitude,
    inverse,
    modulus,
    mul,
    one,
    pow_int,
    quad_to_dict,
    singularity,
    zero,
)

__all__ = ["main"]

_KIND_CHOICES = [k.value for k in AlgebraKind]

# Work caps: a short command line must not ask for unbounded work.
COSEXP_MAX_ROWS = 10_000      # rows of one cosexp table
LOOP_MAX_SAMPLES = 1 << 14    # samples of one integrate --loop circle


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments; we need usage errors to exit 1."""

    def error(self, message):
        raise _UsageError(message)


def _tol() -> float:
    raw = os.environ.get("QUADFIELD_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError as exc:
        raise _UsageError(f"QUADFIELD_TOL is not a number: {raw!r}") from exc


def _parse_quad(kind: AlgebraKind, text: str) -> Quad:
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError(f"expected x,y,z,t with 4 components, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise _UsageError(f"bad quad component in {text!r}: {exc}") from exc
    return Quad(kind, *values)


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _quad_line(u: Quad, digits: int) -> str:
    return ",".join(_fmt(c, digits) for c in u.components)


def _is_number(v) -> bool:
    # JSON true/false load as bool, a subclass of int: not numbers here.
    return isinstance(v, (int, float)) and v.__class__ is not bool


def _coeff_quad(kind: AlgebraKind, entry) -> Quad:
    # Quad converts the entries: an int past the double range is its
    # ValueError naming the component, not float()'s OverflowError here.
    if _is_number(entry):
        return Quad(kind, entry, 0.0, 0.0, 0.0)
    if (isinstance(entry, list) and len(entry) == 4
            and all(map(_is_number, entry))):
        return Quad(kind, *entry)
    raise _UsageError(
        f"coefficient must be a number or a 4-element list, got {entry!r}"
    )


# -- subcommand handlers -----------------------------------------------------

def _cmd_eval(args) -> str:
    kind = AlgebraKind(args.kind)
    a = _parse_quad(kind, args.a)
    op = args.op
    tol = _tol()
    if op in ("add", "sub", "mul"):
        if args.b is None:
            raise _UsageError(f"--op {op} needs --b")
        b = _parse_quad(kind, args.b)
        result = {"add": lambda: a + b, "sub": lambda: a - b,
                  "mul": lambda: mul(a, b)}[op]()
    elif op == "inverse":
        result = inverse(a, tol=tol)
    elif op == "pow":
        if args.m is None:
            raise _UsageError("--op pow needs --m")
        result = pow_int(a, args.m, tol=tol)
    elif op == "amplitude":
        amp = amplitude(a)
        if args.format == "json":
            return json.dumps({"nu": amp.nu, "rho": amp.rho})
        rho = "undefined" if amp.rho is None else _fmt(amp.rho, args.digits)
        return f"nu={_fmt(amp.nu, args.digits)} rho={rho}"
    elif op == "modulus":
        value = modulus(a)
        if args.format == "json":
            return json.dumps({"modulus": value})
        return _fmt(value, args.digits)
    else:  # singularity
        report = singularity(a, tol=tol)
        return json.dumps({
            "singular": report.singular,
            "nodal_sets": list(report.nodal_sets),
            "margin": report.margin,
        })
    if args.format == "json":
        return json.dumps(quad_to_dict(result))
    return _quad_line(result, args.digits)


def _cmd_expform(args) -> str:
    from .canonical import exp_form, expform_from_dict, expform_to_dict, from_exp_form

    kind = AlgebraKind(args.kind)
    if (args.u is None) == (args.json is None):
        raise _UsageError("expform needs exactly one of --u or --json")
    if args.u is not None:
        form = exp_form(_parse_quad(kind, args.u))
        return json.dumps(expform_to_dict(form))
    payload = json.loads(args.json)
    form = expform_from_dict(payload)
    if form.kind is not kind:
        raise _UsageError(f"--kind {kind} does not match payload kind {form.kind}")
    u = from_exp_form(form)
    if args.format == "json":
        return json.dumps(quad_to_dict(u))
    return _quad_line(u, args.digits)


def _root_json(root):
    if isinstance(root, Quad):
        return {"components": list(root.components)}
    return {"complex": True,   # a polynomial.ComplexQuad
            "components": [[c.real, c.imag] for c in root.components]}


def _render_factors(f, kind: AlgebraKind, digits: int) -> list[str]:
    from .polynomial import pair_conjugates, quadratic_factor

    reals, pairs, leftovers = pair_conjugates(f)
    rendered = [f"(u - ({_quad_line(r, digits)}))" for r in reals]
    for pair in pairs:
        s, q = quadratic_factor(pair, kind)
        rendered.append(
            f"(u^2 - ({_quad_line(s, digits)})*u + ({_quad_line(q, digits)}))"
        )
    for r in leftovers:
        comps = ",".join(
            f"{_fmt(c.real, digits)}{c.imag:+.{digits}g}i" for c in r.components
        )
        rendered.append(f"(u - ({comps}))")
    return rendered


def _cmd_factor(args) -> str:
    from .polynomial import Poly, enumerate_factorizations, factor

    kind = AlgebraKind(args.kind)
    try:
        entries = json.loads(args.coeffs)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"--coeffs is not valid JSON: {exc}") from exc
    if not isinstance(entries, list) or len(entries) < 2:
        raise _UsageError("--coeffs must be a JSON list (leading first, "
                          "degree >= 1)")
    if args.enumerate is not None and args.enumerate < 1:
        raise _UsageError("--enumerate must be >= 1")
    poly = Poly.from_coefficients(kind, [_coeff_quad(kind, e) for e in entries])
    f = factor(poly)
    out = {
        "kind": kind.value,
        "residual": f.residual,
        "roots": [_root_json(r) for r in f.roots],
        "multiplicities": dict(zip(_NODAL_SETS[kind], f.multiplicities)),
        "factors": _render_factors(f, kind, args.digits),
    }
    if args.enumerate is not None:
        facts = enumerate_factorizations(poly, cap=args.enumerate)
        out["count"] = len(facts)
        out["factorizations"] = [
            [_root_json(r) for r in fx.roots] for fx in facts
        ]
    return json.dumps(out)


def _parse_loop(kind: AlgebraKind, text: str):
    from .calculus import Loop

    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"--loop is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise _UsageError("--loop must be a JSON object")
    if "points" in spec:
        if len(spec) > 1:
            raise _UsageError(f"a points loop spec takes only 'points', got "
                              f"{sorted(spec.keys() - {'points'})}")
        return Loop.from_points([Quad(kind, *p) for p in spec["points"]])
    for key in ("center", "radius"):
        if key not in spec:
            raise _UsageError(f"circle loop spec needs {key!r}")
    # Loop.circle owns the defaults and the checks: an unknown key is a
    # TypeError naming it, a bad value a ValueError naming its rule.
    loop = Loop.circle(**{**spec, "center": Quad(kind, *spec["center"])})
    if loop.samples > LOOP_MAX_SAMPLES:
        raise _UsageError(
            f"loop samples {loop.samples} exceed the cap of {LOOP_MAX_SAMPLES}")
    return loop


def _cmd_integrate(args) -> str:
    from .calculus import integrate_loop, residue_prediction

    kind = AlgebraKind(args.kind)
    loop = _parse_loop(kind, args.loop)
    u0 = _parse_quad(kind, args.pole)
    coeff = _parse_quad(kind, args.coeff) if args.coeff else one(kind)
    tol = _tol()
    name = args.integrand
    if name == "pole":
        def f(u):
            return mul(coeff, inverse(u - u0, tol=tol))
        prediction = residue_prediction([(u0, coeff)], loop)
    elif name == "pole_m":
        m = args.m
        if m is None or m < 1:
            raise _UsageError("--integrand pole_m needs --m >= 1")

        def f(u):
            return mul(coeff, inverse(pow_int(u - u0, m, tol=tol), tol=tol))
        prediction = (residue_prediction([(u0, coeff)], loop) if m == 1
                      else zero(kind))
    elif name == "square":
        def f(u):
            return mul(coeff, pow_int(u - u0, 2))
        prediction = zero(kind)
    else:  # exp
        from . import elementary

        def f(u):
            return mul(elementary.exp(u), inverse(u - u0, tol=tol))
        prediction = residue_prediction([(u0, elementary.exp(u0))], loop)
    result = integrate_loop(f, loop)
    return json.dumps({
        "kind": kind.value,
        "integrand": name,
        "result": list(result.components),
        "prediction": list(prediction.components),
    })


def _cmd_cosexp(args) -> str:
    from . import elementary

    family = {"f": "f", "planar_f": "f", "g": "g", "polar_g": "g"}.get(args.family)
    if family is None:
        raise _UsageError(f"--family must be f or g, got {args.family!r}")
    make = elementary.f4 if family == "f" else elementary.g4
    if not all(map(math.isfinite, (args.start, args.stop, args.step))):
        raise _UsageError("--from, --to and --step must be finite")
    if args.step <= 0:
        raise _UsageError(f"--step must be positive, got {args.step!r}")
    if args.stop < args.start:
        raise _UsageError("--to must be >= --from")
    # Rows are the i with i <= (stop - start)/step + 1e-9, so this bound
    # keeps the table at or below the cap.
    if (args.stop - args.start) / args.step > COSEXP_MAX_ROWS - 1:
        raise _UsageError(f"--from/--to/--step give more than "
                          f"{COSEXP_MAX_ROWS} rows")
    columns = ["x"] + [f"{family}4{k}" for k in range(4)]
    rows = []
    i = 0
    while True:
        x = args.start + i * args.step
        if x > args.stop + args.step * 1e-9:
            break
        rows.append([x] + [elementary.cosexp(make(k), x) for k in range(4)])
        i += 1
    if args.format == "json":
        return json.dumps({"columns": columns, "rows": rows})
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v, args.digits) for v in row))
    return "\n".join(lines)


def _cmd_matrix(args) -> str:
    from .matrix_rep import block_diagonalize, determinant, represent

    kind = AlgebraKind(args.kind)
    u = _parse_quad(kind, args.u)
    rep = represent(u)
    blocks = block_diagonalize(u)
    det = determinant(rep)
    if args.format == "json":
        return json.dumps({
            "kind": kind.value,
            "represent": [list(rep.row(i)) for i in range(4)],
            "blocks": [list(blocks.row(i)) for i in range(4)],
            "determinant": det,
        })
    lines = ["represent:"]
    lines += ["  " + ",".join(_fmt(v, args.digits) for v in rep.row(i))
              for i in range(4)]
    lines.append("blocks:")
    lines += ["  " + ",".join(_fmt(v, args.digits) for v in blocks.row(i))
              for i in range(4)]
    lines.append(f"determinant: {_fmt(det, args.digits)}")
    return "\n".join(lines)


# -- parser ------------------------------------------------------------------

# name -> (help, handler, formats, arguments), in the order --help lists
# them.  With formats, --kind, --format (default the first) and --digits
# come before the subcommand's own arguments.
_COMMANDS = {
    "eval": ("arithmetic on quads", _cmd_eval, ("text", "json", "csv"), (
        ("--op", dict(required=True,
                      choices=["add", "sub", "mul", "inverse", "pow",
                               "amplitude", "modulus", "singularity"])),
        ("--a", dict(required=True, help="quad as x,y,z,t")),
        ("--b", dict(help="second quad for binary ops")),
        ("--m", dict(type=int, help="exponent for --op pow")),
    )),
    "expform": ("exponential form to/from JSON", _cmd_expform, ("text", "json"), (
        ("--u", dict(help="quad to convert to exponential form")),
        ("--json", dict(help="exponential-form JSON to convert back")),
    )),
    "factor": ("factor a monic polynomial", _cmd_factor, ("json",), (
        ("--coeffs", dict(required=True,
                          help="JSON list, leading first; entries are numbers "
                               "or [x,y,z,t] lists")),
        ("--enumerate", dict(type=int,
                             help="also list up to N distinct factorizations")),
    )),
    "integrate": ("loop integral vs closed-form residue prediction",
                  _cmd_integrate, ("json",), (
        ("--loop", dict(required=True,
                        help='JSON: {"points": [...]} or circle spec '
                             '{"center","radius","plane","samples" (a cap),'
                             '"psi","fixed_angle","turns"}')),
        ("--integrand", dict(required=True,
                             choices=["pole", "pole_m", "square", "exp"])),
        ("--pole", dict(required=True, help="pole / offset quad x,y,z,t")),
        ("--coeff", dict(help="numerator quad, default 1")),
        ("--m", dict(type=int, help="pole order for pole_m")),
    )),
    "cosexp": ("table of cosexponential functions", _cmd_cosexp, None, (
        ("--family", dict(required=True,
                          help="f (planar family) or g (polar family)")),
        ("--from", dict(dest="start", type=float, required=True)),
        ("--to", dict(dest="stop", type=float, required=True)),
        ("--step", dict(type=float, required=True)),
        ("--format", dict(default="csv", choices=("csv", "json"))),
        ("--digits", dict(type=int, default=9)),
    )),
    "matrix": ("matrix representation and blocks", _cmd_matrix, ("text", "json"), (
        ("--u", dict(required=True, help="quad as x,y,z,t")),
    )),
}


def _build_parser(names=tuple(_COMMANDS)) -> _Parser:
    """The parser with the subcommands `names` (all by default)."""
    parser = _Parser(prog="quadfield",
                     description="Four-dimensional commutative hypercomplex "
                                 "arithmetic, forms, residues and factoring.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        text, handler, formats, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        if formats:
            p.add_argument("--kind", required=True, choices=_KIND_CHOICES)
            p.add_argument("--format", default=formats[0], choices=formats)
            p.add_argument("--digits", type=int, default=9)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Build only the subcommand that runs; help and errors list them all.
    named = argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS
    parser = _build_parser(named)
    try:
        args = parser.parse_args(argv)
        output = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except QuadfieldError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    except (ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
