"""Loop sums, circles and the inverse exponential chart against the
4-D versions they replaced.

`integrate_loop` sums one split part at a time and joins once,
`Loop.circle` builds its samples from one list of unit-circle points, and
`from_exp_form` joins split parts read off the fields.  `tests/loop_oracle.py`
keeps the former versions: the circles must be bitwise the same, and the
polyline sums and exp forms equal within rounding.  A `Loop.circle` loop
is integrated by the adaptive tangent rule, checked against the oracle's
4-D tangent rule on all of its samples.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import loop_oracle as O
from quadfield import (
    AlgebraKind,
    ExpForm,
    Loop,
    Quad,
    ResultOverflow,
    exp,
    from_exp_form,
    integrate_loop,
    modulus,
    mul,
    scale,
)

from conftest import KINDS

SETTINGS = settings(max_examples=150, deadline=None)

# Bounded components, with both zeros drawn often for the signed-zero cases.
COORD = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(min_value=-3.0, max_value=3.0))


@st.composite
def circle_args(draw, max_samples=200):
    kind = draw(st.sampled_from(KINDS))
    planes = ["plus"] if kind is AlgebraKind.POLAR else ["plus", "minus"]
    return dict(
        center=Quad(kind, *[draw(COORD) for _ in range(4)]),
        radius=draw(st.floats(min_value=0.01, max_value=10.0)),
        plane=draw(st.sampled_from(planes)),
        samples=draw(st.integers(min_value=8, max_value=max_samples)),
        psi=draw(st.floats(min_value=0.01, max_value=math.pi / 2.0 - 0.01)),
        fixed_angle=draw(st.floats(min_value=-7.0, max_value=7.0)),
    )


def hexes(points):
    return [tuple(c.hex() for c in p.components) for p in points]


@SETTINGS
@given(circle_args())
def test_circle_points_are_bitwise_the_oracles(args):
    loop = Loop.circle(**args)
    assert hexes(loop.points) == hexes(O.circle_points(**args))
    assert loop.points[0] is loop.points[-1]


@SETTINGS
@given(circle_args(max_samples=64), st.sampled_from([-2, -1, 2, 3]))
def test_wound_circle_points_are_bitwise_the_oracles(args, turns):
    loop = Loop.circle(**args, turns=turns)
    assert hexes(loop.points) == hexes(O.circle_points(**args, turns=turns))
    assert loop.points[0] is loop.points[-1]


def rounding_scale(f, loop):
    """sum |avg f| |du| over the segments: the size of the trapezoid sum's
    terms, which bounds the rounding of any order of summing them."""
    values = [f(p) for p in loop.points]
    return sum(modulus(scale(values[i] + values[i + 1], 0.5))
               * modulus(loop.points[i + 1] - loop.points[i])
               for i in range(len(loop.points) - 1))


@SETTINGS
@given(circle_args(max_samples=64), st.sampled_from(["circle", "clockwise",
                                                     "twice"]),
       st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 4))
def test_integrate_loop_matches_the_oracle(args, shape, pole):
    # Polylines only: integrate_loop treats a Loop.circle loop as an exact
    # circle (see the tangent-rule test below), so the "circle" shape is its
    # points as a polyline.
    circle = Loop.circle(**args)
    loop = {
        "circle": Loop.from_points(circle.points),
        "clockwise": Loop.from_points(reversed(circle.points)),
        "twice": Loop.from_points(circle.points[:-1] * 2
                                  + circle.points[:1]),
    }[shape]
    u0 = Quad(circle.kind, *pole)

    def f(u):
        return mul(exp(u), u - u0)

    got, want = integrate_loop(f, loop), O.integrate_loop(f, loop)
    bound = 1e-14 * rounding_scale(f, loop)
    assert all(abs(a - b) <= bound
               for a, b in zip(got.components, want.components))


@SETTINGS
@given(circle_args(max_samples=64),
       st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 4))
def test_circle_integral_matches_the_tangent_rule_oracle(args, pole):
    # The adaptive rule stops where two sums agree to 1e-12 of their terms;
    # for an entire integrand that is within rounding of the full sum.
    u0 = Quad(args["center"].kind, *pole)

    def f(u):
        return mul(exp(u), u - u0)

    got = integrate_loop(f, Loop.circle(**args))
    want = O.tangent_integral(f, **args)
    points = O.circle_points(**args)
    size = sum(modulus(f(p)) * modulus(q - p)
               for p, q in zip(points, points[1:]))
    assert all(abs(a - b) <= 1e-11 * size
               for a, b in zip(got.components, want.components))


FIELDS = {
    "rho": st.floats(min_value=1e-100, max_value=1e100),
    "mu": st.floats(min_value=1e-100, max_value=1e100),
    "phi": st.floats(min_value=-10.0, max_value=10.0),
    "chi": st.floats(min_value=-10.0, max_value=10.0),
    "psi": st.floats(min_value=1e-6, max_value=math.pi / 2.0 - 1e-6),
    "theta_plus": st.floats(min_value=1e-6, max_value=math.pi / 2.0 - 1e-6),
    "theta_minus": st.floats(min_value=1e-6, max_value=math.pi / 2.0 - 1e-6),
    # Large enough that some hyperbolic forms overflow.
    "y1": st.floats(min_value=-800.0, max_value=800.0),
    "z1": st.floats(min_value=-800.0, max_value=800.0),
    "t1": st.floats(min_value=-800.0, max_value=800.0),
}
KIND_FIELDS = {
    AlgebraKind.CIRCULAR: ("rho", "phi", "chi", "psi"),
    AlgebraKind.PLANAR: ("rho", "phi", "chi", "psi"),
    AlgebraKind.HYPERBOLIC: ("mu", "y1", "z1", "t1"),
    AlgebraKind.POLAR: ("rho", "theta_plus", "theta_minus", "phi"),
}


@st.composite
def exp_forms(draw):
    kind = draw(st.sampled_from(KINDS))
    return ExpForm(kind=kind, **{name: draw(FIELDS[name])
                                 for name in KIND_FIELDS[kind]})


def value_or_overflow(evaluate, f):
    try:
        return evaluate(f).components
    except ResultOverflow:
        return None


@settings(max_examples=400, deadline=None)
@given(exp_forms())
def test_from_exp_form_matches_the_oracle(f):
    got = value_or_overflow(from_exp_form, f)
    want = value_or_overflow(O.from_exp_form, f)
    assert (got is None) == (want is None)
    if want is not None:
        tol = 1e-12 * max(1.0, max(map(abs, want)))
        assert all(abs(a - b) <= tol for a, b in zip(got, want))
