"""The inverse and quartic kernels read off the split, against the oracle.

`quadfield._kernels_py` builds ``inv_<kind>`` as the join of the split
parts' reciprocals and ``quartic_<kind>`` as the product of the line
values and the planes' squared moduli.  `tests/kernels_oracle.py` keeps
the written-out formulas they replaced; the two must agree bit for bit,
including the exception raised on a nodal set.  The one exception is an
inverse where some plane's a^2 + b^2 is not a normal double: there the
written-out formula overflows to 0 or underflows, and the reciprocals are
checked against exact rational arithmetic instead.
"""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kernels_oracle as O
from quadfield import Quad, QuadfieldError, inverse
from quadfield import _kernels_py as K

from conftest import KINDS

# Components from which the split parts cancel exactly (x = -t, y = z,
# y = t = 1/sqrt(2), ...), nudged off by up to 1e-9 or not at all, and
# the whole point scaled by 10^k, |k| <= 155.
NODAL = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, math.sqrt(2.0),
                         1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)])
BASE = st.one_of(NODAL, st.floats(min_value=-2.0, max_value=2.0))
NUDGE = st.one_of(st.just(0.0), st.floats(min_value=-1e-9, max_value=1e-9))


@st.composite
def near_nodal(draw):
    scale = 10.0 ** draw(st.integers(-155, 155))
    return tuple((draw(BASE) + draw(NUDGE)) * scale for _ in range(4))


def outcome(fn, comps):
    """The kernel's value as float.hex, or the name of its exception."""
    try:
        value = fn(*comps)
    except ArithmeticError as exc:
        return type(exc).__name__
    if isinstance(value, tuple):
        return tuple(v.hex() for v in value)
    return value.hex()


def normal(n):
    return 2.0 ** -1022 <= n < math.inf


# (a/n, -b/n) with n = a^2 + b^2 rounds four times, so it can be off by
# up to 3 ulps per component.  On 300,000 random parts it read 2.15 ulps
# at worst where n is normal, and 2.24 on parts first scaled into range
# by a power of two, which is how the kernel computes the other ones.
RECIPROCAL_ULPS = 3


def assert_close_to_exact(got, exact):
    try:
        want = float(exact)
    except OverflowError:
        assert math.isinf(got)
        return
    assert abs(Fraction(got) - exact) <= RECIPROCAL_ULPS * Fraction(
        math.ulp(want))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=500, deadline=None)
@given(comps=near_nodal())
@example(comps=(1.0, 0.5, -0.5, -1.0))
@example(comps=(0.5, 0.5, 0.5, 0.5))
@example(comps=(1.0, 1.0 / math.sqrt(2.0), -1.0, 1.0 / math.sqrt(2.0)))
@example(comps=(1e150, -1e150, 1e150, 1e-150))
@example(comps=(1e-150, 2e-150, -1e-150, 5e-151))
@example(comps=(1e200, 0.0, 0.0, 0.0))
@example(comps=(1e160, 3e159, 0.0, 0.0))
@example(comps=(3e-170, -1e-171, 2e-170, 0.0))
@example(comps=(5e-320, 0.0, 0.0, 3e-321))
def test_derived_kernels_match_the_written_out_formulas(kind, comps):
    name = f"quartic_{kind.value}"
    assert outcome(getattr(K, name), comps) == outcome(getattr(O, name), comps)
    name = f"inv_{kind.value}"
    parts = getattr(K, f"split_{kind.value}")(*comps)
    if all(normal(p.real * p.real + p.imag * p.imag)
           for p in parts if p.__class__ is complex):
        assert outcome(getattr(K, name), comps) == outcome(getattr(O, name),
                                                           comps)
        return
    assert (outcome(getattr(K, name), comps) == "ZeroDivisionError") == (
        0 in parts)
    for p in parts:
        if p == 0:
            continue
        (got,) = K.reciprocals([p])
        if p.__class__ is float:
            assert_close_to_exact(got, 1 / Fraction(p))
        else:
            a, b = Fraction(p.real), Fraction(p.imag)
            assert_close_to_exact(got.real, a / (a * a + b * b))
            assert_close_to_exact(got.imag, -b / (a * a + b * b))


# -- inverse: the nodal test read off the reciprocals --------------------

TOLS = st.sampled_from([1e-12, 1e-6, 1e-15, 1e-300, 0.0, -1.0])


@st.composite
def toward_nodal_sets(draw, kind):
    """A quad whose split parts are each kept, set on their nodal set, or
    scaled toward it by c * 10^-k, 0.3 <= c <= 3 and k one of 6, 8, 12,
    15 and 16 (so residuals fall on both sides of every positive tol in
    TOLS, and near it), and the whole scaled by up to 10^+-300."""
    parts = list(getattr(K, f"split_{kind.value}")(
        *(draw(st.floats(-2.0, 2.0)) for _ in range(4))))
    for j, p in enumerate(parts):
        k = draw(st.sampled_from([None, 0, 6, 8, 12, 15, 16]))
        if k is not None:
            parts[j] = p * (k and draw(st.floats(0.3, 3.0)) * 10.0 ** -k)
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300, 1e-160, 1e155])
                 | st.integers(-300, 300).map(lambda e: 10.0 ** e))
    comps = [c * scale for c in getattr(K, f"join_{kind.value}")(*parts)]
    assume(all(map(math.isfinite, comps)))
    return Quad(kind, *comps)


def inverse_outcome(fn, u, tol):
    """fn(u, tol) as its components' float.hex and types, or the type and
    message of what it raised."""
    try:
        r = fn(u, tol)
    except (QuadfieldError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (type(r).__name__, r.kind, tuple(c.hex() for c in r.components),
            tuple(type(c).__name__ for c in r.components))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=400, deadline=None)
@given(data=st.data(), tol=TOLS)
@example(data=None, tol=1e-12)
def test_inverse_matches_the_residual_test_oracle(kind, data, tol):
    if data is None:   # the worked cases below, at every tolerance
        cases = [Quad(kind, *c) for c in (
            (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (1.0, 0.5, -0.5, -1.0),
            (0.5, 0.5, 0.5, 0.5), (1e-310, 0.0, 0.0, 0.0),
            (1e300, 1e300, -1e300, 5e299), (1e-300, 2e-300, 0.0, -1e-300))]
        tols = [1e-12, 1e-6, 1e-15, 1e-300, 0.0, -1.0, math.nan, 1e200]
    else:
        cases, tols = [data.draw(toward_nodal_sets(kind))], [tol]
    for u in cases:
        for t in tols:
            got = inverse_outcome(inverse, u, t)
            want = inverse_outcome(O.inverse, u, t)
            if want[0] == "ZeroDivisionError" or want[0] == "ValueError" and (
                    re.fullmatch(r"component [xyzt]=\S+ is not finite",
                                 want[1])):
                # the oracle's untyped overflow, which is now typed
                assert got[0] in ("ResultOverflow", "SingularValue"), (u, t)
            else:
                assert got == want, (u, t)
