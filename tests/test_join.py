"""The core split's join against the polynomial module's former copy.

The join formulas are written once, as `_kernels_py.join_<kind>`, and
`algebra_core._join` dispatches to them: `plane_join` builds a Quad from
it, and `polynomial` joins its complex roots with it and evaluates each
residual per component.
`tests/join_oracle.py` keeps the join and the 4-D residual that
`polynomial` used before.
"""

import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import join_oracle as O
from quadfield import (
    NoConvergence,
    Poly,
    factor,
    modulus,
    one,
    plane_join,
    plane_split,
    scale,
)
from quadfield import polynomial
from quadfield.algebra_core import _IS_PLANE, _NODAL_SETS, _join

from conftest import KINDS, quads

EPS = 2.0 ** -52

# Zero or of magnitude in [1e-150, 1e150]: every sum of up to four such
# values is zero or far above the subnormal range, so dividing it by 4
# is exact, and (a + b)/4 == a/4 + b/4 (the former polar join summed
# first, the core join divides first).
MAGNITUDES = st.one_of(
    st.just(0.0), st.just(-0.0),
    st.floats(min_value=1e-150, max_value=1e150),
    st.floats(min_value=-1e150, max_value=-1e-150),
)
COMPLEXES = st.builds(complex, MAGNITUDES, MAGNITUDES)


def complex_split(kind):
    """A split tuple of `kind` with a complex value on every line too."""
    return st.tuples(*[COMPLEXES for _ in _IS_PLANE[kind]])


def bits(values):
    """Real and imaginary parts as float.hex, a zero of either sign as 0.

    Both joins divide complex values by 4.0, a complex quotient that adds
    a signed zero (imag * 0.0) to each part, but the former polar join
    sums before it divides and the core join after; so the two may differ
    in the sign of a zero part, and only there.
    """
    return tuple((v.real.hex() if v.real else 0, v.imag.hex() if v.imag else 0)
                 for v in map(complex, values))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_join_matches_the_former_polynomial_join(kind, data):
    parts = data.draw(complex_split(kind))
    assert bits(_join(kind, parts)) == bits(O._join_components(kind, parts))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_plane_join_is_the_core_join_on_real_parts(kind, data):
    parts = plane_split(data.draw(quads(kind)))
    joined = _join(kind, parts)
    assert plane_join(kind, parts).components == joined
    assert all(v.__class__ is float for v in joined)


def monic(kind):
    return st.integers(1, 6).flatmap(
        lambda m: st.lists(quads(kind), min_size=m, max_size=m)).map(
        lambda tail: Poly(kind, (one(kind),) + tuple(tail)))


def residual_bound(p, roots):
    """16 m eps sum_k |a_k| max(1, R)^(m-k), R the largest root modulus."""
    m = p.degree
    big = max(1.0, max(math.sqrt(sum(abs(c) ** 2 for c in r.components))
                       for r in roots))
    return 16 * m * EPS * sum(modulus(a) * big ** (m - k)
                              for k, a in enumerate(p.coeffs))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_factor_roots_and_residual_match_the_former_assembly(kind, data):
    p = data.draw(monic(kind))
    try:
        got = factor(p)
    except NoConvergence:
        assume(False)
    lists = polynomial._paired_orders(polynomial._component_root_lists(
        p, polynomial._component_coeffs(p)), _IS_PLANE[kind])
    comps = [O._join_components(kind, tuple(lst[i] for lst in lists))
             for i in range(p.degree)]
    assert got.roots == tuple(polynomial._as_root(kind, c) for c in comps)
    old = max(O._eval_complexified(p, c, kind) for c in comps)
    assert abs(got.residual - old) <= residual_bound(p, got.roots)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residual_at_any_point_matches_the_former_assembly(kind, data):
    """Away from the roots the residual is O(1), so a component left out
    or evaluated wrongly shows far above the rounding bound."""
    p = data.draw(monic(kind))
    point = st.tuples(*[st.complex_numbers(max_magnitude=2.0)
                        for _ in _IS_PLANE[kind]])
    parts = data.draw(st.lists(point, min_size=p.degree, max_size=p.degree))
    got = polynomial._assemble(p, tuple(zip(*parts)),
                               polynomial._component_coeffs(p))
    comps = [O._join_components(kind, q) for q in parts]
    assert got.roots == tuple(polynomial._as_root(kind, c) for c in comps)
    old = max(O._eval_complexified(p, c, kind) for c in comps)
    assert abs(got.residual - old) <= residual_bound(p, got.roots)


def binomial_power(kind, k, root=1.0):
    """(u - root)^k: a root of multiplicity k on every component."""
    return Poly(kind, tuple(scale(one(kind), math.comb(k, j) * (-root) ** j)
                            for j in range(k + 1)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("root", [1.0, 0.0])
def test_repeated_root_factors_with_its_multiplicity(kind, k, root):
    got = factor(binomial_power(kind, k, root))
    assert len(got.roots) == k
    for r in got.roots:
        assert max(abs(c - w) for c, w in
                   zip(r.components, (root, 0.0, 0.0, 0.0))) <= 1e-12
    assert got.multiplicities == ((k,) * k,) * len(_NODAL_SETS[kind])


@pytest.mark.parametrize("kind", KINDS)
def test_no_convergence_names_a_nodal_set(kind, monkeypatch):
    # Two sweeps cannot resolve the triple root of (u - 1)^3.
    monkeypatch.setattr(polynomial, "_SWEEP_CAP", 2)
    names = "|".join(map(re.escape, _NODAL_SETS[kind]))
    with pytest.raises(NoConvergence,
                       match=f"exceeded 2 sweeps on the ({names}) component$"):
        factor(binomial_power(kind, 3))
