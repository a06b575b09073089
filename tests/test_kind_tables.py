"""Per-kind tables derived from the unit products and the split, against
the literal tables in ``kind_tables_oracle``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kind_tables_oracle as O
from quadfield import (
    Quad,
    calculus,
    canonical,
    check_analytic,
    check_second_order,
    exp,
    modulus,
    mul,
    pow_int,
    represent,
    to_canonical,
)
from quadfield.calculus import RESIDUE_UNITS

from conftest import KINDS, quads, random_quad


def bits(u):
    """The kind and the exact bits of every component (-0.0 != 0.0)."""
    return (u.kind, tuple(c.hex() for c in u.components))


def relation_set(eqs):
    """Second-order relations as unordered pairs of index pairs with sign;
    |d1 + s*d2| is the same residual as |d2 + s*d1| for s = +-1."""
    return {(frozenset({(i, j), (k, l)}), s) for i, j, k, l, s in eqs}


@pytest.mark.parametrize("kind", KINDS)
def test_first_order_chains_match_tuple_for_tuple(kind):
    assert calculus._CHAINS[kind] == O.FIRST_ORDER_CHAINS[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_second_order_relations_match_as_sets(kind):
    derived = calculus._SECOND_ORDER[kind]
    assert len(derived) == len(O.SECOND_ORDER_EQS[kind])
    assert relation_set(derived) == relation_set(O.SECOND_ORDER_EQS[kind])


@pytest.mark.parametrize("kind", KINDS)
def test_residue_units_match_bitwise(kind):
    assert ([bits(u) for u in RESIDUE_UNITS[kind]]
            == [bits(u) for u in O.RESIDUE_UNITS[kind]])


@pytest.mark.parametrize("kind", KINDS)
def test_canonical_bases_and_named_elements_match_bitwise(kind):
    want = [bits(e) for e in O.CANONICAL_BASES[kind]]
    assert [bits(e) for e in canonical.CANONICAL_BASES[kind]] == want
    named = [getattr(canonical, name) for name in O.BASIS_NAMES[kind]]
    assert [bits(e) for e in named] == want


def test_global_mul_factor_matches_bitwise():
    assert calculus._GLOBAL_MUL_FACTOR == O.GLOBAL_MUL_FACTOR


@settings(max_examples=200)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_global_mul_factor_bounds_the_product(kind, data):
    u, v = data.draw(quads(kind)), data.draw(quads(kind))
    c = calculus._GLOBAL_MUL_FACTOR[kind]
    assert modulus(mul(u, v)) <= c * modulus(u) * modulus(v) * (1 + 1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_represent_and_canonical_mul_match_on_random_inputs(kind):
    rng = random.Random(61)
    for _ in range(20_000):
        u, v = random_quad(kind, rng), random_quad(kind, rng)
        assert represent(u).rows == O.represent_rows(u)
        cu, cv = to_canonical(u), to_canonical(v)
        assert canonical.canonical_mul(cu, cv) == O.canonical_mul(cu, cv)


@settings(max_examples=300)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_represent_and_canonical_mul_match_the_oracle(kind, data):
    u, v = data.draw(quads(kind)), data.draw(quads(kind))
    assert represent(u).rows == O.represent_rows(u)
    cu, cv = to_canonical(u), to_canonical(v)
    assert canonical.canonical_mul(cu, cv) == O.canonical_mul(cu, cv)


# The functions tests/test_calculus.py checks, analytic and not.
CHECKED_FUNCTIONS = {
    "square": lambda u: mul(u, u),
    "cube": lambda u: pow_int(u, 3),
    "exp": exp,
    "component_flip": lambda u: Quad(u.kind, u.x, -u.y, u.z, u.t),
    "xy_product": lambda u: Quad(u.kind, u.x * u.y, 0, 0, 0),
    "constant": lambda u: Quad(u.kind, 1.0, 2.0, 3.0, 4.0),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(CHECKED_FUNCTIONS))
def test_checks_equal_the_table_driven_oracle(kind, name, monkeypatch):
    f = CHECKED_FUNCTIONS[name]
    rng = random.Random(91)
    points = [random_quad(kind, rng, span=1.0) for _ in range(5)]
    points.append(Quad(kind, 0.4, 0.3, -0.2, 0.1))
    derived = [(check_analytic(f, u0), check_second_order(f, u0))
               for u0 in points]
    monkeypatch.setattr(calculus, "_CHAINS", O.FIRST_ORDER_CHAINS)
    monkeypatch.setattr(calculus, "_SECOND_ORDER", O.SECOND_ORDER_EQS)
    oracle = [(check_analytic(f, u0), check_second_order(f, u0))
              for u0 in points]
    assert derived == oracle
