"""The inverse and quartic kernels read off the split, against the oracle.

`quadfield._kernels_py` builds ``inv_<kind>`` as the join of the split
parts' reciprocals and ``quartic_<kind>`` as the product of the line
values and the planes' squared moduli.  `tests/kernels_oracle.py` keeps
the written-out formulas they replaced; the two must agree bit for bit,
including the exception raised on a nodal set.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernels_oracle as O
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


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=500, deadline=None)
@given(comps=near_nodal())
@example(comps=(1.0, 0.5, -0.5, -1.0))
@example(comps=(0.5, 0.5, 0.5, 0.5))
@example(comps=(1.0, 1.0 / math.sqrt(2.0), -1.0, 1.0 / math.sqrt(2.0)))
@example(comps=(1e150, -1e150, 1e150, 1e-150))
@example(comps=(1e-150, 2e-150, -1e-150, 5e-151))
def test_derived_kernels_match_the_written_out_formulas(kind, comps):
    for op in ("inv", "quartic"):
        name = f"{op}_{kind.value}"
        assert outcome(getattr(K, name), comps) == outcome(getattr(O, name),
                                                           comps)
