"""Shared strategies and helpers for the quadfield test suite."""

import math
import random

from hypothesis import strategies as st

from quadfield import AlgebraKind, Quad, exp, singularity

KINDS = tuple(AlgebraKind)

COMPONENTS = st.floats(min_value=-2.0, max_value=2.0,
                       allow_nan=False, allow_infinity=False, width=64)


def quads(kind: AlgebraKind, components=COMPONENTS):
    """Strategy producing quads of one kind with bounded components."""
    return st.builds(Quad, st.just(kind), components, components,
                     components, components)


def nonsingular_quads(kind: AlgebraKind, margin: float = 1e-3):
    """Quads comfortably away from every nodal set (inverse is stable)."""
    return quads(kind).filter(lambda u: singularity(u).margin > margin)


def any_kind_quads():
    return st.sampled_from(KINDS).flatmap(quads)


def exp_domain_quad(kind: AlgebraKind, rng: random.Random,
                    span: float = 0.8) -> Quad:
    """Random quad in the exponential-form domain (image of exp)."""
    v = Quad(kind, *[rng.uniform(-span, span) for _ in range(4)])
    return exp(v)


def max_abs_diff(u: Quad, v: Quad) -> float:
    return max(abs(a - b) for a, b in zip(u.components, v.components))


def rel_diff(u: Quad, v: Quad) -> float:
    scale = max(1.0, max(abs(c) for c in u.components),
                max(abs(c) for c in v.components))
    return max_abs_diff(u, v) / scale


def angles_close_mod(a: float, b: float, period: float, tol: float) -> bool:
    d = (a - b) % period
    return min(d, period - d) <= tol


def random_quad(kind: AlgebraKind, rng: random.Random, span: float = 2.0) -> Quad:
    return Quad(kind, *[rng.uniform(-span, span) for _ in range(4)])


def record_fields(record) -> tuple:
    """A record's field values in ``__match_args__`` order, as its
    constructor takes them.  They are its attributes, except that a circle
    ``Loop`` has the field ``points=None``: its ``points`` attribute is
    built from the other fields."""
    return record._values()


def close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol
