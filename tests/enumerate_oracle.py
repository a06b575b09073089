"""Brute-force oracle for `polynomial.enumerate_factorizations`.

Every pairing of the component root orders, in `itertools.product` order,
is assembled and kept when its roots group into real roots (`Quad`) and
pairs whose quadratic (u - r)(u - r') is real, found by trying every way
to pair the complex roots.  The pruned search must return exactly the
same list (roots, residuals and order) for every input and every `cap`;
`tests/test_polynomial.py` checks the two against each other.  Its cost
is (m!)^(k-1) assemblies for a degree-m polynomial with k components, so
keep the degrees small.
"""

import itertools

from quadfield import Quad
from quadfield.algebra_core import _MUL
from quadfield.polynomial import (_assemble, _component_coeffs,
                                  _component_root_lists)


def _real_quadratic(r, r2, kind) -> bool:
    """True when u**2 - (r + r') u + r r' is real to 1e-9 relative."""
    s = [a + b for a, b in zip(r.components, r2.components)]
    q = _MUL[kind](*r.components, *r2.components)
    values = [complex(v) for v in (*s, *q)]
    tol = 1e-9 * max(1.0, max(abs(v) for v in values))
    return all(abs(v.imag) <= tol for v in values)


def _groups(complexes, kind) -> bool:
    """True when the complex roots split into pairs with real quadratics."""
    if not complexes:
        return True
    first, rest = complexes[0], complexes[1:]
    return any(_real_quadratic(first, r, kind)
               and _groups(rest[:k] + rest[k + 1:], kind)
               for k, r in enumerate(rest))


def _real_factorization(roots, kind) -> bool:
    """True when the roots group into Quads and real quadratic pairs."""
    return _groups([r for r in roots if not isinstance(r, Quad)], kind)


def enumerate_factorizations(p, cap=100):
    """Distinct real factorizations from re-pairing component roots.

    The first component's (sorted) order is pinned; the remaining
    components' root orders are permuted.  Results are deduplicated by
    rounded root multisets, restricted to real factorizations, and cut
    off at `cap`.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap!r}")
    comp_coeffs = _component_coeffs(p)
    lists = _component_root_lists(p, comp_coeffs)
    first = tuple(lists[0])
    seen: set = set()
    out = []
    rest = [itertools.permutations(lst) for lst in lists[1:]]
    for orders in itertools.product(*rest):
        fact = _assemble(p, (first,) + tuple(orders), comp_coeffs)
        if not _real_factorization(fact.roots, p.kind):
            continue
        key = tuple(sorted(
            tuple((round(complex(c).real, 9), round(complex(c).imag, 9))
                  for c in r.components)
            for r in fact.roots
        ))
        if key in seen:
            continue
        seen.add(key)
        out.append(fact)
        if len(out) >= cap:
            break
    return out
