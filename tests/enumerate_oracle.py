"""Brute-force oracle for `polynomial.enumerate_factorizations`.

This is the enumeration as it was before the pruned depth-first search:
every pairing of the component root orders, in `itertools.product` order,
is assembled and kept when its root multiset is closed under conjugation.
The pruned search must return exactly the same list (roots, residuals and
order) for every input and every `cap`; `tests/test_polynomial.py`
checks the two against each other.  Its cost is (m!)^(k-1) assemblies for
a degree-m polynomial with k components, so keep the degrees small.
"""

import itertools

from quadfield.polynomial import _assemble, _component_root_lists


def _conjugate_closed(roots) -> bool:
    """True when the root multiset is closed under componentwise conjugation."""
    keys = sorted(
        tuple((round(complex(c).real, 9), round(complex(c).imag, 9))
              for c in r.components)
        for r in roots
    )
    conj_keys = sorted(
        tuple((re, -im) for re, im in key) for key in keys
    )
    return keys == conj_keys


def enumerate_factorizations(p, cap=100):
    """Distinct factorizations from re-pairing component roots.

    The first component's (sorted) order is pinned; the remaining
    components' root orders are permuted.  Results are deduplicated by
    rounded root multisets, restricted to conjugate-closed root sets
    (so complex roots always pair), and cut off at `cap`.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap!r}")
    lists = _component_root_lists(p)
    first = tuple(lists[0])
    seen: set = set()
    out = []
    rest = [itertools.permutations(lst) for lst in lists[1:]]
    for orders in itertools.product(*rest):
        fact = _assemble(p, (first,) + tuple(orders))
        if not _conjugate_closed(fact.roots):
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
