"""Reference for `polynomial._component_root_lists`: one `_aberth` solve
per component polynomial, with no reuse between equal components.

`tests/test_polynomial.py` swaps it in for the memoized loop and requires
`factor` and `enumerate_factorizations` to return the same roots,
residuals and multiplicities, compared in float.hex, and the same errors.
"""

from quadfield.algebra_core import _IS_PLANE, _NODAL_SETS
from quadfield.polynomial import NoConvergence, _aberth, _symmetrize_conjugates


def component_root_lists(p, comp_coeffs):
    """Sorted roots of each component polynomial, each solved on its own."""
    lists = []
    for name, plane, coeffs in zip(_NODAL_SETS[p.kind], _IS_PLANE[p.kind],
                                   comp_coeffs):
        try:
            roots = _aberth(coeffs, name)
            if not plane:
                roots = _symmetrize_conjugates(roots)
        except OverflowError:
            raise NoConvergence(f"root finder left the double range on "
                                f"the {name} component") from None
        roots.sort(key=lambda z: (z.real, z.imag))
        lists.append(roots)
    return lists
