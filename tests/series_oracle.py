"""Oracle for `series.eval_series`: the series evaluated one split part
at a time.

Each split part is a scalar Horner sum, rejoined once.  This is
mathematically identical to the Horner sum in `Quad` arithmetic because
the plane maps are ring homomorphisms.
"""

from quadfield.algebra_core import Quad, plane_join, plane_split
from quadfield.series import SeriesSpec


def eval_series_canonical(s: SeriesSpec, u: Quad) -> Quad:
    """Decoupled evaluation: per-plane scalar Horner, then rejoin."""
    if u.kind is not s.kind:
        raise ValueError(f"kind mismatch: {u.kind} point in {s.kind} series")
    coeff_parts = [plane_split(a) for a in s.coeffs]
    u_parts = plane_split(u)
    out = []
    for j, w in enumerate(u_parts):
        acc = coeff_parts[-1][j]
        for parts in reversed(coeff_parts[:-1]):
            acc = acc * w + parts[j]
        out.append(acc)
    return plane_join(s.kind, tuple(out))
