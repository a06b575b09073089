"""Polynomials over the four algebras.

Factoring works one decoupled component at a time: the coefficients are
projected into each plane/line, every component polynomial is solved in
the complex plane by a deterministic simultaneous (Durand-Kerner style)
iteration, and the per-component roots are zipped back into 4-component
roots.  Because each projection is a ring homomorphism, any zipping of
the component roots reproduces the polynomial, which is why a degree-m
polynomial factors in many distinct ways; `enumerate_factorizations`
walks them.  It keeps the pairings whose root multiset is closed under
conjugation, searching depth first over the component orders and cutting
every prefix whose projected roots cannot be closed.  The cut only drops
pairings that the final check would reject, so the results are those of a
walk over every pairing.  A fixed work budget bounds the search; past
it, `EnumerationBudgetExceeded` is raised.

Components along the real lines (all four hyperbolic lines, the polar
v+ and v- lines) can have complex roots.  Such roots have no real Quad
representation: they are returned as `ComplexQuad` values (conjugate
pairs), and `pair_conjugates` regroups them so callers can render real
quadratic factors.  Complexified products run on the same kernels as
``mul`` (``algebra_core._MUL``), which take complex components as well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .algebra_core import (
    _MUL,
    AlgebraKind,
    Quad,
    QuadfieldError,
    inverse,
    modulus,
    mul,
)
from .canonical import plane_split

__all__ = [
    "Poly",
    "Factorization",
    "ComplexQuad",
    "NoConvergence",
    "EnumerationBudgetExceeded",
    "eval_poly",
    "factor",
    "enumerate_factorizations",
    "reconstruct",
    "pair_conjugates",
]

_DK_TOL = 1e-12
_DK_CAP = 500
_REAL_SNAP = 1e-8
# Enumeration: the work budget in visits, the prefix test's relative
# tolerance (see enumerate_factorizations) and the root size above which
# the join may overflow and nothing is cut.
_MAX_VISITS = 100_000
_PAIR_TOL = 1e-6
_PRUNE_LIMIT = 1e300


class NoConvergence(QuadfieldError):
    """Root iteration exceeded its cap; message names the component."""


class EnumerationBudgetExceeded(QuadfieldError):
    """enumerate_factorizations used up its work budget; message names it."""


@dataclass(frozen=True, slots=True)
class Poly:
    """Monic polynomial; coeffs run leading-first (a0=1, ..., am constant)."""

    kind: AlgebraKind
    coeffs: tuple[Quad, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        for a in self.coeffs:
            if a.kind is not self.kind:
                raise ValueError(f"kind mismatch: {a.kind} coefficient in "
                                 f"{self.kind} polynomial")
        if self.coeffs[0].components != (1.0, 0.0, 0.0, 0.0):
            raise ValueError("polynomial must be monic (leading coefficient "
                             "exactly 1); use Poly.from_coefficients to "
                             "normalize")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_coefficients(cls, kind: AlgebraKind, coeffs) -> "Poly":
        """Normalize by the leading coefficient (which must be invertible)."""
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        lead = coeffs[0]
        if lead.components == (1.0, 0.0, 0.0, 0.0):
            return cls(kind, coeffs)
        lead_inv = inverse(lead)  # raises SingularValue on nodal leading coeff
        one = Quad(kind, 1.0, 0.0, 0.0, 0.0)
        return cls(kind, (one,) + tuple(mul(lead_inv, a) for a in coeffs[1:]))


@dataclass(frozen=True, slots=True)
class ComplexQuad:
    """A root whose canonical line components are complex.

    Appears only for hyperbolic/polar polynomials whose real-line
    component polynomials have complex roots; always delivered in
    conjugate pairs.
    """

    kind: AlgebraKind
    x: complex
    y: complex
    z: complex
    t: complex

    @property
    def components(self) -> tuple[complex, complex, complex, complex]:
        return (self.x, self.y, self.z, self.t)

    def conjugate(self) -> "ComplexQuad":
        return ComplexQuad(self.kind, self.x.conjugate(), self.y.conjugate(),
                           self.z.conjugate(), self.t.conjugate())


@dataclass(frozen=True, slots=True)
class Factorization:
    """Roots (length = degree) and the max |P(root)| residual."""

    roots: tuple
    residual: float

    @property
    def has_complex_roots(self) -> bool:
        return any(isinstance(r, ComplexQuad) for r in self.roots)


def eval_poly(p: Poly, u: Quad) -> Quad:
    """Horner evaluation with the algebra product."""
    if u.kind is not p.kind:
        raise ValueError(f"kind mismatch: {u.kind} point in {p.kind} polynomial")
    acc = p.coeffs[0]
    for a in p.coeffs[1:]:
        acc = mul(acc, u) + a
    return acc


# -- component machinery ------------------------------------------------------

def _component_names(kind: AlgebraKind) -> tuple[str, ...]:
    if kind in (AlgebraKind.CIRCULAR, AlgebraKind.PLANAR):
        return ("plus plane", "minus plane")
    if kind is AlgebraKind.HYPERBOLIC:
        return ("s line", "s' line", "s'' line", "s''' line")
    return ("v+ line", "v- line", "mu plane")


def _horner_c(coeffs: list[complex], z: complex) -> complex:
    acc = coeffs[0]
    for a in coeffs[1:]:
        acc = acc * z + a
    return acc


def _durand_kerner(coeffs: list[complex], name: str) -> list[complex]:
    """All roots of a monic complex polynomial, deterministically.

    Simultaneous iteration from the classic geometric starting points
    (0.4+0.9i)^k; in-place updates, cap 500 sweeps, convergence when the
    largest correction drops below 1e-12.
    """
    m = len(coeffs) - 1
    if m == 0:
        return []
    z = [(0.4 + 0.9j) ** (k + 1) for k in range(m)]
    for _ in range(_DK_CAP):
        delta = 0.0
        for i in range(m):
            num = _horner_c(coeffs, z[i])
            den = 1.0 + 0.0j
            for j in range(m):
                if j != i:
                    den *= z[i] - z[j]
            if den == 0.0:
                den = complex(_DK_TOL, 0.0)
            step = num / den
            z[i] = z[i] - step
            delta = max(delta, abs(step))
        if delta < _DK_TOL:
            return z
    raise NoConvergence(f"root finder exceeded {_DK_CAP} iterations on the "
                        f"{name} component")


def _symmetrize_conjugates(roots: list[complex]) -> list[complex]:
    """Clean roots of a real-coefficient polynomial: snap near-real roots
    to the real axis and force the rest into exact conjugate pairs."""
    scale_ref = max(1.0, max(abs(r) for r in roots))
    snapped = [complex(r.real, 0.0) if abs(r.imag) <= _REAL_SNAP * scale_ref else r
               for r in roots]
    out: list[complex | None] = [None] * len(snapped)
    used: set[int] = set()
    for i, r in enumerate(snapped):
        if i in used:
            continue
        used.add(i)
        if r.imag == 0.0:
            out[i] = r
            continue
        partner = None
        best = math.inf
        for j in range(len(snapped)):
            if j in used or snapped[j].imag == 0.0:
                continue
            d = abs(snapped[j] - r.conjugate())
            if d < best:
                best, partner = d, j
        if partner is None:
            out[i] = r  # lone complex root: leave as found
            continue
        used.add(partner)
        avg = (r + snapped[partner].conjugate()) / 2.0
        out[i] = avg
        out[partner] = avg.conjugate()
    return out  # type: ignore[return-value]


def _join_components(kind: AlgebraKind, parts: tuple) -> tuple:
    """Component values -> (x, y, z, t) scalars, complex in general.

    Circular/planar joins are always real; hyperbolic/polar inherit any
    imaginary parts of their real-line component values.  The distinguished
    complex-plane value contributes its real/imaginary parts directly (the
    choice that keeps roots as real as the line components allow).
    """
    if kind is AlgebraKind.CIRCULAR:
        w1, w2 = parts
        return ((w1.real + w2.real) / 2.0, (w1.imag + w2.imag) / 2.0,
                (w1.imag - w2.imag) / 2.0, (w1.real - w2.real) / 2.0)
    if kind is AlgebraKind.PLANAR:
        w1, w2 = parts
        ymt = (w1.real - w2.real) / math.sqrt(2.0)
        ypt = (w1.imag + w2.imag) / math.sqrt(2.0)
        return ((w1.real + w2.real) / 2.0, (ymt + ypt) / 2.0,
                (w1.imag - w2.imag) / 2.0, (ypt - ymt) / 2.0)
    if kind is AlgebraKind.HYPERBOLIC:
        s, sp, spp, sppp = parts
        return ((s + sp + spp + sppp) / 4.0, (s - sp + spp - sppp) / 4.0,
                (s + sp - spp - sppp) / 4.0, (s - sp - spp + sppp) / 4.0)
    vp, vm, w1 = parts
    half = (vp + vm) / 4.0
    diff = (vp - vm) / 4.0
    return (half + w1.real / 2.0, diff + w1.imag / 2.0,
            half - w1.real / 2.0, diff - w1.imag / 2.0)


def _as_root(kind: AlgebraKind, comps: tuple):
    """Return a Quad when the components are (numerically) real."""
    scale_ref = max(1.0, max(abs(c) for c in comps))
    if all(abs(complex(c).imag) <= _REAL_SNAP * scale_ref for c in comps):
        return Quad(kind, *(complex(c).real for c in comps))
    return ComplexQuad(kind, *(complex(c) for c in comps))


def _eval_complexified(p: Poly, comps: tuple, kind: AlgebraKind) -> float:
    """|P(root)| with complex-component Horner on the product kernels."""
    mulc = _MUL[kind]
    acc = p.coeffs[0].components
    for a in p.coeffs[1:]:
        acc = mulc(*acc, *comps)
        acc = tuple(q + r for q, r in zip(acc, a.components))
    return math.sqrt(sum(abs(c) ** 2 for c in acc))


def _line_flags(p: Poly) -> list[bool]:
    """Per component, True for a real line and False for a complex plane
    (plane_split gives a line's projection as a float)."""
    return [v.__class__ is float for v in plane_split(p.coeffs[0])]


def _component_root_lists(p: Poly) -> list[list[complex]]:
    """Sorted per-component roots of the projected polynomials."""
    kind = p.kind
    coeff_parts = [plane_split(a) for a in p.coeffs]
    lines = _line_flags(p)
    lists: list[list[complex]] = []
    for j, name in enumerate(_component_names(kind)):
        comp_coeffs = [complex(parts[j]) for parts in coeff_parts]
        roots = _durand_kerner(comp_coeffs, name)
        if lines[j]:
            roots = _symmetrize_conjugates(roots)
        roots.sort(key=lambda z: (z.real, z.imag))
        lists.append(roots)
    return lists


def _assemble(p: Poly, component_orders: tuple[tuple[complex, ...], ...]):
    """Zip the per-component root orders into roots plus their residual."""
    kind = p.kind
    roots = []
    residual = 0.0
    for idx in range(p.degree):
        comps = _join_components(kind, tuple(order[idx] for order in component_orders))
        residual = max(residual, _eval_complexified(p, comps, kind))
        roots.append(_as_root(kind, comps))
    return Factorization(roots=tuple(roots), residual=residual)


def factor(p: Poly) -> Factorization:
    """Canonical factorization: component roots sorted by (re, im), zipped.

    Raises:
        NoConvergence: the iteration stalled on some component.
    """
    if p.degree < 1:
        raise ValueError("factorization needs degree >= 1")
    lists = _component_root_lists(p)
    return _assemble(p, tuple(tuple(lst) for lst in lists))


def _closed_key(roots):
    """The rounded root multiset, or None when it is not closed under
    componentwise conjugation.

    Each root is keyed by its components' real and imaginary parts rounded
    to 9 decimals; the sorted keys identify a factorization up to order.
    """
    keys = sorted(
        tuple((round(complex(c).real, 9), round(complex(c).imag, 9))
              for c in r.components)
        for r in roots
    )
    conj_keys = sorted(
        tuple((re, -im) for re, im in key) for key in keys
    )
    return tuple(keys) if keys == conj_keys else None


def _pairing_masks(values: list[complex], line: bool, tol: float) -> list[int]:
    """Bit b of entry a is set when values[b] lies within tol of the
    conjugate of values[a] (a line) or of values[a] itself (a plane), in
    both the real and the imaginary part."""
    masks = []
    for a in values:
        target = a.conjugate() if line else a
        mask = 0
        for b, v in enumerate(values):
            if abs(v.real - target.real) <= tol and abs(v.imag - target.imag) <= tol:
                mask |= 1 << b
        masks.append(mask)
    return masks


def _narrow(rows: list[int], masks: list[int], perm: tuple[int, ...]):
    """Add one component, in order `perm`, to the pairing candidates.

    Bit k of rows[i] says root k may be the conjugate of root i on the
    components so far; it survives when the new component agrees too.
    Returns None as soon as some root is left without a candidate.
    """
    out = []
    for i, row in enumerate(rows):
        ok = masks[perm[i]]
        kept = 0
        while row:
            low = row & -row
            if ok >> perm[low.bit_length() - 1] & 1:
                kept |= low
            row ^= low
        if not kept:
            return None
        out.append(kept)
    return out


def _matchable(rows: list[int]) -> bool:
    """True when some permutation sends every root i to a root k whose bit
    is set in rows[i] (a perfect matching, by augmenting paths)."""
    owner = [-1] * len(rows)
    seen = 0

    def augment(i: int) -> bool:
        nonlocal seen
        free = rows[i] & ~seen
        while free:
            low = free & -free
            seen |= low
            k = low.bit_length() - 1
            if owner[k] < 0 or augment(owner[k]):
                owner[k] = i
                return True
            free = rows[i] & ~seen
        return False

    for i in range(len(rows)):
        seen = 0
        if not augment(i):
            return False
    return True


def enumerate_factorizations(p: Poly, cap: int = 100) -> list[Factorization]:
    """Distinct factorizations from re-pairing component roots.

    The first component's (sorted) order is pinned; the remaining
    components' root orders are permuted.  Results are deduplicated by
    rounded root multisets, restricted to conjugate-closed root sets
    (so complex roots always pair), and cut off at `cap`.

    The pairings are walked depth first, one component at a time, in the
    order of ``itertools.product`` over ``itertools.permutations`` of each
    component after the first (the last component varies fastest).  A
    prefix (components 0..j in their chosen orders) is cut when its root
    tuples cannot be closed under conjugation: conjugation acts on the
    join as conjugating every line entry and keeping every plane entry,
    since `_join_components` puts a plane value's real and imaginary parts
    into real components.  Closure of the full root multiset implies
    closure of every such projection, so only leaves that the exact check
    would reject are cut, and the list returned is the one the exhaustive
    walk over every pairing returns: the same roots, residuals and order.

    The prefix test allows a tolerance tol = 1e-6 * max(1, M), M the
    largest |component root|.  It never cuts a leaf that the 9-decimal
    key accepts: an accepted leaf has a permutation pi with key(r_pi(i))
    = conj key(r_i).  Equal rounded parts differ by at most 1e-9 plus two
    ulps, and `_as_root` drops imaginary parts up to 1e-8 * S on either
    side, S = max(1, largest |joined component|) <= sqrt(2) * max(1, M)
    up to rounding (the planar join reaches sqrt(2) * M; the others stay
    within M).  So each real scalar of the joined roots satisfies
    |J_pi(i) - conj J_i| <= 1e-9 + 2.9e-8 * max(1, M) + O(ulp * M).
    The exact inverse of the join has row sums of at most 4 in every kind
    and maps conj J to the conjugation of the component tuple, and the
    join's own rounding adds a few ulps of M.  Each real scalar of the
    component tuples then obeys |C_pi(i) - conj C_i| <= 4e-9 + 1.2e-7 *
    max(1, M) + O(ulp * M) < 1.3e-7 * max(1, M), under a seventh of tol,
    and the prefix test finds pi (it checks for any such permutation, by
    matching).  When M is not finite or near the top of the double range,
    where the join may overflow, nothing is cut.

    The work is bounded by a budget of 100,000 visits (`_MAX_VISITS`).
    A visit is one component order tested against a prefix, or one leaf
    assembled.

    Raises:
        ValueError: `cap` is below 1.
        NoConvergence: the root iteration stalled on some component.
        EnumerationBudgetExceeded: the budget was used up before the
            search ended or found `cap` factorizations.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap!r}")
    lists = _component_root_lists(p)
    m = p.degree
    full = (1 << m) - 1
    scale = max((abs(v) for lst in lists for v in lst), default=0.0)
    if scale < _PRUNE_LIMIT:
        tol = _PAIR_TOL * max(1.0, scale)
        masks = [_pairing_masks(lst, line, tol)
                 for lst, line in zip(lists, _line_flags(p))]
    else:  # not finite, or the join may overflow: cut nothing
        masks = [[full] * m for _ in lists]
    depth = len(lists)
    chosen: list = [None] * depth
    seen: set = set()
    out: list[Factorization] = []
    visits = 0

    def visit() -> None:
        nonlocal visits
        if visits >= _MAX_VISITS:
            raise EnumerationBudgetExceeded(
                f"enumeration used its budget of {_MAX_VISITS} visits "
                f"with {len(out)} of cap={cap} factorizations found")
        visits += 1

    def descend(j: int, rows: list[int]) -> bool:
        """Walk component j's orders under a prefix; True once cap is met."""
        orders = [tuple(range(m))] if j == 0 else itertools.permutations(range(m))
        for perm in orders:
            visit()
            narrowed = _narrow(rows, masks[j], perm)
            if narrowed is None or not _matchable(narrowed):
                continue
            chosen[j] = perm
            if j + 1 < depth:
                if descend(j + 1, narrowed):
                    return True
                continue
            visit()
            fact = _assemble(p, tuple(tuple(lst[i] for i in order)
                                      for lst, order in zip(lists, chosen)))
            key = _closed_key(fact.roots)
            if key is None or key in seen:
                continue
            seen.add(key)
            out.append(fact)
            if len(out) >= cap:
                return True
        return False

    descend(0, [full] * m)
    return out


def reconstruct(f: Factorization, kind: AlgebraKind) -> Poly:
    """Expand the product of (u - root); the oracle for factor()."""
    mulc = _MUL[kind]
    coeffs: list[tuple] = [(1.0, 0.0, 0.0, 0.0)]
    zero4 = (0.0, 0.0, 0.0, 0.0)
    for r in f.roots:
        rc = r.components
        grown = []
        for i in range(len(coeffs) + 1):
            ci = coeffs[i] if i < len(coeffs) else zero4
            prev = coeffs[i - 1] if i >= 1 else zero4
            shift = mulc(*rc, *prev)
            grown.append(tuple(a - b for a, b in zip(ci, shift)))
        coeffs = grown
    quads = []
    for i, c in enumerate(coeffs):
        scale_ref = max(1.0, max(abs(complex(v)) for v in c))
        if any(abs(complex(v).imag) > _REAL_SNAP * scale_ref for v in c):
            raise ValueError(
                f"reconstruction coefficient {i} is not real: {c!r} "
                "(root multiset is not conjugate-closed)"
            )
        quads.append(Quad(kind, *(complex(v).real for v in c)))
    return Poly(kind, tuple(quads))


def pair_conjugates(f: Factorization):
    """Group roots into (real_roots, conjugate_pairs, unpaired_complex).

    Conjugate pairs expand to real quadratic factors
    u**2 - (r + conj r) u + r * conj r; unpaired complex roots (possible
    only for non-conjugate-closed pairings) are returned as-is.
    """
    real_roots = [r for r in f.roots if isinstance(r, Quad)]
    complexes = [r for r in f.roots if isinstance(r, ComplexQuad)]
    pairs = []
    leftovers: list[ComplexQuad] = []
    used = [False] * len(complexes)
    for i, r in enumerate(complexes):
        if used[i]:
            continue
        used[i] = True
        conj = r.conjugate()
        match = None
        for j in range(i + 1, len(complexes)):
            if used[j]:
                continue
            gap = max(abs(a - b) for a, b in
                      zip(complexes[j].components, conj.components))
            if gap <= 1e-7 * max(1.0, max(abs(c) for c in conj.components)):
                match = j
                break
        if match is None:
            leftovers.append(r)
        else:
            used[match] = True
            pairs.append((r, complexes[match]))
    return real_roots, pairs, leftovers


def quadratic_factor(pair: tuple[ComplexQuad, ComplexQuad],
                     kind: AlgebraKind) -> tuple[Quad, Quad]:
    """(s, q) with (u - r)(u - conj r) = u**2 - s u + q, both real."""
    r, rbar = pair
    mulc = _MUL[kind]
    s = tuple(a + b for a, b in zip(r.components, rbar.components))
    q = mulc(*r.components, *rbar.components)
    return (Quad(kind, *(complex(v).real for v in s)),
            Quad(kind, *(complex(v).real for v in q)))
