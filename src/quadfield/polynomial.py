"""Polynomials over the four algebras.

Factoring works one decoupled component at a time: the coefficients are
projected into each plane/line, every component polynomial is solved in
the complex plane by Aberth-Ehrlich iteration with a backward-error stop,
repeated roots found as clusters, and the per-component roots are zipped
back into 4-component roots.  Because each projection is a ring
homomorphism, any zipping of the component roots reproduces the
polynomial, which is why a degree-m polynomial factors in many distinct
ways; `enumerate_factorizations` walks them.  It keeps the pairings whose
root multiset is closed under conjugation, searching depth first over the
component orders and cutting every prefix whose projected roots cannot be
closed.  The cut only drops pairings that the final check would reject,
so the results are those of a walk over every pairing.  A fixed work
budget bounds the search; past it, `EnumerationBudgetExceeded` is raised.

Components along the real lines (all four hyperbolic lines, the polar
v+ and v- lines) can have complex roots.  Such roots have no real Quad
representation: they are returned as `ComplexQuad` values (conjugate
pairs), and `pair_conjugates` regroups them so callers can render real
quadratic factors.  Roots are joined with ``algebra_core._join``, the
formulas of ``plane_join``, which take complex line entries as well, and
each residual is evaluated per component and joined once.  Only
`reconstruct` and `quadratic_factor` run complexified products, on the
same kernels as ``mul`` (``algebra_core._MUL``), which take complex
components as well.
"""

from __future__ import annotations

import itertools
import math

from .algebra_core import (
    _IS_PLANE,
    _MUL,
    _NODAL_SETS,
    AlgebraKind,
    Quad,
    QuadfieldError,
    _join,
    _overflow,
    _Record,
    inverse,
    modulus,
    mul,
    plane_split,
)

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

# Root finding: the sweep cap, c*eps of the stop, start directions per degree.
_SWEEP_CAP = 500
_STOP = 4.0 * 2.0 ** -52
_DIRECTIONS: dict[int, list[complex]] = {}
_REAL_SNAP = 1e-8
# Enumeration: the work budget in visits, the prefix test's relative
# tolerance (see enumerate_factorizations) and the root size above which
# the join may overflow and nothing is cut.
_MAX_VISITS = 100_000
_PAIR_TOL = 1e-6
_PRUNE_LIMIT = 1e300


class NoConvergence(QuadfieldError):
    """Root finding hit its cap or overflowed; message names its nodal set."""


class EnumerationBudgetExceeded(QuadfieldError):
    """enumerate_factorizations used up its work budget; message names it."""


class Poly(_Record):
    """Monic polynomial; coeffs run leading-first (a0=1, ..., am constant)."""

    __slots__ = ("kind", "coeffs")

    def __post_init__(self) -> None:
        if self.kind.__class__ is not AlgebraKind:
            raise TypeError(f"kind must be AlgebraKind, got {self.kind!r}")
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


class ComplexQuad(_Record):
    """A root whose canonical line components are complex.

    Appears only for hyperbolic/polar polynomials whose real-line
    component polynomials have complex roots; always delivered in
    conjugate pairs.
    """

    __slots__ = ("kind", "x", "y", "z", "t")

    @property
    def components(self) -> tuple[complex, complex, complex, complex]:
        return (self.x, self.y, self.z, self.t)

    def conjugate(self) -> "ComplexQuad":
        return ComplexQuad(self.kind, self.x.conjugate(), self.y.conjugate(),
                           self.z.conjugate(), self.t.conjugate())


class Factorization(_Record):
    """Roots (length = degree), the max |P(root)| residual and, from
    `factor`, the multiplicities (None from enumerate_factorizations)."""

    __slots__ = ("roots", "residual", "multiplicities")
    _optional = 1

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

def _horner_c(coeffs: list[complex], z: complex) -> complex:
    acc = coeffs[0]
    for a in coeffs[1:]:
        acc = acc * z + a
    return acc


def _aberth(coeffs: list[complex], name: str) -> list[complex]:
    """All roots of a monic complex polynomial, a root of multiplicity k
    as k equal entries.

    Aberth-Ehrlich iteration (Bini, Numer. Algorithms 13, 1996) from m
    points on the circle of radius max |a_k|^(1/k); trailing zero
    coefficients are exact roots at 0.  An iterate takes its correction
    and is frozen once |p(z)| <= 4 m eps sum |a_k| |z|^k.  Overlapping
    freeze-time inclusion disks (radius m |p/p'|) form clusters; a k-root
    cluster's mean, after k Newton steps on p^(k-1), replaces its roots.
    NoConvergence: past the sweep cap.  OverflowError: a non-finite bound
    or iterate, or a complex modulus past the double range.
    """
    m = len(coeffs) - 1
    while m and coeffs[m] == 0:
        m -= 1
    zeros, coeffs = len(coeffs) - 1 - m, coeffs[:m + 1]
    dirs = _DIRECTIONS.get(m) or _DIRECTIONS.setdefault(m, [
        1j ** (4 * k / m + 0.25) for k in range(m)])  # at 2 pi k/m + pi/8
    tail = list(zip(coeffs[1:], map(abs, coeffs[1:])))
    r = max((b ** (1 / k) for k, (_, b) in enumerate(tail, 1)), default=0)
    z = [r * d for d in dirs]
    tol = _STOP * m
    centre, radius = [0j] * m, [0.0] * m
    active = range(m)
    for _ in range(_SWEEP_CAP):
        still = []
        for i in active:
            zi = z[i]
            az = abs(zi)
            p, dp, bound = 1.0 + 0j, 0j, 1.0
            for a, b in tail:
                dp = dp * zi + p
                p = p * zi + a
                bound = bound * az + b
            try:
                sigma = 0j
                for w in z:
                    if w is not zi:
                        sigma += 1.0 / (zi - w)
                step = p / (dp - p * sigma)
            except ZeroDivisionError:   # coincident iterates: the step's limit
                step = 0j
            z[i] = zn = zi - step
            if bound - bound or zn - zn:   # inf or NaN, as from any p
                raise OverflowError
            if abs(p) > tol * bound:
                still.append(i)
            else:   # an exact critical point (p' = 0) gets a point disk
                centre[i], radius[i] = zi, m * abs(p) / abs(dp) if dp else 0.0
        active = still
        if not active:
            break
    else:
        raise NoConvergence(f"root finder exceeded {_SWEEP_CAP} sweeps on "
                            f"the {name} component")
    for group in _clusters(centre, radius):
        k = len(group)
        w = sum(z[i] for i in group) / k
        q = [a * math.perm(m - j, k - 1)
             for j, a in enumerate(coeffs[:m - k + 2])]
        dq = [a * (m - k + 1 - j) for j, a in enumerate(q[:-1])]
        for _ in range(k):   # Newton on p^(k-1), whose root here is simple
            slope = _horner_c(dq, w)
            w -= _horner_c(q, w) / slope if slope else 0.0
        for i in group:
            z[i] = w
    return z + [0j] * zeros


def _clusters(centre: list[complex], radius: list[float]) -> list[list[int]]:
    """Index groups of two or more disks joined by overlaps; one sort rules
    them out when the centres' real parts are over twice any radius apart."""
    reach = 2.0 * max(radius, default=0.0)
    xs = sorted(c.real for c in centre)
    if all(b - a > reach for a, b in zip(xs, xs[1:])):
        return []
    groups: list[list[int]] = []
    for i, (c, r) in enumerate(zip(centre, radius)):
        hit = [g for g in groups
               if any(abs(c - centre[j]) <= r + radius[j] for j in g)]
        groups = [g for g in groups if g not in hit] + [[i] + sum(hit, [])]
    return [g for g in groups if len(g) > 1]


def _symmetrize_conjugates(roots: list[complex]) -> list[complex]:
    """Clean roots of a real-coefficient polynomial: snap near-real roots
    to the real axis and force the rest into exact conjugate pairs."""
    scale_ref = max(1.0, max((abs(r) for r in roots), default=0.0))
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


def _as_root(kind: AlgebraKind, comps: tuple):
    """Return a Quad when the components are (numerically) real."""
    scale_ref = max(1.0, max(abs(c) for c in comps))
    if all(abs(complex(c).imag) <= _REAL_SNAP * scale_ref for c in comps):
        return Quad(kind, *(complex(c).real for c in comps))
    return ComplexQuad(kind, *(complex(c) for c in comps))


def _component_coeffs(p: Poly) -> list[list[complex]]:
    """Per split component, the coefficients of the projected polynomial."""
    return [list(map(complex, col)) for col in zip(*map(plane_split, p.coeffs))]


def _component_root_lists(p: Poly, comp_coeffs) -> list[list[complex]]:
    """Sorted roots of each component polynomial (`_component_coeffs(p)`);
    a k-fold root appears as k equal entries."""
    lists: list[list[complex]] = []
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


def _assemble(p: Poly, component_orders: tuple[tuple[complex, ...], ...],
              comp_coeffs, multiplicities=None):
    """Zip the per-component root orders into roots plus their residual.

    The residual is |P(root)|: each component polynomial (`comp_coeffs`)
    is evaluated at its component root, and the values are joined once.

    ResultOverflow: a root, or the modulus of a root component or of a
    residual value, passes the double range.
    """
    kind = p.kind
    roots = []
    residual = 0.0
    for parts in zip(*component_orders):
        values = _join(kind, tuple(_horner_c(c, z)
                                   for c, z in zip(comp_coeffs, parts)))
        x, y, z, t = root = _join(kind, parts)
        if (x - x) + (y - y) + (z - z) + (t - t):   # inf or NaN
            raise _overflow(kind, "root")
        try:
            residual = max(residual, math.hypot(*map(abs, values)))
            roots.append(_as_root(kind, root))
        except OverflowError:   # abs() of a complex whose parts are finite
            raise _overflow(kind, "root or its residual") from None
    return Factorization(tuple(roots), residual, multiplicities)


def factor(p: Poly) -> Factorization:
    """Canonical factorization: component roots sorted by (re, im), zipped.

    `multiplicities` holds, per component in `_NODAL_SETS` order, the
    multiplicity of each component root; a k-fold root appears k times.

    Raises:
        NoConvergence: the iteration stalled or overflowed on some component.
    """
    if p.degree < 1:
        raise ValueError("factorization needs degree >= 1")
    comp_coeffs = _component_coeffs(p)
    lists = _component_root_lists(p, comp_coeffs)
    return _assemble(p, tuple(map(tuple, lists)), comp_coeffs,
                     tuple(tuple(map(lst.count, lst)) for lst in lists))


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
    since the join puts a plane value's real and imaginary parts
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

    An order that puts two equal roots of a component out of index order
    is skipped: it gives the same root values as the earlier order that
    keeps them in index order, hence the same prefix test and the same
    leaves, each a duplicate or rejected there.

    The work is bounded by a budget of 100,000 visits (`_MAX_VISITS`).
    A visit is one component order generated under a prefix (tested, or
    skipped as above), or one leaf assembled.

    Raises:
        ValueError: `cap` is below 1.
        NoConvergence: the root iteration stalled on some component.
        EnumerationBudgetExceeded: the budget was used up before the
            search ended or found `cap` factorizations.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap!r}")
    comp_coeffs = _component_coeffs(p)
    lists = _component_root_lists(p, comp_coeffs)
    m = p.degree
    full = (1 << m) - 1
    scale = max((abs(v) for lst in lists for v in lst), default=0.0)
    if scale < _PRUNE_LIMIT:
        tol = _PAIR_TOL * max(1.0, scale)
        masks = [_pairing_masks(lst, not plane, tol)
                 for lst, plane in zip(lists, _IS_PLANE[p.kind])]
    else:  # not finite, or the join may overflow: cut nothing
        masks = [[full] * m for _ in lists]
    # Per component, each k whose root equals root k + 1 (the lists are
    # sorted, so equal roots are adjacent).
    ties = [[k for k in range(m - 1) if lst[k] == lst[k + 1]] for lst in lists]
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
        tie = ties[j]
        for perm in orders:
            visit()
            if tie and any(perm.index(k) > perm.index(k + 1) for k in tie):
                continue   # repeats the leaves of an earlier order
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
                                      for lst, order in zip(lists, chosen)),
                             comp_coeffs)
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
