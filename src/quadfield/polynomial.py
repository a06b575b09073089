"""Polynomials over the four algebras.

Factoring works one decoupled component at a time: the coefficients are
projected into each plane/line, every distinct component polynomial is
solved once (real coefficients give the same one on every component) in
the complex plane by Aberth-Ehrlich iteration with a backward-error stop,
repeated roots found as clusters, and the per-component roots are zipped
back into 4-component roots.  Because each projection is a ring
homomorphism, any zipping of the component roots reproduces the
polynomial, which is why a degree-m polynomial factors in many distinct
ways; `enumerate_factorizations` walks them.

Components along the real lines (all four hyperbolic lines, the polar
v+ and v- lines) can have complex roots, which come in exact conjugate
pairs.  A root with a complex line entry has no real Quad representation:
it is returned as a `ComplexQuad`.  A zipping is a real factorization
when its roots split into real roots and pairs such that, on every line,
the two entries of a pair are a conjugate pair or two reals (plane
entries are free): each such pair has the real quadratic factor
(u - r)(u - r') = u**2 - s u + q, and `pair_conjugates` regroups the
roots into these pairs so callers can render real factors.  `factor`
builds one real factorization from each line's conjugate pairs, and
`enumerate_factorizations` keeps only real ones.  Roots are joined with
``algebra_core._join``, the formulas of ``plane_join``, which take
complex line entries as well, and each residual is evaluated per
component and joined once.  Only `reconstruct` and the quadratic factors
run complexified products, on the same kernels as ``mul``
(``algebra_core._MUL``), which take complex components as well.
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
    _check_coeffs,
    _horner,
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
    "quadratic_factor",
]

# Root finding: the sweep cap, c*eps of the stop, start directions per degree.
_SWEEP_CAP = 500
_STOP = 4.0 * 2.0 ** -52
_DIRECTIONS: dict[int, list[complex]] = {}
_REAL_SNAP = 1e-8
# Enumeration: the work budget in visits.
_MAX_VISITS = 100_000


class NoConvergence(QuadfieldError):
    """Root finding hit its cap or overflowed; message names its nodal set."""


class EnumerationBudgetExceeded(QuadfieldError):
    """enumerate_factorizations used up its work budget; message names it."""


class Poly(_Record):
    """Monic polynomial; coeffs run leading-first (a0=1, ..., am constant)."""

    __slots__ = ("kind", "coeffs")

    def __post_init__(self) -> None:
        _check_coeffs(self, "polynomial")
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
        if not coeffs or coeffs[0].components == (1.0, 0.0, 0.0, 0.0):
            return cls(kind, coeffs)
        lead_inv = inverse(coeffs[0])  # SingularValue if it is nodal
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
    return _horner(p.kind, p.coeffs, u, "polynomial")


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
            p = 1.0 + 0j
            dp = 0j
            bound = 1.0
            for a, b in tail:
                dp = dp * zi + p
                p = p * zi + a
                bound = bound * az + b
            sigma = 0j
            try:
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
    to the real axis and force the rest into exact conjugate pairs.

    In index order, each complex root pairs with the unpaired complex
    root nearest its conjugate (the first of equals); a lone complex root
    is left as found.
    """
    scale_ref = max(1.0, max((abs(r) for r in roots), default=0.0))
    out = [complex(r.real, 0.0) if abs(r.imag) <= _REAL_SNAP * scale_ref else r
           for r in roots]
    free = [i for i, r in enumerate(out) if r.imag]
    while len(free) > 1:
        i = free.pop(0)
        r = out[i]
        j = min(free, key=lambda j: abs(out[j] - r.conjugate()))
        free.remove(j)
        avg = (r + out[j].conjugate()) / 2.0
        out[i], out[j] = avg, avg.conjugate()
    return out


def _as_root(kind: AlgebraKind, comps: tuple):
    """A Quad if the components (float or complex) are numerically real."""
    x, y, z, t = comps
    tol = _REAL_SNAP * max(1.0, abs(x), abs(y), abs(z), abs(t))
    if (abs(x.imag) <= tol and abs(y.imag) <= tol and abs(z.imag) <= tol
            and abs(t.imag) <= tol):
        return Quad(kind, x.real, y.real, z.real, t.real)
    return ComplexQuad(kind, complex(x), complex(y), complex(z), complex(t))


def _component_coeffs(p: Poly) -> list[list[complex]]:
    """Per split component, the coefficients of the projected polynomial."""
    return [list(map(complex, col)) for col in zip(*map(plane_split, p.coeffs))]


def _component_root_lists(p: Poly, comp_coeffs) -> list[list[complex]]:
    """Sorted roots of each component polynomial (`_component_coeffs(p)`);
    a k-fold root appears as k equal entries.

    A component polynomial equal to an earlier one (every component, for
    real coefficients) reuses its roots; each line snaps its own copy.
    """
    lists: list[list[complex]] = []
    solved: dict[tuple, list[complex]] = {}
    for name, plane, coeffs in zip(_NODAL_SETS[p.kind], _IS_PLANE[p.kind],
                                   comp_coeffs):
        key = tuple(coeffs)
        try:
            if key not in solved:
                solved[key] = _aberth(coeffs, name)
            roots = solved[key][:]
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
        values = _join(kind, [_horner_c(c, z)
                              for c, z in zip(comp_coeffs, parts)])
        x, y, z, t = root = _join(kind, parts)
        if (x - x) + (y - y) + (z - z) + (t - t):   # inf or NaN
            raise _overflow(kind, "root")
        try:
            residual = max(residual, math.hypot(*map(abs, values)))
            roots.append(_as_root(kind, root))
        except OverflowError:   # abs() of a complex whose parts are finite
            raise _overflow(kind, "root or its residual") from None
    return Factorization(tuple(roots), residual, multiplicities)


def _conjugates_first(lst: list[complex]) -> list[int] | None:
    """Indices into a line's sorted roots: its conjugate pairs (a - ib,
    a + ib) in the order of a + ib, then its reals; None when some
    complex root has no exact conjugate."""
    upper = [i for i, z in enumerate(lst) if z.imag > 0]
    lower = sorted((i for i, z in enumerate(lst) if z.imag < 0),
                   key=lambda i: (lst[i].real, -lst[i].imag))
    if [lst[i] for i in upper] != [lst[i].conjugate() for i in lower]:
        return None
    return ([i for pair in zip(lower, upper) for i in pair]
            + [i for i, z in enumerate(lst) if not z.imag])


def _paired_orders(lists: list[list[complex]], planes) -> list[list[complex]]:
    """The sorted component roots, rearranged so that zipped they form a
    real factorization.

    The first line keeps its sorted order, and so does every plane.  Its
    conjugate pairs and then pairs of its reals give C pair places, C the
    most conjugate pairs on any line (2C <= m); every other line puts its
    conjugate pairs into these places first, then two reals into each
    place left, and its other reals, in order, into the first line's
    remaining real places.  The lists are returned unchanged when some
    line has a complex root without an exact conjugate or there are no
    lines; where every line root is real nothing moves.
    """
    lines = [j for j, plane in enumerate(planes) if not plane]
    firsts = [_conjugates_first(lists[j]) for j in lines]
    if not firsts or None in firsts:
        return lists
    places = firsts[0]
    out = list(lists)
    for j, picks in zip(lines, firsts):
        order = [0j] * len(places)
        for place, i in zip(places, picks):
            order[place] = lists[j][i]
        out[j] = order
    return out


def factor(p: Poly) -> Factorization:
    """Canonical factorization: component roots sorted by (re, im), zipped.

    Where a line has complex roots, the line roots are rearranged
    (`_paired_orders`) so that the roots split into real roots and pairs
    with real quadratic factors (see `pair_conjugates`).
    `multiplicities` holds, per component in `_NODAL_SETS` order, the
    multiplicity of each component root in the order zipped; a k-fold
    root appears k times.

    Raises:
        NoConvergence: the iteration stalled or overflowed on some component.
    """
    if p.degree < 1:
        raise ValueError("factorization needs degree >= 1")
    comp_coeffs = _component_coeffs(p)
    lists = _component_root_lists(p, comp_coeffs)
    planes = _IS_PLANE[p.kind]
    if any(z.imag for lst, plane in zip(lists, planes) if not plane
           for z in lst):
        lists = _paired_orders(lists, planes)
    return _assemble(p, tuple(map(tuple, lists)), comp_coeffs,
                     tuple(tuple(map(lst.count, lst)) for lst in lists))


def _key(roots):
    """The roots' components, real and imaginary parts rounded to 9
    decimals, sorted: a factorization up to the order of its roots."""
    return tuple(sorted(
        tuple((round(complex(c).real, 9), round(complex(c).imag, 9))
              for c in r.components)
        for r in roots
    ))


def enumerate_factorizations(p: Poly, cap: int = 100) -> list[Factorization]:
    """Distinct real factorizations from re-pairing component roots.

    The first component's (sorted) order is pinned; the remaining
    components' root orders are permuted.  A pairing is kept when its
    roots split into real roots and pairs that are, on every line, an
    exact conjugate pair or two reals (plane entries are free), so that
    each pair is a real quadratic factor.  Results are deduplicated by
    the roots' components rounded to 9 decimals, and cut off at `cap`.

    The pairings are walked depth first, one component at a time, in the
    order of ``itertools.product`` over ``itertools.permutations`` of each
    component after the first (the last component varies fastest).  A
    prefix is cut as soon as the line columns chosen so far admit no such
    pairs.  Root i's row holds its line entries so far, each real entry
    replaced by 0; roots i and k can pair exactly when row k is the
    conjugate of row i, so the pairs exist when the rows, as a multiset,
    are closed under conjugation.  The test is exact, since the line roots
    are exact conjugates or exactly real (`_symmetrize_conjugates`), and
    only gets stricter as lines are added.  Planes, and lines whose roots
    are all real, add nothing to the rows and cut nothing.  A prefix that
    passes always extends to a leaf: a line with c conjugate pairs has
    2c <= m, so its pairs fit into the prefix's pairs plus new pairs of
    roots that are real so far.

    An order that puts two equal roots of a component out of index order
    is skipped: it gives the same root values as the earlier order that
    keeps them in index order, hence the same prefix test and the same
    leaves, each a duplicate there.

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
    # Per component, the (re, im) row entries the prefix test appends and
    # their conjugates; None where it appends nothing.
    marks = [None if plane or not any(z.imag for z in lst) else
             ([(z.real, z.imag) if z.imag else (0.0, 0.0) for z in lst],
              [(z.real, -z.imag) if z.imag else (0.0, 0.0) for z in lst])
             for lst, plane in zip(lists, _IS_PLANE[p.kind])]
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

    def descend(j: int, rows: list[tuple], conj_rows: list[tuple]) -> bool:
        """Walk component j's orders under a prefix; True once cap is met."""
        orders = [tuple(range(m))] if j == 0 else itertools.permutations(range(m))
        mark, tie = marks[j], ties[j]
        for perm in orders:
            visit()
            if tie and any(perm.index(k) > perm.index(k + 1) for k in tie):
                continue   # repeats the leaves of an earlier order
            grown, conj_grown = rows, conj_rows
            if mark:
                grown = [row + mark[0][i] for row, i in zip(rows, perm)]
                conj_grown = [row + mark[1][i]
                              for row, i in zip(conj_rows, perm)]
                if sorted(grown) != sorted(conj_grown):
                    continue
            chosen[j] = perm
            if j + 1 < depth:
                if descend(j + 1, grown, conj_grown):
                    return True
                continue
            visit()
            fact = _assemble(p, tuple(tuple(lst[i] for i in order)
                                      for lst, order in zip(lists, chosen)),
                             comp_coeffs)
            key = _key(fact.roots)
            if key in seen:
                continue
            seen.add(key)
            out.append(fact)
            if len(out) >= cap:
                return True
        return False

    descend(0, [()] * m, [()] * m)
    return out


def reconstruct(f: Factorization, kind: AlgebraKind) -> Poly:
    """Expand the product of (u - root), the paper's product of linear
    factors; the tests also use it as factor()'s oracle."""
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
                "(some complex root lacks a conjugate partner)"
            )
        quads.append(Quad(kind, *(complex(v).real for v in c)))
    return Poly(kind, tuple(quads))


def _quadratic(r, r2, kind: AlgebraKind):
    """The complex (s, q) with (u - r)(u - r2) = u**2 - s u + q."""
    return (tuple(a + b for a, b in zip(r.components, r2.components)),
            _MUL[kind](*r.components, *r2.components))


def pair_conjugates(f: Factorization):
    """Group roots into (real_roots, conjugate_pairs, unpaired_complex).

    Each complex root pairs with the first later unpaired complex root
    whose quadratic u**2 - s u + q with it is real: every imaginary part
    of s and q is within 1e-7 of max(1, their largest modulus).  A
    componentwise conjugate always qualifies.
    A pair expands to the real quadratic factor `quadratic_factor`
    returns.  Complex roots left without such a partner (possible only
    for pairings that are not real factorizations) are returned as-is.
    """
    real_roots = [r for r in f.roots if isinstance(r, Quad)]
    complexes = [r for r in f.roots if isinstance(r, ComplexQuad)]
    pairs = []
    leftovers: list[ComplexQuad] = []
    while complexes:
        r = complexes.pop(0)
        for j, r2 in enumerate(complexes):
            s, q = _quadratic(r, r2, r.kind)
            values = (*s, *q)
            tol = 1e-7 * max(1.0, max(map(abs, values)))
            if all(abs(v.imag) <= tol for v in values):
                pairs.append((r, complexes.pop(j)))
                break
        else:
            leftovers.append(r)
    return real_roots, pairs, leftovers


def quadratic_factor(pair: tuple[ComplexQuad, ComplexQuad],
                     kind: AlgebraKind) -> tuple[Quad, Quad]:
    """(s, q) with (u - r)(u - r') = u**2 - s u + q, both real, for a pair
    (r, r') from `pair_conjugates`."""
    s, q = _quadratic(*pair, kind)
    return (Quad(kind, *(complex(v).real for v in s)),
            Quad(kind, *(complex(v).real for v in q)))
