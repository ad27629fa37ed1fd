"""Canonical composition and decomposition of degree sequences.

A split sequence carries an ordered pair of classes: a primary class U whose
vertices form a clique and a secondary class W forming an independent set.
Composing a split sequence with an arbitrary sequence joins every U vertex to
every vertex of the second operand; the induced arithmetic on degrees is exact
integer bookkeeping, so decomposition inverts composition exactly.  The same
algebra is carried over to bipartite sequences, whose ``u`` class is the
primary one, through the strip-the-clique bijection ``psi`` and, with
forbidden 1-factors, to directed sequences.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, List, Optional, Tuple

from ._value import Value
from .errors import InvalidSplit, NotGraphical
from .sequences import (
    BipartiteDegreeSequence,
    DegreeSequence,
    ForbiddenSet,
    _as_int,
    _coerce_simple,
    erdos_gallai,
)

__all__ = [
    "SplitSequence",
    "GoodPair",
    "CanonicalDecomposition",
    "is_split",
    "good_pairs",
    "canonical_decompose",
    "compose",
    "recompose",
    "psi",
    "psi_inverse",
    "split_lift",
    "compose_bipartite",
    "compose_bipartite_many",
    "bipartite_decomposable",
    "canonical_decompose_bipartite",
    "compose_directed",
    "greenhill_condition",
]


def _sorted_desc(xs: Iterable[int]) -> Tuple[int, ...]:
    return tuple(sorted(map(_as_int, xs), reverse=True))


class GoodPair(Value):
    """Certificate (p, q) that a sorted sequence splits head/rest at p, q."""

    _fields = ("p", "q")
    p: int
    q: int

    def __init__(self, p: int, q: int):
        self._set(p, q)


class SplitSequence(Value):
    """Degree sequence of a split graph with a designated ordered partition.

    ``u_degrees`` are degrees in the full split graph (clique edges included),
    ``w_degrees`` the independent-class degrees.  Classes may be empty, but
    not both.
    """

    _fields = ("u_degrees", "w_degrees")
    u_degrees: Tuple[int, ...]
    w_degrees: Tuple[int, ...]

    def __init__(self, u_degrees: Iterable[int], w_degrees: Iterable[int]):
        u = _sorted_desc(u_degrees)
        w = _sorted_desc(w_degrees)
        self._set(u, w)
        if not u and not w:
            raise InvalidSplit("both classes empty")
        p = len(u)
        if any(x < p - 1 for x in u):
            raise InvalidSplit("primary degree below clique minimum: %r" % (u,))
        if any(x > p - 1 + len(w) for x in u):
            raise InvalidSplit("primary degree exceeds clique plus secondary size")
        if any(x > p for x in w):
            raise InvalidSplit("secondary degree exceeds primary size")
        if sum(u) - p * (p - 1) != sum(w):
            raise InvalidSplit("cross-edge counts of the two classes differ")

    @property
    def nu(self) -> int:
        return len(self.u_degrees)

    @property
    def nw(self) -> int:
        return len(self.w_degrees)

    @property
    def n(self) -> int:
        return self.nu + self.nw

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(self.u_degrees + self.w_degrees)


class CanonicalDecomposition(Value):
    """Ordered indecomposable split components plus the undesignated tail.

    For the k-th extraction, ``remainder_sizes[k]`` is the length n of the
    sequence it was taken from and ``top_sums[k]`` the sum of that
    sequence's p largest degrees: the left side of the good-pair identity.
    """

    _fields = ("components", "tail", "good_pairs_used", "remainder_sizes", "top_sums")
    components: Tuple[SplitSequence, ...]
    tail: Optional[DegreeSequence]
    good_pairs_used: Tuple[GoodPair, ...]
    remainder_sizes: Tuple[int, ...]
    top_sums: Tuple[int, ...]

    def __init__(
        self,
        components: Tuple[SplitSequence, ...],
        tail: Optional[DegreeSequence],
        good_pairs_used: Tuple[GoodPair, ...] = (),
        remainder_sizes: Tuple[int, ...] = (),
        top_sums: Tuple[int, ...] = (),
    ):
        self._set(components, tail, good_pairs_used, remainder_sizes, top_sums)


def is_split(d) -> Optional[SplitSequence]:
    """Hammer–Simeone recognition from the degree sequence.

    With degrees sorted non-increasingly and m the largest i with
    d_i >= i - 1, the sequence is split iff
    sum(d_1..d_m) == m(m-1) + sum(d_{m+1}..d_n); the returned partition puts
    the first m vertices in the primary class.  Returns None for non-split
    sequences and raises NotGraphical for non-graphical input.
    """
    degrees = _coerce_simple(d)
    if not erdos_gallai(degrees):
        raise NotGraphical("sequence is not graphical: %r" % (degrees,))
    ds = _sorted_desc(degrees)
    n = len(ds)
    m = 0
    for i in range(1, n + 1):
        if ds[i - 1] >= i - 1:
            m = i
    if sum(ds[:m]) != m * (m - 1) + sum(ds[m:]):
        return None
    return SplitSequence(ds[:m], ds[m:])


def good_pairs(d) -> List[GoodPair]:
    """All (p, q) with 0 < p+q < n satisfying the decomposability identity
    sum(d_1..d_p) == p(n-q-1) + sum(d_{n-q+1}..d_n) on the sorted sequence.

    O(1) per candidate from prefix sums, O(n^2) in all."""
    ds = _sorted_desc(_coerce_simple(d))
    n = len(ds)
    prefix = (0, *accumulate(ds))
    return [
        GoodPair(p, q)
        for p in range(n)
        for q in range(0 if p else 1, n - p)
        if prefix[p] == p * (n - q - 1) + prefix[n] - prefix[n - q]
    ]


class _Window:
    """The entries ``a[lo:hi]``, each lowered by ``shift``, of a fixed
    non-increasing integer tuple ``a``.

    Sums over a range of entries are O(1) from prefix sums and threshold
    counts O(log n) by bisection, so a decomposition round never copies its
    remainder: taking a head off only moves the bounds and the shift.
    """

    def __init__(self, a: Tuple[int, ...]):
        self.a = a
        self.prefix = (0, *accumulate(a))
        self.negated = [-x for x in a]  # non-decreasing, for bisect
        self.lo, self.hi, self.shift = 0, len(a), 0

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, k: int) -> int:
        return self.a[self.lo + k] - self.shift

    def total(self, i: int, j: int) -> int:
        """Sum of entries i..j-1."""
        lo = self.lo
        return self.prefix[lo + j] - self.prefix[lo + i] - (j - i) * self.shift

    def at_least(self, v: int) -> int:
        """Number of entries >= v (they come first)."""
        return bisect_right(self.negated, -v - self.shift, self.lo, self.hi) - self.lo

    def values(self, i: int, j: int, minus: int = 0) -> Tuple[int, ...]:
        """Entries i..j-1, each lowered by a further ``minus``."""
        drop = self.shift + minus
        return tuple(x - drop for x in self.a[self.lo + i:self.lo + j])

    def narrow(self, i: int, j: int, minus: int = 0) -> None:
        """Keep entries i..j-1 only, each lowered by a further ``minus``."""
        self.lo, self.hi = self.lo + i, self.lo + j
        self.shift += minus


def _least_good_pair(ds: _Window) -> Optional[Tuple[int, int]]:
    """The least good pair (p, q) of ``ds`` whose head is a split sequence
    and whose rest degrees lie in [0, r-1], or None if there is none.

    For each p those range checks bound q to an interval [lo, hi], and on it
    the identity's right side p(n-q-1) + sum(d_{n-q+1}..d_n) is constant:
    going from q to q+1 adds d_{n-q} - p, and q >= #{d < p} with
    q+1 <= #{d <= p} make that step zero.  So each p costs O(log n) and one
    test of the identity at lo, and the scan stops at the first pair found.
    """
    n = len(ds)
    for p in range(n):
        lo = n - ds.at_least(p)  # rest degrees minus p stay >= 0
        hi = n - ds.at_least(p + 1)  # head secondaries are <= p
        hi = min(hi, n - p - 1, n - 1 - ds[p])  # rest nonempty, below its size
        lo = max(lo, n - 1 - ds[p - 1]) if p else max(lo, 1)  # clique minimum
        if lo <= hi and ds.total(0, p) == p * (n - lo - 1) + ds.total(n - lo, n):
            return p, lo
    return None


def _least_bipartite_extraction(u: _Window, w: _Window) -> Optional[Tuple[int, int]]:
    """The least extraction (p, q) of a sorted bipartite sequence whose head
    and rest both carry edges, or None if there is none.

    An extraction at (p, q) takes the p largest primary and the |W|-q smallest
    secondary degrees as the head (primary reduced by q) and leaves
    (u_{p+1}.., w_1..w_q reduced by p) as the rest; q counts the secondary
    vertices staying on the right.  The composition algebra for bipartite
    sequences does not admit edge-less operands: p = 0 leaves the head no
    edge and p = |U| the rest none, and the head's edge count
    sum(w_{q+1}..) falls as q grows.

    For each p the range checks bound q to an interval [lo, hi], and on it
    the q-cost p*q + sum(w_{q+1}..) is constant: it is convex in q, with
    step p - w_{q+1}, and #{w > p} <= q < #{w >= p} makes that step zero.
    So each p costs O(log |W|) and one test of the identity at lo.
    """
    nu, nw = len(u), len(w)
    for p in range(1, nu):
        if u.total(p, nu) == 0:
            return None  # edge-less rest, and so for every larger p
        lo = w.at_least(p + 1)  # head secondaries are <= p
        hi = w.at_least(p)  # rest secondaries minus p stay >= 0
        hi = min(hi, u[p - 1])  # head primaries minus q stay >= 0
        lo = max(lo, u[p])  # rest primaries fit the q rest secondaries
        if lo > hi or u.total(0, p) != p * lo + w.total(lo, nw):
            continue
        if w.total(lo, nw):  # else the head is edge-less, at every q >= lo
            return p, lo
    return None


def canonical_decompose(d) -> CanonicalDecomposition:
    """Unique factorization into indecomposable split components plus tail.

    Each round extracts the head at the least good pair (p, q) whose
    extraction is valid, and the remainder continues until no such pair is
    left; the final remainder is the undesignated tail.  That head is
    indecomposable: composition is associative, so were the head H1 o H2
    with rest R, the remainder H1 o (H2 o R) would have a lesser good pair,
    the one that extracts H1.

    One sort, then O(n log n): the remainder is a window on the sorted
    degrees, a round's scan stops at the p it extracts, and only the last
    round scans its whole remainder.
    """
    degrees = _coerce_simple(d)
    if not erdos_gallai(degrees):
        raise NotGraphical("sequence is not graphical: %r" % (degrees,))
    ds = _Window(_sorted_desc(degrees))
    components: List[SplitSequence] = []
    used: List[GoodPair] = []
    sizes: List[int] = []
    sums: List[int] = []
    while (pair := _least_good_pair(ds)) is not None:
        p, q = pair
        n = len(ds)
        components.append(SplitSequence(ds.values(0, p, n - p - q), ds.values(n - q, n)))
        used.append(GoodPair(p, q))
        sizes.append(n)
        sums.append(ds.total(0, p))
        ds.narrow(p, n - q, p)
    tail = DegreeSequence(ds.values(0, len(ds))) if len(ds) else None
    return CanonicalDecomposition(
        tuple(components), tail, tuple(used), tuple(sizes), tuple(sums)
    )


def compose(s: SplitSequence, g) -> DegreeSequence:
    """Degree sequence of the composition of a split graph with a graph:
    primary degrees gain |V(g)|, the second operand's degrees gain |U|."""
    if not isinstance(s, SplitSequence):
        raise InvalidSplit("first operand must be a split sequence")
    gd = _coerce_simple(g)
    merged = (
        [x + len(gd) for x in s.u_degrees]
        + [x + s.nu for x in gd]
        + list(s.w_degrees)
    )
    return DegreeSequence(sorted(merged, reverse=True))


def recompose(cd: CanonicalDecomposition) -> DegreeSequence:
    """Fold the components back over the tail; exact inverse of decompose."""
    cur: Tuple[int, ...] = cd.tail.degrees if cd.tail is not None else ()
    for comp in reversed(cd.components):
        cur = compose(comp, cur).degrees
    return DegreeSequence(_sorted_desc(cur))


def psi(s: SplitSequence) -> BipartiteDegreeSequence:
    """Strip the clique: primary degrees drop by |U| - 1, secondary unchanged."""
    shift = max(s.nu - 1, 0)
    return BipartiteDegreeSequence(
        tuple(x - shift for x in s.u_degrees), s.w_degrees
    )


def psi_inverse(sb: BipartiteDegreeSequence) -> SplitSequence:
    """Add the clique back; exact inverse of psi on valid inputs."""
    shift = max(sb.nu - 1, 0)
    u, w = sb.canonical()
    if any(x > sb.nw for x in u):
        raise InvalidSplit("primary degree exceeds secondary class size")
    if any(x > sb.nu for x in w):
        raise InvalidSplit("secondary degree exceeds primary class size")
    return SplitSequence(tuple(x + shift for x in u), w)


def split_lift(sb: BipartiteDegreeSequence) -> DegreeSequence:
    """Full degree sequence of the split graph obtained by completing the
    primary class into a clique."""
    return psi_inverse(sb).degree_sequence()


def compose_bipartite(
    a: BipartiteDegreeSequence, b: BipartiteDegreeSequence
) -> BipartiteDegreeSequence:
    """Composition of bipartite sequences: the first operand's primary
    class ``u`` is joined completely to the second's secondary class ``w``."""
    u = tuple(x + b.nw for x in a.u_degrees) + b.u_degrees
    w = a.w_degrees + tuple(x + a.nu for x in b.w_degrees)
    return BipartiteDegreeSequence(u, w)


def compose_bipartite_many(parts: Iterable[BipartiteDegreeSequence]) -> BipartiteDegreeSequence:
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to compose")
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = compose_bipartite(part, out)
    return out


def bipartite_decomposable(sb: BipartiteDegreeSequence) -> List[GoodPair]:
    """All (p, q) with 0 < p < |U|, 0 < q < |W| satisfying
    sum(u_1..u_p) == p*q + sum(w_{q+1}..w_{|W|}) on the sorted classes.

    O(1) per candidate from prefix sums, O(|U| |W|) in all."""
    u, w = sb.canonical()
    pu, pw = (0, *accumulate(u)), (0, *accumulate(w))
    return [
        GoodPair(p, q)
        for p in range(1, len(u))
        for q in range(1, len(w))
        if pu[p] == p * q + pw[-1] - pw[q]
    ]


def canonical_decompose_bipartite(
    sb: BipartiteDegreeSequence,
) -> List[BipartiteDegreeSequence]:
    """Factorization into indecomposable bipartite sequences, ``u`` primary.

    Each round extracts the head at the least extraction whose head and rest
    both carry edges; that head is indecomposable for the same reason as in
    ``canonical_decompose``.  The result recomposes to the input exactly.

    One sort of each class, then O(n log n) as in ``canonical_decompose``:
    both classes are windows on their sorted degrees, and a round's scan
    stops at the p it extracts.
    """
    if not sb.is_graphical():
        raise NotGraphical(
            "not a graphical bipartite sequence: %r / %r"
            % (sb.u_degrees, sb.w_degrees)
        )
    u, w = (_Window(x) for x in sb.canonical())
    factors: List[BipartiteDegreeSequence] = []
    while (pair := _least_bipartite_extraction(u, w)) is not None:
        p, q = pair
        factors.append(BipartiteDegreeSequence(u.values(0, p, q), w.values(q, len(w))))
        u.narrow(p, len(u))
        w.narrow(0, q, p)
    factors.append(BipartiteDegreeSequence(u.values(0, len(u)), w.values(0, len(w))))
    return factors


def compose_directed(
    a: BipartiteDegreeSequence,
    fa: ForbiddenSet,
    b: BipartiteDegreeSequence,
    fb: ForbiddenSet,
) -> Tuple[BipartiteDegreeSequence, ForbiddenSet]:
    """Composition of bipartite sequences carrying forbidden partial
    1-factors; the merged forbidden set is the shifted union and is itself a
    partial 1-factor."""
    fa.require_in_range(a.nu, a.nw)
    fb.require_in_range(b.nu, b.nw)
    return compose_bipartite(a, b), ForbiddenSet(fa.pairs | fb.shifted(a.nu, a.nw).pairs)


def greenhill_condition(d) -> bool:
    """True iff 3 <= d_max <= sqrt(M)/4 with M the degree sum (exact integers)."""
    degrees = _coerce_simple(d)
    dmax = max(degrees, default=0)
    total = sum(degrees)
    return dmax >= 3 and 16 * dmax * dmax <= total
