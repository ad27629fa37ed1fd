"""Canonical composition and decomposition of degree sequences.

A split sequence carries an ordered pair of classes: a primary class U whose
vertices form a clique and a secondary class W forming an independent set.
Composing a split sequence with an arbitrary sequence joins every U vertex to
every vertex of the second operand; the induced arithmetic on degrees is exact
integer bookkeeping, so decomposition inverts composition exactly.  The same
algebra is carried over to bipartite sequences through the strip-the-clique
bijection ``psi`` and, with forbidden 1-factors, to directed sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

from .errors import InvalidSplit, NotGraphical
from .sequences import (
    BipartiteDegreeSequence,
    DegreeSequence,
    ForbiddenSet,
    erdos_gallai,
    gale_ryser,
)

__all__ = [
    "SplitSequence",
    "SplittedBipartiteSequence",
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
    return tuple(sorted((int(x) for x in xs), reverse=True))


@dataclass(frozen=True)
class GoodPair:
    """Certificate (p, q) that a sorted sequence splits head/rest at p, q."""

    p: int
    q: int


@dataclass(frozen=True)
class SplitSequence:
    """Degree sequence of a split graph with a designated ordered partition.

    ``u_degrees`` are degrees in the full split graph (clique edges included),
    ``w_degrees`` the independent-class degrees.  Classes may be empty, but
    not both.
    """

    u_degrees: Tuple[int, ...]
    w_degrees: Tuple[int, ...]

    def __init__(self, u_degrees: Iterable[int], w_degrees: Iterable[int]):
        u = _sorted_desc(u_degrees)
        w = _sorted_desc(w_degrees)
        object.__setattr__(self, "u_degrees", u)
        object.__setattr__(self, "w_degrees", w)
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


@dataclass(frozen=True)
class SplittedBipartiteSequence:
    """Bipartite degree sequence with designated primary/secondary classes.

    The primary class may contain zero-degree vertices (clique stripping can
    leave them behind).  Instances keep the given vertex order; comparisons in
    the decomposition algebra use the sorted class views.
    """

    primary_degrees: Tuple[int, ...]
    secondary_degrees: Tuple[int, ...]

    def __init__(self, primary_degrees: Iterable[int], secondary_degrees: Iterable[int]):
        object.__setattr__(
            self, "primary_degrees", tuple(int(x) for x in primary_degrees)
        )
        object.__setattr__(
            self, "secondary_degrees", tuple(int(x) for x in secondary_degrees)
        )
        if any(x < 0 for x in self.primary_degrees + self.secondary_degrees):
            raise ValueError("degrees must be non-negative")

    @property
    def nu(self) -> int:
        return len(self.primary_degrees)

    @property
    def nw(self) -> int:
        return len(self.secondary_degrees)

    def canonical(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return _sorted_desc(self.primary_degrees), _sorted_desc(self.secondary_degrees)

    def same_sequence(self, other: "SplittedBipartiteSequence") -> bool:
        return self.canonical() == other.canonical()

    def bipartite(self) -> BipartiteDegreeSequence:
        return BipartiteDegreeSequence(self.primary_degrees, self.secondary_degrees)

    def is_graphical(self) -> bool:
        return gale_ryser((self.primary_degrees, self.secondary_degrees))


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Ordered indecomposable split components plus the undesignated tail."""

    components: Tuple[SplitSequence, ...]
    tail: Optional[DegreeSequence]
    good_pairs_used: Tuple[GoodPair, ...] = ()


def _coerce_degrees(d) -> Tuple[int, ...]:
    if isinstance(d, DegreeSequence):
        return d.degrees
    return tuple(int(x) for x in d)


def is_split(d) -> Optional[SplitSequence]:
    """Hammer–Simeone recognition from the degree sequence.

    With degrees sorted non-increasingly and m the largest i with
    d_i >= i - 1, the sequence is split iff
    sum(d_1..d_m) == m(m-1) + sum(d_{m+1}..d_n); the returned partition puts
    the first m vertices in the primary class.  Returns None for non-split
    sequences and raises NotGraphical for non-graphical input.
    """
    degrees = _coerce_degrees(d)
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
    sum(d_1..d_p) == p(n-q-1) + sum(d_{n-q+1}..d_n) on the sorted sequence."""
    ds = _sorted_desc(_coerce_degrees(d))
    n = len(ds)
    out = []
    for p in range(0, n + 1):
        lhs = sum(ds[:p])
        for q in range(0, n - p):
            if p + q == 0:
                continue
            if lhs == p * (n - q - 1) + sum(ds[n - q:]):
                out.append(GoodPair(p, q))
    return out


def _extract_split_head(ds: Tuple[int, ...], p: int, q: int):
    """Head split component and shifted rest for a good pair, or None if the
    arithmetic does not describe a valid split partition."""
    n = len(ds)
    rest_size = n - p - q
    head_u = tuple(x - rest_size for x in ds[:p])
    head_w = ds[n - q:]
    rest = tuple(x - p for x in ds[p:n - q])
    if any(x < 0 or x > rest_size - 1 for x in rest):
        return None
    try:
        head = SplitSequence(head_u, head_w)
    except InvalidSplit:
        return None
    return head, rest


@lru_cache(maxsize=None)
def _bipartite_extractions(
    u: Tuple[int, ...], w: Tuple[int, ...], degenerate: bool
) -> Tuple[Tuple[int, int], ...]:
    """Valid head/rest extractions of a sorted splitted bipartite sequence.

    An extraction at (p, q) takes the p largest primary and the |W|-q smallest
    secondary degrees as the head (primary reduced by q) and leaves
    (u_{p+1}.., w_1..w_q reduced by p) as the rest; q counts the secondary
    vertices staying on the right.  With ``degenerate`` False, extractions
    whose head or rest carries no edge are dropped (the composition algebra
    for splitted bipartite sequences does not admit edge-less operands); with
    ``degenerate`` True they are kept, which matches decomposability of the
    corresponding designated split graphs.
    """
    nu, nw = len(u), len(w)
    out = []
    for p in range(0, nu + 1):
        head_u_sum = sum(u[:p])
        for q in range(0, nw + 1):
            if p == 0 and q == nw:
                continue  # empty head
            if p == nu and q == 0:
                continue  # empty rest
            if head_u_sum != p * q + sum(w[q:]):
                continue
            if p > 0 and u[p - 1] < q:
                continue
            if p < nu and u[p] > q:
                continue
            if q > 0 and w[q - 1] < p:
                continue
            if q < nw and w[q] > p:
                continue
            if not degenerate:
                if head_u_sum - p * q == 0:
                    continue  # edge-less head
                if sum(u[p:]) == 0:
                    continue  # edge-less rest
            out.append((p, q))
    return tuple(out)


def _extract_bipartite(u, w, p, q):
    head = (tuple(x - q for x in u[:p]), w[q:])
    rest = (u[p:], tuple(x - p for x in w[:q]))
    return head, rest


@lru_cache(maxsize=None)
def _bip_indecomposable(u: Tuple[int, ...], w: Tuple[int, ...]) -> bool:
    return not _bipartite_extractions(u, w, False)


def _split_indecomposable(s: SplitSequence) -> bool:
    """A designated split graph is indecomposable iff its stripped bipartite
    form admits no extraction at all (degenerate single-class splits count)."""
    sb = psi(s)
    u, w = sb.canonical()
    return not _bipartite_extractions(u, w, True)


def canonical_decompose(d) -> CanonicalDecomposition:
    """Unique factorization into indecomposable split components plus tail.

    At each step the good pairs are scanned in ascending (p, q) order and the
    first one whose head component is indecomposable is extracted; the
    remainder continues until no good pair is left.  The final remainder is
    the undesignated tail.
    """
    degrees = _coerce_degrees(d)
    if not erdos_gallai(degrees):
        raise NotGraphical("sequence is not graphical: %r" % (degrees,))
    cur = _sorted_desc(degrees)
    components: List[SplitSequence] = []
    used: List[GoodPair] = []
    while cur:
        found = None
        for gp in good_pairs(cur):
            got = _extract_split_head(cur, gp.p, gp.q)
            if got is None:
                continue
            head, rest = got
            if _split_indecomposable(head):
                found = (gp, head, rest)
                break
        if found is None:
            break
        gp, head, rest = found
        components.append(head)
        used.append(gp)
        cur = rest
    tail = DegreeSequence(cur) if cur else None
    return CanonicalDecomposition(tuple(components), tail, tuple(used))


def compose(s: SplitSequence, g) -> DegreeSequence:
    """Degree sequence of the composition of a split graph with a graph:
    primary degrees gain |V(g)|, the second operand's degrees gain |U|."""
    if not isinstance(s, SplitSequence):
        raise InvalidSplit("first operand must be a split sequence")
    gd = _coerce_degrees(g)
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


def psi(s: SplitSequence) -> SplittedBipartiteSequence:
    """Strip the clique: primary degrees drop by |U| - 1, secondary unchanged."""
    shift = max(s.nu - 1, 0)
    return SplittedBipartiteSequence(
        tuple(x - shift for x in s.u_degrees), s.w_degrees
    )


def psi_inverse(sb: SplittedBipartiteSequence) -> SplitSequence:
    """Add the clique back; exact inverse of psi on valid inputs."""
    shift = max(sb.nu - 1, 0)
    u, w = sb.canonical()
    if any(x > sb.nw for x in u):
        raise InvalidSplit("primary degree exceeds secondary class size")
    if any(x > sb.nu for x in w):
        raise InvalidSplit("secondary degree exceeds primary class size")
    return SplitSequence(tuple(x + shift for x in u), w)


def split_lift(sb: SplittedBipartiteSequence) -> DegreeSequence:
    """Full degree sequence of the split graph obtained by completing the
    primary class into a clique."""
    return psi_inverse(sb).degree_sequence()


def compose_bipartite(
    a: SplittedBipartiteSequence, b: SplittedBipartiteSequence
) -> SplittedBipartiteSequence:
    """Composition of splitted bipartite sequences: the first operand's
    primary class is joined completely to the second's secondary class."""
    primary = tuple(x + b.nw for x in a.primary_degrees) + b.primary_degrees
    secondary = a.secondary_degrees + tuple(x + a.nu for x in b.secondary_degrees)
    return SplittedBipartiteSequence(primary, secondary)


def compose_bipartite_many(parts: Iterable[SplittedBipartiteSequence]) -> SplittedBipartiteSequence:
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to compose")
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = compose_bipartite(part, out)
    return out


def bipartite_decomposable(sb: SplittedBipartiteSequence) -> List[GoodPair]:
    """All (p, q) with 0 < p < |U|, 0 < q < |W| satisfying
    sum(u_1..u_p) == p*q + sum(w_{q+1}..w_{|W|}) on the sorted classes."""
    u, w = sb.canonical()
    out = []
    for p in range(1, len(u)):
        lhs = sum(u[:p])
        for q in range(1, len(w)):
            if lhs == p * q + sum(w[q:]):
                out.append(GoodPair(p, q))
    return out


def canonical_decompose_bipartite(
    sb: SplittedBipartiteSequence,
) -> List[SplittedBipartiteSequence]:
    """Factorization into indecomposable splitted bipartite sequences.

    Heads are extracted in ascending (p, q) order, skipping extractions with
    edge-less operands, taking the first indecomposable head each round; the
    result recomposes to the input exactly.
    """
    if not sb.is_graphical():
        raise NotGraphical(
            "not a graphical bipartite sequence: %r / %r"
            % (sb.primary_degrees, sb.secondary_degrees)
        )
    cur = sb.canonical()
    factors: List[SplittedBipartiteSequence] = []
    while True:
        u, w = cur
        found = None
        for p, q in _bipartite_extractions(u, w, False):
            head, rest = _extract_bipartite(u, w, p, q)
            if _bip_indecomposable(*head):
                found = (head, rest)
                break
        if found is None:
            factors.append(SplittedBipartiteSequence(u, w))
            return factors
        head, rest = found
        factors.append(SplittedBipartiteSequence(*head))
        cur = rest


def compose_directed(
    a: SplittedBipartiteSequence,
    fa: ForbiddenSet,
    b: SplittedBipartiteSequence,
    fb: ForbiddenSet,
) -> Tuple[SplittedBipartiteSequence, ForbiddenSet]:
    """Composition of splitted bipartite sequences carrying forbidden partial
    1-factors; the merged forbidden set is the shifted union and is itself a
    partial 1-factor."""
    for f, operand in ((fa, a), (fb, b)):
        f.require_one_factor()
        for (i, j) in f.pairs:
            if not (0 <= i < operand.nu and 0 <= j < operand.nw):
                raise ValueError("forbidden pair out of range: %r" % ((i, j),))
    composed = compose_bipartite(a, b)
    merged = ForbiddenSet(set(fa.pairs) | set(fb.shifted(a.nu, a.nw).pairs))
    merged.require_one_factor()
    return composed, merged


def greenhill_condition(d) -> bool:
    """True iff 3 <= d_max <= sqrt(M)/4 with M the degree sum (exact integers)."""
    degrees = _coerce_degrees(d)
    dmax = max(degrees, default=0)
    total = sum(degrees)
    return dmax >= 3 and 16 * dmax * dmax <= total
