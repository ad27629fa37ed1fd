"""Degree sequences and graphicality tests.

Covers simple, bipartite, directed, and forbidden-edge-restricted bipartite
degree sequences.  Directed sequences are handled through their Gale bipartite
representation (out-stubs in one class, in-stubs in the other, diagonal pairs
excluded), which reduces directed graphicality to a restricted bipartite
problem.  A forbidden set is a partial 1-factor, checked when it is built.
Restricted bipartite, and so directed, sequences are realized and tested
by one greedy pass, Kleitman–Wang on the directed reduction.
"""

from __future__ import annotations

import heapq
import operator
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Tuple

from . import _EXPORTS
from ._value import Value
from .errors import ForbiddenSetNotMatching, NotGraphical

__all__ = _EXPORTS["sequences"]


def _as_int(x) -> int:
    """``x`` as an int: an integer, or a float with an integral value.
    Anything else (1.5, infinity, NaN, a string, a bool) raises ValueError."""
    if isinstance(x, float):
        if x.is_integer():  # False for infinity and NaN
            return int(x)
    elif not isinstance(x, bool):  # JSON true is no degree
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError("not an integer: %r" % (x,))


def _as_tuple(degrees: Iterable[int]) -> Tuple[int, ...]:
    out = tuple(_as_int(d) for d in degrees)
    if any(d < 0 for d in out):
        raise ValueError("degrees must be non-negative")
    return out


class DegreeSequence(Value):
    """A labeled simple-graph degree sequence.

    ``degrees`` keeps the caller's vertex order; ``sorted_degrees`` is the
    non-increasing canonical view and ``order`` maps canonical position to the
    original label, so realizations computed in canonical order can be
    reported back in user order.
    """

    _fields = ("degrees",)
    degrees: Tuple[int, ...]

    def __init__(self, degrees: Iterable[int]):
        self._set(_as_tuple(degrees))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def sorted_degrees(self) -> Tuple[int, ...]:
        return tuple(sorted(self.degrees, reverse=True))

    @property
    def order(self) -> Tuple[int, ...]:
        """Original index of each canonical (sorted) position; stable on ties."""
        return tuple(
            i for i, _ in sorted(enumerate(self.degrees), key=lambda t: (-t[1], t[0]))
        )

    def is_graphical(self) -> bool:
        return erdos_gallai(self)


class BipartiteDegreeSequence(Value):
    """Degree sequence of a bipartite graph, one vector per vertex class.

    ``u`` is the primary class of the composition algebra: composing joins
    a first operand's ``u`` class to the second operand's ``w`` class.  The
    classes keep the caller's vertex order; the decomposition reads the
    sorted views of ``canonical``.
    """

    _fields = ("u_degrees", "w_degrees")
    u_degrees: Tuple[int, ...]
    w_degrees: Tuple[int, ...]

    def __init__(self, u_degrees: Iterable[int], w_degrees: Iterable[int]):
        self._set(_as_tuple(u_degrees), _as_tuple(w_degrees))

    @property
    def nu(self) -> int:
        return len(self.u_degrees)

    @property
    def nw(self) -> int:
        return len(self.w_degrees)

    def canonical(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Both classes sorted non-increasingly."""
        return (
            tuple(sorted(self.u_degrees, reverse=True)),
            tuple(sorted(self.w_degrees, reverse=True)),
        )

    def is_graphical(self) -> bool:
        return gale_ryser(self)


class DirectedDegreeSequence(Value):
    """Out/in degree bi-sequence of a simple digraph (same vertex indexing)."""

    _fields = ("out_degrees", "in_degrees")
    out_degrees: Tuple[int, ...]
    in_degrees: Tuple[int, ...]

    def __init__(self, out_degrees: Iterable[int], in_degrees: Iterable[int]):
        out_t = _as_tuple(out_degrees)
        in_t = _as_tuple(in_degrees)
        if len(out_t) != len(in_t):
            raise ValueError("out- and in-degree sequences must have equal length")
        self._set(out_t, in_t)

    @property
    def n(self) -> int:
        return len(self.out_degrees)

    def gale_representation(self) -> Tuple["BipartiteDegreeSequence", "ForbiddenSet"]:
        """Bipartite representation with the diagonal 1-factor forbidden."""
        bd = BipartiteDegreeSequence(self.out_degrees, self.in_degrees)
        f = ForbiddenSet(frozenset((i, i) for i in range(self.n)))
        return bd, f

    def is_graphical(self) -> bool:
        return directed_graphical(self)


class ForbiddenSet(Value):
    """Set of (u-index, w-index) pairs excluded from realizations (non-chords).

    A partial 1-factor by construction: no u-index and no w-index occurs in
    two pairs, else ForbiddenSetNotMatching.
    """

    _fields = ("pairs",)
    pairs: frozenset

    def __init__(self, pairs: Iterable[Tuple[int, int]] = ()):
        pairs = frozenset((_as_int(u), _as_int(w)) for u, w in pairs)
        if len({u for u, _ in pairs}) < len(pairs) or len({w for _, w in pairs}) < len(pairs):
            raise ForbiddenSetNotMatching("forbidden set is not a partial 1-factor")
        self._set(pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def require_in_range(self, nu: int, nw: int) -> None:
        """Raise ValueError for a pair outside classes of sizes ``nu`` and ``nw``."""
        for u, w in self.pairs:
            if not (0 <= u < nu and 0 <= w < nw):
                raise ValueError("forbidden pair out of range: %r" % ((u, w),))

    def shifted(self, du: int, dw: int) -> "ForbiddenSet":
        return ForbiddenSet((u + du, w + dw) for u, w in self.pairs)


def _coerce_simple(d) -> Tuple[int, ...]:
    if isinstance(d, DegreeSequence):
        return d.degrees
    return _as_tuple(d)


def _coerce_bipartite(bd) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    if isinstance(bd, BipartiteDegreeSequence):
        return bd.u_degrees, bd.w_degrees
    u, w = bd
    return _as_tuple(u), _as_tuple(w)


def erdos_gallai(d) -> bool:
    """Erdős–Gallai test: is ``d`` the degree sequence of some simple graph?

    One sort, then O(n).  With the degrees non-increasing, the k-th
    inequality's right side k(k-1) + sum_{i>k} min(k, d_i) is k for each
    later degree >= k plus the suffix sum of the later degrees < k; the
    boundary between the two only moves left as k grows.  Only the k where
    the degree drops (and k = n) are tested (Tripathi & Vijay 2003).
    """
    deg = sorted(_coerce_simple(d), reverse=True)
    n = len(deg)
    if n == 0:
        return True
    prefix = (0, *accumulate(deg))  # prefix[k] = sum of the k largest degrees
    total = prefix[n]
    if deg[0] > n - 1 or total % 2 != 0:
        return False
    ge = n  # deg[:ge] are the degrees >= k
    for k in range(1, n + 1):
        if k < n and deg[k] == deg[k - 1]:
            continue
        while ge > 0 and deg[ge - 1] < k:
            ge -= 1
        tail = k * (ge - k) + total - prefix[ge] if ge > k else total - prefix[k]
        if prefix[k] > k * (k - 1) + tail:
            return False
    return True


def gale_ryser(bd) -> bool:
    """Gale–Ryser test: does ``bd`` have a simple bipartite realization?

    One sort of ``u``, then O(n_u + n_w): the k-th inequality's right side
    sum_j min(w_j, k) is the k-th prefix sum of the conjugate of ``w``
    (the number of w_j >= i, for i = 1..k), built once from value counts.
    """
    u, w = _coerce_bipartite(bd)
    if sum(u) != sum(w):
        return False
    if u and max(u) > len(w):
        return False
    if w and max(w) > len(u):
        return False
    count = [0] * (len(u) + 1)  # count[v] = number of w_j equal to v
    for wj in w:
        count[wj] += 1
    ge = len(w)  # number of w_j >= k
    lhs = rhs = 0
    for k, uk in enumerate(sorted(u, reverse=True), 1):
        ge -= count[k - 1]
        lhs += uk
        rhs += ge
        if lhs > rhs:
            return False
    return True


def restricted_bipartite_graphical(bd, f: Optional[ForbiddenSet] = None) -> bool:
    """Graphicality of a bipartite sequence avoiding the forbidden partial
    1-factor: whether ``realize_bipartite`` finds a realization."""
    try:
        realize_bipartite(bd, f)
    except NotGraphical:
        return False
    return True


def directed_graphical(dd) -> bool:
    """Graphicality of a directed bi-sequence (no loops; antiparallel pairs OK)."""
    if not isinstance(dd, DirectedDegreeSequence):
        dd = DirectedDegreeSequence(*dd)
    bd, f = dd.gale_representation()
    return restricted_bipartite_graphical(bd, f)


def _havel_hakimi_edges(degrees: Sequence[int]):
    """One simple-graph realization via Havel–Hakimi, in O(m log n).

    Each round joins the vertex of largest remaining degree (lowest index on
    ties) to the next ``d0`` in that order, taken from a heap keyed
    (-degree, index); vertices left at degree 0 drop out.  Raises
    NotGraphical when fewer than ``d0`` vertices have degree left.
    """
    heap = [(-d, i) for i, d in enumerate(degrees) if d > 0]
    heapq.heapify(heap)
    edges = []
    while heap:
        d0, v0 = heapq.heappop(heap)
        if -d0 > len(heap):
            raise NotGraphical("sequence is not graphical")
        joined = [heapq.heappop(heap) for _ in range(-d0)]
        for d, v in joined:
            edges.append((min(v0, v), max(v0, v)))
            if d < -1:
                heapq.heappush(heap, (d + 1, v))
    return sorted(edges)


def realize(d, f: Optional[ForbiddenSet] = None):
    """Construct one realization of a sequence of any supported kind.

    Returns a sorted edge list: (i, j) vertex pairs for simple sequences,
    (u-index, w-index) pairs for bipartite ones, (tail, head) arcs for
    directed ones.  Raises NotGraphical when no realization exists.
    """
    if isinstance(d, DirectedDegreeSequence):
        return realize_directed(d)
    if isinstance(d, BipartiteDegreeSequence):
        return realize_bipartite(d, f)
    if f is not None and len(f):
        raise ValueError("forbidden sets apply to bipartite/directed sequences only")
    degrees = _coerce_simple(d)
    try:
        return _havel_hakimi_edges(degrees)
    except NotGraphical:
        raise NotGraphical("sequence is not graphical: %r" % (degrees,)) from None


def realize_bipartite(bd, f: Optional[ForbiddenSet] = None):
    """One bipartite realization avoiding ``f``, in O(m log n).

    Kleitman–Wang on the directed reduction: each u_i is merged with its
    partner in ``f`` (a partial 1-factor), so the forbidden pairs become the
    loops.  The tails u_i are taken in index order; each is joined to the
    w's of largest remaining in-degree, ties going to the larger remaining
    out-degree of the merged vertex and then to the lower index, skipping
    its own partner.  Any tail order works with heads in that order (Erdős,
    Miklós & Toroczkai 2010), so a tail short of heads means that no
    realization exists.  A lazy heap holds the keys (-in, -out, index).
    """
    u, w = _coerce_bipartite(bd)
    if sum(u) != sum(w):
        raise NotGraphical("class degree sums differ")
    partner, out, need = [-1] * len(u), [0] * len(w), list(w)
    if f is not None:
        f.require_in_range(len(u), len(w))
        for i, j in f.pairs:
            partner[i], out[j] = j, u[i]
    heap = [(-need[j], -out[j], j) for j in range(len(w)) if need[j]]
    heapq.heapify(heap)
    edges = []
    for i, d in enumerate(u):
        p, heads = partner[i], []
        while len(heads) < d and heap:
            key = heapq.heappop(heap)
            j = key[2]
            if j != p and key == (-need[j], -out[j], j):  # else stale, or i's partner
                heads.append(j)
        if len(heads) < d:
            raise NotGraphical("no realization avoids the forbidden set" if f
                               else "sequence is not graphical")
        for j in heads:
            edges.append((i, j))
            need[j] -= 1
            if need[j]:
                heapq.heappush(heap, (-need[j], -out[j], j))
        if p >= 0 and d:  # the partner's merged vertex has no out-degree left
            out[p] = 0
            if need[p]:
                heapq.heappush(heap, (-need[p], 0, p))
    return sorted(edges)


def realize_directed(dd):
    """One digraph realization as a sorted list of (tail, head) arcs."""
    if not isinstance(dd, DirectedDegreeSequence):
        dd = DirectedDegreeSequence(*dd)
    bd, f = dd.gale_representation()
    try:
        return realize_bipartite(bd, f)
    except NotGraphical:
        raise NotGraphical("directed sequence is not graphical") from None
