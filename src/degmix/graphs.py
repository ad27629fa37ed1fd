"""Labeled realizations, chord tables, and swap moves.

A sampling or verification instance fixes the vertex classes, the forbidden
pairs, and the swap kinds in play; every other vertex pair is a chord (a
pair allowed to carry an edge).  Each job keeps realizations in one format.
The sampler (``degmix.chain``) walks an edge list and never builds the
chord list, so its cost does not grow with the number of chords.  The
exhaustive engine (``degmix.space``), whose chord count is capped, encodes
realizations as bitmasks over the chord list, so swap moves are two XORs
and set membership is integer hashing; it builds ``chords`` on first use,
and one move table per realization space, over that space's free chords.
The swap rules are listed once, by ``Instance.swaps`` over a sorted edge
list: the move table reads it over chords, ``enumerate_swaps`` and the
swap-locality audit over a realization's own edges.

Move weights implement the lazy kernel: stay with probability 1/2, otherwise
draw a uniformly random pair of vertex-disjoint edges (their count depends
only on the degree sequence, which keeps the kernel symmetric) and pick one
of the perfect matchings on the four endpoints — 3 in simple graphs, 2 in
bipartite ones.  Picking the current matching, a non-chord, or an existing
edge counts as a stay.  With a forbidden 1-factor the non-lazy half is split
evenly between that C4 proposal and a C6 proposal built from an ordered
triple of distinct edges tested against the alternating-hexagon pattern.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import _EXPORTS
from ._value import Value
from .errors import NotGraphical
from .sequences import ForbiddenSet, _as_int

__all__ = _EXPORTS["graphs"]

Edge = Tuple[int, int]


class LabeledGraph(Value):
    """Simple graph on labeled vertices 0..n-1; edges stored as (i, j), i < j."""

    _fields = ("n", "edges")
    n: int
    edges: frozenset

    def __init__(self, n: int, edges: Iterable[Edge]):
        self._set(int(n), frozenset((min(a, b), max(a, b)) for a, b in edges))

    def degrees(self) -> Tuple[int, ...]:
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return tuple(deg)


class LabeledBipartiteGraph(Value):
    """Bipartite graph with classes 0..nu-1 and 0..nw-1; edges are (u, w)."""

    _fields = ("nu", "nw", "edges")
    nu: int
    nw: int
    edges: frozenset

    def __init__(self, nu: int, nw: int, edges: Iterable[Edge]):
        self._set(int(nu), int(nw), frozenset((int(u), int(w)) for u, w in edges))

    def u_degrees(self) -> Tuple[int, ...]:
        deg = [0] * self.nu
        for u, _ in self.edges:
            deg[u] += 1
        return tuple(deg)

    def w_degrees(self) -> Tuple[int, ...]:
        deg = [0] * self.nw
        for _, w in self.edges:
            deg[w] += 1
        return tuple(deg)


class SwapMove(Value):
    """A degree-preserving rewiring: remove ``removed``, add ``added``.

    C4 moves exchange two edges for the other matching on their endpoints;
    C6 moves rotate three edges along an alternating hexagon whose remaining
    three vertex pairs are forbidden chords.  Moves come by the hundred
    thousand, so each keeps its fields in slots, with no ``__dict__``;
    ``__reduce__`` rebuilds one through ``__init__``, since the slots refuse
    the assignment that pickle and ``deepcopy`` would make.
    """

    _fields = ("kind", "removed", "added")
    __slots__ = _fields
    kind: str  # "C4" or "C6"
    removed: Tuple[Edge, ...]
    added: Tuple[Edge, ...]

    def __init__(self, kind: str, removed: Tuple[Edge, ...], added: Tuple[Edge, ...]):
        self._set(kind, removed, added)

    def __reduce__(self):
        return SwapMove, self._values()


class Instance:
    """A fixed degree-sequence problem: degrees, forbidden pairs, swap kinds,
    and, built on first use by the exhaustive engine, chords.  C6
    swaps run exactly when a forbidden partial 1-factor is present (only a
    bipartite instance takes one), unless ``c4_only`` turns them off."""

    def __init__(
        self,
        kind: str,
        degrees,
        forbidden: Optional[ForbiddenSet] = None,
        c4_only: bool = False,
    ):
        if kind not in ("simple", "bipartite"):
            raise ValueError("kind must be 'simple' or 'bipartite'")
        self.kind = kind
        self.forbidden = forbidden if forbidden is not None else ForbiddenSet()
        if kind == "simple":
            if len(self.forbidden):
                raise ValueError("forbidden sets require a bipartite instance")
            self.degrees = tuple(map(_as_int, degrees))
            self.n = len(self.degrees)
            self.m = sum(self.degrees) // 2
            all_deg = self.degrees
        else:
            u, w = degrees
            self.u_degrees = tuple(map(_as_int, u))
            self.w_degrees = tuple(map(_as_int, w))
            self.nu, self.nw = len(self.u_degrees), len(self.w_degrees)
            self.m = sum(self.u_degrees)
            if self.m != sum(self.w_degrees):
                raise NotGraphical("class degree sums differ")
            all_deg = self.u_degrees + self.w_degrees
            self.forbidden.require_in_range(self.nu, self.nw)
        self.use_c6 = len(self.forbidden) > 0 and not c4_only
        # Vertex-disjoint edge-pair count; a function of the degrees alone.
        self.disjoint_pairs = self.m * (self.m - 1) // 2 - sum(
            d * (d - 1) // 2 for d in all_deg
        )
        self.matchings = 3 if kind == "simple" else 2

    @cached_property
    def chords(self) -> Tuple[Edge, ...]:
        """Vertex pairs allowed to carry an edge, in bit order."""
        if self.kind == "simple":
            return tuple((i, j) for i in range(self.n) for j in range(i + 1, self.n))
        banned = self.forbidden.pairs
        return tuple(
            (i, j) for i in range(self.nu) for j in range(self.nw) if (i, j) not in banned
        )

    @cached_property
    def chord_index(self) -> Dict[Edge, int]:
        return {c: i for i, c in enumerate(self.chords)}

    # -- probabilities ---------------------------------------------------

    @property
    def c4_branch(self) -> float:
        return 0.25 if self.use_c6 else 0.5

    def c4_weight(self) -> float:
        """Transition probability contributed by one valid C4 move."""
        if self.disjoint_pairs == 0:
            return 0.0
        return self.c4_branch / self.disjoint_pairs / self.matchings

    def c6_weight(self) -> float:
        """Transition probability of one valid C6 move (3 of the m(m-1)(m-2)
        ordered triples realize a given hexagon)."""
        if not self.use_c6 or self.m < 3:
            return 0.0
        return 0.25 * 3.0 / (self.m * (self.m - 1) * (self.m - 2))

    # -- masks -----------------------------------------------------------

    def mask_of_edges(self, edges: Iterable[Edge]) -> int:
        mask = 0
        for e in edges:
            key = e if self.kind == "bipartite" else (min(e), max(e))
            bit = self.chord_index.get(key)
            if bit is None:
                raise ValueError("edge %r is not a chord: a loop or a forbidden pair" % (e,))
            mask |= 1 << bit
        return mask

    def edges_of_mask(self, mask: int) -> List[Edge]:
        return [self.chords[i] for i in range(len(self.chords)) if mask >> i & 1]

    def graph_of_mask(self, mask: int):
        if self.kind == "simple":
            return LabeledGraph(self.n, self.edges_of_mask(mask))
        return LabeledBipartiteGraph(self.nu, self.nw, self.edges_of_mask(mask))

    # -- moves -----------------------------------------------------------

    def _alts(self, e1: Edge, e2: Edge) -> List[Tuple[Edge, Edge]]:
        """Alternative perfect matchings on the endpoints of two disjoint
        edges, restricted to chords."""
        if self.kind == "simple":
            a, b = e1
            c, d = e2
            candidates = [
                ((min(a, c), max(a, c)), (min(b, d), max(b, d))),
                ((min(a, d), max(a, d)), (min(b, c), max(b, c))),
            ]
        else:
            (u1, w1), (u2, w2) = e1, e2
            candidates = [((u1, w2), (u2, w1))]
        banned = self.forbidden.pairs
        return [(f1, f2) for f1, f2 in candidates if f1 not in banned and f2 not in banned]

    def _hexagon(self, triple) -> Optional[Tuple[Edge, Edge, Edge]]:
        """Targets of the hexagon pattern for an ordered edge triple, or None.

        For edges (a1,b1),(a2,b2),(a3,b3) the targets are (a1,b2),(a2,b3),
        (a3,b1); the move is valid only when those are chords and the closing
        pairs (a1,b3),(a2,b1),(a3,b2) are all forbidden.
        """
        (a1, b1), (a2, b2), (a3, b3) = triple
        targets = ((a1, b2), (a2, b3), (a3, b1))
        closing = ((a1, b3), (a2, b1), (a3, b2))
        banned = self.forbidden.pairs
        if any(t in banned for t in targets):
            return None
        if any(c not in banned for c in closing):
            return None
        return targets

    def swaps(self, edges: List[Edge], free) -> Iterator[tuple]:
        """Every rewiring of the sorted edge list ``edges`` whose added pairs
        all pass the test ``free``, as (kind, removed, added): C4 moves from
        edge pairs first, then C6 moves from edge triples, each kind in edge
        order.  A C4 move is a disjoint pair with another matching; a C6
        move is a disjoint triple that ``_hexagon`` closes."""
        simple = self.kind == "simple"
        for e1, e2 in combinations(edges, 2):
            if not _disjoint(e1, e2) or simple and (e1[0] == e2[1] or e1[1] == e2[0]):
                continue
            for f1, f2 in self._alts(e1, e2):
                if free(f1) and free(f2):
                    yield "C4", (e1, e2), (f1, f2)
        if not self.use_c6:
            return
        banned = self.forbidden.pairs
        for i, e1 in enumerate(edges):
            for j, e2 in enumerate(edges[i + 1:], i + 1):
                # every hexagon through e1 then e2 closes on (e2[0], e1[1]),
                # and every one through e1 then e3 then e2 on (e1[0], e2[1])
                if not _disjoint(e1, e2) or (
                    (e2[0], e1[1]) not in banned and (e1[0], e2[1]) not in banned
                ):
                    continue
                for e3 in edges[j + 1:]:
                    if not (_disjoint(e1, e3) and _disjoint(e2, e3)):
                        continue
                    for perm in ((e1, e2, e3), (e1, e3, e2)):
                        got = self._hexagon(perm)
                        if got is not None and all(map(free, got)):
                            yield "C6", perm, got

    def move_table(self, chords: int) -> List[Tuple[int, int, float]]:
        """The ``swaps`` among the chords in the bit mask ``chords``, as
        (removed bits, added bits, weight)."""
        bit = {c: 1 << i for i, c in enumerate(self.chords) if chords >> i & 1}
        weight = {"C4": self.c4_weight(), "C6": self.c6_weight()}
        return [(sum(map(bit.get, removed)), sum(map(bit.get, added)), weight[kind])
                for kind, removed, added in self.swaps(list(bit), bit.__contains__)]

    def weighted_neighbors(self, mask: int, rows) -> List[Tuple[int, float]]:
        return [(mask ^ rm ^ add, w) for rm, add, w in rows if mask & rm == rm and not mask & add]


def _disjoint(e1: Edge, e2: Edge) -> bool:
    return e1[0] != e2[0] and e1[1] != e2[1]


def simple_instance(degrees) -> Instance:
    return Instance("simple", degrees)


def bipartite_instance(
    u, w, forbidden: Optional[ForbiddenSet] = None, c4_only: bool = False
) -> Instance:
    return Instance("bipartite", (u, w), forbidden, c4_only)


def directed_instance(dd, c4_only: bool = False) -> Instance:
    """Gale representation: out-stubs vs in-stubs with the diagonal forbidden."""
    bd, f = dd.gale_representation()
    return Instance("bipartite", (bd.u_degrees, bd.w_degrees), f, c4_only)


def enumerate_swaps(g, f: Optional[ForbiddenSet] = None) -> List[SwapMove]:
    """Every valid swap from a realization, deduplicated.

    C4 moves are enumerated for all graph kinds; C6 moves only for bipartite
    realizations with a forbidden partial 1-factor, where they are required
    for irreducibility.  An edge outside the vertex classes, a loop or a
    forbidden pair raises ValueError.  The moves come from the realization's
    own edges, C4 moves from its edge pairs and C6 moves from its edge
    triples, so no chord list is built; they come C4 first, each kind in
    chord order, which is the edges' sorted order.
    """
    if isinstance(g, LabeledGraph):
        if f is not None and len(f):
            raise ValueError("forbidden sets apply to bipartite realizations")
        _require_in_range(g.edges, g.n, g.n)
        inst = simple_instance(g.degrees())
    elif isinstance(g, LabeledBipartiteGraph):
        _require_in_range(g.edges, g.nu, g.nw)
        inst = bipartite_instance(g.u_degrees(), g.w_degrees(), f)
    else:
        raise TypeError("expected a LabeledGraph or LabeledBipartiteGraph")
    simple = inst.kind == "simple"
    banned = inst.forbidden.pairs
    for e in g.edges:
        if e in banned or simple and e[0] == e[1]:
            raise ValueError("edge %r is not a chord: a loop or a forbidden pair" % (e,))
    has = g.edges
    return [SwapMove(*move) for move in inst.swaps(sorted(has), lambda pair: pair not in has)]


def _require_in_range(edges, rows: int, cols: int) -> None:
    for e in sorted(edges):
        if not (0 <= e[0] < rows and 0 <= e[1] < cols):
            raise ValueError("edge %r is outside the %d x %d vertex range" % (e, rows, cols))
