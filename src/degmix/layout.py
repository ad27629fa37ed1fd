"""Where each canonical factor sits inside the composed graph.

By the structure theorem the realizations of a composed sequence are the
Cartesian product of its factors' realizations, with the composition edges
forced.  A ``Layout`` writes that product down once; the sampler assembles
draws through it, and the exhaustive engine projects realizations and
assigns vertex blocks through it.

Slots follow one convention, the canonical non-increasing order of the
composed sequence: factors in composition order take their primary class
from the front of the slots and their secondary class from the back.  A
caller that numbers vertices otherwise passes ids that absorb the
permutation.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .decomposition import CanonicalDecomposition, psi
from .graphs import Instance, bipartite_instance, simple_instance
from .sequences import BipartiteDegreeSequence, _havel_hakimi_edges, realize_bipartite

Edge = Tuple[int, int]


class Layout:
    """Factor instances, their local-to-global vertex maps, and the forced
    edges.  ``u_maps[k][a]`` names factor k's vertex a on its first side
    (every vertex of a simple factor), ``w_maps[k][b]`` vertex b on its
    second.  On a simple graph an edge is an increasing id pair; on a
    bipartite one it is (u id, w id)."""

    def __init__(
        self,
        factors: List[Instance],
        u_maps: List[Sequence[int]],
        w_maps: List[Sequence[int]],
        forced: Optional[List[Edge]] = None,
        simple: bool = True,
    ):
        self.factors = factors
        self.u_maps = u_maps
        self.w_maps = w_maps
        self.forced: List[Edge] = [] if forced is None else forced
        self.simple = simple

    @cached_property
    def starts(self) -> List[List[Edge]]:
        """One start realization per factor, as a sorted edge list.  A
        simple factor goes straight to Havel–Hakimi, which raises
        NotGraphical itself: its sequence was tested on the way in."""
        return [
            _havel_hakimi_edges(inst.degrees)
            if inst.kind == "simple"
            else realize_bipartite((inst.u_degrees, inst.w_degrees), inst.forbidden)
            for inst in self.factors
        ]

    def edge(self, k: int, e: Edge) -> Edge:
        x, y = self.u_maps[k][e[0]], self.w_maps[k][e[1]]
        return (y, x) if self.simple and y < x else (x, y)

    def edges(self, local: Iterable[Iterable[Edge]]) -> List[Edge]:
        """Sorted edges of the whole graph: the forced ones plus each
        factor's local edges, given in factor order."""
        out = list(self.forced)
        for k, edges in enumerate(local):
            out.extend(self.edge(k, e) for e in edges)
        out.sort()
        return out

    def owners(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Factor index of each vertex id on the first and the second side
        (one shared map on a simple graph)."""
        u_own: Dict[int, int] = {}
        w_own = u_own if self.simple else {}
        for k, (u_map, w_map) in enumerate(zip(self.u_maps, self.w_maps)):
            u_own.update(dict.fromkeys(u_map, k))
            w_own.update(dict.fromkeys(w_map, k))
        return u_own, w_own


def nested_layout(
    blocks: Sequence[Instance],
    tail: Optional[Instance],
    u_ids: Sequence[int],
    w_ids: Optional[Sequence[int]] = None,
) -> Layout:
    """Layout of bipartite ``blocks`` composed in order.

    Without ``w_ids`` the graph is simple, on one line of slots named by
    ``u_ids``: each block's primary class is a clique joined to every slot
    between its two classes, and ``tail`` takes the slots left in the
    middle.  With ``w_ids`` the graph is bipartite, and each block's primary
    class is joined to the secondary slots in front of its own.
    """
    simple = w_ids is None
    w_ids = u_ids if simple else w_ids
    layout = Layout(list(blocks), [], [], [], simple)
    lo, hi = 0, len(w_ids)
    for inst in blocks:
        u = [u_ids[x] for x in range(lo, lo + inst.nu)]
        layout.u_maps.append(u)
        layout.w_maps.append([w_ids[x] for x in range(hi - inst.nw, hi)])
        lo, hi = lo + inst.nu, hi - inst.nw
        if simple:
            middle = [u_ids[x] for x in range(lo, hi)]
            for i, a in enumerate(u):
                layout.forced.extend((min(a, b), max(a, b)) for b in u[i + 1:] + middle)
        else:
            layout.forced.extend((a, w_ids[x]) for a in u for x in range(hi))
    if tail is not None:
        slots = [u_ids[x] for x in range(lo, hi)]
        layout.factors.append(tail)
        layout.u_maps.append(slots)
        layout.w_maps.append(slots)
    return layout


def split_layout(cd: CanonicalDecomposition, ids: Sequence[int]) -> Layout:
    """Layout of a simple sequence over its canonical decomposition;
    ``ids[x]`` names the vertex at sorted position x."""
    blocks = [bipartite_instance(*psi(comp).canonical()) for comp in cd.components]
    tail = None
    if cd.tail is not None and cd.tail.n:
        tail = simple_instance(cd.tail.sorted_degrees)
    return nested_layout(blocks, tail, ids)


def factor_layout(
    factors: Sequence[BipartiteDegreeSequence], u_ids: Sequence[int], w_ids: Sequence[int]
) -> Layout:
    """Layout of a bipartite sequence over its canonical factors; the ids
    name the vertices at sorted class positions."""
    blocks = [bipartite_instance(*f.canonical()) for f in factors]
    return nested_layout(blocks, None, u_ids, w_ids)
