"""Lazy swap Markov chains and the factorized product chain.

``sample`` is the front door: it factorizes the target sequence through the
canonical decomposition, runs one lazy swap chain per indecomposable factor
(each over its own small realization space), and reassembles full labeled
realizations by materializing the forced composition edges — the clique
inside each primary class and the complete join from a primary class to
everything to its right.  Those forced edges never participate in swaps, so
the product of the factor chains walks exactly the realization space of the
composed sequence.

Bipartite, directed and forbidden-set factors start from the greedy
``realize_bipartite``, which also decides their graphicality; simple ones
start from Havel–Hakimi.

``run`` is the only step loop: ``sample``, ``dsm_sample`` and the empirical
TV audit take every step through it.  It draws from ``getrandbits`` the way
CPython's ``random`` module does, so a one-step reference written with
``Random.sample`` and ``Random.randrange`` (``tests/legacy_oracles.py``)
consumes every RNG call for call like it and leaves the same edges and RNG
states; ``tests/test_chain.py`` pins ``run`` to that reference on the
running interpreter.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

from .decomposition import canonical_decompose, canonical_decompose_bipartite
from .errors import NotGraphical
from .graphs import Edge, Instance, bipartite_instance, directed_instance, simple_instance
from .layout import Layout, factor_layout, nested_layout, split_layout
from .sequences import (
    BipartiteDegreeSequence,
    DegreeSequence,
    DirectedDegreeSequence,
    ForbiddenSet,
    erdos_gallai,
    gale_ryser,
    realize_bipartite,
)

__all__ = [
    "ChainState",
    "ProductChain",
    "run",
    "sample",
    "derive_seed",
    "build_product_chain",
]


def derive_seed(master: int, index: int) -> int:
    """Counter-based child seed: sha256("degmix:<master>:<index>") first 8 bytes."""
    import hashlib  # loads OpenSSL; only the jobs that seed a chain pay for it

    digest = hashlib.sha256(b"degmix:%d:%d" % (master, index)).digest()
    return int.from_bytes(digest[:8], "big")


class ChainState:
    """One swap chain: the current realization as an edge list, and its RNG
    stream.  The list starts sorted and is updated by swap-with-last; which
    edges a draw picks depends on that order, so it is part of the
    seed-to-draw mapping."""

    def __init__(self, instance: Instance, edges: Iterable[Edge], rng: random.Random):
        self.instance = instance
        self.edges: List[Edge] = sorted(edges)
        self.rng = rng
        self._pos = {e: i for i, e in enumerate(self.edges)}

    @property
    def mask(self) -> int:
        """The realization as the exhaustive engine's bitmask."""
        return self.instance.mask_of_edges(self.edges)

    @property
    def graph(self):
        return self.instance.graph_of_mask(self.mask)

    def _apply(self, removed: Sequence[Edge], added: Sequence[Edge]) -> None:
        edges, pos = self.edges, self._pos
        for e in removed:
            i = pos.pop(e)
            last = edges.pop()
            if last != e:  # swap-with-last removal
                edges[i] = last
                pos[last] = i
        for e in added:
            pos[e] = len(edges)
            edges.append(e)


class ProductChain:
    """Independent coordinate chains advanced one uniformly chosen at a time."""

    def __init__(self, coordinates: List[ChainState], rng: random.Random):
        self.coordinates = coordinates
        self.rng = rng

    def masks(self) -> Tuple[int, ...]:
        return tuple(c.mask for c in self.coordinates)


# Random.sample keeps a pool list for populations up to this size and a set
# of drawn indices above it, for samples of at most 5.
_POOL_MAX = 21


def _fixed(state: ChainState):
    """What ``run`` reads of one coordinate: its RNG's bound methods, its
    edge list and position map (mutated in place), and the data that no
    swap changes."""
    inst, m = state.instance, len(state.edges)
    return (
        state.rng.random,
        state.rng.getrandbits,
        state,
        state.edges,
        state._pos,
        m,
        m <= _POOL_MAX,
        inst.disjoint_pairs > 0 and m >= 2,
        inst.use_c6,
        inst.kind == "simple",
        inst.forbidden.pairs,
        inst.matchings,
    )


def run(chain: ProductChain, steps: int) -> ProductChain:
    """``steps`` lazy transitions of the product chain; the sampler's hot loop.

    Each step picks a coordinate uniformly, stays with probability 1/2, and
    otherwise proposes a C4 swap (or, on a forbidden 1-factor, a C4 or a C6
    swap with probability 1/2 each).  Every draw goes through ``getrandbits``
    exactly as CPython's ``Random._randbelow_with_getrandbits`` and
    ``Random.sample`` make it, so seeded draws match a reference written
    with ``Random.sample`` and ``Random.randrange``.
    """
    coords = chain.coordinates
    k = len(coords)
    if not k:
        return chain
    fixed = [_fixed(c) for c in coords]
    select = chain.rng.getrandbits
    k_bits = k.bit_length()
    for _ in range(steps):
        i = select(k_bits)
        while i >= k:
            i = select(k_bits)
        coin, bits, state, edges, pos, m, pool, c4, c6, simple, banned, matchings = fixed[i]
        if coin() < 0.5:
            continue  # lazy half
        if c6 and coin() >= 0.5:
            if m < 3:
                continue
            # Random.sample(edges, 3)
            nb = m.bit_length()
            j1 = bits(nb)
            while j1 >= m:
                j1 = bits(nb)
            if pool:
                nb1, nb2 = (m - 1).bit_length(), (m - 2).bit_length()
                j2 = bits(nb1)
                while j2 >= m - 1:
                    j2 = bits(nb1)
                j3 = bits(nb2)
                while j3 >= m - 2:
                    j3 = bits(nb2)
                # undo the pool's moves of its last items into the vacancies
                j3 = m - 2 if j3 == j2 else j3
                j2 = m - 1 if j2 == j1 else j2
                j3 = m - 1 if j3 == j1 else j3
            else:
                j2 = bits(nb)
                while j2 >= m or j2 == j1:
                    j2 = bits(nb)
                j3 = bits(nb)
                while j3 >= m or j3 == j1 or j3 == j2:
                    j3 = bits(nb)
            (a1, b1), (a2, b2), (a3, b3) = e1, e2, e3 = edges[j1], edges[j2], edges[j3]
            if a1 == a2 or a1 == a3 or a2 == a3 or b1 == b2 or b1 == b3 or b2 == b3:
                continue
            # Instance._hexagon: the closing pairs forbidden, the targets not
            if (a1, b3) not in banned or (a2, b1) not in banned or (a3, b2) not in banned:
                continue
            f1, f2, f3 = (a1, b2), (a2, b3), (a3, b1)
            if f1 in banned or f2 in banned or f3 in banned:
                continue
            if f1 in pos or f2 in pos or f3 in pos:
                continue
            state._apply((e1, e2, e3), (f1, f2, f3))
            continue
        if not c4:
            continue
        nb, nb1 = m.bit_length(), (m - 1).bit_length()
        while True:  # Random.sample(edges, 2) until the pair is vertex-disjoint
            j1 = bits(nb)
            while j1 >= m:
                j1 = bits(nb)
            if pool:
                j2 = bits(nb1)
                while j2 >= m - 1:
                    j2 = bits(nb1)
                if j2 == j1:
                    j2 = m - 1
            else:
                j2 = bits(nb)
                while j2 >= m or j2 == j1:
                    j2 = bits(nb)
            (a1, b1), (a2, b2) = e1, e2 = edges[j1], edges[j2]
            if a1 == a2 or b1 == b2 or simple and (a1 == b2 or b1 == a2):
                continue
            break
        pick = bits(2)  # Random.randrange(matchings); 2 and 3 both take 2 bits
        while pick >= matchings:
            pick = bits(2)
        if pick == 0:
            continue  # drew the current matching
        if simple:  # Instance._alts, in its order
            x, y = (a2, b2) if pick == 1 else (b2, a2)
            f1 = (a1, x) if a1 < x else (x, a1)
            f2 = (b1, y) if b1 < y else (y, b1)
        else:
            f1, f2 = (a1, b2), (a2, b1)
            if f1 in banned or f2 in banned:
                continue
        if f1 in pos or f2 in pos:
            continue
        state._apply((e1, e2), (f1, f2))
    return chain


# ---------------------------------------------------------------------------
# sampling plans: the factor layout of the target sequence


def build_product_chain(plan: Layout, seed: int, stream: int = 0) -> ProductChain:
    """Seed a product chain: child seed 0 drives coordinate selection, child
    seed i >= 1 drives coordinate i."""
    base = derive_seed(seed, stream)
    coords = [
        ChainState(inst, edges, random.Random(derive_seed(base, i + 1)))
        for i, (inst, edges) in enumerate(zip(plan.factors, plan.starts))
    ]
    return ProductChain(coords, random.Random(derive_seed(base, 0)))


def _unfactored(inst: Instance, start: Optional[List[Edge]] = None) -> Layout:
    """One bipartite factor holding the whole graph, in the caller's order;
    ``start``, if given, is its start realization."""
    plan = nested_layout([inst], None, range(inst.nu), range(inst.nw))
    if start is not None:
        plan.starts = [start]
    return plan


def _greedy_start(bd, forbidden: ForbiddenSet, message: str) -> List[Edge]:
    """A start realization from the greedy, which also decides
    graphicality: NotGraphical(message) when there is none."""
    try:
        return realize_bipartite(bd, forbidden)
    except NotGraphical:
        raise NotGraphical(message) from None


def _make_plan(d, forbidden: Optional[ForbiddenSet], factorize: str) -> Layout:
    # The canonical decompositions test graphicality themselves, and so does
    # the greedy that realizes a directed or forbidden-set start; only the
    # factorize-off paths test it here.
    if isinstance(d, DirectedDegreeSequence):
        start = _greedy_start(*d.gale_representation(), "directed sequence is not graphical")
        # No factorization path for directed input: the composition theory
        # builds directed classes from given factors, it does not factor an
        # arbitrary forbidden-1-factor instance.
        return _unfactored(directed_instance(d), start)
    if isinstance(d, BipartiteDegreeSequence):
        if forbidden is not None and len(forbidden):
            start = _greedy_start(d, forbidden, "no realization avoids the forbidden set")
            return _unfactored(bipartite_instance(d.u_degrees, d.w_degrees, forbidden), start)
        if factorize == "off":
            if not gale_ryser(d):
                raise NotGraphical("sequence is not graphical")
            return _unfactored(bipartite_instance(d.u_degrees, d.w_degrees))
        factors = canonical_decompose_bipartite(d)
        u_order, w_order = DegreeSequence(d.u_degrees).order, DegreeSequence(d.w_degrees).order
        return factor_layout(factors, u_order, w_order)
    if not isinstance(d, DegreeSequence):
        d = DegreeSequence(d)
    if forbidden is not None and len(forbidden):
        raise ValueError("forbidden sets apply to bipartite/directed sequences")
    if factorize == "off":
        if not erdos_gallai(d):
            raise NotGraphical("sequence is not graphical: %r" % (d.degrees,))
        return nested_layout([], simple_instance(d.degrees), range(d.n))
    return split_layout(canonical_decompose(d), d.order)


def _assemble(plan: Layout, coords: Sequence[ChainState]) -> List[Edge]:
    """The whole graph for the coordinates' current edges."""
    return plan.edges(c.edges for c in coords)


def _sample_stream(plan: Layout, seed: int, stream: int, quota: int, burn_in: int, thin: int):
    pc = build_product_chain(plan, seed, stream=stream)
    run(pc, burn_in)
    out = []
    for _ in range(quota):
        run(pc, thin)
        out.append(_assemble(plan, pc.coordinates))
    return out


def sample(
    d,
    burn_in: int,
    thin: int,
    count: int,
    seed: int,
    factorize: str = "auto",
    forbidden: Optional[ForbiddenSet] = None,
    jobs: int = 1,
):
    """Draw ``count`` realizations of ``d``.

    Returns a list of sorted edge lists: (i, j) pairs for simple sequences,
    (u, w) class pairs for bipartite ones, (tail, head) arcs for directed
    ones, all in the caller's vertex order.  The stream is split over
    min(count, 8) logical chains seeded from ``seed`` by counter derivation;
    ``jobs`` only schedules those chains onto workers, so output is identical
    and deterministically ordered for any ``jobs``.
    """
    if count <= 0:
        return []
    if thin < 1:
        raise ValueError("thin must be >= 1")
    plan = _make_plan(d, forbidden, factorize)
    n_chains = min(count, 8)
    per = [count // n_chains] * n_chains
    for i in range(count % n_chains):
        per[i] += 1
    tasks = [(plan, seed, c, quota, burn_in, thin) for c, quota in enumerate(per)]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        plan.starts  # realize once here, not again in every worker's copy

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunks = list(pool.map(_sample_stream, *zip(*tasks)))
    else:
        chunks = [_sample_stream(*t) for t in tasks]
    return [edges for chunk in chunks for edges in chunk]
