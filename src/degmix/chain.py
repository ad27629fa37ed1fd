"""Lazy swap Markov chains and the factorized product chain.

``sample`` is the front door: it factorizes the target sequence through the
canonical decomposition, runs one lazy swap chain per indecomposable factor
(each over its own small realization space), and reassembles full labeled
realizations by materializing the forced composition edges — the clique
inside each primary class and the complete join from a primary class to
everything to its right.  Those forced edges never participate in swaps, so
the product of the factor chains walks exactly the realization space of the
composed sequence.

Bipartite and directed factors start from the greedy ``realize_bipartite``,
simple ones from Havel–Hakimi.  Directed input, a forbidden set and
``factorize="off"`` give a plan of one factor, the whole graph with no
forced edges, and its start realization decides graphicality; a factorized
plan is tested by its canonical decomposition.

``run`` is the only step loop: ``sample``, ``dsm_sample`` and the empirical
TV audit take every step through it.  Its draws rest on ``getrandbits``
alone, in a procedure of degmix's own (see ``run``), so a seed gives the same
draws on any interpreter whose ``getrandbits`` gives the same bits.  The
factor chains are independent, each on its own RNG, so ``run`` counts how
many of a block's moves fall on each factor and then steps each factor
through its share in one stretch.  A plain reference of the procedure,
``reference_run`` in ``tests/legacy_oracles.py``, interleaves the moves one
at a time, consumes every RNG call for call like ``run``, and leaves the
same edges and RNG states; ``tests/test_chain.py`` pins ``run`` to it.
"""

from __future__ import annotations

import random
from math import ceil, log, sqrt
from typing import Iterable, List, Optional, Sequence, Tuple

# hashlib loads OpenSSL, so try the lean builtin sha256 first, as ``random``
# does for its sha512.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from . import _EXPORTS
from .decomposition import SplitSequence, canonical_decompose, canonical_decompose_bipartite
from .errors import NotGraphical
from .graphs import Edge, Instance, bipartite_instance, directed_instance, simple_instance
from .layout import Layout, factor_layout, split_layout
from .sequences import (
    BipartiteDegreeSequence,
    DegreeSequence,
    DirectedDegreeSequence,
    ForbiddenSet,
)

__all__ = _EXPORTS["chain"]


def derive_seed(master: int, index: int) -> int:
    """Counter-based child seed: sha256("degmix:<master>:<index>") first 8 bytes."""
    digest = _sha256(b"degmix:%d:%d" % (master, index)).digest()
    return int.from_bytes(digest[:8], "big")


class ChainState:
    """One swap chain: the current realization as an edge list, and its RNG
    stream, read only through ``getrandbits``.  The list starts sorted, and
    an accepted swap writes each added edge into the slot of the edge it
    replaces; which edges a draw picks depends on that order, so it is part
    of the seed-to-draw mapping."""

    def __init__(self, instance: Instance, edges: Iterable[Edge], rng: random.Random):
        self.instance = instance
        self.edges: List[Edge] = sorted(edges)
        self.rng = rng
        self._pos = {e: i for i, e in enumerate(self.edges)}
        m = len(self.edges)
        c4 = instance.disjoint_pairs > 0 and m >= 2
        self._live = _can_move(instance)
        # What ``run`` reads of the chain besides its RNG: the edge list and
        # position map (mutated in place) and the data that no swap changes,
        # with the bit widths of randbelow(m), randbelow(m - 1),
        # randbelow(m - 2) and randbelow(matchings).
        self._fixed = (
            self.edges,
            self._pos,
            m,
            (m - 1).bit_length(),
            (m - 2).bit_length(),
            (m - 3).bit_length(),
            c4,
            instance.use_c6,
            instance.kind == "simple",
            instance.forbidden.pairs,
            instance.matchings,
            (instance.matchings - 1).bit_length(),
        )

    def _apply(self, j1: int, f1: Edge, j2: int, f2: Edge, j3: int = -1,
               f3: Optional[Edge] = None) -> None:
        """An accepted swap: edge ``f1`` replaces the edge in slot ``j1``, and
        so on.  The only place a chain's edges change."""
        edges, pos = self.edges, self._pos
        del pos[edges[j1]], pos[edges[j2]]
        edges[j1], edges[j2] = f1, f2
        pos[f1], pos[f2] = j1, j2
        if f3 is not None:
            del pos[edges[j3]]
            edges[j3] = f3
            pos[f3] = j3


def _can_move(instance: Instance) -> bool:
    """Whether a move of a chain on ``instance`` can draw at all: one with
    neither a C4 nor a C6 proposal draws nothing and stays.  (A vertex-
    disjoint edge pair needs two edges.)"""
    return instance.disjoint_pairs > 0 or instance.use_c6


class ProductChain:
    """Independent coordinate chains advanced one uniformly chosen at a time.

    ``run`` steps each coordinate's share of a block of moves in one stretch,
    which leaves the same states as interleaving the moves only because the
    selector and every coordinate own distinct RNG objects, as
    ``build_product_chain`` makes them."""

    def __init__(self, coordinates: List[ChainState], rng: random.Random):
        self.coordinates = coordinates
        self.rng = rng


# Lazy coins are drawn in blocks of at most this many bits, so a long run
# holds one block at a time.
_BLOCK = 1 << 16
# A block's coordinate picks are drawn at most this many 32-bit words (8 KiB)
# at a time, so the ~2**15 picks of a block never sit in one 128 KiB integer.
_WORDS = 1 << 11


def _picks(bits, k: int, moves: int, live: List[int]) -> List[int]:
    """How many of ``moves`` randbelow(k) picks, k >= 2, land on each
    coordinate in ``live``; the others are not counted.

    The picks draw word for word what ``moves`` calls of randbelow(k) would
    draw.  A call ``getrandbits(b)``, b <= 32, takes one 32-bit word and
    keeps its top b bits, and ``getrandbits(32 * c)`` returns the next c
    words, the first in its lowest 32 bits.  Every pick takes at least one
    word, so drawing no more words than picks still needed never draws a
    word the calls would not have drawn.
    """
    counts = [0] * k
    nb = (k - 1).bit_length()
    if k > 256:
        for _ in range(moves):
            i = bits(nb)
            while i >= k:
                i = bits(nb)
            counts[i] += 1
        return counts
    # the top byte of a word -> its pick, or 255 where the pick is rejected
    table = b"".join(bytes((v if v < k else 255,)) * (256 >> nb) for v in range(1 << nb))
    while moves:
        c = min(moves, _WORDS)
        top = bits(32 * c).to_bytes(4 * c, "little")[3::4].translate(table)
        for i in live:
            counts[i] += top.count(i)
        moves -= c if k == 256 else c - top.count(255)
    return counts


def _moves(state: ChainState, n: int) -> None:
    """``n`` moves of one coordinate, each a proposal that is accepted or
    stays; see ``run``."""
    draw, apply = state.rng.getrandbits, state._apply
    edges, pos, m, nb0, nb1, nb2, c4, c6, simple, banned, matchings, nbp = state._fixed
    for _ in range(n):
        if c6 and draw(1):
            if m < 3:
                continue  # no hexagon: the C6 half stays
            j1 = draw(nb0)
            while j1 >= m:
                j1 = draw(nb0)
            j2 = draw(nb1)
            while j2 >= m - 1:
                j2 = draw(nb1)
            if j2 >= j1:
                j2 += 1
            (a1, b1), (a2, b2) = edges[j1], edges[j2]
            if a1 == a2 or b1 == b2 or (a2, b1) not in banned:
                continue  # no hexagon closes on this pair
            j3 = draw(nb2)
            while j3 >= m - 2:
                j3 = draw(nb2)
            if j3 >= min(j1, j2):
                j3 += 1
            if j3 >= max(j1, j2):
                j3 += 1
            a3, b3 = edges[j3]
            if a3 == a1 or a3 == a2 or b3 == b1 or b3 == b2:
                continue
            # Instance._hexagon: the closing pairs forbidden, the targets not
            if (a1, b3) not in banned or (a3, b2) not in banned:
                continue
            f1, f2, f3 = (a1, b2), (a2, b3), (a3, b1)
            if f1 in banned or f2 in banned or f3 in banned:
                continue
            if f1 in pos or f2 in pos or f3 in pos:
                continue
            apply(j1, f1, j2, f2, j3, f3)
            continue
        if not c4:
            continue
        pick = draw(nbp)
        while pick >= matchings:
            pick = draw(nbp)
        if not pick:
            continue  # drew the current matching
        while True:  # a uniform pair of distinct edges until it is vertex-disjoint
            j1 = draw(nb0)
            while j1 >= m:
                j1 = draw(nb0)
            j2 = draw(nb1)
            while j2 >= m - 1:
                j2 = draw(nb1)
            if j2 >= j1:
                j2 += 1
            (a1, b1), (a2, b2) = edges[j1], edges[j2]
            if a1 == a2 or b1 == b2 or simple and (a1 == b2 or b1 == a2):
                continue
            break
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
        apply(j1, f1, j2, f2)


def run(chain: ProductChain, steps: int) -> ProductChain:
    """``steps`` lazy transitions of the product chain; the sampler's hot loop.

    Each step stays with probability 1/2; otherwise it picks a coordinate
    uniformly and proposes a C4 swap (or, on a forbidden 1-factor, a C4 or a
    C6 swap with probability 1/2 each).  The lazy coins only count the moves:
    a block of b steps makes popcount(getrandbits(b)) of them.  Every draw is
    randbelow(n), ``getrandbits((n - 1).bit_length())`` with rejection; the
    second and third edges are randbelow(m - 1) and randbelow(m - 2) shifted
    past the edges already drawn.  A C4 proposal draws its matching first and
    stays on the current one without drawing edges; a C6 proposal draws its
    third edge only once the first two can close a hexagon.

    A block's moves are counted per coordinate from their randbelow(K)
    picks, and then each coordinate makes its moves in one stretch.  A
    coordinate's moves draw from its own RNG alone and the picks from the
    selector's, so every RNG sees the draws it would see with the moves
    interleaved, and the states are the same.
    """
    coords = chain.coordinates
    k = len(coords)
    if not k:
        return chain
    live = [i for i, c in enumerate(coords) if c._live]
    bits = chain.rng.getrandbits
    while steps > 0:
        block = min(steps, _BLOCK)
        steps -= block
        moves = bits(block).bit_count()  # the non-lazy steps
        counts = [moves] if k == 1 else _picks(bits, k, moves, live)
        for i in live:
            if counts[i]:
                _moves(coords[i], counts[i])
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


def _as_sequence(d):
    """``d`` as a directed, bipartite or simple degree sequence.  A split
    sequence becomes its degree sequence (its u-then-w order is already
    non-increasing), and any other value the ``DegreeSequence`` of its
    entries, which checks them."""
    if isinstance(d, (DirectedDegreeSequence, BipartiteDegreeSequence, DegreeSequence)):
        return d
    if isinstance(d, SplitSequence):
        return d.degree_sequence()
    return DegreeSequence(d)


def _instance_for(d, forbidden: Optional[ForbiddenSet] = None, c4_only: bool = False) -> Instance:
    """The whole-graph instance of ``d``, a directed one in its Gale
    representation; forbidden pairs apply to bipartite input alone."""
    d = _as_sequence(d)
    if isinstance(d, DirectedDegreeSequence):
        return directed_instance(d, c4_only)
    if isinstance(d, BipartiteDegreeSequence):
        return bipartite_instance(d.u_degrees, d.w_degrees, forbidden, c4_only)
    if forbidden is not None and len(forbidden):
        raise ValueError("forbidden sets apply to bipartite/directed sequences")
    return simple_instance(d.degrees)


def _make_plan(d, forbidden: Optional[ForbiddenSet], factorize: str) -> Layout:
    # Directed and forbidden-set input have no factorization path (the
    # composition theory builds such classes from given factors, it does not
    # factor an arbitrary instance), and factorize off skips it on purpose.
    # Either way the plan is one factor, the whole graph, and its start
    # realization (Havel–Hakimi or the greedy) decides graphicality; the
    # canonical decompositions test graphicality themselves.
    d = _as_sequence(d)
    restricted = forbidden is not None and len(forbidden)
    if isinstance(d, DirectedDegreeSequence) or restricted or factorize == "off":
        try:
            inst = _instance_for(d, forbidden)
            simple = inst.kind == "simple"
            u_ids = list(range(inst.n if simple else inst.nu))
            w_ids = u_ids if simple else list(range(inst.nw))
            plan = Layout([inst], [u_ids], [w_ids], [], simple)
            plan.starts
        except NotGraphical:
            if isinstance(d, DirectedDegreeSequence):
                message = "directed sequence is not graphical"
            elif restricted:
                message = "no realization avoids the forbidden set"
            elif isinstance(d, BipartiteDegreeSequence):
                message = "sequence is not graphical"
            else:
                message = "sequence is not graphical: %r" % (d.degrees,)
            raise NotGraphical(message) from None
        return plan
    if isinstance(d, BipartiteDegreeSequence):
        factors = canonical_decompose_bipartite(d)
        u_order, w_order = DegreeSequence(d.u_degrees).order, DegreeSequence(d.w_degrees).order
        return factor_layout(factors, u_order, w_order)
    return split_layout(canonical_decompose(d), d.order)


def _assemble(plan: Layout, coords: Sequence[ChainState]) -> List[Edge]:
    """The whole graph for the coordinates' current edges."""
    return plan.edges(c.edges for c in coords)


# The ``auto`` schedule's steps per edge and unit of log(n/d).  On regular
# input a chain's overlap with its start decays as about m exp(-0.67 t / m)
# (ROADMAP, "Measured baseline"), so 1/0.67 is the calibration and 3 the
# safety factor: it leaves every input of the overlap audit's test within
# 3 standard errors, the regular directed one (whose moves are half C6
# proposals, which rarely apply) included.
_AUTO_C = 3 / 0.67


def _check_schedule(burn_in: int | str, thin: int | str) -> None:
    if thin != "auto" and thin < 1:
        raise ValueError("thin must be >= 1")
    if burn_in != "auto" and burn_in < 0:
        raise ValueError("burn_in must be >= 0")


def _auto_steps(plan: Layout) -> int:
    """The steps of ``auto`` burn-in and thinning for ``plan``:
    K * max_i ceil(c * m_i * ln(max(2, n_i / d_i))) over the factors i
    that can move, where K counts all factors (moves pick one uniformly),
    m_i is factor i's edge count, n_i its vertex count, d_i its mean degree
    and c is ``_AUTO_C``.  A rule calibrated on the measured decay of the
    start overlap, not a mixing certificate."""
    t = 0
    for inst in plan.factors:
        if inst.m and _can_move(inst):
            n = inst.n if inst.kind == "simple" else inst.nu + inst.nw
            t = max(t, ceil(_AUTO_C * inst.m * log(max(2.0, n * n / (2 * inst.m)))))
    return len(plan.factors) * t


def _schedule(plan: Layout, burn_in: int | str, thin: int | str) -> Tuple[int, int]:
    """``burn_in`` and ``thin`` with each ``"auto"`` resolved for ``plan``."""
    if "auto" in (burn_in, thin):
        t = _auto_steps(plan)
        burn_in = t if burn_in == "auto" else burn_in
        thin = max(1, t) if thin == "auto" else thin
    return burn_in, thin


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
    burn_in: int | str,
    thin: int | str,
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
    and deterministically ordered for any ``jobs``.  ``burn_in`` and
    ``thin`` are step counts, or ``"auto"``: the steps ``_auto_steps``
    gives for the plan, at least 1 for ``thin``.
    """
    _check_schedule(burn_in, thin)
    if factorize not in ("auto", "off"):
        raise ValueError("factorize must be 'auto' or 'off'")
    if count <= 0:
        return []
    plan = _make_plan(d, forbidden, factorize)
    burn_in, thin = _schedule(plan, burn_in, thin)
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


def overlap_audit(d, draws) -> Tuple[float, float, float]:
    """(mean, expected, standard error) of the draws' overlap with the start
    realization S of ``d``'s sampling plan (factorize auto).

    ``d`` is d-regular simple, biregular bipartite or regular directed, so
    under the uniform law each allowed pair is an edge with probability p:
    d/(n-1), d_u/n_w or d/(n-1), and the overlap has mean |S| p exactly.
    ``draws`` are edge lists as ``sample`` returns them, at least two and
    independent (one per logical chain); the standard error is their
    sample standard deviation over sqrt(len(draws)).  Necessary for
    uniformity, not sufficient.  Raises ``ValueError`` on irregular input.
    """
    d = _as_sequence(d)
    if isinstance(d, DirectedDegreeSequence):
        sides, others = (d.out_degrees + d.in_degrees,), d.n - 1
    elif isinstance(d, BipartiteDegreeSequence):
        sides, others = (d.u_degrees, d.w_degrees), d.nw
    else:
        sides, others = (d.degrees,), d.n - 1
    if any(len(set(side)) > 1 for side in sides):
        raise ValueError("the overlap audit needs regular or biregular input")
    if len(draws) < 2:
        raise ValueError("the overlap audit needs at least two draws")
    plan = _make_plan(d, None, "auto")
    start = set(plan.edges(plan.starts))
    overlaps = [sum(tuple(e) in start for e in edges) for edges in draws]
    k = len(overlaps)
    mean = sum(overlaps) / k
    var = sum((x - mean) ** 2 for x in overlaps) / (k - 1)
    p = sides[0][0] / others if sides[0] and others else 0.0
    return mean, len(start) * p, sqrt(var / k)
