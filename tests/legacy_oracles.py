"""Superseded implementations, kept unchanged as oracles.

These are the implementations the library used before its prefix-sum
rewrite, copied unchanged: ``erdos_gallai`` and ``gale_ryser`` are O(n^2),
``good_pairs`` and ``_bipartite_extractions`` re-sum slices inside both of
their loops, and the canonical decompositions rerun those scans on every
remainder.  ``test_scan_oracles.py`` checks that the library agrees with them.

``_havel_hakimi_edges`` re-sorts every round, O(n^2 log n), where the
library now keeps a heap; ``_sweep_conductance`` recomputes every prefix's
boundary with a matrix-vector product, O(n^3), where the library now sums a
difference array over the sparse kernel, and it sorts by column -2 of
``vecs``.

``_exact_conductance`` multiplies a 0/1 chunk of 65,536 subsets by the
transition matrix at a time, O(n^2 2^n), where the library now fills the
boundaries of all 2^n subsets by a recurrence in O(2^n).

``dense_sweep_report`` is the sweep path of ``spectral_report`` before it
moved to Lanczos iteration on the sparse kernel: a dense ``eigh`` of the
n x n transition matrix, the probe projected onto the lambda2 eigenspace,
and an O(n^2) sweep cut.  ``full_scan_kernel`` is ``Space.kernel`` before it
pruned the move table to the free chords: every state scans every row of
``move_table``, the whole-instance table that ``Instance`` cached before each
space built its own over its free chords (the body is unchanged, with
``self`` read as ``inst``).

``connected`` is ``Space.connected`` before its walk stopped early: it
reads the whole kernel, building it first if the space has none, and then
walks it from state 0 to the end.

``enumerate_swaps`` is the swap listing before it took its moves from the
realization's own edges: it builds ``move_table`` over every chord of the
instance and the chord index, then scans the table at the realization's
mask.  Like ``full_scan_kernel``, it reads none of the library's move
listing (``Instance.swaps`` and ``Instance.move_table``), only the swap
rules ``Instance._alts`` and ``Instance._hexagon``.

``_enumerate_masks`` is the realization enumeration before it took a walk
order from the degrees: it decides the chords in input-label order, one
recursive call per chord, so its cost depends on how the input numbers its
vertices and its depth grows with the chord count.

``_Dinic`` is the max flow that realized restricted bipartite sequences
before the Kleitman–Wang greedy; ``flow_realize`` is that realization, over
one arc per allowed pair, and it accepts any forbidden set.

``make_plan`` (with ``_unfactored`` and ``_greedy_start``) is the sampler's
front door before a plan of one factor reused the exhaustive engine's
instance builder: each unfactored kind built its own layout, directed and
forbidden-set starts came from a separate greedy call, and the factorize-off
paths ran an Erdős–Gallai or Gale–Ryser test before their start.  Its body
is unchanged; its graphicality tests and canonical decompositions resolve to
this module's versions, which ``test_scan_oracles.py`` pins to the library.

``component_sequences`` (with ``_validate``) and ``joint_degree_view`` are
the spectra matrix's class-pair reading before the consistency checks moved
into the loop that builds the components: ``_validate`` sums every class
pair's stubs in a pass of its own, and ``joint_degree_view`` sums them again
and returns one side's counts without checking the matrix.

``reference_run`` (with ``_reference_c4`` and ``_reference_c6``) is not a
superseded implementation but a plain statement of the swap chain's draw
procedure, built on the exhaustive engine's ``Instance._alts`` and
``Instance._hexagon``; ``chain.run`` inlines it and must consume every RNG
as it does.
"""

import random
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from degmix.chain import ChainState, ProductChain, _as_sequence
from degmix.decomposition import (
    CanonicalDecomposition,
    GoodPair,
    SplitSequence,
    _sorted_desc,
    psi,
)
from degmix.errors import InconsistentMatrix, InvalidSplit, NotGraphical, TooLarge
from degmix.graphs import (
    Edge,
    Instance,
    LabeledBipartiteGraph,
    LabeledGraph,
    SwapMove,
    _disjoint,
    _require_in_range,
    bipartite_instance,
    directed_instance,
    simple_instance,
)
from degmix.layout import Layout, factor_layout, nested_layout, split_layout
from degmix.sequences import (
    BipartiteDegreeSequence,
    DegreeSequence,
    DirectedDegreeSequence,
    ForbiddenSet,
    _coerce_bipartite,
    _coerce_simple,
    realize_bipartite,
)
from degmix.space import DEFAULT_MAX_CHORDS
from degmix.spectra import ComponentSequence, DegreeSpectraMatrix


def erdos_gallai(d) -> bool:
    """Erdős–Gallai test: is ``d`` the degree sequence of some simple graph?"""
    deg = sorted(_coerce_simple(d), reverse=True)
    n = len(deg)
    if n == 0:
        return True
    if deg[0] > n - 1:
        return False
    if sum(deg) % 2 != 0:
        return False
    # Prefix sums once; the k-th inequality uses sum of the k largest degrees.
    prefix = 0
    for k in range(1, n + 1):
        prefix += deg[k - 1]
        tail = sum(min(k, deg[i]) for i in range(k, n))
        if prefix > k * (k - 1) + tail:
            return False
    return True


def gale_ryser(bd) -> bool:
    """Gale–Ryser test: does ``bd`` have a simple bipartite realization?"""
    u, w = _coerce_bipartite(bd)
    if sum(u) != sum(w):
        return False
    if u and max(u) > len(w):
        return False
    if w and max(w) > len(u):
        return False
    us = sorted(u, reverse=True)
    prefix = 0
    for k in range(1, len(us) + 1):
        prefix += us[k - 1]
        if prefix > sum(min(wj, k) for wj in w):
            return False
    return True


def good_pairs(d) -> List[GoodPair]:
    """All (p, q) with 0 < p+q < n satisfying the decomposability identity
    sum(d_1..d_p) == p(n-q-1) + sum(d_{n-q+1}..d_n) on the sorted sequence."""
    ds = _sorted_desc(_coerce_simple(d))
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
    degrees = _coerce_simple(d)
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


def bipartite_decomposable(sb: BipartiteDegreeSequence) -> List[GoodPair]:
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
    sb: BipartiteDegreeSequence,
) -> List[BipartiteDegreeSequence]:
    """Factorization into indecomposable splitted bipartite sequences.

    Heads are extracted in ascending (p, q) order, skipping extractions with
    edge-less operands, taking the first indecomposable head each round; the
    result recomposes to the input exactly.
    """
    if not sb.is_graphical():
        raise NotGraphical(
            "not a graphical bipartite sequence: %r / %r"
            % (sb.u_degrees, sb.w_degrees)
        )
    cur = sb.canonical()
    factors: List[BipartiteDegreeSequence] = []
    while True:
        u, w = cur
        found = None
        for p, q in _bipartite_extractions(u, w, False):
            head, rest = _extract_bipartite(u, w, p, q)
            if _bip_indecomposable(*head):
                found = (head, rest)
                break
        if found is None:
            factors.append(BipartiteDegreeSequence(u, w))
            return factors
        head, rest = found
        factors.append(BipartiteDegreeSequence(*head))
        cur = rest


def _havel_hakimi_edges(degrees: Sequence[int]):
    """One simple-graph realization via Havel–Hakimi; assumes graphical input."""
    remaining = [[d, i] for i, d in enumerate(degrees)]
    edges = []
    while remaining:  # an empty sequence has the empty realization
        remaining.sort(key=lambda t: (-t[0], t[1]))
        d0, v0 = remaining[0]
        if d0 == 0:
            break
        if d0 > len(remaining) - 1:
            raise NotGraphical("sequence is not graphical")
        remaining[0][0] = 0
        for k in range(1, d0 + 1):
            remaining[k][0] -= 1
            if remaining[k][0] < 0:
                raise NotGraphical("sequence is not graphical")
            edges.append((min(v0, remaining[k][1]), max(v0, remaining[k][1])))
    return sorted(edges)


def _sweep_conductance(p: np.ndarray, vecs: np.ndarray) -> float:
    """Best sweep cut along the second eigenvector, column -2 of ``vecs``."""
    n = p.shape[0]
    order = np.argsort(vecs[:, -2])
    best = np.inf
    ind = np.zeros(n)
    for k in range(n - 1):
        ind[order[k]] = 1.0
        boundary = float(((ind @ p) * (1.0 - ind)).sum())
        best = min(best, boundary / min(k + 1, n - k - 1))
    return best


def _exact_conductance(p: np.ndarray) -> float:
    import numpy as np

    n = p.shape[0]
    best = np.inf
    row_ids = np.arange(1, 2 ** n - 1, dtype=np.uint64)
    for lo in range(0, len(row_ids), 1 << 16):
        chunk = row_ids[lo: lo + (1 << 16)]
        ind = (chunk[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
        sizes = ind.sum(axis=1)
        keep = 2 * sizes <= n  # stationary mass of S at most 1/2
        ind = ind[keep].astype(float)
        sizes = sizes[keep]
        if not len(sizes):
            continue
        boundary = ((ind @ p) * (1.0 - ind)).sum(axis=1)
        best = min(best, float(np.min(boundary / sizes)))
    return best


def _sweep_vector(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """A lambda2 eigenvector that does not depend on the solver's basis: the
    projection of a fixed vector onto the eigenspace spanned by the columns
    of ``vecs`` (below the top one) whose eigenvalues lie within 1e-9 of
    lambda2.  When lambda2 is degenerate, column -2 alone is an arbitrary
    member of that space and varies with the BLAS build.  The fixed vector
    is the sweep's probe, ``random.Random(0).random()`` per entry, so both
    project the same vector onto the same space."""
    basis = vecs[:, :-1][:, np.abs(vals[:-1] - vals[-2]) <= 1e-9]
    draw = random.Random(0).random
    probe = np.array([draw() for _ in range(vecs.shape[0])])
    return basis @ (basis.T @ probe)


def _dense_sweep_conductance(p: np.ndarray, x: np.ndarray) -> float:
    """Best sweep cut along ``x``, in O(n^2).

    The states are ordered by ``x`` (rounded, stably, so near-ties do not
    depend on rounding noise).  With ``p`` permuted into that order, the
    boundary of the first k + 1 states gains row k's mass right of the
    diagonal and loses column k's mass above it.
    """
    n = p.shape[0]
    order = np.argsort(np.round(x, 9), kind="stable")
    q = p[np.ix_(order, order)]
    q[np.tri(n, dtype=bool)] = 0.0  # keep the strict upper triangle
    boundary = np.cumsum(q.sum(axis=1) - q.sum(axis=0))[: n - 1]
    k = np.arange(1, n)
    return float(np.min(boundary / np.minimum(k, n - k)))


def dense_sweep_report(space) -> Tuple[float, float]:
    """(lambda2, sweep conductance) of a space from one dense solve."""
    p = space.transition_matrix()
    vals, vecs = np.linalg.eigh(p)
    phi = _dense_sweep_conductance(p, _sweep_vector(vals, vecs))
    return float(min(max(vals[-2], -1.0), 1.0)), phi


def move_table(inst: Instance) -> List[Tuple[int, int, SwapMove, float]]:
    """Every rewiring over the chords as (removed bits, added bits, move,
    transition weight), C4 rows first.  C4 rows cover each disjoint chord
    pair; C6 rows each unordered triple of pairwise-disjoint chords with
    the (at most one) hexagon orientation that ``_hexagon`` accepts."""
    bit = {c: 1 << i for i, c in enumerate(inst.chords)}
    simple = inst.kind == "simple"
    table = []
    w4 = inst.c4_weight()
    for e1, e2 in combinations(inst.chords, 2):
        if not _disjoint(e1, e2) or simple and (e1[0] == e2[1] or e1[1] == e2[0]):
            continue
        for f1, f2 in inst._alts(e1, e2):
            move = SwapMove("C4", (e1, e2), (f1, f2))
            table.append((bit[e1] | bit[e2], bit[f1] | bit[f2], move, w4))
    if inst.use_c6:
        w6 = inst.c6_weight()
        for e1, e2, e3 in combinations(inst.chords, 3):
            if not (_disjoint(e1, e2) and _disjoint(e1, e3) and _disjoint(e2, e3)):
                continue
            for perm in ((e1, e2, e3), (e1, e3, e2)):
                got = inst._hexagon(perm)
                if got is not None:
                    rm = bit[e1] | bit[e2] | bit[e3]
                    add = bit[got[0]] | bit[got[1]] | bit[got[2]]
                    table.append((rm, add, SwapMove("C6", perm, got), w6))
    return table


def full_scan_kernel(space):
    """Each state's neighbor index -> weight, from a scan of the whole move
    table per state."""
    idx = space.index()
    table = move_table(space.instance)
    return tuple(
        {idx[mask ^ rm ^ add]: w for rm, add, _, w in table
         if mask & rm == rm and not mask & add}
        for mask in space.masks
    )


def connected(space) -> bool:
    """Whether the swap moves join every realization; a space with none
    has no chain to join, which raises NotGraphical."""
    if not space.count:
        raise NotGraphical("no realizations")
    if space.count == 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for j in space.kernel[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == space.count


def enumerate_swaps(g, f: Optional[ForbiddenSet] = None) -> List[SwapMove]:
    """Every valid swap from a realization, deduplicated.

    C4 moves are enumerated for all graph kinds; C6 moves only for bipartite
    realizations with a forbidden partial 1-factor, where they are required
    for irreducibility.  An edge outside the vertex classes, a loop or a
    forbidden pair raises ValueError.
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
    mask = inst.mask_of_edges(g.edges)
    return [move for rm, add, move, _ in move_table(inst) if mask & rm == rm and not mask & add]


def _enumerate_masks(inst: Instance, max_chords: Optional[int]) -> Tuple[int, ...]:
    cap = DEFAULT_MAX_CHORDS if max_chords is None else max_chords
    k = len(inst.chords)
    if k > cap:
        raise TooLarge("instance has %d chords, cap is %d" % (k, cap))
    if inst.kind == "simple":
        targets = list(inst.degrees)
        endpoint = [(a, b) for a, b in inst.chords]
    else:
        targets = list(inst.u_degrees) + list(inst.w_degrees)
        endpoint = [(a, inst.nu + b) for a, b in inst.chords]
    slack = [0] * len(targets)
    for a, b in endpoint:
        slack[a] += 1
        slack[b] += 1
    if any(t > s for t, s in zip(targets, slack)):
        return ()
    rem = targets
    out: List[int] = []

    def dfs(idx: int, mask: int) -> None:
        if idx == k:
            out.append(mask)
            return
        a, b = endpoint[idx]
        slack[a] -= 1
        slack[b] -= 1
        if rem[a] <= slack[a] and rem[b] <= slack[b]:
            dfs(idx + 1, mask)
        if rem[a] > 0 and rem[b] > 0:
            rem[a] -= 1
            rem[b] -= 1
            dfs(idx + 1, mask | 1 << idx)
            rem[a] += 1
            rem[b] += 1
        slack[a] += 1
        slack[b] += 1

    dfs(0, 0)
    return tuple(sorted(out))


class _Dinic:
    """Integer max-flow solver (Dinic).  Each augmenting path is walked with
    an explicit stack, since its length grows with the number of vertices."""

    def __init__(self, n: int):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to = []
        self.cap = []

    def add_edge(self, a: int, b: int, cap: int) -> int:
        idx = len(self.to)
        self.head[a].append(idx)
        self.to.append(b)
        self.cap.append(cap)
        self.head[b].append(idx + 1)
        self.to.append(a)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for v in queue:
                for e in head[v]:
                    if cap[e] > 0 and level[to[e]] < 0:
                        level[to[e]] = level[v] + 1
                        queue.append(to[e])
            if level[t] < 0:
                return flow
            it = [0] * self.n
            path = []  # arcs from s to v; a dead end pops its arc
            v = s
            while True:
                if v == t:
                    pushed = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    flow += pushed
                    path.clear()
                    v = s
                elif it[v] < len(head[v]):
                    e = head[v][it[v]]
                    if cap[e] > 0 and level[to[e]] == level[v] + 1:
                        path.append(e)
                        v = to[e]
                    else:
                        it[v] += 1
                elif path:
                    v = to[path.pop() ^ 1]
                    it[v] += 1
                else:
                    break


def flow_realize(u, w, banned):
    """One bipartite realization avoiding the pairs ``banned``, from a max
    flow over the allowed pairs; None when there is none."""
    nu, nw = len(u), len(w)
    if sum(u) != sum(w):
        return None
    net = _Dinic(nu + nw + 2)
    src, snk = nu + nw, nu + nw + 1
    for i, ui in enumerate(u):
        net.add_edge(src, i, ui)
    for j, wj in enumerate(w):
        net.add_edge(nu + j, snk, wj)
    chord_edges = {}
    for i in range(nu):
        for j in range(nw):
            if (i, j) not in banned:
                chord_edges[(i, j)] = net.add_edge(i, nu + j, 1)
    if net.max_flow(src, snk) != sum(u):
        return None
    return sorted(pair for pair, e in chord_edges.items() if net.cap[e] == 0)


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


def make_plan(d, forbidden: Optional[ForbiddenSet], factorize: str) -> Layout:
    # The canonical decompositions test graphicality themselves, and so does
    # the greedy that realizes a directed or forbidden-set start; only the
    # factorize-off paths test it here.
    d = _as_sequence(d)
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
    if forbidden is not None and len(forbidden):
        raise ValueError("forbidden sets apply to bipartite/directed sequences")
    if factorize == "off":
        if not erdos_gallai(d):
            raise NotGraphical("sequence is not graphical: %r" % (d.degrees,))
        return nested_layout([], simple_instance(d.degrees), range(d.n))
    return split_layout(canonical_decompose(d), d.order)


def _validate(m: DegreeSpectraMatrix) -> None:
    degrees = m.implied_degrees()
    for v, d in enumerate(degrees):
        if d > m.delta:
            raise InconsistentMatrix("vertex %d has degree %d > delta" % (v, d))
    classes = m.degree_classes()
    for v, col in enumerate(m.columns):
        for i, cnt in enumerate(col, start=1):
            if cnt and i not in classes:
                raise InconsistentMatrix(
                    "vertex %d claims degree-%d neighbors but that class is empty"
                    % (v, i)
                )
    for i, vi in classes.items():
        for j, vj in classes.items():
            if i < j:
                if sum(m.columns[v][j - 1] for v in vi) != sum(
                    m.columns[u][i - 1] for u in vj
                ):
                    raise InconsistentMatrix(
                        "stub totals between classes %d and %d differ" % (i, j)
                    )
        if sum(m.columns[v][i - 1] for v in vi) % 2:
            raise InconsistentMatrix("odd stub total inside class %d" % i)


def component_sequences(m: DegreeSpectraMatrix) -> List[ComponentSequence]:
    """One component per unordered class pair with nonzero interaction."""
    _validate(m)
    classes = m.degree_classes()
    values = sorted(classes)
    out: List[ComponentSequence] = []
    for ai, i in enumerate(values):
        vi = classes[i]
        inner = tuple(m.columns[v][i - 1] for v in vi)
        if any(inner):
            out.append(ComponentSequence(i, i, vi, vi, inner, inner))
        for j in values[ai + 1:]:
            vj = classes[j]
            iu = tuple(m.columns[v][j - 1] for v in vi)
            iw = tuple(m.columns[u][i - 1] for u in vj)
            if any(iu) or any(iw):
                out.append(ComponentSequence(i, j, vi, vj, iu, iw))
    return out


def joint_degree_view(m: DegreeSpectraMatrix) -> Dict[Tuple[int, int], int]:
    """Derived joint degree matrix: edge counts between degree classes."""
    classes = m.degree_classes()
    out: Dict[Tuple[int, int], int] = {}
    for i, vi in classes.items():
        for j in classes:
            if i < j:
                cnt = sum(m.columns[v][j - 1] for v in vi)
                if cnt:
                    out[(i, j)] = cnt
        inner = sum(m.columns[v][i - 1] for v in vi)
        if inner:
            out[(i, i)] = inner // 2
    return out


def _randbelow(rng, n: int) -> int:
    """Uniform on range(n): ``getrandbits((n - 1).bit_length())`` with rejection."""
    k = (n - 1).bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _index_outside(rng, m: int, taken) -> int:
    """Uniform on the indices below ``m`` not in ``taken``: randbelow(m -
    len(taken)), shifted past each taken index in ascending order."""
    j = _randbelow(rng, m - len(taken))
    for t in sorted(taken):
        if j >= t:
            j += 1
    return j


def _reference_c4(state: ChainState) -> None:
    inst, rng, edges = state.instance, state.rng, state.edges
    if inst.disjoint_pairs == 0 or len(edges) < 2:
        return
    pick = _randbelow(rng, inst.matchings)
    if pick == 0:
        return  # drew the current matching
    while True:  # uniform over vertex-disjoint pairs, by rejection
        j1 = _index_outside(rng, len(edges), ())
        j2 = _index_outside(rng, len(edges), (j1,))
        e1, e2 = edges[j1], edges[j2]
        if e1[0] == e2[0] or e1[1] == e2[1]:
            continue
        if inst.kind == "simple" and (e1[0] == e2[1] or e1[1] == e2[0]):
            continue
        break
    alts = inst._alts(e1, e2)
    if pick - 1 >= len(alts):
        return  # target pair includes a forbidden pair
    f1, f2 = alts[pick - 1]
    if f1 in state._pos or f2 in state._pos:
        return  # would create a multi-edge
    state._apply(j1, f1, j2, f2)


def _reference_c6(state: ChainState) -> None:
    inst, rng, edges = state.instance, state.rng, state.edges
    if len(edges) < 3:
        return
    j1 = _index_outside(rng, len(edges), ())
    j2 = _index_outside(rng, len(edges), (j1,))
    (a1, b1), (a2, b2) = edges[j1], edges[j2]
    if a1 == a2 or b1 == b2 or (a2, b1) not in inst.forbidden.pairs:
        return  # no hexagon closes on this pair; the third edge is not drawn
    j3 = _index_outside(rng, len(edges), (j1, j2))
    triple = (edges[j1], edges[j2], edges[j3])  # ordered triple
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if triple[a][0] == triple[b][0] or triple[a][1] == triple[b][1]:
            return
    targets = inst._hexagon(triple)
    if targets is None:
        return
    if any(t in state._pos for t in targets):
        return
    state._apply(j1, targets[0], j2, targets[1], j3, targets[2])


def reference_run(chain: ProductChain, steps: int) -> ProductChain:
    """``steps`` lazy transitions of the product chain, drawn as
    ``chain.run`` draws them: per block of at most 2**16 steps, the popcount
    of that many bits from the chain's RNG counts the moves; each move picks
    its coordinate by randbelow(K) and, on a forbidden 1-factor, a C6
    proposal by one bit of the coordinate's RNG."""
    coords = chain.coordinates
    if not coords:  # a graph without factors has nothing to step
        return chain
    while steps > 0:
        block = min(steps, 1 << 16)
        steps -= block
        for _ in range(bin(chain.rng.getrandbits(block)).count("1")):
            state = coords[_randbelow(chain.rng, len(coords))]
            if state.instance.use_c6 and state.rng.getrandbits(1):
                _reference_c6(state)
            else:
                _reference_c4(state)
    return chain
