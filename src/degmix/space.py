"""Desk-scale verification engine over exhaustively enumerated realizations.

Everything here is exact.  Realization spaces are enumerated by a pruned
depth-first search over chords, in a walk order taken from the degrees
alone, so relabeling an input without forbidden pairs does not change the
search; each chord keeps its bit, so the sorted masks do not depend on the
order.  The search backtracks in a loop, so its depth costs no Python
stack.  Each space builds one move table, over its free chords, and its
kernel in one pass over the table: a row's states come from the bitsets of
the states that hold each chord, with no scan of a state.  Transition
matrices and the product check read the kernel.  The connectivity walk
stops as soon as it has seen every realization: with no kernel built it
scans the table only at the states it expands, and with one built it reads
it.  The spectral report builds its kernel before it checks connectivity,
so its walk scans no state.  The product check takes a ``Layout`` of any
number of factors and projects each composed state onto one int of factor
bits a byte of chords at a time, through tables.  Up to
``EXACT_STATES`` (20) realizations the spectrum comes from the dense
transition matrix, and the conductance from a recurrence that fills the
boundaries of all 2^n state sets in O(2^n); beyond that, lambda2 and the
sweep cut come from Lanczos iteration on the sparse kernel, which builds no
n x n array.  The exact TV audit powers the deviation of the kernel from
uniform, on plain Python rows up to ``EXACT_STATES`` realizations, so that
it loads no numpy, and with numpy beyond.  The product and swap-locality
theorems are checked realization by realization with bijections.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import cached_property
from itertools import compress
from math import prod
from operator import mul
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .chain import ChainState, ProductChain, _as_sequence, _make_plan, run
from ._value import Value
from .errors import CheegerViolation, Disconnected, NotGraphical, ProductMismatch, TooLarge
from .graphs import Instance, SwapMove, bipartite_instance, directed_instance, simple_instance
from .layout import Layout
from .sequences import BipartiteDegreeSequence, DirectedDegreeSequence, ForbiddenSet

if TYPE_CHECKING:  # numpy is imported by the functions that compute with it
    import numpy as np

__all__ = [
    "DEFAULT_MAX_CHORDS",
    "EXACT_STATES",
    "Space",
    "SpectralReport",
    "realization_space",
    "enumerate_realizations",
    "spectral_report",
    "verify_cartesian_product",
    "swap_locality_report",
    "tv_distance_audit",
]

DEFAULT_MAX_CHORDS = 24

# Spaces of at most this many realizations are solved exactly: the dense
# spectrum and the exact conductance, and the TV kernel power on plain rows
# (at most ~1M multiply-adds even at 10^18 steps, cheaper than importing
# numpy).
EXACT_STATES = 20


def _instance_for(d, f: Optional[ForbiddenSet], c4_only: bool) -> Instance:
    d = _as_sequence(d)
    if isinstance(d, DirectedDegreeSequence):
        return directed_instance(d, c4_only)
    if isinstance(d, BipartiteDegreeSequence):
        return bipartite_instance(d.u_degrees, d.w_degrees, f, c4_only)
    if f is not None and len(f):
        raise ValueError("forbidden sets apply to bipartite/directed sequences")
    return simple_instance(d.degrees)


def _bits(mask: int):
    """The set bits of ``mask``, lowest first, each as an int."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _ranks(values) -> List[int]:
    """Each index's position when the indices are sorted by value, ties by index."""
    rank = [0] * len(values)
    for r, v in enumerate(sorted(range(len(values)), key=values.__getitem__)):
        rank[v] = r
    return rank


def _enumerate_masks(inst: Instance, max_chords: Optional[int]) -> Tuple[int, ...]:
    """Every realization of ``inst`` as a chord bitmask, in ascending order.

    A pruned depth-first search decides the chords one at a time.  Each
    vertex keeps ``rem``, the edges it still needs, and ``spare``, how many
    of its undecided chords it can still do without.  A chord may be left
    out while both endpoints have a spare chord, and taken while both still
    need an edge, so every path that reaches the last chord is a
    realization.  The walk order comes from the degrees alone: simple
    vertices by ascending degree (index breaking ties), each chord decided
    at its earlier endpoint; bipartite rows by ascending degree, each row's
    chords by descending column degree (index breaking ties).  So any
    relabeling of an input without forbidden pairs gives the same search
    tree.  Each chord keeps its own bit, so the sorted masks do not depend
    on the walk order.  The search keeps its path in the mask and
    backtracks in a loop, so no Python stack grows with the chord count,
    and the cap is checked before any chord is built.
    """
    cap = DEFAULT_MAX_CHORDS if max_chords is None else max_chords
    if inst.kind == "simple":
        k = inst.n * (inst.n - 1) // 2
    else:
        k = inst.nu * inst.nw - len(inst.forbidden)
    if k > cap:
        raise TooLarge("instance has %d chords, cap is %d" % (k, cap))
    if inst.kind == "simple":
        rem = list(inst.degrees)
        endpoint = inst.chords
        rank = _ranks(rem)
        key = [min(rank[a], rank[b]) * inst.n + max(rank[a], rank[b]) for a, b in endpoint]
    else:
        rem = list(inst.u_degrees) + list(inst.w_degrees)
        endpoint = [(a, inst.nu + b) for a, b in inst.chords]
        row = _ranks(inst.u_degrees)
        col = _ranks([-d for d in inst.w_degrees])
        key = [row[a] * inst.nw + col[b] for a, b in inst.chords]
    spare = [-d for d in rem]
    for a, b in endpoint:
        spare[a] += 1
        spare[b] += 1
    if min(spare, default=0) < 0:
        return ()
    walk = sorted(range(k), key=key.__getitem__)
    ends = [endpoint[c] for c in walk]
    bits = [1 << c for c in walk]
    out: List[int] = []
    i = mask = 0
    while True:
        # Descend: leave each chord out where both endpoints can spare it,
        # else take it, until the last chord or a dead end.
        while i < k:
            a, b = ends[i]
            if spare[a] and spare[b]:
                spare[a] -= 1
                spare[b] -= 1
            elif rem[a] and rem[b]:
                rem[a] -= 1
                rem[b] -= 1
                mask |= bits[i]
            else:
                break
            i += 1
        else:
            out.append(mask)
        # Backtrack to the deepest chord left out that may be taken instead.
        while i:
            i -= 1
            a, b = ends[i]
            bit = bits[i]
            if mask & bit:
                rem[a] += 1
                rem[b] += 1
                mask ^= bit
                continue
            spare[a] += 1
            spare[b] += 1
            if rem[a] and rem[b]:
                rem[a] -= 1
                rem[b] -= 1
                mask |= bit
                i += 1
                break
        else:
            return tuple(sorted(out))


class Space:
    """An instance together with its full list of realization masks."""

    def __init__(self, instance: Instance, masks: Tuple[int, ...]):
        self.instance = instance
        self.masks = masks

    @property
    def count(self) -> int:
        return len(self.masks)

    def index(self) -> Dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}

    @cached_property
    def rows(self) -> list:
        """The instance's move table over the free chords, those set in some
        but not all realizations.  A valid move joins two realizations, which
        differ only in free chords, so no other row applies at any state."""
        free = 0
        for mask in self.masks:
            free |= mask ^ self.masks[0]
        return self.instance.move_table(free)

    @cached_property
    def kernel(self) -> Tuple[Dict[int, float], ...]:
        """Each state's off-diagonal transitions, neighbor index -> weight, in
        move-table order, from one pass over ``rows``.

        A row applies at the states that hold its removed chords and none of
        its added ones.  Those states agree on every chord the move touches,
        so XOR with the move keeps their order: the k-th of them moves to the
        k-th state that holds the added chords and none of the removed ones.
        Each chord's holders are an int with one byte per state, so a row's
        states take a few ANDs and one ``compress``.  A move's bits are the
        state XOR the neighbor, so no two valid moves share a neighbor; the
        rest of a row's mass is the stay."""
        n, k = self.count, len(self.instance.chords)
        ones = int.from_bytes(b"\x01" * n, "little")
        # Every mask as k binary digits, state 0 first: chord c's digits are
        # every k-th character from k - 1 - c, and each becomes a byte.
        text = "".join([format(mask, "0%db" % k) for mask in self.masks])
        held = {1 << c: int.from_bytes(text[k - 1 - c::k].encode(), "little") & ones
                for c in range(k)}
        order = list(range(n))
        found: Dict[Tuple[int, int], List[int]] = {}  # a row and its reverse share one

        def states(on: int, off: int) -> List[int]:
            """The states that hold every chord of ``on`` and none of ``off``."""
            got = found.get((on, off))
            if got is None:
                held_by = ones
                for bit in _bits(on):
                    held_by &= held[bit]
                for bit in _bits(off):
                    held_by &= ~held[bit]
                got = found[on, off] = list(compress(order, held_by.to_bytes(n, "little")))
            return got

        kernel = tuple({} for _ in order)
        for rm, add, w in self.rows:
            for i, j in zip(states(rm, add), states(add, rm)):
                kernel[i][j] = w
        return kernel

    def connected(self) -> bool:
        """Whether the swap moves join every realization; a space with none
        has no chain to join, which raises NotGraphical.

        A depth-first walk from the first state stops as soon as it has seen
        every realization.  It reads the kernel if one is built; otherwise it
        scans ``rows`` only at the states it expands, once each.
        ``spectral_report`` needs the kernel anyway, so it builds it before
        it calls this."""
        if not self.count:
            raise NotGraphical("no realizations")
        if self.count == 1:
            return True
        kernel = self.__dict__.get("kernel")
        if kernel is not None:
            start, expand = 0, kernel.__getitem__
        else:
            rows, neighbors = self.rows, self.instance.weighted_neighbors
            start = self.masks[0]

            def expand(mask):
                return [nxt for nxt, _ in neighbors(mask, rows)]
        seen = {start}
        stack = [start]
        while len(seen) < self.count:
            if not stack:
                return False
            for j in expand(stack.pop()):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return True

    def transition_matrix(self) -> np.ndarray:
        import numpy as np

        p = np.zeros((self.count, self.count))
        for i, row in enumerate(self.kernel):
            p[i, list(row)] = list(row.values())
        np.fill_diagonal(p, 1.0 - p.sum(axis=1))
        return p


class SpectralReport(Value):
    _fields = ("lambda2", "relaxation_time", "conductance", "realization_count",
               "conductance_exact", "trivial")
    lambda2: float
    relaxation_time: float
    conductance: float
    realization_count: int
    conductance_exact: bool
    trivial: bool

    def __init__(self, lambda2: float, relaxation_time: float, conductance: float,
                 realization_count: int, conductance_exact: bool, trivial: bool = False):
        self._set(lambda2, relaxation_time, conductance, realization_count,
                  conductance_exact, trivial)


def realization_space(
    d,
    f: Optional[ForbiddenSet] = None,
    max_chords: Optional[int] = None,
    c4_only: bool = False,
) -> Space:
    inst = _instance_for(d, f, c4_only)
    return Space(inst, _enumerate_masks(inst, max_chords))


def enumerate_realizations(
    d, f: Optional[ForbiddenSet] = None, max_chords: Optional[int] = None
):
    """Every labeled realization exactly once, in canonical encoding order."""
    space = realization_space(d, f, max_chords)
    return [space.instance.graph_of_mask(m) for m in space.masks]


def _exact_conductance(p: np.ndarray) -> float:
    """min over state sets S with 1 <= |S| <= n/2 of B(S) / |S|, where
    B(S) = sum of p[i, j] over i in S, j not in S.

    Bit i of a mask is state i.  The boundaries fill one array by doubling:
    when state k joins a set S of lower states,
    B(S + k) = B(S) + sum_{j != k} p[k, j] - sum_{i in S} (p[i, k] + p[k, i]),
    and the last sum fills the upper half first, by doubling over i < k.
    O(2^n) time; one float64 and one int8 array of 2^n entries.
    """
    import numpy as np

    n = p.shape[0]
    off = np.array(p, dtype=float)
    np.fill_diagonal(off, 0.0)
    leave = off.sum(axis=1)
    cross = off + off.T
    boundary = np.zeros(1 << n)
    sizes = np.zeros(1 << n, np.int8)
    for k in range(n):
        lo, hi = boundary[: 1 << k], boundary[1 << k: 2 << k]
        for i in range(k):  # hi[S] = sum_{i in S} cross[i, k]
            np.add(hi[: 1 << i], cross[i, k], out=hi[1 << i: 2 << i])
        np.subtract(lo, hi, out=hi)
        hi += leave[k]
        np.add(sizes[: 1 << k], 1, out=sizes[1 << k: 2 << k])
    keep = sizes <= n // 2  # stationary mass of S at most 1/2
    keep[0] = False
    np.divide(boundary, sizes, out=boundary, where=keep)
    return float(np.min(boundary, where=keep, initial=np.inf))


def _sparse(kernel) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's off-diagonal entries as (rows, cols, vals), and its
    diagonal, the stay probabilities."""
    import numpy as np

    n = len(kernel)
    nnz = sum(map(len, kernel))
    rows = np.repeat(np.arange(n), [len(row) for row in kernel])
    cols = np.fromiter((j for row in kernel for j in row), np.intp, nnz)
    vals = np.fromiter((w for row in kernel for w in row.values()), float, nnz)
    return rows, cols, vals, 1.0 - np.bincount(rows, vals, minlength=n)


def _sweep_spectrum(rows, cols, vals, diag) -> Tuple[float, np.ndarray]:
    """lambda2 of the symmetric stochastic matrix given in sparse form, and
    a lambda2 eigenvector that does not depend on any solver's basis.

    Lanczos iteration with full reorthogonalization, from a fixed seeded
    probe with the uniform (top) eigenvector projected out, runs until the
    top Ritz pair's residual bound beta_k |s_k| drops below 1e-12 or the
    Krylov space is exhausted, where the Ritz pairs are exact.  lambda2 is
    the top Ritz value.  The vector is the probe's projection onto the Ritz
    vectors within 1e-9 of lambda2: a degenerate eigenspace meets the Krylov
    space of the probe in one vector, the probe's projection onto it.
    """
    import numpy as np

    n = len(diag)
    probe = np.random.default_rng(0).standard_normal(n)
    q = probe - probe.mean()
    q /= np.linalg.norm(q)
    basis = np.empty((min(32, n - 1), n))  # the Krylov space has dim <= n - 1
    alpha: List[float] = []
    beta: List[float] = []
    k = 0
    while True:
        basis[k] = q
        k += 1
        w = diag * q + np.bincount(rows, vals * q[cols], minlength=n)
        alpha.append(float(q @ w))
        for _ in range(2):  # twice keeps w orthogonal to 1 and the basis
            w -= w.mean()
            w -= basis[:k].T @ (basis[:k] @ w)
        b = float(np.linalg.norm(w))
        t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        if b * abs(_top_ritz_last(t)) < 1e-12 or k == n - 1:
            break
        beta.append(b)
        q = w / b
        if k == len(basis):
            grown = np.empty((min(2 * k, n - 1), n))
            grown[:k] = basis
            basis = grown
    theta, s = np.linalg.eigh(t)
    ritz = s[:, np.abs(theta - theta[-1]) <= 1e-9].T @ basis[:k]
    return float(theta[-1]), ritz.T @ (ritz @ probe)


def _top_ritz_last(t: np.ndarray) -> float:
    """Last component of the top eigenvector of the Lanczos tridiagonal.

    The top eigenvalue comes from ``eigvalsh``; the vector from two steps
    of inverse iteration, shifted 1e-12 above it so that the solves stay
    regular, from the all-ones vector (the top eigenvector is positive, as
    the off-diagonal is).  Under a multithreaded BLAS this is about a
    hundred times cheaper than ``eigh``.
    """
    import numpy as np

    shifted = t - (np.linalg.eigvalsh(t)[-1] + 1e-12) * np.eye(len(t))
    x = np.linalg.solve(shifted, np.linalg.solve(shifted, np.ones(len(t))))
    return float(x[-1] / np.linalg.norm(x))


def _sweep_conductance(rows, cols, vals, x: np.ndarray) -> float:
    """Best sweep cut along ``x``, in O(nnz + n log n).

    The states are ordered by ``x`` (rounded, stably, so near-ties do not
    depend on rounding noise).  An entry from sweep position a to a later
    position b crosses the boundary of the first k + 1 states for
    a <= k < b, so a difference array over positions sums the boundaries.
    """
    import numpy as np

    n = len(x)
    order = np.argsort(np.round(x, 9), kind="stable")
    pos = np.empty(n, np.intp)
    pos[order] = np.arange(n)
    a, b = pos[rows], pos[cols]
    up = a < b
    delta = np.bincount(a[up], vals[up], minlength=n) - np.bincount(b[up], vals[up], minlength=n)
    boundary = np.cumsum(delta)[: n - 1]
    k = np.arange(1, n)
    return float(np.min(boundary / np.minimum(k, n - k)))


def spectral_report(space: Space) -> SpectralReport:
    """Second eigenvalue, relaxation time, and conductance of the chain.

    Raises Disconnected for reducible chains (a reportable finding in the
    C4-only directed mode), and NotGraphical when there is no realization.
    The single-realization chain is reported with lambda2 = 0 and the
    trivial flag set.
    """
    n = space.count
    if n == 1:
        return SpectralReport(0.0, 1.0, 1.0, 1, True, trivial=True)
    space.kernel  # built first, so the walk reads it and scans no state
    if not space.connected():
        raise Disconnected("realization graph has more than one component")
    import numpy as np

    exact = n <= EXACT_STATES
    if exact:
        p = space.transition_matrix()
        lam2 = np.linalg.eigvalsh(p)[-2]
        phi = _exact_conductance(p)
    else:
        rows, cols, vals, diag = _sparse(space.kernel)
        lam2, x = _sweep_spectrum(rows, cols, vals, diag)
        phi = _sweep_conductance(rows, cols, vals, x)
    lam2 = float(min(max(lam2, -1.0), 1.0))
    gap = 1.0 - lam2
    if not phi * phi / 2.0 <= gap + 1e-9:
        raise CheegerViolation("Cheeger lower bound violated: phi=%r, gap=%r" % (phi, gap))
    if not gap <= 2.0 * phi + 1e-9:
        raise CheegerViolation("Cheeger upper bound violated: phi=%r, gap=%r" % (phi, gap))
    return SpectralReport(lam2, 1.0 / gap, phi, n, exact)


# ---------------------------------------------------------------------------
# Cartesian-product verification


def _byte_tables(factor_bit: Dict[int, int], chord_count: int) -> List[List[int]]:
    """For each byte of a composed mask, byte value -> the factor bits of its
    chords; a chord that ``factor_bit`` does not map gives none.  Each table
    fills by doubling, one chord at a time."""
    tables = []
    for base in range(0, chord_count, 8):
        table = [0]
        for bit in range(base, base + 8):
            fbit = factor_bit.get(bit, 0)
            table += [t | fbit for t in table]
        tables.append(table)
    return tables


def verify_cartesian_product(composed: Instance, layout: Layout,
                             max_chords: Optional[int] = None) -> dict:
    """Check that the realization graph of ``composed`` is the Cartesian
    product of the realization graphs of the ``layout``'s factors, any
    number of them.

    Builds the explicit bijection (restriction to each factor after removing
    the forced composition edges), then verifies that realization counts
    multiply, that adjacency follows the product rule (moves change exactly
    one coordinate, by a move of that factor), and that transition weights
    are proportional coordinate-by-coordinate and kind-by-kind.  The
    factors' chords are laid end to end in one int of factor bits, so a
    composed state projects to one int, and a move's coordinate is the
    factor that owns the top bit of the two states' XOR.  Returns a report
    dict; raises ProductMismatch with a counterexample otherwise.
    """
    factors = layout.factors
    offsets = [0]  # where each factor's chords start among the factor bits
    for inst in factors:
        offsets.append(offsets[-1] + len(inst.chords))
    # The composed instance's forced chords, and each factor chord's bit in
    # it mapped to its factor bit.
    forced = composed.mask_of_edges(layout.forced)
    factor_bit = {
        composed.chord_index[layout.edge(k, e)]: 1 << (offsets[k] + bit)
        for k, inst in enumerate(factors)
        for bit, e in enumerate(inst.chords)
    }

    whole, *parts = (Space(inst, _enumerate_masks(inst, max_chords))
                     for inst in (composed, *factors))
    counts = tuple(space.count for space in parts)
    if whole.count != prod(counts):
        raise ProductMismatch(
            "realization counts do not multiply: %d != %s"
            % (whole.count, " * ".join(map(str, counts))),
            witness={"counts": (whole.count, *counts)},
        )
    if not whole.count:
        raise NotGraphical("no realizations")
    spans = [((1 << hi) - (1 << lo), lo) for lo, hi in zip(offsets, offsets[1:])]

    def split(bits: int) -> tuple:
        """Factor bits -> each factor's mask."""
        return tuple((bits & span) >> lo for span, lo in spans)

    # A realization restricts to the factors when it holds every forced
    # chord and no stray one, a chord of neither kind.
    stray = ((1 << len(composed.chords)) - 1) & ~forced & ~sum(1 << bit for bit in factor_bit)
    tables = _byte_tables(factor_bit, len(composed.chords))
    # each factor's states by their factor bits, and the span of those bits
    cuts = [({mask << lo: i for i, mask in enumerate(space.masks)}, span)
            for space, (span, lo) in zip(parts, spans)]
    seen = {}
    states = []  # each composed state's factor state indices
    for mask in whole.masks:
        if mask & forced != forced or mask & stray:
            raise ProductMismatch(
                "realization does not restrict to the factors",
                witness={"mask": mask},
            )
        bits = 0
        for table, byte in zip(tables, mask.to_bytes(len(tables), "little")):
            bits |= table[byte]
        if bits in seen:
            raise ProductMismatch(
                "two realizations project to the same factor realizations",
                witness={"factors": split(bits), "masks": (seen[bits], mask)},
            )
        seen[bits] = mask
        try:
            states.append([index[bits & span] for index, span in cuts])
        except KeyError:
            raise ProductMismatch(
                "projection is not a factor realization", witness={"factors": split(bits)}
            ) from None
    proj = list(seen)  # each composed state's factor bits, in state order
    kernels = [space.kernel for space in parts]

    def kind(key: Tuple[int, int]) -> Tuple[int, str]:
        return key[0], "C6" if key[1] == 6 else "C4"

    # A move's key is its coordinate, the factor that owns the top bit of
    # its XOR, and its chord count; one key per distinct XOR.
    keys: Dict[int, Tuple[int, int]] = {}
    ratio: Dict[Tuple[int, int], float] = {}  # key -> the latest ratio
    last_of = ratio.get
    edge_count = 0
    for row, here, at in zip(whole.kernel, proj, states):
        edge_count += len(row)
        for j, w in row.items():
            diff = here ^ proj[j]
            key = keys.get(diff)
            if key is None:
                c = bisect_right(offsets, diff.bit_length() - 1) - 1
                if diff & ~spans[c][0]:
                    raise ProductMismatch(
                        "move changes more than one coordinate",
                        witness={"from": split(here), "to": split(proj[j])},
                    )
                key = keys[diff] = (c, diff.bit_count())
            c = key[0]
            fw = kernels[c][at[c]].get(states[j][c])
            if not fw:
                u, v = split(here)[c], split(proj[j])[c]
                raise ProductMismatch(
                    "move is not a factor move",
                    witness={"coord": c, "pair": (min(u, v), max(u, v))},
                )
            r = w / fw
            last = last_of(key)
            if last != r:
                if last is not None and abs(last - r) > 1e-12 * max(1.0, last):
                    raise ProductMismatch(
                        "transition weights are not proportional",
                        witness={"key": kind(key), "ratios": (last, r)},
                    )
                ratio[key] = r
    # Directed product edge count: each factor's directed edges, once for
    # every state of the other factors.
    expected = sum(whole.count // space.count * sum(map(len, kernel))
                   for space, kernel in zip(parts, kernels))
    if edge_count != expected:
        raise ProductMismatch(
            "edge counts do not match the product rule",
            witness={"directed_edges": edge_count, "expected": expected},
        )
    return {
        "ok": True,
        "composed_count": whole.count,
        "factor_counts": counts,
        "edges": edge_count // 2,
        "weight_ratios": {str(kind(k)): ratio[k] for k in sorted(ratio)},
    }


# ---------------------------------------------------------------------------
# swap locality


def swap_locality_report(d, max_chords: Optional[int] = None) -> dict:
    """Exhaustively verify that every swap of every realization of ``d``
    touches vertices of exactly one canonical component (tail included).
    The components are the sampler's own factor layout.  Each realization's
    swaps come from its edges, in the order of the space's move table."""
    layout = _make_plan(d, None, "auto")
    space = realization_space(d, max_chords=max_chords)
    u_own, w_own = layout.owners()
    checked = 0
    for mask in space.masks:
        edges = space.instance.edges_of_mask(mask)
        have = set(edges)
        for kind, removed, added in space.instance.swaps(edges, lambda pair: pair not in have):
            touched = removed + added
            owners = {u_own[a] for a, _ in touched} | {w_own[b] for _, b in touched}
            if len(owners) != 1:
                raise ProductMismatch(
                    "swap crosses component boundaries",
                    witness={"move": SwapMove(kind, removed, added), "mask": mask},
                )
            checked += 1
    return {"ok": True, "realizations": space.count, "swaps_checked": checked,
            "components": len(layout.factors)}


# ---------------------------------------------------------------------------
# total-variation audits


def _matmul(a: List[List[float]], b: List[List[float]]) -> List[List[float]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _deviation_power(kernel, steps: int) -> List[List[float]]:
    """(P - J/n)^steps on plain rows, with P^0 = I; P is the kernel with its
    stay mass on the diagonal.  Repeated squaring, in the order of numpy's
    ``matrix_power``."""
    n = len(kernel)
    dev = []
    for i, out in enumerate(kernel):
        row = [0.0] * n
        if steps:
            for j, w in out.items():
                row[j] = w
            row[i] = 1.0 - sum(out.values())
        else:
            row[i] = 1.0
        dev.append([x - 1.0 / n for x in row])
    if not steps:
        return dev
    power = z = None
    while steps:
        z = dev if z is None else _matmul(z, z)
        if steps & 1:
            power = z if power is None else _matmul(power, z)
        steps >>= 1
    return power


def tv_distance_audit(
    d,
    steps: int,
    seed: Optional[int] = None,
    f: Optional[ForbiddenSet] = None,
    max_chords: Optional[int] = None,
    c4_only: bool = False,
    empirical: bool = False,
) -> float:
    """Total-variation distance to uniform on an enumerable instance.

    Exact mode: worst-start TV of the k-step kernel power.  The kernel P is
    doubly stochastic, so P^k - J/n = (P - J/n)^k for k >= 1 (J the all-ones
    matrix): the deviation is powered directly, and its rounding error
    shrinks with it instead of building up in the row sums of P^k.  Up to
    ``EXACT_STATES`` realizations it is powered on plain Python rows, past
    that with numpy.  Zero steps give 1 - 1/n.  Empirical mode (requires
    ``seed`` and ``steps`` >= 1): TV between the occupation frequencies of
    one ``steps``-long seeded trajectory and uniform.
    """
    if empirical and seed is None:
        raise ValueError("the empirical audit requires a seed")
    if empirical and steps < 1:
        raise ValueError("the empirical audit requires at least one step")
    space = realization_space(d, f, max_chords, c4_only)
    n = space.count
    if n == 0:
        raise NotGraphical("no realizations")
    if not empirical and n <= EXACT_STATES:
        return 0.5 * max(sum(map(abs, row)) for row in _deviation_power(space.kernel, steps))
    import numpy as np

    if not empirical:
        dev = space.transition_matrix() - 1.0 / n
        dev = np.linalg.matrix_power(dev, steps) if steps else np.eye(n) - 1.0 / n
        return float(0.5 * np.max(np.abs(dev).sum(axis=1)))
    rng = random.Random(seed)
    state = ChainState(space.instance, space.instance.edges_of_mask(space.masks[0]), rng)
    pc = ProductChain([state], random.Random(0))  # the choice of coordinate has its own stream
    # the chain keeps its edges in chord form, so their set names the state
    idx = {frozenset(space.instance.edges_of_mask(m)): i for i, m in enumerate(space.masks)}
    edges = state.edges
    counts = [0] * n
    for _ in range(steps):
        run(pc, 1)
        counts[idx[frozenset(edges)]] += 1
    freq = np.array(counts, dtype=float) / steps
    return float(0.5 * np.abs(freq - 1.0 / n).sum())
