"""Shared brute-force oracles: exhaustive enumeration over all labeled graphs.

These deliberately avoid the library's own algorithms so the tests compare
two independent routes to the same answer.  The ``kernel_oracle`` fixture
checks each realization-space kernel, and each state that a connectivity
walk scans without one, against the full move-table scan of
``legacy_oracles``, and the ``conductance_oracle`` fixture checks the exact
conductance of each small one against the subset enumeration of
``legacy_oracles``.
"""

from functools import cached_property
from itertools import combinations, combinations_with_replacement

import pytest

import legacy_oracles
from degmix.graphs import Instance
from degmix.space import Space, _exact_conductance


def all_simple_graphs(n):
    """Yield edge lists of all 2^C(n,2) labeled simple graphs on n vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def brute_simple_degree_sequences(n):
    """Set of sorted degree tuples realized by some n-vertex graph."""
    out = set()
    for edges in all_simple_graphs(n):
        deg = [0] * n
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        out.add(tuple(sorted(deg, reverse=True)))
    return out


def all_bipartite_graphs(nu, nw, banned=()):
    banned = set(banned)
    pairs = [(i, j) for i in range(nu) for j in range(nw) if (i, j) not in banned]
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def bipartite_degrees(edges, nu, nw):
    du, dw = [0] * nu, [0] * nw
    for a, b in edges:
        du[a] += 1
        dw[b] += 1
    return tuple(du), tuple(dw)


def brute_bipartite_degree_sequences(nu, nw, banned=()):
    """Set of (sorted u, sorted w) pairs realized by some bipartite graph
    avoiding ``banned``."""
    out = set()
    for edges in all_bipartite_graphs(nu, nw, banned):
        du, dw = bipartite_degrees(edges, nu, nw)
        out.add((tuple(sorted(du, reverse=True)), tuple(sorted(dw, reverse=True))))
    return out


def brute_restricted_realizable(u, w, banned):
    """Does a bipartite graph with exact degrees (u, w) avoid ``banned``?
    Positional (unsorted) check."""
    for edges in all_bipartite_graphs(len(u), len(w), banned):
        if bipartite_degrees(edges, len(u), len(w)) == (tuple(u), tuple(w)):
            return True
    return False


def all_digraphs(n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def brute_directed_realizable(out_deg, in_deg):
    n = len(out_deg)
    for arcs in all_digraphs(n):
        do, di = [0] * n, [0] * n
        for a, b in arcs:
            do[a] += 1
            di[b] += 1
        if tuple(do) == tuple(out_deg) and tuple(di) == tuple(in_deg):
            return True
    return False


def split_head_and_rest(ds, p, q):
    """Head split component and shifted rest of the sorted tuple ``ds`` at
    good pair (p, q), or None where they describe no valid split partition."""
    return legacy_oracles._extract_split_head(ds, p, q)


def nonincreasing_sequences(length, cap):
    return [
        tuple(sorted(c, reverse=True))
        for c in combinations_with_replacement(range(cap + 1), length)
    ]


@pytest.fixture(scope="session")
def graphical_simple_by_n():
    """Brute-force graphical sets for n <= 6 (oracle for Erdos-Gallai)."""
    return {n: brute_simple_degree_sequences(n) for n in range(1, 7)}


class KernelChecks(list):
    """The spaces whose kernel was checked, in build order; ``walked`` lists
    the spaces whose connectivity walk scanned states with no kernel built."""

    def __init__(self):
        super().__init__()
        self.walked = []


@pytest.fixture
def kernel_oracle(monkeypatch):
    """Checks every ``Space.kernel`` built under it against the full move-table
    scan it replaced: the same rows, keys, weights and insertion order.  A
    connectivity walk with no kernel scans only the states it expands; each
    of those states' neighbors, in scan order, is checked against the same
    scan's row."""
    pruned = Space.kernel.func
    checks = KernelChecks()

    def checked(space):
        got = pruned(space)
        want = legacy_oracles.full_scan_kernel(space)
        assert [list(row.items()) for row in got] == [list(row.items()) for row in want]
        checks.append(space)
        return got

    prop = cached_property(checked)
    prop.__set_name__(Space, "kernel")
    monkeypatch.setattr(Space, "kernel", prop)

    scans = None  # (mask, neighbors) of each scan in the walk under way
    neighbors = Instance.weighted_neighbors

    def recorded(self, mask, rows):
        got = neighbors(self, mask, rows)
        if scans is not None:
            scans.append((mask, got))
        return got

    walk = Space.connected

    def walked(space):
        nonlocal scans
        scans = []
        try:
            ok = walk(space)
        finally:
            done, scans = scans, None
        if done:
            idx = space.index()
            want = legacy_oracles.full_scan_kernel(space)
            for mask, got in done:
                assert [(idx[nxt], w) for nxt, w in got] == list(want[idx[mask]].items())
            checks.walked.append(space)
        return ok

    monkeypatch.setattr(Instance, "weighted_neighbors", recorded)
    monkeypatch.setattr(Space, "connected", walked)
    return checks


@pytest.fixture
def conductance_oracle(monkeypatch):
    """After the test, checks the exact conductance of every space of 2 to
    20 states built under it against the subset enumeration it replaced,
    within 1e-12."""
    spaces = []
    init = Space.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        spaces.append(self)

    monkeypatch.setattr(Space, "__init__", recorded)
    yield
    checked = {}  # one check per distinct transition matrix
    for space in spaces:
        if 2 <= space.count <= 20:
            p = space.transition_matrix()
            checked.setdefault(p.tobytes(), p)
    for p in checked.values():
        assert abs(_exact_conductance(p) - legacy_oracles._exact_conductance(p)) <= 1e-12
