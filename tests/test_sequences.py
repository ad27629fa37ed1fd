"""Graphicality tests against exhaustive enumeration, plus realize audits."""

import inspect
import random
import sys

import pytest

from degmix import (
    BipartiteDegreeSequence,
    DegreeSequence,
    DegreeSpectraMatrix,
    DirectedDegreeSequence,
    ForbiddenSet,
    ForbiddenSetNotMatching,
    NotGraphical,
    SplitSequence,
    directed_graphical,
    erdos_gallai,
    gale_ryser,
    realize,
    realize_bipartite,
    realize_directed,
    realization_space,
    restricted_bipartite_graphical,
)

from conftest import (
    brute_bipartite_degree_sequences,
    brute_directed_realizable,
    brute_restricted_realizable,
    nonincreasing_sequences,
)


def test_erdos_gallai_examples():
    assert erdos_gallai((2, 2, 2))
    assert erdos_gallai((0, 0, 0))
    assert not erdos_gallai((3, 3, 1, 1))  # brute force finds no 4-vertex realization
    assert erdos_gallai(())
    assert not erdos_gallai((5, 1))  # entry exceeds n-1


def test_erdos_gallai_matches_brute_force(graphical_simple_by_n):
    for n in range(1, 7):
        oracle = graphical_simple_by_n[n]
        for d in nonincreasing_sequences(n, n - 1):
            assert erdos_gallai(d) == (d in oracle), d


def test_erdos_gallai_permutation_invariant():
    assert erdos_gallai((1, 2, 2, 1)) == erdos_gallai((2, 2, 1, 1))
    assert erdos_gallai((1, 3, 3, 1)) == erdos_gallai((3, 3, 1, 1))


def test_erdos_gallai_matches_all_seven_vertex_graphs():
    # vectorized oracle: degree multisets of all 2^21 labeled 7-vertex graphs
    import numpy as np
    from itertools import combinations

    n = 7
    pairs = list(combinations(range(n), 2))
    k = len(pairs)
    inc = np.zeros((k, n), dtype=np.int8)
    for idx, (a, b) in enumerate(pairs):
        inc[idx, a] = 1
        inc[idx, b] = 1
    realized = set()
    chunk = 1 << 20
    for lo in range(0, 1 << k, chunk):
        masks = np.arange(lo, min(lo + chunk, 1 << k), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(k)[None, :]) & 1).astype(np.int8)
        degs = bits @ inc
        degs.sort(axis=1)
        realized.update(map(tuple, np.unique(degs, axis=0)))
    for d in nonincreasing_sequences(n, n - 1):
        assert erdos_gallai(d) == (tuple(sorted(d)) in realized), d


def test_gale_ryser_matches_all_five_five_graphs():
    # all 2^25 labeled bipartite graphs on 5+5, deduplicated by integer keys
    import numpy as np

    nu = nw = 5
    k = nu * nw
    incu = np.zeros((k, nu), dtype=np.int8)
    incw = np.zeros((k, nw), dtype=np.int8)
    for idx in range(k):
        incu[idx, idx // nw] = 1
        incw[idx, idx % nw] = 1
    pu = (nu + 1) ** np.arange(nw, dtype=np.int64)
    pw = (nw + 1) ** np.arange(nu, dtype=np.int64)
    parts = []
    chunk = 1 << 21
    for lo in range(0, 1 << k, chunk):
        masks = np.arange(lo, min(lo + chunk, 1 << k), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(k)[None, :]) & 1).astype(np.int8)
        du = (bits @ incu).astype(np.int64)
        dw = (bits @ incw).astype(np.int64)
        du.sort(axis=1)
        dw.sort(axis=1)
        parts.append(np.unique(du @ pw * (nu + 1) ** nw + dw @ pu))
    realized = set(np.concatenate(parts).tolist())
    hits = 0
    for u in nonincreasing_sequences(nu, nw):
        for w in nonincreasing_sequences(nw, nu):
            key = sum(x * (nw + 1) ** i for i, x in enumerate(sorted(u)))
            key = key * (nu + 1) ** nw + sum(
                x * (nu + 1) ** i for i, x in enumerate(sorted(w))
            )
            want = key in realized
            assert gale_ryser((u, w)) == want, (u, w)
            hits += want
    assert hits == len(realized) == 1736


def test_gale_ryser_examples():
    assert gale_ryser(((1, 1), (1, 1)))
    assert gale_ryser(((2, 2, 1), (3, 1, 1)))  # Eq. composition operand
    assert not gale_ryser(((2, 2), (1, 1, 1)))  # sums 4 != 3


def test_gale_ryser_matches_brute_force():
    for nu in range(1, 5):
        for nw in range(1, 5):
            oracle = brute_bipartite_degree_sequences(nu, nw)
            for u in nonincreasing_sequences(nu, nw):
                for w in nonincreasing_sequences(nw, nu):
                    assert gale_ryser((u, w)) == ((u, w) in oracle), (u, w)


def test_restricted_examples():
    bd = BipartiteDegreeSequence((1, 1), (1, 1))
    assert restricted_bipartite_graphical(bd, ForbiddenSet([(0, 0), (1, 1)]))
    with pytest.raises(ForbiddenSetNotMatching):  # not a partial 1-factor
        restricted_bipartite_graphical(bd, ForbiddenSet([(0, 0), (0, 1)]))
    bd2 = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    diag = ForbiddenSet([(0, 0), (1, 1), (2, 2)])
    assert restricted_bipartite_graphical(bd2, diag)


def test_restricted_matches_brute_force():
    diag2 = [(0, 0), (1, 1)]
    for u in nonincreasing_sequences(3, 3):
        for w in nonincreasing_sequences(3, 3):
            got = restricted_bipartite_graphical((u, w), ForbiddenSet(diag2))
            want = brute_restricted_realizable(u, w, diag2)
            assert got == want, (u, w)


def test_directed_examples():
    assert directed_graphical(((1, 1, 1), (1, 1, 1)))
    assert not directed_graphical(((2, 0), (0, 2)))
    assert directed_graphical(((2, 2, 1, 1), (2, 2, 1, 1)))


def test_directed_matches_brute_force():
    for n in (2, 3):
        for out_deg in nonincreasing_sequences(n, n - 1):
            for in_deg in nonincreasing_sequences(n, n - 1):
                got = directed_graphical((out_deg, in_deg))
                want = brute_directed_realizable(out_deg, in_deg)
                assert got == want, (out_deg, in_deg)


def test_directed_equals_gale_representation():
    # directed graphicality must agree with the restricted bipartite test on
    # the Gale representation with the diagonal forbidden
    for out_deg in nonincreasing_sequences(4, 3):
        for in_deg in nonincreasing_sequences(4, 3):
            dd = DirectedDegreeSequence(out_deg, in_deg)
            bd, f = dd.gale_representation()
            assert directed_graphical(dd) == restricted_bipartite_graphical(bd, f)


def test_realize_simple():
    assert realize((1, 1)) == [(0, 1)]
    edges = realize((3, 2, 2, 2, 1))
    deg = [0] * 5
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    assert deg == [3, 2, 2, 2, 1]
    with pytest.raises(NotGraphical):
        realize((3, 3, 1, 1))


def test_realize_respects_user_order():
    edges = realize((1, 3, 2, 2))
    deg = [0] * 4
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    assert deg == [1, 3, 2, 2]


def test_realize_bipartite_and_forbidden():
    edges = realize_bipartite(((2, 2, 1), (3, 1, 1)))
    du = [0] * 3
    dw = [0] * 3
    for a, b in edges:
        du[a] += 1
        dw[b] += 1
    assert du == [2, 2, 1] and dw == [3, 1, 1]

    banned = ForbiddenSet([(0, 0), (1, 1), (2, 2)])
    edges = realize_bipartite(((2, 1, 1), (2, 1, 1)), banned)
    assert all((a, b) not in banned for a, b in edges)
    with pytest.raises(ForbiddenSetNotMatching):
        realize_bipartite(((1, 1), (1, 1)), ForbiddenSet([(0, 0), (0, 1)]))
    with pytest.raises(NotGraphical):
        realize_bipartite(((1, 0), (1, 0)), ForbiddenSet([(0, 0)]))


def test_realize_bipartite_long_augmenting_paths():
    # The staircase n..1 is its own conjugate and has one realization; in a
    # shuffled vertex order a max flow walks augmenting paths longer than
    # the recursion limit allows a recursive search.  The greedy must find
    # it under the same limit.
    rng = random.Random(1)
    u, w = list(range(120, 0, -1)), list(range(120, 0, -1))
    rng.shuffle(u)
    rng.shuffle(w)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        edges = realize_bipartite(BipartiteDegreeSequence(u, w))
    finally:
        sys.setrecursionlimit(limit)
    du, dw = [0] * 120, [0] * 120
    for a, b in set(edges):
        du[a] += 1
        dw[b] += 1
    assert du == u and dw == w


def test_realize_directed():
    arcs = realize_directed(((1, 1, 1), (1, 1, 1)))
    assert all(a != b for a, b in arcs)
    do = [0] * 3
    di = [0] * 3
    for a, b in arcs:
        do[a] += 1
        di[b] += 1
    assert do == [1, 1, 1] and di == [1, 1, 1]


def test_degree_sequence_order_round_trips():
    d = DegreeSequence((1, 4, 2, 1, 2))
    assert d.sorted_degrees == (4, 2, 2, 1, 1)
    # order maps canonical position back to the original label
    assert tuple(d.degrees[i] for i in d.order) == d.sorted_degrees


@pytest.mark.parametrize("build", [
    lambda: DegreeSequence([1.5, 1.5]),
    lambda: BipartiteDegreeSequence([1], [float("inf")]),
    lambda: ForbiddenSet([(0, 1.5)]),
    lambda: SplitSequence((1.5, 1.5), ()),
    lambda: DegreeSpectraMatrix(1, [[1], [float("nan")]]),
    lambda: realization_space([1.5, 1.5]),
    lambda: DegreeSequence([True, True]),
    lambda: ForbiddenSet([(True, 1)]),
    lambda: DegreeSpectraMatrix(True, [[1], [1]]),
], ids=["simple", "bipartite", "forbidden", "split", "spectra", "space",
        "simple-boolean", "forbidden-boolean", "spectra-boolean"])
def test_non_integer_numbers_raise_value_error(build):
    # once truncated by int(), an OverflowError for infinity, or a boolean
    # read as 0 or 1
    with pytest.raises(ValueError, match="not an integer"):
        build()


def test_forbidden_set_one_factor():
    assert ForbiddenSet([(0, 0), (1, 1)]).pairs == {(0, 0), (1, 1)}
    for pairs in ([(0, 0), (0, 1)], [(0, 1), (1, 1)]):
        with pytest.raises(ForbiddenSetNotMatching,
                           match="^forbidden set is not a partial 1-factor$"):
            ForbiddenSet(pairs)
