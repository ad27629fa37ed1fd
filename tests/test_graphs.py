"""Swap-move enumeration on fixed realizations, and move tables."""

import tracemalloc

import pytest

from degmix import (
    DegreeSequence,
    ForbiddenSet,
    LabeledBipartiteGraph,
    LabeledGraph,
    enumerate_swaps,
    realization_space,
    simple_instance,
)
from degmix.graphs import Instance


def test_four_cycle_swaps():
    # C4 on vertices 0..3 with degrees (2,2,2,2): the only vertex-disjoint
    # edge pairs are the two opposite-edge pairs; each admits one valid
    # alternative matching (the other one recreates existing edges)
    g = LabeledGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    moves = enumerate_swaps(g)
    assert all(m.kind == "C4" for m in moves)
    targets = set()
    for m in moves:
        edges = (set(g.edges) - set(m.removed)) | set(m.added)
        targets.add(frozenset(edges))
    # the 4-cycle space for (2,2,2,2) has 3 realizations: each move must land
    # on one of the other two labeled 4-cycles
    assert len(moves) == 2 and len(targets) == 2
    for t in targets:
        deg = [0] * 4
        for a, b in t:
            deg[a] += 1
            deg[b] += 1
        assert deg == [2, 2, 2, 2]


def test_complete_bipartite_has_no_swaps():
    g = LabeledBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert enumerate_swaps(g) == []


def test_directed_triangle_c6_only():
    # Gale representation of the directed 3-cycle: no C4 swaps, exactly the
    # reversal C6 swap
    diag = ForbiddenSet([(0, 0), (1, 1), (2, 2)])
    g = LabeledBipartiteGraph(3, 3, [(0, 1), (1, 2), (2, 0)])
    moves = enumerate_swaps(g, diag)
    assert [m.kind for m in moves] == ["C6"]
    (move,) = moves
    edges = (set(g.edges) - set(move.removed)) | set(move.added)
    assert edges == {(0, 2), (1, 0), (2, 1)}


def test_swap_moves_preserve_degrees():
    g = LabeledGraph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    before = g.degrees()
    for m in enumerate_swaps(g):
        after = LabeledGraph(5, (set(g.edges) - set(m.removed)) | set(m.added))
        assert after.degrees() == before


def test_swap_invariants_c4_shape():
    g = LabeledGraph(5, [(0, 1), (2, 3), (2, 4)])
    for m in enumerate_swaps(g):
        assert len(m.removed) == 2 and len(m.added) == 2
        touched = {v for e in m.removed for v in e}
        assert len(touched) == 4
        assert {v for e in m.added for v in e} == touched
        assert set(m.removed) <= set(g.edges)
        assert not set(m.added) & set(g.edges)


def test_disjoint_pair_count_is_degree_invariant():
    inst = simple_instance((2, 2, 1, 1))
    # C(m,2) - sum C(d,2) = C(3,2) - (1 + 1) = 1
    assert inst.disjoint_pairs == 1


def test_forbidden_set_must_be_one_factor():
    g = LabeledBipartiteGraph(2, 2, [(0, 0)])
    with pytest.raises(Exception):
        enumerate_swaps(g, ForbiddenSet([(0, 1), (1, 1)]))


def test_enumerate_swaps_names_a_bad_edge():
    g = LabeledBipartiteGraph(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        enumerate_swaps(g, ForbiddenSet([(0, 0)]))
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        enumerate_swaps(LabeledBipartiteGraph(2, 2, [(0, 0), (1, 2)]))
    with pytest.raises(ValueError, match=r"\(0, 3\)"):
        enumerate_swaps(LabeledGraph(3, [(0, 1), (0, 3)]))
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        enumerate_swaps(LabeledGraph(3, [(0, 1), (2, 2)]))


def test_star_space_builds_rows_over_its_free_chords_only(monkeypatch):
    # 435 chords, 3 realizations: the four degree-2 vertices pair up over 6
    # free chords.  A table over all chords has 164,430 rows and peaks near
    # 100 MB.
    tables = []
    build = Instance.move_table
    monkeypatch.setattr(Instance, "move_table", lambda self, chords: tables.append(
        chords.bit_count()) or build(self, chords))
    tracemalloc.start()
    try:
        space = realization_space(DegreeSequence([29] + [2] * 4 + [1] * 25), max_chords=500)
        assert space.connected()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(space.instance.chords) == 435 and space.count == 3
    assert tables == [6] and len(space.rows) == 6
    assert peak < 8 * 1024 * 1024, peak
