"""Swap-move enumeration on fixed realizations, and move tables."""

import copy
import pickle
import random
import time
import tracemalloc
from itertools import combinations, combinations_with_replacement

import pytest

import legacy_oracles
from degmix import (
    BipartiteDegreeSequence,
    DegreeSequence,
    ForbiddenSet,
    LabeledBipartiteGraph,
    LabeledGraph,
    enumerate_swaps,
    realization_space,
    simple_instance,
)
from degmix.graphs import Instance, SwapMove
from degmix.sequences import _havel_hakimi_edges, erdos_gallai, gale_ryser


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


def _same_swaps(g, f=None):
    want = legacy_oracles.enumerate_swaps(g, f)
    assert enumerate_swaps(g, f) == want, g
    return len(want)


def _gnp(rng, pairs, p):
    return [e for e in pairs if rng.random() < p]


# enumerable instances of the acceptance suite's product and uniformity
# criteria and of the locality tests, with the forbidden set of each
_DIAG3 = ForbiddenSet([(0, 0), (1, 1), (2, 2)])
_ACCEPTANCE = [
    (DegreeSequence((1, 1, 1, 1)), None),
    (DegreeSequence((2, 2, 1, 1)), None),
    (DegreeSequence((1,) * 6), None),
    (DegreeSequence((2, 2, 1, 1, 1, 1)), None),
    (DegreeSequence((6, 6, 4, 4, 3, 3, 1, 1)), None),
    (BipartiteDegreeSequence((1, 1), (1, 1)), None),
    (BipartiteDegreeSequence((2, 2, 1), (3, 1, 1)), None),
    (BipartiteDegreeSequence((3, 1, 1), (2, 2, 1)), None),
    (BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), None),
    (BipartiteDegreeSequence((2, 2, 2), (2, 2, 2)), None),
    (BipartiteDegreeSequence((1,) * 4, (1,) * 4), None),
    (BipartiteDegreeSequence((1, 1, 1), (1, 1, 1)), _DIAG3),
    (BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), _DIAG3),
    (BipartiteDegreeSequence((2, 2, 1, 1), (2, 1, 2, 1)), ForbiddenSet([(0, 0), (1, 1), (2, 2),
                                                                         (3, 3)])),
]


def _acceptance_spaces():
    yield from _ACCEPTANCE
    # criterion 6's irreducibility families, up to 6 and 3 + 3 vertices
    for n in range(1, 7):
        for d in combinations_with_replacement(range(n - 1, -1, -1), n):
            if erdos_gallai(d):
                yield DegreeSequence(d), None
    for nu in range(1, 4):
        for nw in range(1, 4):
            for u in combinations_with_replacement(range(nw, -1, -1), nu):
                for w in combinations_with_replacement(range(nu, -1, -1), nw):
                    if gale_ryser((u, w)):
                        yield BipartiteDegreeSequence(u, w), None


def test_enumerate_swaps_matches_the_all_chord_scan_on_acceptance_instances():
    moves = states = 0
    for seq, f in _acceptance_spaces():
        space = realization_space(seq, f, max_chords=30)
        for mask in space.masks:
            moves += _same_swaps(space.instance.graph_of_mask(mask), f)
            states += 1
    assert (states, moves) == (1259, 8338)


def test_enumerate_swaps_matches_the_all_chord_scan_on_every_small_graph():
    # every labeled simple graph up to 5 vertices, every bipartite graph on
    # 3 + 3, and every digraph on 4 vertices in its Gale form (C6 moves)
    checked = 0
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            _same_swaps(LabeledGraph(n, [e for i, e in enumerate(pairs) if bits >> i & 1]))
            checked += 1
    for f, n in ((None, 3), (ForbiddenSet([(i, i) for i in range(4)]), 4)):
        pairs = [(u, w) for u in range(n) for w in range(n) if f is None or (u, w) not in f.pairs]
        for bits in range(1 << len(pairs)):
            g = LabeledBipartiteGraph(n, n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            _same_swaps(g, f)
            checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024 + 512 + 4096


def test_enumerate_swaps_matches_the_all_chord_scan_on_random_graphs():
    rng = random.Random(17)
    kinds = set()
    for n in (8, 12, 20, 30):
        pairs = list(combinations(range(n), 2))
        for p in (0.1, 0.3):
            _same_swaps(LabeledGraph(n, _gnp(rng, pairs, p)))
    for nu, nw, banned in ((6, 9, 0), (10, 10, 0), (15, 15, 0), (6, 6, 6), (9, 9, 9),
                           (10, 10, 4)):
        f = ForbiddenSet(rng.sample([(i, i) for i in range(min(nu, nw))], banned))
        pairs = [(u, w) for u in range(nu) for w in range(nw) if (u, w) not in f.pairs]
        for p in (0.2, 0.5):
            g = LabeledBipartiteGraph(nu, nw, _gnp(rng, pairs, p))
            assert _same_swaps(g, f)
            kinds.update(m.kind for m in enumerate_swaps(g, f))
    assert kinds == {"C4", "C6"}


def test_oracles_read_none_of_the_move_listing(monkeypatch):
    # the oracles pin the library's move listing, so they must answer with
    # it gone: the same moves and the same kernels, order included
    cases = [
        (LabeledGraph(5, [(0, 1), (0, 2), (1, 2), (3, 4)]), None),
        (LabeledBipartiteGraph(3, 3, [(0, 1), (1, 2), (2, 0)]), _DIAG3),
        (LabeledBipartiteGraph(3, 3, [(0, 1), (1, 0), (2, 2), (2, 1)]), None),
    ]
    spaces = [realization_space(DegreeSequence((2, 2, 2, 1, 1))),
              realization_space(BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), _DIAG3)]
    moves = [enumerate_swaps(g, f) for g, f in cases]
    kernels = [[list(row.items()) for row in space.kernel] for space in spaces]
    assert all(moves) and {m.kind for ms in moves for m in ms} == {"C4", "C6"}

    def gone(self, *args):
        raise AssertionError("read the library's move listing")

    monkeypatch.setattr(Instance, "swaps", gone)
    monkeypatch.setattr(Instance, "move_table", gone)
    assert [legacy_oracles.enumerate_swaps(g, f) for g, f in cases] == moves
    assert [[list(row.items()) for row in legacy_oracles.full_scan_kernel(space)]
            for space in spaces] == kernels
    with pytest.raises(AssertionError, match="move listing"):
        enumerate_swaps(*cases[0])


def _chords_forbidden(monkeypatch):
    def never(self):
        raise AssertionError("built the chord list")

    monkeypatch.setattr(Instance, "chords", property(never))


def test_enumerate_swaps_builds_no_chord_list(monkeypatch):
    cases = [
        (LabeledGraph(5, [(0, 1), (0, 2), (1, 2), (3, 4)]), None),
        (LabeledBipartiteGraph(3, 3, [(0, 1), (1, 2), (2, 0)]), _DIAG3),
        (LabeledBipartiteGraph(3, 3, [(0, 1), (1, 0), (2, 2), (2, 1)]), None),
    ]
    want = [legacy_oracles.enumerate_swaps(g, f) for g, f in cases]
    assert all(want)
    _chords_forbidden(monkeypatch)
    assert [enumerate_swaps(g, f) for g, f in cases] == want
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        enumerate_swaps(LabeledGraph(3, [(0, 1), (2, 2)]))


def test_enumerate_swaps_cost_follows_the_edges(monkeypatch):
    # a 3-regular graph on 40 of 1000 vertices: 60 edges, 499,500 chords.
    # A table over the chords would hold about 5 * 10^11 rows; the edges
    # give 1,770 pairs.
    rng = random.Random(3)
    while True:
        stubs = [v for v in range(40) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == 60:
            break
    g = LabeledGraph(1000, edges)
    _chords_forbidden(monkeypatch)
    tracemalloc.start()
    try:
        start = time.process_time()
        moves = enumerate_swaps(g)
        elapsed = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3000 < len(moves) < 2 * 1770
    assert elapsed < 1.0 and peak < 50 * 1024 * 1024, (elapsed, peak)


def test_swap_moves_keep_their_fields_in_slots():
    # moves come by the hundred thousand: each has no __dict__, and still
    # survives pickle and deepcopy, which a slotted Value refuses by default
    hexagon = LabeledBipartiteGraph(3, 3, [(0, 1), (1, 2), (2, 0)])
    moves = enumerate_swaps(LabeledGraph(4, [(0, 1), (2, 3)])) + enumerate_swaps(
        hexagon, ForbiddenSet([(0, 0), (1, 1), (2, 2)]))
    assert {move.kind for move in moves} == {"C4", "C6"}
    for move in moves:
        assert not hasattr(move, "__dict__")
        for copied in [copy.deepcopy(move), copy.copy(move)] + [
                pickle.loads(pickle.dumps(move, protocol)) for protocol in range(6)]:
            assert copied == move and type(copied) is SwapMove
        with pytest.raises(AttributeError, match="cannot assign to field 'kind'"):
            move.kind = "C4"


def test_enumerate_swaps_memory_per_move():
    # a 3-regular Havel-Hakimi realization on 200 vertices has 88,200 moves;
    # with a __dict__ each they peaked at 328 bytes a move, in slots at 288
    g = LabeledGraph(200, _havel_hakimi_edges([3] * 200))
    tracemalloc.start()
    try:
        moves = enumerate_swaps(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(moves) == 88200
    assert peak < 300 * len(moves), peak
