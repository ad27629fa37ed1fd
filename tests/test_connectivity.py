"""The connectivity walk: its verdict against the kernel-first walk, and the
states it scans.

``Space.connected`` walks from the first state and stops once it has seen
every realization.  With no kernel built it scans the move rows only of the
states it expands; with one built it reads it.  ``legacy_oracles.connected``
builds the whole kernel and walks it to the end, so the two must agree on
every space, connected or not.
"""

from itertools import combinations_with_replacement, permutations

import pytest

import legacy_oracles
from degmix import (
    BipartiteDegreeSequence,
    DegreeSequence,
    DirectedDegreeSequence,
    NotGraphical,
    compose_bipartite,
    realization_space,
    spectral_report,
)
from degmix.graphs import Instance
from degmix.sequences import directed_graphical, erdos_gallai, gale_ryser
from degmix.space import Space


def _nonincreasing(length, top):
    return (tuple(sorted(c, reverse=True))
            for c in combinations_with_replacement(range(top + 1), length))


def _orders(values):
    return sorted(set(permutations(values)))


@pytest.fixture
def scans(monkeypatch):
    """The masks at which a move table is scanned, in call order."""
    calls = []
    neighbors = Instance.weighted_neighbors
    monkeypatch.setattr(Instance, "weighted_neighbors", lambda self, mask, rows: calls.append(
        mask) or neighbors(self, mask, rows))
    return calls


def _same_verdict(space, scans):
    """The walk's verdict on a fresh space and on one whose kernel is built
    equals the kernel-first walk's; the first scans no state twice, and the
    second scans none."""
    fresh = Space(space.instance, space.masks)
    del scans[:]
    got = fresh.connected()
    assert len(set(scans)) == len(scans) <= fresh.count
    want = legacy_oracles.connected(fresh)  # builds the kernel
    del scans[:]
    assert got == want == fresh.connected()
    assert not scans
    return want


def test_every_vertex_order_of_simple_sequences_up_to_six(scans):
    checked = 0
    for n in range(1, 7):
        for d in _nonincreasing(n, n - 1):
            if not erdos_gallai(d):
                continue
            for order in _orders(d):
                assert _same_verdict(realization_space(DegreeSequence(order)), scans), order
                checked += 1
    assert checked == 7542


def test_every_order_of_bipartite_pairs_up_to_four_plus_four(scans):
    checked = 0
    for nu in range(1, 5):
        for nw in range(1, 5):
            for u in _nonincreasing(nu, nw):
                for w in _nonincreasing(nw, nu):
                    if not gale_ryser((u, w)):
                        continue
                    for uo in _orders(u):
                        for wo in _orders(w):
                            space = realization_space(BipartiteDegreeSequence(uo, wo))
                            assert _same_verdict(space, scans), (uo, wo)
                            checked += 1
    assert checked == 20744


def test_every_order_of_directed_sequences_up_to_four_vertices(scans):
    # C4 swaps alone leave some directed spaces in pieces, and the verdicts
    # must agree there too; with C6 swaps every space is connected
    checked = disconnected = 0
    for n in (2, 3, 4):
        pairs = [(o, i) for o in range(n) for i in range(n)]
        for combo in combinations_with_replacement(pairs, n):
            if sum(o for o, _ in combo) != sum(i for _, i in combo):
                continue
            for order in _orders(combo):
                dd = DirectedDegreeSequence(tuple(o for o, _ in order),
                                            tuple(i for _, i in order))
                if not directed_graphical(dd):
                    continue
                for c4_only in (False, True):
                    ok = _same_verdict(realization_space(dd, c4_only=c4_only), scans)
                    assert ok or c4_only, order
                    disconnected += not ok
                    checked += 1
    assert (checked, disconnected) == (2 * 2723, 17)


def test_empty_space_raises_either_way():
    for space in (realization_space(DegreeSequence((3, 1, 1))),
                  realization_space(BipartiteDegreeSequence((3, 1), (2, 2)))):
        assert space.count == 0
        for walk in (Space.connected, legacy_oracles.connected):
            with pytest.raises(NotGraphical, match="no realizations"):
                walk(space)


@pytest.mark.parametrize("seq, count, expanded", [
    (BipartiteDegreeSequence((2, 2, 2, 2, 2), (3, 2, 2, 2, 1)), 1170, 375),
    # the composed input of the product check: 1404 = 234 x 6
    (compose_bipartite(BipartiteDegreeSequence((3, 2, 2, 2), (2, 2, 2, 2, 1)),
                       BipartiteDegreeSequence((2, 2, 2), (2, 2, 2))), 1404, 386),
], ids=["sweep-1170", "product-1404"])
def test_walk_stops_once_every_state_is_seen(scans, seq, count, expanded):
    # the kernel-first walk scanned every state; this one scans each state
    # it expands once, under half of them here
    space = realization_space(seq, max_chords=64)
    assert space.count == count
    assert space.connected()
    assert len(scans) == len(set(scans)) == expanded < count / 2
    assert "kernel" not in space.__dict__


def test_spectral_report_builds_the_kernel_before_the_walk(scans, kernel_oracle):
    # the report needs every row, so the walk reads the kernel instead of
    # scanning states; kernel_oracle holds its one build, equal to the full
    # scan, order included
    space = realization_space(BipartiteDegreeSequence((2, 2, 2, 2, 2), (3, 2, 2, 2, 1)),
                              max_chords=64)
    spectral_report(space)
    assert not scans
    assert kernel_oracle == [space] and not kernel_oracle.walked


def test_kernel_oracle_checks_the_states_a_walk_scans(monkeypatch, kernel_oracle):
    seq = BipartiteDegreeSequence((2, 2, 2, 1), (3, 2, 1, 1))
    space = realization_space(seq)
    assert space.connected()
    assert kernel_oracle.walked == [space] and not kernel_oracle
    # a walk over a cached kernel scans nothing, so there is nothing to check
    cached = realization_space(seq)
    assert cached.kernel and cached.connected()
    assert kernel_oracle.walked == [space] and kernel_oracle == [cached]
    # rows with a wrong weight fail the check
    rows = Space.rows.func
    monkeypatch.setattr(Space, "rows", property(
        lambda self: [(rm, add, 2 * w) for rm, add, w in rows(self)]))
    with pytest.raises(AssertionError):
        realization_space(seq).connected()
