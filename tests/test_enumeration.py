"""Realization enumeration: the degree-ordered walk against the label-order
oracle, its cost under relabeling, and its depth and memory on large inputs.

``degmix.space._enumerate_masks`` decides the chords in an order taken from
the degrees alone; ``legacy_oracles._enumerate_masks`` decides them in input
label order.  Each chord keeps its bit in both, so the two must return the
same tuple of masks on every input, in every vertex order.
"""

import random
import sys
import time
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import pytest

import legacy_oracles
from degmix import DirectedDegreeSequence, ForbiddenSet, TooLarge
from degmix.graphs import Instance, bipartite_instance, directed_instance, simple_instance
from degmix.sequences import erdos_gallai
from degmix.space import _enumerate_masks

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _nonincreasing(length, top):
    return (tuple(sorted(c, reverse=True))
            for c in combinations_with_replacement(range(top + 1), length))


def _orders(values):
    return sorted(set(permutations(values)))


def _same(inst, cap=64):
    want = legacy_oracles._enumerate_masks(inst, cap)
    assert _enumerate_masks(inst, cap) == want
    return want


def test_every_vertex_order_of_simple_sequences_up_to_six():
    checked = 0
    for n in range(1, 7):
        for d in _nonincreasing(n, n - 1):
            if not erdos_gallai(d):
                continue
            for order in _orders(d):
                assert _same(simple_instance(order)), order
                checked += 1
    assert checked == 7542


def test_non_graphical_simple_sequences_have_no_masks():
    for d in ((3, 3, 1, 1), (2, 2, 2, 1), (4, 2, 1, 1, 0, 0), (1,), (5, 5, 1, 1, 1, 1)):
        for order in _orders(d):
            assert _same(simple_instance(order)) == ()


def test_every_order_of_bipartite_pairs_up_to_four_plus_four():
    checked = found = 0
    for nu in range(1, 5):
        for nw in range(1, 5):
            for u in _nonincreasing(nu, nw):
                for w in _nonincreasing(nw, nu):
                    if sum(u) != sum(w):
                        continue
                    for uo in _orders(u):
                        for wo in _orders(w):
                            found += bool(_same(bipartite_instance(uo, wo)))
                            checked += 1
    assert (checked, found) == (47084, 20744)


def test_directed_sequences_up_to_four_vertices_in_every_order():
    checked = found = 0
    for n in (1, 2, 3, 4):
        pairs = [(o, i) for o in range(n) for i in range(n)]
        for combo in combinations_with_replacement(pairs, n):
            if sum(o for o, _ in combo) != sum(i for _, i in combo):
                continue
            for order in _orders(combo):
                dd = DirectedDegreeSequence(tuple(o for o, _ in order),
                                            tuple(i for _, i in order))
                found += bool(_same(directed_instance(dd)))
                checked += 1
    assert (checked, found) == (8240, 2724)


@pytest.mark.parametrize("forbidden, realizable", [
    ([(0, 0), (1, 1), (2, 2), (3, 3)], 202),
    ([(0, 3), (1, 2), (2, 1), (3, 0)], 228),
    ([(0, 1), (2, 3)], 461),
    ([(3, 0)], 683),
])
def test_bipartite_orders_under_a_forbidden_one_factor(forbidden, realizable):
    # 4+4 pairs, every fifth order of each side
    f = ForbiddenSet(forbidden)
    checked = found = 0
    for u in _nonincreasing(4, 4):
        for w in _nonincreasing(4, 4):
            if sum(u) != sum(w):
                continue
            for uo in _orders(u)[::5]:
                for wo in _orders(w)[::5]:
                    found += bool(_same(bipartite_instance(uo, wo, f)))
                    checked += 1
    assert (checked, found) == (2394, realizable)


def _bench_inputs(workload, seed):
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import build
    finally:
        sys.path.remove(str(BENCH))
    return build(workload, seed)[0]


def test_bench_relabelings_of_the_product_instance():
    for seed in range(1, 41):
        seq = _bench_inputs("verify-exact", seed)["product.json"]
        assert len(_same(bipartite_instance(seq["u"], seq["w"]))) == 1404, seed


def _cpu_seconds(inst):
    """Least CPU time of three enumerations of ``inst``; CPU time leaves out
    the time other processes hold the core."""
    best = float("inf")
    for _ in range(3):
        t = time.process_time()
        count = len(_enumerate_masks(inst, 64))
        best = min(best, time.process_time() - t)
    assert count == 1404
    return best


def test_enumeration_cost_does_not_depend_on_the_labels():
    # 234 x 6 realizations; in label order the slowest took 13x the fastest.
    u, w = (2, 5, 5, 5, 2, 6, 2), (2, 2, 2, 6, 6, 2, 6, 1)
    costs = []
    for seed in range(20):
        rng = random.Random(seed)
        uo, wo = list(u), list(w)
        rng.shuffle(uo)
        rng.shuffle(wo)
        costs.append(_cpu_seconds(bipartite_instance(uo, wo)))
    assert max(costs) <= 3 * min(costs), costs


def test_walk_depth_does_not_grow_with_the_chord_count():
    # a star on 46 vertices: 1,035 chords, one realization
    inst = simple_instance([45] + [1] * 45)
    assert _enumerate_masks(inst, 2000) == (inst.mask_of_edges((0, v) for v in range(1, 46)),)
    # 1,000 rows of degree 1 and two columns: 2,000 chords, one realization
    # for each row that takes the degree-1 column
    inst = bipartite_instance([1] * 1000, [999, 1])
    assert len(_enumerate_masks(inst, 2000)) == 1000


def test_cap_is_checked_before_any_chord_is_built(monkeypatch):
    # building either chord list would take gigabytes
    def built(inst):
        raise AssertionError("chords built")

    monkeypatch.setattr(Instance, "chords", property(built))
    for inst, chords in ((simple_instance([4] * 100_000), 4_999_950_000),
                         (bipartite_instance([1] * 50_000, [1] * 50_000,
                                             ForbiddenSet([(0, 0)])), 2_499_999_999)):
        with pytest.raises(TooLarge, match="instance has %d chords, cap is 24" % chords):
            _enumerate_masks(inst, None)
