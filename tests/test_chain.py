"""Chain kernel behavior: symmetry, invariants, reproducibility, product law."""

import itertools
import random
import sys
from collections import Counter

import numpy as np
import pytest

from degmix import (
    BipartiteDegreeSequence,
    ChainState,
    DegreeSequence,
    DirectedDegreeSequence,
    ForbiddenSet,
    LabeledBipartiteGraph,
    LabeledGraph,
    NotGraphical,
    degree_spectra,
    derive_seed,
    enumerate_swaps,
    sample,
)
from degmix import sequences
from degmix.chain import ProductChain, build_product_chain, _make_plan, run
from degmix.space import realization_space
from degmix.spectra import _dsm_plan

from legacy_oracles import make_plan as legacy_make_plan, reference_run
from test_golden_draws import CASES as GOLDEN_CASES


def test_kernel_symmetric_on_desk_instances():
    for seq in (
        DegreeSequence((2, 2, 1, 1)),
        DegreeSequence((1, 1, 1, 1)),
        BipartiteDegreeSequence((2, 2, 1), (3, 1, 1)),
        BipartiteDegreeSequence((2, 2, 2), (2, 2, 2)),
        DirectedDegreeSequence((1, 1, 1), (1, 1, 1)),
    ):
        p = realization_space(seq).transition_matrix()
        assert np.array_equal(p, p.T), seq
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(np.diag(p) >= 0.5 - 1e-12)


def test_stationary_uniform_exact():
    for seq in (DegreeSequence((1, 1, 1, 1)), BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))):
        space = realization_space(seq)
        p = space.transition_matrix()
        pi = np.full(space.count, 1.0 / space.count)
        assert np.max(np.abs(pi @ p - pi)) <= 1e-12


def test_threshold_sequence_never_moves():
    space = realization_space(DegreeSequence((4, 2, 2, 1, 1)))
    assert space.count == 1
    state = ChainState(
        space.instance, space.instance.edges_of_mask(space.masks[0]), random.Random(5)
    )
    start = state.mask
    run(ProductChain([state], random.Random(4)), 500)
    assert state.mask == start


def test_step_preserves_degrees_and_forbidden():
    dd = DirectedDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1))
    space = realization_space(dd)
    state = ChainState(
        space.instance, space.instance.edges_of_mask(space.masks[0]), random.Random(17)
    )
    pc = ProductChain([state], random.Random(16))
    banned = space.instance.forbidden
    for k in range(2000):
        run(pc, 1)
        if k % 100 == 0:
            g = state.graph
            assert g.u_degrees() == space.instance.u_degrees
            assert g.w_degrees() == space.instance.w_degrees
            assert not set(g.edges) & banned.pairs


def test_seeded_runs_bit_reproducible():
    a = sample(DegreeSequence((2, 2, 2, 1, 1)), burn_in=60, thin=6, count=12, seed=99)
    b = sample(DegreeSequence((2, 2, 2, 1, 1)), burn_in=60, thin=6, count=12, seed=99)
    assert a == b
    c = sample(DegreeSequence((2, 2, 2, 1, 1)), burn_in=60, thin=6, count=12, seed=100)
    assert a != c


def test_jobs_do_not_change_output():
    kw = dict(burn_in=40, thin=4, count=9, seed=3)
    assert sample(DegreeSequence((2, 2, 1, 1)), **kw) == sample(
        DegreeSequence((2, 2, 1, 1)), jobs=3, **kw
    )


def test_empirical_distribution_uniform():
    # (1,1,1,1): 3 realizations; occupation of a long trajectory near uniform
    space = realization_space(DegreeSequence((1, 1, 1, 1)))
    state = ChainState(
        space.instance, space.instance.edges_of_mask(space.masks[0]), random.Random(11)
    )
    pc = ProductChain([state], random.Random(10))
    idx = space.index()
    counts = Counter()
    steps = 100000
    for _ in range(steps):
        run(pc, 1)
        counts[idx[state.mask]] += 1
    tv = 0.5 * sum(abs(counts[i] / steps - 1 / 3) for i in range(3))
    assert tv < 0.02


def test_product_step_touches_one_coordinate():
    # (6,6,4,4,3,3,1,1) factors into a split head plus a P4 tail, both with
    # two realizations
    plan = _make_plan(DegreeSequence((6, 6, 4, 4, 3, 3, 1, 1)), None, "auto")
    pc = build_product_chain(plan, seed=21)
    assert len(pc.coordinates) >= 2
    for _ in range(300):
        before = pc.masks()
        run(pc, 1)
        after = pc.masks()
        assert sum(1 for x, y in zip(before, after) if x != y) <= 1


def test_product_with_frozen_coordinate_is_half_slowed():
    # one rigid coordinate (single realization) plus one live coordinate:
    # the product transition matrix on the live coordinate is (I + P)/2
    live = realization_space(BipartiteDegreeSequence((1, 1), (1, 1)))
    p = live.transition_matrix()
    product = 0.5 * np.eye(live.count) + 0.5 * p
    # assembled from the product-chain law with K = 2 and a frozen coordinate
    expect = (np.eye(live.count) + p) / 2.0
    assert np.allclose(product, expect, atol=0)


def test_sample_rejects_bad_schedules():
    seq = DegreeSequence((2, 2, 1, 1))
    with pytest.raises(ValueError, match="burn_in must be >= 0"):
        sample(seq, burn_in=-1, thin=1, count=1, seed=0)
    with pytest.raises(ValueError, match="thin must be >= 1"):
        sample(seq, burn_in=0, thin=0, count=1, seed=0)


def test_sample_rejects_an_unknown_factorize():
    for count in (0, 2):
        with pytest.raises(ValueError, match="factorize must be 'auto' or 'off'"):
            sample(DegreeSequence((1, 1)), 0, 1, count, 0, factorize="bogus")


def test_sample_not_graphical():
    with pytest.raises(NotGraphical):
        sample(DegreeSequence((3, 3, 1, 1)), burn_in=1, thin=1, count=1, seed=0)


@pytest.mark.parametrize("d, forbidden, message", [
    pytest.param(DirectedDegreeSequence((1, 0), (1, 0)), None,
                 "directed sequence is not graphical", id="directed-needs-a-loop"),
    pytest.param(DirectedDegreeSequence((2, 0), (1, 0)), None,
                 "directed sequence is not graphical", id="directed-sums-differ"),
    pytest.param(BipartiteDegreeSequence((1, 0), (1, 0)), ForbiddenSet([(0, 0)]),
                 "no realization avoids the forbidden set", id="forbidden-infeasible"),
    pytest.param(BipartiteDegreeSequence((1, 1), (1, 0)), ForbiddenSet([(0, 0)]),
                 "no realization avoids the forbidden set", id="forbidden-sums-differ"),
])
def test_sample_flow_paths_reject_with_their_messages(d, forbidden, message):
    with pytest.raises(NotGraphical) as err:
        sample(d, burn_in=1, thin=1, count=1, seed=0, forbidden=forbidden)
    assert str(err.value) == message


def test_sample_flow_paths_run_one_max_flow(monkeypatch):
    # the greedy that realizes the start also decides graphicality: each
    # call realizes its start once and runs no separate graphicality test
    calls = []

    def counting(name, orig):
        return lambda *args: calls.append(name) or orig(*args)

    modules = [m for n, m in sys.modules.items() if n == "degmix" or n.startswith("degmix.")]
    for name in ("realize_bipartite", "restricted_bipartite_graphical", "directed_graphical",
                 "gale_ryser", "erdos_gallai"):
        orig = getattr(sequences, name)
        for mod in modules:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counting(name, orig))
    sample(DirectedDegreeSequence((1, 1, 1), (1, 1, 1)), burn_in=5, thin=1, count=3, seed=0)
    assert calls == ["realize_bipartite"]
    sample(BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), burn_in=5, thin=1, count=3, seed=0,
           forbidden=ForbiddenSet([(0, 0), (1, 1), (2, 2)]))
    assert calls == ["realize_bipartite"] * 2
    # unfactorized, the start realization alone decides graphicality
    sample(BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), burn_in=5, thin=1, count=3, seed=0,
           factorize="off")
    assert calls == ["realize_bipartite"] * 3
    sample(DegreeSequence((2, 2, 1, 1)), burn_in=5, thin=1, count=3, seed=0, factorize="off")
    assert calls == ["realize_bipartite"] * 3


def test_sample_degree_recount_simple():
    degrees = (1, 4, 2, 1, 2)
    for edges in sample(DegreeSequence(degrees), burn_in=50, thin=5, count=10, seed=8):
        assert LabeledGraph(5, edges).degrees() == degrees


def test_sample_split_structure_audit():
    # (4,2,2,1,1) is threshold: one realization, so factorized samples are
    # constant and carry the full forced structure
    draws = sample(DegreeSequence((4, 2, 2, 1, 1)), burn_in=30, thin=3, count=5, seed=2)
    assert len(set(map(tuple, draws))) == 1
    g = LabeledGraph(5, draws[0])
    assert g.degrees() == (4, 2, 2, 1, 1)
    assert (0, 1) in g.edges and (0, 4) in g.edges  # dominating vertex edges


def test_sample_bipartite_and_directed_kinds():
    bd = BipartiteDegreeSequence((2, 2, 1), (3, 1, 1))
    for edges in sample(bd, burn_in=40, thin=4, count=6, seed=6):
        g = LabeledBipartiteGraph(3, 3, edges)
        assert g.u_degrees() == bd.u_degrees and g.w_degrees() == bd.w_degrees
    dd = DirectedDegreeSequence((1, 1, 1), (1, 1, 1))
    seen = set()
    for arcs in sample(dd, burn_in=40, thin=4, count=20, seed=6):
        assert all(a != b for a, b in arcs)
        seen.add(tuple(arcs))
    assert len(seen) == 2  # both directed triangles occur


def test_sample_restricted_bipartite():
    bd = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    banned = ForbiddenSet([(0, 0), (1, 1), (2, 2)])
    for edges in sample(bd, burn_in=40, thin=4, count=8, seed=14, forbidden=banned):
        assert not set(map(tuple, edges)) & banned.pairs
        g = LabeledBipartiteGraph(3, 3, edges)
        assert g.u_degrees() == bd.u_degrees and g.w_degrees() == bd.w_degrees


def test_factorize_off_matches_degree_contract():
    degrees = (4, 4, 3, 3, 2, 2, 1, 1)
    for edges in sample(
        DegreeSequence(degrees), burn_in=60, thin=6, count=4, seed=10, factorize="off"
    ):
        assert LabeledGraph(8, edges).degrees() == degrees


def test_factorized_and_single_chain_agree_on_support():
    # (6,6,4,4,3,3,1,1) has 4 realizations (2 per factor); the factorized and
    # the single-chain samplers must cover the same labeled realizations,
    # both close to uniform
    d = DegreeSequence((6, 6, 4, 4, 3, 3, 1, 1))
    factored = Counter(
        tuple(e) for e in sample(d, burn_in=150, thin=10, count=2000, seed=31)
    )
    single = Counter(
        tuple(e)
        for e in sample(d, burn_in=150, thin=10, count=2000, seed=32, factorize="off")
    )
    assert set(factored) == set(single) and len(factored) == 4
    tv_f = 0.5 * sum(abs(v / 2000 - 0.25) for v in factored.values())
    tv_s = 0.5 * sum(abs(v / 2000 - 0.25) for v in single.values())
    assert tv_f < 0.05 and tv_s < 0.15


def test_factor_marginals_independent_chi_square():
    # composing two copies of the 2x2 matching block gives independent factor
    # marginals under the product chain; chi-square on the 2x2 joint
    from degmix import compose_bipartite

    a = BipartiteDegreeSequence((1, 1), (1, 1))
    comp = compose_bipartite(a, a)
    draws = sample(comp, burn_in=200, thin=15, count=4000, seed=13)
    cnt = Counter()
    for e in draws:
        es = set(map(tuple, e))
        cnt[((0, 0) in es, (2, 2) in es)] += 1
    n = sum(cnt.values())
    pa = (cnt[(True, True)] + cnt[(True, False)]) / n
    pb = (cnt[(True, True)] + cnt[(False, True)]) / n
    stat = 0.0
    for x in (True, False):
        for y in (True, False):
            e = n * (pa if x else 1 - pa) * (pb if y else 1 - pb)
            stat += (cnt[(x, y)] - e) ** 2 / e
    assert stat < 6.634897  # chi-square df=1 critical value at p = 0.01


def test_sample_empty_sequence():
    for factorize in ("auto", "off"):
        assert sample(DegreeSequence(()), 0, 1, 2, 0, factorize=factorize) == [[], []]


BEYOND_ENUMERATION = {
    "simple-4-regular-300": DegreeSequence((4,) * 300),
    "bipartite-3-regular-150": BipartiteDegreeSequence((3,) * 150, (3,) * 150),
    "directed-3-regular-150": DirectedDegreeSequence((3,) * 150, (3,) * 150),
}


@pytest.mark.parametrize("name", sorted(BEYOND_ENUMERATION))
def test_sample_beyond_enumerable_sizes(name, monkeypatch):
    # Far past the chord cap, draws keep their degrees, repeat no edge and
    # avoid the forbidden diagonal, and no factor builds its chord table.
    seq = BEYOND_ENUMERATION[name]
    plans = []

    def recording_plan(*args):
        plans.append(_make_plan(*args))
        return plans[-1]

    monkeypatch.setattr("degmix.chain._make_plan", recording_plan)
    draws = sample(seq, burn_in=3000, thin=300, count=3, seed=12, jobs=1)
    assert len({tuple(edges) for edges in draws}) == 3  # the chains move
    directed = isinstance(seq, DirectedDegreeSequence)
    if directed:
        seq = BipartiteDegreeSequence(seq.out_degrees, seq.in_degrees)
    for edges in draws:
        assert len(set(edges)) == len(edges)
        if isinstance(seq, DegreeSequence):
            assert all(a < b for a, b in edges)
            assert LabeledGraph(seq.n, edges).degrees() == seq.degrees
        else:
            assert not directed or all(a != b for a, b in edges)
            g = LabeledBipartiteGraph(seq.nu, seq.nw, edges)
            assert g.u_degrees() == seq.u_degrees and g.w_degrees() == seq.w_degrees
    assert len(plans) == 1
    assert not any("chords" in inst.__dict__ for inst in plans[0].factors)


def test_derive_seed_stable():
    assert derive_seed(0, 0) != derive_seed(0, 1)
    assert derive_seed(0, 0) == derive_seed(0, 0)
    # the seed-to-draw mapping: sha256 of "degmix:<master>:<index>", first 8 bytes
    import hashlib

    for m, i in ((0, 0), (0, 1), (1671, 3), (2 ** 63, 0), (2 ** 63, 7), (-5, 2)):
        want = hashlib.sha256(b"degmix:%d:%d" % (m, i)).digest()[:8]
        assert derive_seed(m, i) == int.from_bytes(want, "big"), (m, i)


# Inputs on which ``run`` must consume every RNG exactly as ``reference_run``
# does: each golden-draw input, plus edge counts on both sides of 21 (where
# CPython's ``Random.sample`` changes method; degmix's draws do not), C6
# swaps on a larger directed input, a frozen factor, and a star plus two
# edges with K = 256 and K = 257 factors, on either side of the byte-wide
# coordinate picks.
RUN_CASES = {
    **{"golden-" + name: case for name, case in GOLDEN_CASES.items()},
    "pool-simple": (DegreeSequence([3] * 14), "off", None),  # m = 21
    "set-simple": (DegreeSequence([2] * 22), "off", None),  # m = 22
    "set-bipartite": (BipartiteDegreeSequence([3] * 10, [3] * 10), "off", None),  # m = 30
    "set-c6-directed": (DirectedDegreeSequence([3] * 10, [3] * 10), "auto", None),  # m = 30
    "frozen-star": (DegreeSequence((3, 1, 1, 1)), "off", None),  # no disjoint pair
    "hub-256": (DegreeSequence([258] + [2] * 4 + [1] * 254), "auto", None),  # n = 259
    "hub-257": (DegreeSequence([259] + [2] * 4 + [1] * 255), "auto", None),  # n = 260
}

# The graph whose spectra matrix is the golden DSM input: three components.
DSM_GRAPH = LabeledGraph(9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3),
                             (6, 7), (7, 8), (1, 8), (0, 5)])


def _run_plan(name):
    if name == "dsm-golden":
        return _dsm_plan(degree_spectra(DSM_GRAPH))
    seq, factorize, forbidden = RUN_CASES[name]
    return _make_plan(seq, forbidden, factorize)


def _snapshot(pc):
    return pc.rng.getstate(), [(list(c.edges), dict(c._pos), c.rng.getstate())
                               for c in pc.coordinates]


@pytest.mark.parametrize("name", sorted(RUN_CASES) + ["dsm-golden"])
def test_run_matches_product_step(name):
    plan = _run_plan(name)
    sizes = [inst.m for inst in plan.factors]
    if name.startswith("pool"):
        assert max(sizes) == 21
    if name.startswith("set"):
        assert max(sizes) > 21
    if "c6" in name:
        assert any(inst.use_c6 for inst in plan.factors)
    if name.startswith("frozen"):
        assert [inst.disjoint_pairs for inst in plan.factors] == [0]
    if name.startswith("hub"):
        assert len(sizes) == int(name[4:])
    ref, fast = build_product_chain(plan, seed=31), build_product_chain(plan, seed=31)
    start = _snapshot(ref)
    # a hub's one live factor gets 1/K of the moves; its 10,000 moves reach
    # it ~40 times and take several refills of coordinate picks
    for k in (0, 1, 20000 if name.startswith("hub") else 2000):
        reference_run(ref, k)
        run(fast, k)
        assert _snapshot(fast) == _snapshot(ref)
    if not name.startswith("frozen"):
        assert _snapshot(ref)[1] != start[1]  # the coordinates moved


def test_run_matches_reference_past_one_block():
    # 70,000 steps take two blocks of lazy bits: 65,536 and 4,464
    plan = _run_plan("golden-restricted")
    ref, fast = build_product_chain(plan, seed=5), build_product_chain(plan, seed=5)
    reference_run(ref, 70000)
    run(fast, 70000)
    assert _snapshot(fast) == _snapshot(ref)


class _BitsOnly(random.Random):
    """An RNG that serves ``getrandbits`` and refuses every other draw."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("run drew through a method other than getrandbits")

    random = randrange = randint = sample = choice = choices = shuffle = _refuse


def _bits_only(rng: random.Random) -> _BitsOnly:
    copy = _BitsOnly()
    copy.setstate(rng.getstate())
    return copy


@pytest.mark.parametrize("name", sorted(RUN_CASES) + ["dsm-golden"])
def test_run_draws_only_through_getrandbits(name):
    plan = _run_plan(name)
    ref, pc = build_product_chain(plan, seed=8), build_product_chain(plan, seed=8)
    pc.rng = _bits_only(pc.rng)
    for c in pc.coordinates:
        c.rng = _bits_only(c.rng)
    run(pc, 3000)
    run(ref, 3000)
    assert _snapshot(pc) == _snapshot(ref)


def test_run_holds_one_block_of_lazy_bits():
    # 2**20 steps as one getrandbits call would hold a 128 KiB integer;
    # blocks of 2**16 bits hold 8 KiB at a time.  On a multi-coordinate
    # plan, a block's ~2**15 coordinate picks drawn as one integer would
    # hold 128 KiB more; they are drawn a few KiB at a time.
    import tracemalloc

    for name in ("golden-simple-off", "dsm-golden"):
        pc = build_product_chain(_run_plan(name), seed=2)
        run(pc, 1000)
        tracemalloc.start()
        try:
            run(pc, 2 ** 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024, (name, peak)


def _chi_square_bound(df: int, z: float = 3.719) -> float:
    """Upper 10**-4 point of chi-square with ``df`` degrees of freedom, by
    the Wilson-Hilferty approximation."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * c ** 0.5) ** 3


def _busiest(space) -> int:
    """Index of the realization with the most C6 moves, then the most moves."""
    def key(i):
        moves = enumerate_swaps(space.instance.graph_of_mask(space.masks[i]),
                                space.instance.forbidden)
        return sum(move.kind == "C6" for move in moves), len(moves)
    return max(range(space.count), key=key)


def _assert_t_step_law(spaces, t: int, trials: int, seed: int):
    """Run the product chain of ``spaces`` (one coordinate each) for ``t``
    steps from each space's busiest realization, ``trials`` times on
    continuing RNG streams, and chi-square the end states against the
    start's row of P^t, P = (1/K) * sum_i I x ... x P_i x ... x I."""
    k = len(spaces)
    sizes = [sp.count for sp in spaces]
    p = np.zeros((1, 1))
    for i, sp in enumerate(spaces):
        before, after = int(np.prod(sizes[:i])), int(np.prod(sizes[i + 1:]))
        term = np.kron(np.kron(np.eye(before), sp.transition_matrix()), np.eye(after))
        p = term if i == 0 else p + term
    p /= k
    first = [_busiest(sp) for sp in spaces]
    row = np.linalg.matrix_power(p, t)[np.ravel_multi_index(first, sizes)]
    rngs = [random.Random(derive_seed(seed, i)) for i in range(k + 1)]
    starts = [sp.instance.edges_of_mask(sp.masks[i]) for sp, i in zip(spaces, first)]
    indices = [sp.index() for sp in spaces]
    counts = np.zeros(len(row))
    for _ in range(trials):
        coords = [ChainState(sp.instance, e, r) for sp, e, r in zip(spaces, starts, rngs[1:])]
        run(ProductChain(coords, rngs[0]), t)
        state = tuple(ix[c.mask] for ix, c in zip(indices, coords))
        counts[np.ravel_multi_index(state, sizes)] += 1
    assert counts[row == 0].sum() == 0  # no draw leaves the support of P^t
    expected = trials * row
    big = expected >= 5
    observed = np.append(counts[big], counts[~big].sum())
    expected = np.append(expected[big], expected[~big].sum())
    if expected[-1] == 0:
        observed, expected = observed[:-1], expected[:-1]
    stat = float(((observed - expected) ** 2 / expected).sum())
    df = len(expected) - 1
    assert df >= 1 and stat < _chi_square_bound(df), (stat, df)


LAW_CASES = {
    "simple": (DegreeSequence((2, 2, 1, 1, 1, 1)), None),
    "bipartite": (BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1)), None),
    "restricted-c6": (GOLDEN_CASES["restricted"][0], GOLDEN_CASES["restricted"][2]),
    "directed": (DirectedDegreeSequence((2, 1, 1, 1), (1, 1, 2, 1)), None),
    # two edges under a forbidden pair: every C6 proposal stays, so C4 swaps
    # get half of the moves
    "two-edges-c6": (BipartiteDegreeSequence((1, 1), (1, 1, 0)), ForbiddenSet([(0, 2)])),
}


@pytest.mark.parametrize("t", [1, 3])
@pytest.mark.parametrize("name", sorted(LAW_CASES) + ["product-simple-directed"])
def test_run_t_step_law_matches_exact_kernel(name, t):
    # run's draws change the seed-to-draw mapping, not the kernel: from a
    # fixed start, the end state after t steps follows the row of P^t
    if name == "product-simple-directed":
        spaces = [realization_space(*LAW_CASES["simple"]),
                  realization_space(*LAW_CASES["directed"])]
    else:
        spaces = [realization_space(*LAW_CASES[name])]
    if name in ("restricted-c6", "directed"):  # C6 moves leave the start
        inst = spaces[0].instance
        busiest = inst.graph_of_mask(spaces[0].masks[_busiest(spaces[0])])
        assert any(m.kind == "C6" for m in enumerate_swaps(busiest, inst.forbidden))
    _assert_t_step_law(spaces, t, trials=40000, seed=1600 + t)


def test_run_without_factors_draws_nothing():
    pc = ProductChain([], random.Random(4))
    state = pc.rng.getstate()
    assert run(pc, 100) is pc
    assert pc.rng.getstate() == state


def test_sample_tests_erdos_gallai_once(monkeypatch):
    # the canonical decomposition tests a factorized sequence, and the
    # Havel-Hakimi start does not test it again; unfactorized, that start
    # alone decides graphicality
    calls = []
    orig = sequences.erdos_gallai

    def counted(d):
        calls.append(1)
        return orig(d)

    for mod in [m for n, m in sys.modules.items() if n == "degmix" or n.startswith("degmix.")]:
        if getattr(mod, "erdos_gallai", None) is orig:
            monkeypatch.setattr(mod, "erdos_gallai", counted)
    for factorize, tests in (("auto", 1), ("off", 0)):
        calls.clear()
        sample(DegreeSequence([4] * 200), burn_in=10, thin=1, count=1, seed=0,
               factorize=factorize)
        assert len(calls) == tests, factorize
    calls.clear()
    with pytest.raises(NotGraphical) as err:
        sample(DegreeSequence((3, 3, 1, 1)), burn_in=10, thin=1, count=1, seed=0,
               factorize="off")
    assert str(err.value) == "sequence is not graphical: (3, 3, 1, 1)"
    assert not calls


def _plan_outcome(make, d, forbidden, factorize):
    """What a front door makes of an input: the plan's starts, forced edges,
    maps and kind, or the type and message of what it raised."""
    try:
        plan = make(d, forbidden, factorize)
        return plan, (plan.starts, plan.forced, plan.u_maps, plan.w_maps, plan.simple)
    except (NotGraphical, ValueError) as exc:
        return None, (type(exc), str(exc))


def _front_door_inputs():
    """Every simple tuple up to 5 vertices and non-increasing one of 6,
    bipartite pair up to 3 + 3 and directed sequence up to 3 vertices, each
    with the forbidden sets and factorize modes that apply."""
    simple = [d for n in range(6) for d in itertools.product(range(n + 1), repeat=n)]
    simple += list(itertools.combinations_with_replacement(range(6, -1, -1), 6))
    one = ForbiddenSet([(0, 0)])
    for d in simple:
        yield d, None, "auto"
        yield d, None, "off"
        yield d, one, "auto"
    sides = [s for n in range(4) for s in itertools.product(range(4), repeat=n)]
    for u in sides:
        for w in sides:
            bd = BipartiteDegreeSequence(u, w)
            yield bd, None, "auto"
            yield bd, None, "off"
            yield bd, one, "auto"
    for n in range(4):
        for out in itertools.product(range(n + 1), repeat=n):
            for in_ in itertools.product(range(n + 1), repeat=n):
                yield DirectedDegreeSequence(out, in_), None, "auto"


def test_front_door_matches_the_legacy_plans():
    # one kind dispatch gives the plans and the rejections of the old
    # per-kind branches; each one-factor plan holds the instance that the
    # exhaustive engine enumerates
    checked = rejected = one_factor = 0
    for d, forbidden, factorize in _front_door_inputs():
        plan, got = _plan_outcome(_make_plan, d, forbidden, factorize)
        _, want = _plan_outcome(legacy_make_plan, d, forbidden, factorize)
        assert got == want, (d, forbidden, factorize)
        checked += 1
        rejected += plan is None
        if plan is None or not (factorize == "off" or forbidden is not None
                                or isinstance(d, DirectedDegreeSequence)):
            continue
        one_factor += 1
        (inst,) = plan.factors
        ref = realization_space(d, forbidden).instance
        assert inst.kind == ref.kind
        if inst.kind == "simple":
            assert inst.degrees == ref.degrees
        else:
            assert (inst.u_degrees, inst.w_degrees) == (ref.u_degrees, ref.w_degrees)
        assert inst.forbidden.pairs == ref.forbidden.pairs
        assert inst.use_c6 == ref.use_c6 and inst.chords == ref.chords
    assert (checked, rejected, one_factor) == (54060, 51346, 1529)
