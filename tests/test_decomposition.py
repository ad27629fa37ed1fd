"""Composition/decomposition algebra: split recognition, good pairs, the
canonical factorization and its bipartite analogue, psi, and composition."""

import random
from functools import lru_cache

import pytest

from degmix import (
    BipartiteDegreeSequence,
    ForbiddenSet,
    ForbiddenSetNotMatching,
    InvalidSplit,
    NotGraphical,
    SplitSequence,
    bipartite_decomposable,
    canonical_decompose,
    canonical_decompose_bipartite,
    compose,
    compose_bipartite,
    compose_bipartite_many,
    compose_directed,
    erdos_gallai,
    gale_ryser,
    good_pairs,
    greenhill_condition,
    is_split,
    psi,
    psi_inverse,
    recompose,
    split_lift,
)

from conftest import all_simple_graphs, nonincreasing_sequences, split_head_and_rest
import legacy_oracles
from legacy_oracles import _split_indecomposable


def graphical_sequences(n):
    return [d for d in nonincreasing_sequences(n, n - 1) if erdos_gallai(d)]


# ---------------------------------------------------------------------------
# split recognition


def test_is_split_examples():
    s = is_split((2, 2, 2))
    assert s is not None and s.u_degrees == (2, 2, 2) and s.w_degrees == ()
    assert is_split((1, 1, 1, 1)) is None  # m=2, 2 != 2*1+2
    s = is_split((2, 1, 1))
    # U is the first m = 2 vertices in canonical order
    assert s is not None and (s.u_degrees, s.w_degrees) == ((2, 1), (1,))
    with pytest.raises(NotGraphical):
        is_split((3, 3, 1, 1))


def realization_is_split(edges, n):
    """Does the graph admit a clique/independent-set partition at all?"""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for mask in range(1 << n):
        cl = [v for v in range(n) if mask >> v & 1]
        ind = [v for v in range(n) if not mask >> v & 1]
        if all(b in adj[a] for i, a in enumerate(cl) for b in cl[i + 1:]) and all(
            b not in adj[a] for i, a in enumerate(ind) for b in ind[i + 1:]
        ):
            return True
    return False


def test_split_closure_all_realizations():
    # if the sequence is split, every labeled realization of it is a split graph
    for n in range(2, 6):
        split_seqs = {d for d in graphical_sequences(n) if is_split(d) is not None}
        for edges in all_simple_graphs(n):
            deg = [0] * n
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            d = tuple(sorted(deg, reverse=True))
            if d in split_seqs:
                assert realization_is_split(edges, n), (d, edges)


# ---------------------------------------------------------------------------
# good pairs


def brute_good_pairs(d):
    ds = tuple(sorted(d, reverse=True))
    n = len(ds)
    out = []
    for p in range(n + 1):
        for q in range(n + 1):
            if not 0 < p + q < n:
                continue
            if sum(ds[:p]) == p * (n - q - 1) + sum(ds[n - q:]):
                out.append((p, q))
    return sorted(out)


def test_good_pairs_examples():
    assert [(g.p, g.q) for g in good_pairs((4, 2, 2, 1, 1))] == brute_good_pairs(
        (4, 2, 2, 1, 1)
    )
    assert (1, 2) in brute_good_pairs((4, 2, 2, 1, 1))
    # K2 decomposes as K1 o K1: (1,0) satisfies the identity 1 = 1*(2-0-1)+0
    assert [(g.p, g.q) for g in good_pairs((1, 1))] == [(1, 0)]
    assert [(g.p, g.q) for g in good_pairs((2, 2, 2))] == brute_good_pairs((2, 2, 2))


def test_good_pairs_match_brute_scan():
    for n in range(2, 8):
        for d in nonincreasing_sequences(n, n - 1):
            assert [(g.p, g.q) for g in good_pairs(d)] == brute_good_pairs(d), d


# ---------------------------------------------------------------------------
# canonical decomposition (simple)


def test_canonical_decompose_threshold_sequences():
    # threshold sequences decompose into single-vertex components only
    cd = canonical_decompose((1, 1))
    assert [(c.u_degrees, c.w_degrees) for c in cd.components] == [((0,), ())]
    assert cd.tail.degrees == (0,)

    cd = canonical_decompose((4, 2, 2, 1, 1))
    assert all(c.n == 1 for c in cd.components)
    assert len(cd.components) == 4 and cd.tail.degrees == (0,)
    assert recompose(cd).degrees == (4, 2, 2, 1, 1)


def test_canonical_decompose_indecomposable_tail():
    cd = canonical_decompose((2, 2, 1, 1))  # P4: split but indecomposable
    assert cd.components == () and cd.tail.degrees == (2, 2, 1, 1)
    cd = canonical_decompose((1, 1, 1, 1))
    assert cd.components == () and cd.tail.degrees == (1, 1, 1, 1)


def test_canonical_decompose_rejects_nongraphical():
    with pytest.raises(NotGraphical):
        canonical_decompose((3, 3, 1, 1))


@lru_cache(maxsize=None)
def all_maximal_factorizations(d):
    """Oracle: every factorization into indecomposable split heads plus tail,
    by exhaustive search over extraction orders."""
    out = set()
    found = False
    for gp in good_pairs(d):
        got = split_head_and_rest(d, gp.p, gp.q)
        if got is None:
            continue
        head, rest = got
        if not _split_indecomposable(head):
            continue
        found = True
        for comps, tail in all_maximal_factorizations(rest):
            out.add((((head.u_degrees, head.w_degrees),) + comps, tail))
    if not found:
        out.add(((), d))
    return frozenset(out)


def test_round_trip_and_uniqueness_small():
    for n in range(1, 7):
        for d in graphical_sequences(n):
            cd = canonical_decompose(d)
            assert recompose(cd).degrees == d
            facts = all_maximal_factorizations(d)
            assert len(facts) == 1, (d, facts)
            comps, tail = next(iter(facts))
            assert comps == tuple((c.u_degrees, c.w_degrees) for c in cd.components)
            assert tail == (cd.tail.degrees if cd.tail else ())


def test_head_extraction_uses_minimal_good_pair():
    # p0 = min good-pair p; q0 = |{i: d_i < p0}| (or 1 when p0 = 0); the
    # canonical head must sit at exactly (p0, q0)
    for n in range(2, 8):
        for d in graphical_sequences(n):
            cd = canonical_decompose(d)
            if not cd.good_pairs_used:
                continue
            gp = cd.good_pairs_used[0]
            p0 = min(g.p for g in good_pairs(d))
            q0 = sum(1 for x in d if x < p0) if p0 != 0 else 1
            assert (gp.p, gp.q) == (p0, q0), d


# ---------------------------------------------------------------------------
# compose


def test_compose_example():
    s = SplitSequence((2,), (1, 1))
    assert compose(s, (1, 1)).degrees == (4, 2, 2, 1, 1)


def test_compose_associative():
    rng = random.Random(4)
    pool = []
    for nu in range(1, 3):
        for nw in range(0, 3):
            for u in nonincreasing_sequences(nu, nu - 1 + nw):
                for w in nonincreasing_sequences(nw, nu):
                    try:
                        pool.append(SplitSequence(u, w))
                    except InvalidSplit:
                        pass
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        g = rng.choice([(0,), (1, 1), (2, 1, 1), (2, 2, 2)])
        left = compose(a, compose(b, g).degrees)
        bg = compose(b, g)
        # (a o b) o g needs the composed split a o b: build it via the full
        # degree sequence of b prefixed by a
        ab_u = tuple(x + b.n for x in a.u_degrees) + tuple(
            x + a.nu for x in b.u_degrees
        )
        ab_w = a.w_degrees + tuple(x + a.nu for x in b.w_degrees)
        right = compose(SplitSequence(ab_u, ab_w), g)
        assert left.degrees == right.degrees


def test_split_sequence_validation():
    with pytest.raises(InvalidSplit):
        SplitSequence((), ())
    with pytest.raises(InvalidSplit):
        SplitSequence((0, 0), ())  # clique degrees below |U|-1
    with pytest.raises(InvalidSplit):
        SplitSequence((1,), (2,))  # secondary exceeds primary size


# ---------------------------------------------------------------------------
# psi


def test_psi_examples():
    assert psi(SplitSequence((2, 2, 2), ())).u_degrees == (0, 0, 0)
    sb = psi(SplitSequence((2,), (1, 1)))
    assert (sb.u_degrees, sb.w_degrees) == ((2,), (1, 1))


def random_split_sequences(rng, count):
    out = []
    while len(out) < count:
        nu = rng.randrange(0, 5)
        nw = rng.randrange(0, 5)
        if nu + nw == 0:
            continue
        u = sorted((rng.randrange(0, nw + 1) for _ in range(nu)), reverse=True)
        w = sorted((rng.randrange(0, nu + 1) for _ in range(nw)), reverse=True)
        if not gale_ryser((u, w)):
            continue
        out.append(SplitSequence([x + max(nu - 1, 0) for x in u], w))
    return out


def test_psi_round_trip_random():
    rng = random.Random(12345)
    for s in random_split_sequences(rng, 1000):
        assert psi_inverse(psi(s)) == s


def test_psi_inverse_bounds():
    with pytest.raises(InvalidSplit):
        psi_inverse(BipartiteDegreeSequence((3,), (1, 1)))  # 3 > |W| = 2


# ---------------------------------------------------------------------------
# bipartite composition and decomposition (the worked composition examples)


A = BipartiteDegreeSequence((1, 1), (1, 1))
B = BipartiteDegreeSequence((3, 1, 1), (2, 2, 1))
C = BipartiteDegreeSequence((2, 2, 1), (3, 1, 1))
EDGE = BipartiteDegreeSequence((1,), (1,))


def test_compose_bipartite_first_example():
    rhs = compose_bipartite(A, B)
    assert rhs.u_degrees == (4, 4, 3, 1, 1)
    assert rhs.w_degrees == (1, 1, 4, 4, 3)


def test_compose_bipartite_second_example_same_multiset():
    assert compose_bipartite(C, A).canonical() == compose_bipartite(A, B).canonical()


def test_three_factor_decomposition():
    rhs = compose_bipartite(A, B)
    factors = canonical_decompose_bipartite(rhs)
    assert [(f.u_degrees, f.w_degrees) for f in factors] == [
        ((1, 1), (1, 1)),
        ((1,), (1,)),
        ((1, 1), (1, 1)),
    ]
    assert compose_bipartite_many(factors).canonical() == rhs.canonical()
    # and the three-factor composition reproduces the right-hand side directly
    assert compose_bipartite_many([A, EDGE, A]).canonical() == rhs.canonical()


def test_bipartite_decomposable_examples():
    assert bipartite_decomposable(A) == []
    assert bipartite_decomposable(EDGE) == []
    assert [(g.p, g.q) for g in bipartite_decomposable(compose_bipartite(A, B))] == [
        (2, 3),
        (3, 2),
        (3, 3),
    ]


def test_bipartite_round_trip_exhaustive():
    for nu in range(1, 5):
        for nw in range(1, 5):
            for u in nonincreasing_sequences(nu, nw):
                for w in nonincreasing_sequences(nw, nu):
                    if not gale_ryser((u, w)):
                        continue
                    sb = BipartiteDegreeSequence(u, w)
                    factors = canonical_decompose_bipartite(sb)
                    assert compose_bipartite_many(factors).canonical() == sb.canonical()
                    if len(factors) == 1:
                        # indecomposable input comes back as a singleton
                        assert factors[0].canonical() == sb.canonical()


def test_bipartite_decompose_deterministic_and_factors_indecomposable():
    rhs = compose_bipartite(compose_bipartite(A, EDGE), compose_bipartite(EDGE, A))
    f1 = canonical_decompose_bipartite(rhs)
    f2 = canonical_decompose_bipartite(rhs)
    assert [f.canonical() for f in f1] == [f.canonical() for f in f2]
    for f in f1:
        assert len(canonical_decompose_bipartite(f)) == 1


def test_least_extraction_matches_legacy_first_indecomposable_head():
    # the least valid extraction is taken without testing its head; the
    # legacy decompositions take the first head an independent scan finds
    # indecomposable, so they agree exactly when that theorem holds
    simple = [d for n in range(1, 9) for d in graphical_sequences(n)]
    assert len(simple) == 1706
    for d in simple:
        cd, old = canonical_decompose(d), legacy_oracles.canonical_decompose(d)
        assert (cd.components, cd.tail, cd.good_pairs_used) == (
            old.components, old.tail, old.good_pairs_used), d
        assert all(legacy_oracles._split_indecomposable(c) for c in cd.components), d
    bipartite = [
        BipartiteDegreeSequence(u, w)
        for nu in range(1, 6)
        for nw in range(1, 6)
        for u in nonincreasing_sequences(nu, nw)
        for w in nonincreasing_sequences(nw, nu)
        if gale_ryser((u, w))
    ]
    assert len(bipartite) == 3744
    for sb in bipartite:
        factors = canonical_decompose_bipartite(sb)
        assert factors == legacy_oracles.canonical_decompose_bipartite(sb), sb
        assert all(legacy_oracles._bip_indecomposable(*f.canonical()) for f in factors), sb


def test_compose_bipartite_associative():
    rng = random.Random(77)
    pool = [A, B, C, EDGE, BipartiteDegreeSequence((2, 1, 1), (2, 2))]
    for _ in range(100):
        x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        left = compose_bipartite(compose_bipartite(x, y), z)
        right = compose_bipartite(x, compose_bipartite(y, z))
        assert left.canonical() == right.canonical()


# ---------------------------------------------------------------------------
# directed composition


def test_compose_directed_examples():
    one = BipartiteDegreeSequence((1,), (1,))
    f = ForbiddenSet([(0, 0)])
    composed, merged = compose_directed(one, f, one, f)
    assert composed.canonical() == BipartiteDegreeSequence((2, 1), (1, 2)).canonical()
    assert sorted(merged.pairs) == [(0, 0), (1, 1)]
    assert len(merged) == len(f) + len(f)

    # empty forbidden sets reduce to the plain bipartite composition
    empty = ForbiddenSet()
    composed2, merged2 = compose_directed(A, empty, B, empty)
    assert composed2.canonical() == compose_bipartite(A, B).canonical()
    assert len(merged2) == 0


def test_compose_directed_rejects_bad_one_factor():
    # a set that is not a partial 1-factor cannot be built; one outside its
    # operand's classes is refused
    with pytest.raises(ForbiddenSetNotMatching):
        compose_directed(A, ForbiddenSet([(0, 0), (0, 1)]), A, ForbiddenSet())
    with pytest.raises(ValueError, match="out of range"):
        compose_directed(A, ForbiddenSet(), A, ForbiddenSet([(0, 5)]))


# ---------------------------------------------------------------------------
# Greenhill window


def test_negative_degrees_raise_value_error():
    calls = [
        lambda: good_pairs((2, -1, 1)),
        lambda: compose(SplitSequence((1,), (1,)), (1, -1)),
        lambda: greenhill_condition((3, -1)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="degrees must be non-negative"):
            call()


def test_greenhill_examples():
    assert not greenhill_condition((2, 2, 2))  # d_max < 3
    assert greenhill_condition((3,) * 48)  # 3 <= sqrt(144)/4 = 3
    assert not greenhill_condition((3,) * 47)
    lift = split_lift(A)
    assert lift.degrees == (2, 2, 1, 1)
    assert not greenhill_condition(lift)


def test_greenhill_fails_for_all_split_lifts_m2_m3():
    for m in (2, 3):
        for u in nonincreasing_sequences(m, m):
            for w in nonincreasing_sequences(m, m):
                if gale_ryser((u, w)):
                    lift = split_lift(BipartiteDegreeSequence(u, w))
                    assert not greenhill_condition(lift), (u, w)
