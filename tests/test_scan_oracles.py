"""The prefix-sum validators and decomposition scans against the quadratic
and cubic scans they replaced (``legacy_oracles``) and against networkx, the
heap Havel–Hakimi against the re-sorting one, and the Kleitman–Wang
restricted realization against the max flow.

Random inputs go up to n = 200; composed inputs fold many random split
components over a random tail, so their decompositions have many steps.
"""

import random
from itertools import combinations

import networkx as nx
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import legacy_oracles as old
from degmix import (
    BipartiteDegreeSequence,
    ForbiddenSet,
    NotGraphical,
    SplitSequence,
    bipartite_decomposable,
    canonical_decompose,
    canonical_decompose_bipartite,
    compose,
    compose_bipartite_many,
    erdos_gallai,
    gale_ryser,
    good_pairs,
    realize_bipartite,
    recompose,
)
from degmix.sequences import _havel_hakimi_edges

SETTINGS = dict(deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graph_degrees(draw, max_n):
    """Degrees of a random simple graph: always graphical."""
    n = draw(st.integers(0, max_n))
    density = draw(st.floats(0, 1))
    rnd = draw(st.randoms(use_true_random=False))
    deg = [0] * n
    for a, b in combinations(range(n), 2):
        if rnd.random() < density:
            deg[a] += 1
            deg[b] += 1
    return deg


@st.composite
def bipartite_graph_degrees(draw, max_n):
    nu, nw = draw(st.integers(0, max_n)), draw(st.integers(0, max_n))
    density = draw(st.floats(0, 1))
    rnd = draw(st.randoms(use_true_random=False))
    u, w = [0] * nu, [0] * nw
    for i in range(nu):
        for j in range(nw):
            if rnd.random() < density:
                u[i] += 1
                w[j] += 1
    return u, w


@st.composite
def composed_degrees(draw, max_parts):
    """Random split components, each a random bipartite graph plus its
    clique, composed in turn over a random graph."""
    out = tuple(draw(graph_degrees(6)))
    for _ in range(draw(st.integers(0, max_parts))):
        u, w = draw(bipartite_graph_degrees(3).filter(lambda uw: uw[0] or uw[1]))
        out = compose(SplitSequence([x + len(u) - 1 for x in u], w), out).degrees
    return out


@st.composite
def composed_bipartite(draw, max_parts):
    parts = draw(st.lists(bipartite_graph_degrees(4), min_size=1, max_size=max_parts))
    return compose_bipartite_many(BipartiteDegreeSequence(u, w) for u, w in parts)


def any_degrees(max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))


def result_or_none(fn, arg):
    try:
        return fn(arg)
    except NotGraphical:
        return None


def assert_same_simple(d):
    new = result_or_none(canonical_decompose, d)
    ref = result_or_none(old.canonical_decompose, d)
    if ref is None:
        assert new is None
        return
    assert (new.components, new.tail, new.good_pairs_used) == (
        ref.components, ref.tail, ref.good_pairs_used)
    assert recompose(new).degrees == tuple(sorted(d, reverse=True))


def assert_same_bipartite(sb):
    assert result_or_none(canonical_decompose_bipartite, sb) == \
        result_or_none(old.canonical_decompose_bipartite, sb)
    assert bipartite_decomposable(sb) == old.bipartite_decomposable(sb)


@settings(max_examples=100, **SETTINGS)
@given(st.one_of(any_degrees(200), graph_degrees(200)))
def test_erdos_gallai_matches_quadratic_scan_and_networkx(d):
    assert erdos_gallai(d) == old.erdos_gallai(d) == nx.is_graphical(d)


@settings(max_examples=100, **SETTINGS)
@given(st.one_of(
    any_degrees(200),
    graph_degrees(200),
    # odd sums: rejected, often only after many rounds
    graph_degrees(200).filter(bool).map(lambda d: d[:-1] + [d[-1] + 1]),
))
def test_havel_hakimi_heap_matches_resorting_scan(d):
    assert result_or_none(_havel_hakimi_edges, d) == result_or_none(old._havel_hakimi_edges, d)


@settings(max_examples=100, **SETTINGS)
@given(st.one_of(
    st.tuples(any_degrees(100), any_degrees(100)),
    bipartite_graph_degrees(60),
))
def test_gale_ryser_matches_quadratic_scan(uw):
    assert gale_ryser(uw) == old.gale_ryser(uw)


@settings(max_examples=80, **SETTINGS)
@given(st.one_of(any_degrees(40), graph_degrees(40), composed_degrees(12)))
def test_good_pairs_match_cubic_scan(d):
    assert good_pairs(d) == old.good_pairs(d)


@settings(max_examples=150, **SETTINGS)
@given(st.one_of(any_degrees(12), graph_degrees(30), composed_degrees(15)))
def test_canonical_decompose_matches_old_scan(d):
    assert_same_simple(d)


@settings(max_examples=6, **SETTINGS)
@given(st.one_of(graph_degrees(200), composed_degrees(60)))
def test_canonical_decompose_matches_old_scan_large(d):
    assert_same_simple(d)


@settings(max_examples=200, **SETTINGS)
@given(st.one_of(
    bipartite_graph_degrees(8).map(lambda uw: BipartiteDegreeSequence(*uw)),
    composed_bipartite(10),
))
def test_canonical_decompose_bipartite_matches_old_scan(sb):
    assert_same_bipartite(sb)


@settings(max_examples=10, **SETTINGS)
@given(st.one_of(
    bipartite_graph_degrees(100).map(lambda uw: BipartiteDegreeSequence(*uw)),
    composed_bipartite(40),
))
def test_canonical_decompose_bipartite_matches_old_scan_large(sb):
    assert_same_bipartite(sb)


@settings(max_examples=40, **SETTINGS)
@given(composed_degrees(15))
def test_certificate_fields_replay_the_remainders(d):
    cd = canonical_decompose(d)
    cur = tuple(sorted(d, reverse=True))
    for gp, n, top_sum in zip(cd.good_pairs_used, cd.remainder_sizes, cd.top_sums):
        assert n == len(cur) and top_sum == sum(cur[:gp.p])
        assert top_sum == gp.p * (n - gp.q - 1) + sum(cur[n - gp.q:])
        cur = tuple(x - gp.p for x in cur[gp.p:n - gp.q])
    assert len(cd.remainder_sizes) == len(cd.top_sums) == len(cd.components)


def test_decomposition_scales_past_quadratic():
    # A quadratic scan would not finish here in usable time; no time bound
    # is asserted, the test only has to complete.
    n = 50_000
    cd = canonical_decompose([4] * n)
    assert cd.components == () and cd.tail.degrees == (4,) * n
    factors = canonical_decompose_bipartite(BipartiteDegreeSequence([4] * n, [4] * n))
    assert len(factors) == 1 and factors[0].nu == n


@st.composite
def restricted_instances(draw, max_n):
    """A partial 1-factor (the full diagonal, a random matching, or none)
    and the degrees of a random graph avoiding it, then up to nu + nw unit
    moves onto the largest degree of a class, which may leave no
    realization."""
    nu, nw = draw(st.integers(0, max_n)), draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["diagonal", "matching", "none"]))
    density = draw(st.floats(0, 1))
    skew = draw(st.floats(0, 1))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))  # a graph's worth of draws is too much data
    if kind == "diagonal":
        nw = nu
        pairs = [(i, i) for i in range(nu)]
    elif kind == "matching":
        k = rnd.randint(0, min(nu, nw))
        pairs = list(zip(rnd.sample(range(nu), k), rnd.sample(range(nw), k)))
    else:
        pairs = []
    banned = set(pairs)
    u, w = [0] * nu, [0] * nw
    for i in range(nu):
        for j in range(nw):
            if (i, j) not in banned and rnd.random() < density:
                u[i] += 1
                w[j] += 1
    for _ in range(int(skew * (nu + nw))):  # a unit to the largest degree of a class
        side = rnd.choice((u, w))
        a = rnd.randrange(len(side)) if side else 0
        if side and side[a]:
            side[a] -= 1
            side[max(range(len(side)), key=side.__getitem__)] += 1
    return u, w, pairs


# On the diagonal case, heads taken without the out-degree tie-break give
# the wrong verdict.
@example(inst=([1, 1, 2], [2, 1, 1], [(0, 0), (1, 1), (2, 2)]))
@settings(max_examples=150, **SETTINGS)
@given(inst=restricted_instances(200))
def test_realize_bipartite_matches_max_flow(inst):
    u, w, pairs = inst
    want = old.flow_realize(u, w, set(pairs))
    try:
        got = realize_bipartite((u, w), ForbiddenSet(pairs))
    except NotGraphical:
        got = None
    assert (got is None) == (want is None)
    if got is not None:
        assert len(set(got)) == len(got) and not set(got) & set(pairs)
        du, dw = [0] * len(u), [0] * len(w)
        for a, b in got:
            du[a] += 1
            dw[b] += 1
        assert du == u and dw == w
