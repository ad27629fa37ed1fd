"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import time

import numpy as np
import pytest

from degmix import (
    BipartiteDegreeSequence,
    DegreeSequence,
    DirectedDegreeSequence,
    ForbiddenSet,
    LabeledGraph,
    bipartite_instance,
    canonical_decompose,
    canonical_decompose_bipartite,
    compose_bipartite,
    compose_bipartite_many,
    count_almost_half_regular,
    count_almost_half_regular_exhaustive,
    count_bipartite_graphical,
    degree_spectra,
    dsm_graphical,
    dsm_sample,
    directed_instance,
    erdos_gallai,
    gale_ryser,
    greenhill_condition,
    psi_inverse,
    realization_space,
    recompose,
    simple_instance,
    split_lift,
    swap_locality_report,
    tv_distance_audit,
)
from degmix.decomposition import good_pairs as _good_pairs
from degmix.chain import _instance_for, _make_plan
from degmix.space import Space, _enumerate_masks, verify_cartesian_product

from conftest import all_simple_graphs, nonincreasing_sequences, product_of, split_head_and_rest
from legacy_oracles import _split_indecomposable

# every kernel built here is checked against the full move-table scan, and
# every exact conductance of at most 20 states against the subset enumeration
pytestmark = pytest.mark.usefixtures("kernel_oracle", "conductance_oracle")


def _report(criterion, ok, detail):
    print("\n[acceptance] criterion %2s: %s (%s)" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %s failed: %s" % (criterion, detail)


A = BipartiteDegreeSequence((1, 1), (1, 1))
B = BipartiteDegreeSequence((3, 1, 1), (2, 2, 1))
C = BipartiteDegreeSequence((2, 2, 1), (3, 1, 1))
EDGE = BipartiteDegreeSequence((1,), (1,))


def test_criterion_01_composition_examples():
    t0 = time.time()
    rhs1 = compose_bipartite(A, B)
    rhs2 = compose_bipartite(C, A)
    ok = rhs1.u_degrees == (4, 4, 3, 1, 1)
    ok &= rhs1.w_degrees == (1, 1, 4, 4, 3)
    ok &= rhs1.canonical() == rhs2.canonical()
    factors = canonical_decompose_bipartite(rhs1)
    ok &= [(f.u_degrees, f.w_degrees) for f in factors] == [
        ((1, 1), (1, 1)),
        ((1,), (1,)),
        ((1, 1), (1, 1)),
    ]
    ok &= compose_bipartite_many(factors).canonical() == rhs1.canonical()
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 1.0,
            "both worked examples + 3-factor decomposition, %.3fs" % elapsed)


def test_criterion_02_census_15584():
    t0 = time.time()
    got = count_bipartite_graphical(6).count
    elapsed = time.time() - t0
    _report(2, got == 15584 and elapsed < 10.0,
            "count_bipartite_graphical(6) = %d, %.2fs" % (got, elapsed))


def test_criterion_03_counting_formula():
    bad = []
    for m in range(1, 7):
        formula = count_almost_half_regular(m).count
        census = count_almost_half_regular_exhaustive(m).count
        if formula != census:
            bad.append((m, formula, census))
    _report(3, not bad, "formula == exhaustive census for m = 1..6")


def _product_lambda2(spaces):
    mats = [s.transition_matrix() for s in spaces]
    k = len(mats)
    dims = [m.shape[0] for m in mats]
    total = int(np.prod(dims))
    p = np.zeros((total, total))
    for i, m in enumerate(mats):
        ops = [np.eye(d) for d in dims]
        ops[i] = m
        kron = ops[0]
        for o in ops[1:]:
            kron = np.kron(kron, o)
        p += kron / k
    lam2 = np.linalg.eigvalsh(p)[-2]
    formula = (k - 1 + max(np.linalg.eigvalsh(m)[-2] for m in mats)) / k
    return lam2, formula


def test_criterion_04_product_eigenvalue():
    diag3 = ForbiddenSet([(0, 0), (1, 1), (2, 2)])
    cases = [
        [bipartite_instance((1, 1), (1, 1)), simple_instance((1, 1, 1, 1))],
        [bipartite_instance((2, 2, 1), (3, 1, 1)), bipartite_instance((1, 1), (1, 1)),
         simple_instance((1, 1, 1, 1))],
        [bipartite_instance((2, 2, 2), (2, 2, 2)), simple_instance((2, 2, 1, 1))],
        [directed_instance(DirectedDegreeSequence((1, 1, 1), (1, 1, 1))),
         bipartite_instance((2, 1, 1), (2, 1, 1))],
        [simple_instance((1,) * 6), bipartite_instance((1, 1), (1, 1))],
        [bipartite_instance((2, 2, 1), (3, 1, 1)), bipartite_instance((2, 2, 2), (2, 2, 2)),
         bipartite_instance((1, 1), (1, 1))],
    ]
    checked = 0
    worst = 0.0
    for instances in cases:
        t0 = time.time()
        spaces = [Space(inst, tuple(_enumerate_masks(inst, 30))) for inst in instances]
        assert all(2 <= s.count <= 20 for s in spaces), [s.count for s in spaces]
        lam2, formula = _product_lambda2(spaces)
        worst = max(worst, abs(lam2 - formula))
        assert time.time() - t0 < 5.0
        checked += 1
    _report(4, checked >= 5 and worst <= 1e-9,
            "%d assembled products, max |lambda2 - formula| = %.2e" % (checked, worst))


def _random_bipartite_pool(rng, max_class, max_count):
    pool = []
    for nu in range(1, max_class + 1):
        for nw in range(1, max_class + 1):
            for u in nonincreasing_sequences(nu, nw):
                for w in nonincreasing_sequences(nw, nu):
                    if gale_ryser((u, w)):
                        pool.append(BipartiteDegreeSequence(u, w))
    rng.shuffle(pool)
    return pool[:max_count]


def test_criterion_05_cartesian_products():
    rng = random.Random(2024)
    pool = _random_bipartite_pool(rng, 3, 200)

    def space_count(seq, f=None):
        return realization_space(seq, f, max_chords=36).count

    verified = 0
    details = []
    # bipartite o bipartite
    for k, a in enumerate(pool):
        if verified >= 4:
            break
        b = pool[(k * 7 + 3) % len(pool)]
        product = space_count(a) * space_count(b)
        if not 2 <= product <= 5000:
            continue
        rep = product_of(a, b, max_chords=36)
        assert rep["composed_count"] == product
        details.append(product)
        verified += 1
    # split o simple (composed vertex count capped at 8: 28 chords)
    simple_pool = [d for n in range(2, 5) for d in nonincreasing_sequences(n, n - 1)
                   if erdos_gallai(d)]
    rng.shuffle(simple_pool)
    done = 0
    for sb in pool:
        if done >= 4:
            break
        for g in simple_pool:
            if sb.nu + sb.nw + len(g) > 8:
                continue
            product = space_count(sb) * space_count(DegreeSequence(g))
            if not 2 <= product <= 5000:
                continue
            rep = product_of(psi_inverse(sb), DegreeSequence(g), max_chords=28)
            assert rep["composed_count"] == product
            details.append(product)
            done += 1
            verified += 1
            break
    # directed o directed (forbidden 1-factors merge)
    d2 = BipartiteDegreeSequence((1, 1), (1, 1))
    d3 = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    d3b = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    diag2 = ForbiddenSet([(0, 0), (1, 1)])
    diag3 = ForbiddenSet([(0, 0), (1, 1), (2, 2)])
    for f1, ff1, f2, ff2 in (
        (d3, diag3, d3, diag3),
        (d2, diag2, d3, diag3),
        (d3b, diag3, d3, diag3),
    ):
        rep = product_of(f1, f2, forbidden=(ff1, ff2), max_chords=36)
        details.append(rep["composed_count"])
        verified += 1
    # larger spaces, up to the 5000-realization cap
    r22 = BipartiteDegreeSequence((2, 2, 2), (2, 2, 2))
    m4 = BipartiteDegreeSequence((1, 1, 1, 1), (1, 1, 1, 1))
    m5 = BipartiteDegreeSequence((1, 1, 1, 1, 1), (1, 1, 1, 1, 1))
    r5 = BipartiteDegreeSequence((2, 2, 2, 2, 2), (2, 2, 2, 2, 2))
    for f1, f2, cap in ((r22, r22, 36), (m4, r22, 49), (m5, r22, 64), (r5, A, 49)):
        rep = product_of(f1, f2, max_chords=cap)
        assert rep["composed_count"] <= 5000
        details.append(rep["composed_count"])
        verified += 1
    _report(5, verified >= 10,
            "%d compositions verified (counts %s)" % (verified, details))


def test_criterion_06_irreducibility_suite():
    t0 = time.time()
    simple_checked = 0
    for n in range(1, 8):
        for d in nonincreasing_sequences(n, n - 1):
            if not erdos_gallai(d):
                continue
            simple_checked += 1
            assert realization_space(DegreeSequence(d)).connected(), d
    bip_checked = 0
    for nu in range(1, 6):
        for nw in range(1, 6):
            for u in nonincreasing_sequences(nu, nw):
                for w in nonincreasing_sequences(nw, nu):
                    if not gale_ryser((u, w)):
                        continue
                    bip_checked += 1
                    sp = realization_space(BipartiteDegreeSequence(u, w), max_chords=25)
                    assert sp.connected(), (u, w)
    dd = DirectedDegreeSequence((1, 1, 1), (1, 1, 1))
    c4_disconnected = not realization_space(dd, c4_only=True).connected()
    c6_connected = realization_space(dd).connected()
    elapsed = time.time() - t0
    ok = simple_checked == 493 and bip_checked == 3744 and c4_disconnected and c6_connected
    _report(6, ok,
            "%d simple + %d bipartite sequences connected; directed triangle "
            "C4-only disconnected, with C6 connected; %.0fs" % (
                simple_checked, bip_checked, elapsed))


def test_criterion_07_uniformity():
    tv_simple = tv_distance_audit(DegreeSequence((1, 1, 1, 1)), 200)
    tv_bip = tv_distance_audit(BipartiteDegreeSequence((2, 2, 1), (3, 1, 1)), 200)
    emp_simple = tv_distance_audit(DegreeSequence((1, 1, 1, 1)), 100000, seed=0,
                                   empirical=True)
    emp_bip = tv_distance_audit(BipartiteDegreeSequence((2, 2, 1), (3, 1, 1)), 100000,
                                seed=0, empirical=True)
    ok = tv_simple < 1e-6 and tv_bip < 1e-6 and emp_simple < 0.02 and emp_bip < 0.02
    _report(7, ok,
            "exact TV(200) = %.1e / %.1e; empirical TV(1e5) = %.4f / %.4f" % (
                tv_simple, tv_bip, emp_simple, emp_bip))


def _locality_compositions():
    """Criterion 8's compositions, each with its chord cap and swap-locality
    report: composed pairs of at most 30 chords, simple lifts of composed
    pairs on at most 8 vertices, each of at least two components, a
    three-factor composition, and two with a 2-regular 3 + 3 factor."""
    rng = random.Random(55)
    pool = _random_bipartite_pool(rng, 3, 400)
    checked = 0
    for k in range(0, len(pool) - 1, 2):
        if checked >= 6:
            break
        composed = compose_bipartite(pool[k], pool[k + 1])
        if len(composed.u_degrees) * len(composed.w_degrees) > 30:
            continue
        rep = swap_locality_report(composed, max_chords=30)
        if rep["components"] < 2:
            continue
        yield composed, 30, rep
        checked += 1
    # simple lifts of composed pairs, plus one three-factor composition
    for k in range(1, len(pool) - 1, 2):
        if checked >= 10:
            break
        composed = compose_bipartite(pool[k], pool[k + 1])
        lift = split_lift(composed)
        if lift.n > 8:
            continue
        rep = swap_locality_report(lift, max_chords=28)
        if rep["components"] < 2:
            continue
        yield lift, 28, rep
        checked += 1
    composed = compose_bipartite_many([A, EDGE, A])
    yield composed, 25, swap_locality_report(composed, max_chords=25)
    r22 = BipartiteDegreeSequence((2, 2, 2), (2, 2, 2))
    for composed, cap in (
        (compose_bipartite(r22, B), 36),
        (compose_bipartite(r22, r22), 36),
    ):
        rep = swap_locality_report(composed, max_chords=cap)
        assert rep["components"] >= 2
        yield composed, cap, rep


def test_criterion_08_swap_locality():
    swaps = [rep["swaps_checked"] for _, _, rep in _locality_compositions()]
    _report(8, len(swaps) >= 10, "%d compositions, %d swaps all local" % (len(swaps), sum(swaps)))


def test_swap_locality_checks_every_move_of_every_realization():
    # each valid move at a realization is one entry of its kernel row, so
    # the audit checks exactly as many swaps as the kernel has entries
    reports = swaps = 0
    for composed, cap, rep in _locality_compositions():
        kernel = realization_space(composed, max_chords=cap).kernel
        assert rep["realizations"] == len(kernel)
        assert rep["swaps_checked"] == sum(map(len, kernel)), composed
        reports += 1
        swaps += rep["swaps_checked"]
    assert (reports, swaps) == (13, 274)


def test_product_check_and_locality_audit_read_one_layout():
    # both audits read the sampler's own layout over the same composed
    # space: every swap the locality audit checks is one directed edge of
    # the product graph, so it checks twice as many swaps as there are edges
    for composed, cap, rep in _locality_compositions():
        product = verify_cartesian_product(_instance_for(composed, None, False),
                                           _make_plan(composed, None, "auto"), cap)
        assert rep["swaps_checked"] == 2 * product["edges"], composed
        assert product["composed_count"] == rep["realizations"]
        assert len(product["factor_counts"]) == rep["components"]


def test_criterion_09_greenhill_violation():
    t0 = time.time()
    checked = 0
    for m in range(2, 7):
        groups = {}
        for s in nonincreasing_sequences(m, m):
            groups.setdefault(sum(s), []).append(s)
        for group in groups.values():
            for u in group:
                for w in group:
                    if not gale_ryser((u, w)):
                        continue
                    lift = split_lift(BipartiteDegreeSequence(u, w))
                    assert not greenhill_condition(lift), (m, u, w)
                    checked += 1
    _report(9, checked > 15584,
            "%d split lifts (m = 2..6) all violate the window, %.1fs" % (
                checked, time.time() - t0))


def test_criterion_10_dsm_round_trip():
    t0 = time.time()
    graphs = 0
    distinct = {}
    for n in range(1, 7):
        for edges in all_simple_graphs(n):
            g = LabeledGraph(n, edges)
            m = degree_spectra(g)
            assert dsm_graphical(m), (n, edges)
            graphs += 1
            distinct[(m.delta, m.columns)] = m
    sampled = 0
    for m in distinct.values():
        for sg in dsm_sample(m, burn_in=6, thin=2, count=2, seed=5):
            assert degree_spectra(sg) == m
        sampled += 1
    _report(10, True,
            "%d graphs graphical; dsm_sample recount exact on %d distinct "
            "matrices; %.0fs" % (graphs, sampled, time.time() - t0))


def _all_maximal_factorizations(d, cache={}):
    if d in cache:
        return cache[d]
    out = set()
    found = False
    for gp in _good_pairs(d):
        got = split_head_and_rest(d, gp.p, gp.q)
        if got is None:
            continue
        head, rest = got
        if not _split_indecomposable(head):
            continue
        found = True
        for comps, tail in _all_maximal_factorizations(rest):
            out.add((((head.u_degrees, head.w_degrees),) + comps, tail))
    if not found:
        out.add(((), d))
    cache[d] = frozenset(out)
    return cache[d]


def test_criterion_11_decomposition_round_trip():
    t0 = time.time()
    checked = 0
    for n in range(1, 8):
        for d in nonincreasing_sequences(n, n - 1):
            if not erdos_gallai(d):
                continue
            cd = canonical_decompose(d)
            assert recompose(cd).degrees == d, d
            facts = _all_maximal_factorizations(d)
            assert len(facts) == 1, (d, facts)
            comps, tail = next(iter(facts))
            assert comps == tuple((c.u_degrees, c.w_degrees) for c in cd.components), d
            assert tail == (cd.tail.degrees if cd.tail else ()), d
            checked += 1
    _report(11, checked == 493,
            "round trip + unique factorization for all %d graphical sequences "
            "with n <= 7; %.0fs" % (checked, time.time() - t0))
