"""Verification engine: enumeration, spectra, products, locality, TV."""

import math
import random
import tracemalloc
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

import degmix.space
import legacy_oracles as old
from degmix import (
    BipartiteDegreeSequence,
    CheegerViolation,
    DegreeSequence,
    DirectedDegreeSequence,
    Disconnected,
    ForbiddenSet,
    NotGraphical,
    ProductMismatch,
    SplitSequence,
    TooLarge,
    compose_bipartite,
    enumerate_realizations,
    realization_space,
    sample,
    spectral_report,
    swap_locality_report,
    tv_distance_audit,
)
from degmix.chain import ChainState, ProductChain, _make_plan, run
from degmix.graphs import Instance, SwapMove
from degmix.layout import Layout
from degmix.sequences import directed_graphical, erdos_gallai, gale_ryser
from degmix.space import Space, _exact_conductance, _sweep_conductance

from conftest import product_of

# every kernel built here is checked against the full move-table scan
pytestmark = pytest.mark.usefixtures("kernel_oracle")


def test_enumerate_counts():
    assert len(enumerate_realizations(DegreeSequence((1, 1, 1, 1)))) == 3
    assert len(enumerate_realizations(BipartiteDegreeSequence((1, 1), (1, 1)))) == 2
    assert len(enumerate_realizations(DegreeSequence((4, 2, 2, 1, 1)))) == 1
    # 3x3 0-1 matrices with all margins 2 = complements of permutation matrices
    assert len(enumerate_realizations(BipartiteDegreeSequence((2, 2, 2), (2, 2, 2)))) == 6


def test_enumerate_respects_cap():
    with pytest.raises(TooLarge):
        enumerate_realizations(BipartiteDegreeSequence((1,) * 5, (1,) * 5))
    assert len(enumerate_realizations(
        BipartiteDegreeSequence((1,) * 5, (1,) * 5), max_chords=25)) == 120


def test_split_sequences_run_through_every_front_door():
    # a split sequence is taken as its degree sequence, u then w, already
    # non-increasing; the sampler and the locality audit once refused it
    split = SplitSequence((2, 2), (1, 1))
    simple = DegreeSequence((2, 2, 1, 1))
    assert realization_space(split).masks == realization_space(simple).masks
    assert swap_locality_report(split) == swap_locality_report(simple)
    draws = [sample(d, burn_in=10, thin=1, count=4, seed=0) for d in (split, simple)]
    assert draws[0] == draws[1] and len(draws[0]) == 4


@pytest.mark.parametrize("d, f, message", [
    (SplitSequence((2, 2), (1, 1)), ForbiddenSet([(0, 1)]), "forbidden sets apply"),
    ((-1, 1), None, "degrees must be non-negative"),
], ids=["split-with-forbidden-set", "negative-raw-tuple"])
def test_realization_space_checks_its_input_as_the_sampler_does(d, f, message):
    with pytest.raises(ValueError, match=message):
        realization_space(d, f)
    with pytest.raises(ValueError, match=message):
        sample(d, burn_in=0, thin=1, count=1, seed=0, forbidden=f)


def _meta_edges(space):
    """The realization graph's edges as sorted index pairs, read off the kernel."""
    return sorted({(min(i, j), max(i, j)) for i, row in enumerate(space.kernel) for j in row})


def test_realization_graph_triangle():
    space = realization_space(DegreeSequence((1, 1, 1, 1)))
    assert space.count == 3
    assert _meta_edges(space) == [(0, 1), (0, 2), (1, 2)]
    assert np.allclose(np.diag(space.transition_matrix()), 2 / 3)


def test_directed_triangle_connectivity():
    dd = DirectedDegreeSequence((1, 1, 1), (1, 1, 1))
    space_c4 = realization_space(dd, c4_only=True)
    assert space_c4.count == 2 and _meta_edges(space_c4) == []
    space_c6 = realization_space(dd)
    assert space_c6.connected()
    with pytest.raises(Disconnected):
        spectral_report(space_c4)


def test_no_realizations_is_a_finding():
    # (3, 1, 1) passes the parity test but has no realization
    space = realization_space(DegreeSequence((3, 1, 1)))
    assert space.count == 0
    with pytest.raises(NotGraphical, match="no realizations"):
        space.connected()
    with pytest.raises(NotGraphical, match="no realizations"):
        spectral_report(space)


def test_spectral_two_state_analytic():
    # ((2,2,1),(3,1,1)): 2 realizations, one swap among 5 disjoint pairs,
    # move probability 1/2 * 1/5 * 1/2 = 1/20, so lambda2 = 1 - 2/20 = 0.9
    space = realization_space(BipartiteDegreeSequence((2, 2, 1), (3, 1, 1)))
    rep = spectral_report(space)
    assert abs(rep.lambda2 - 0.9) < 1e-12
    assert abs(rep.relaxation_time - 10.0) < 1e-9
    assert rep.conductance_exact
    assert abs(rep.conductance - 1 / 20) < 1e-12


def test_spectral_trivial_chain_flagged():
    space = realization_space(DegreeSequence((4, 2, 2, 1, 1)))
    rep = spectral_report(space)
    assert rep.trivial and rep.lambda2 == 0.0 and rep.realization_count == 1


def test_cheeger_sandwich_small_bipartite():
    for seq in (
        BipartiteDegreeSequence((2, 2, 2), (2, 2, 2)),
        BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)),
        DegreeSequence((2, 2, 2, 1, 1)),
    ):
        rep = spectral_report(realization_space(seq))
        gap = 1.0 - rep.lambda2
        assert rep.conductance ** 2 / 2 <= gap + 1e-9
        assert gap <= 2 * rep.conductance + 1e-9
        assert rep.relaxation_time < math.inf


def test_exact_conductance_two_state():
    p = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert abs(_exact_conductance(p) - 0.25) < 1e-12


def _random_stochastic(rng, n, symmetric):
    # sparse random rates, scaled so that every row keeps some stay mass
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    if symmetric:
        w = w + w.T
    np.fill_diagonal(w, 0.0)
    p = w / (1.01 * max(w.sum(axis=1).max(), 1e-9))
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return p


def test_exact_conductance_matches_subset_enumeration():
    # symmetric and asymmetric chains; no stationary law is assumed
    rng = np.random.default_rng(13)
    for n in [1, 2, 3, 4, 7, 11, 14] * 6:
        for symmetric in (True, False):
            p = _random_stochastic(rng, n, symmetric)
            want = old._exact_conductance(p)
            got = _exact_conductance(p)
            assert got == want or abs(got - want) <= 1e-12, (n, symmetric)  # inf at n = 1


def test_exact_conductance_memory_at_twenty_states():
    # one float64, one int8 and one bool array over the 2^20 subsets, 10 MiB;
    # the 65,536-subset matmul chunks peaked at 37.9 MiB
    p = _random_stochastic(np.random.default_rng(5), 20, True)
    tracemalloc.start()
    try:
        _exact_conductance(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_sweep_conductance_used_beyond_cap():
    # 26 realizations > 20: conductance falls back to the sweep bound
    space = realization_space(BipartiteDegreeSequence((2, 2, 2, 1), (3, 2, 1, 1)))
    if space.count <= 20:
        pytest.skip("instance smaller than expected")
    rep = spectral_report(space)
    assert not rep.conductance_exact
    gap = 1.0 - rep.lambda2
    assert rep.conductance ** 2 / 2 <= gap + 1e-9
    assert gap <= 2 * rep.conductance + 1e-9


def test_cheeger_violation_raises(monkeypatch):
    # gap = 0.1: a conductance of 1e-6 breaks gap <= 2 phi, one of 0.9
    # breaks phi^2 / 2 <= gap; both raise, under python -O too
    space = realization_space(BipartiteDegreeSequence((2, 2, 1), (3, 1, 1)))
    for phi in (1e-6, 0.9):
        monkeypatch.setattr(degmix.space, "_exact_conductance", lambda p, phi=phi: phi)
        with pytest.raises(CheegerViolation):
            spectral_report(space)


@lru_cache(maxsize=None)
def _big_masks(u, w):
    space = realization_space(BipartiteDegreeSequence(u, w), max_chords=64)
    return space.instance, space.masks


def _big_space(u, w):
    """A fresh space, with no kernel yet, over masks enumerated once."""
    return Space(*_big_masks(u, w))


def test_sweep_path_builds_no_n_by_n_array(monkeypatch):
    # 1170 states: the only eigensolves are of Lanczos' small tridiagonal
    # matrices, no transition matrix is built, and the peak allocation stays
    # below half of one n x n float array
    space = _big_space((2, 2, 2, 2, 2), (3, 2, 2, 2, 1))
    n = space.count
    shapes = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, orig=orig: shapes.append(a.shape) or orig(a))

    def never(self):
        raise AssertionError("built the n x n transition matrix")

    monkeypatch.setattr(Space, "transition_matrix", never)
    space.kernel  # the kernel's dicts are O(nnz); built outside the trace
    tracemalloc.start()
    try:
        rep = spectral_report(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rep.conductance_exact
    assert shapes and max(max(s) for s in shapes) < n
    assert peak < 8 * n * n / 2


def test_sweep_conductance_matches_cubic_loop():
    # random chains reversible with respect to uniform: symmetric, stochastic
    rng = np.random.default_rng(11)
    for n in [2, 3, 5, 21, 40, 80] * 4:
        w = np.triu(rng.random((n, n)) ** 4, 1)
        p = (w + w.T) / (n * 1.01)
        np.fill_diagonal(p, 1.0 - p.sum(axis=1))
        rows, cols = np.nonzero(~np.eye(n, dtype=bool))
        vals = p[rows, cols]
        _, vecs = np.linalg.eigh(p)
        for x in (vecs[:, -2], rng.standard_normal(n)):
            ref = old._sweep_conductance(p, np.column_stack([x, np.zeros(n)]))
            assert abs(_sweep_conductance(rows, cols, vals, x) - ref) <= 1e-12
        # tied entries keep their index order under rounding noise
        ties = rng.integers(0, 3, n) / 7.0
        noisy = ties + 1e-13 * rng.standard_normal(n)
        assert (_sweep_conductance(rows, cols, vals, noisy)
                == _sweep_conductance(rows, cols, vals, ties))


def test_sweep_conductance_ignores_the_eigenbasis(monkeypatch):
    # 24 states whose lambda2 eigenspace has dimension 9: any orthonormal
    # basis of it is a valid eigh answer, the dense oracle's cut must not
    # move with it, and the Lanczos report must match that cut
    space = realization_space(BipartiteDegreeSequence((1, 1, 1, 1), (1, 1, 1, 1)))
    rep = spectral_report(space)
    assert not rep.conductance_exact
    eigh, rng = np.linalg.eigh, np.random.default_rng(5)

    def rotated(p):
        vals, vecs = eigh(p)
        cols = np.flatnonzero(np.abs(vals[:-1] - vals[-2]) <= 1e-9)
        assert len(cols) == 9
        turn, _ = np.linalg.qr(rng.standard_normal((len(cols), len(cols))))
        vecs[:, cols] = vecs[:, cols] @ turn
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", rotated)
    for _ in range(5):
        lam2, phi = old.dense_sweep_report(space)
        assert abs(rep.lambda2 - lam2) <= 1e-12
        assert abs(rep.conductance - phi) <= 1e-12


@pytest.mark.parametrize("make", [
    lambda: realization_space(BipartiteDegreeSequence((2, 2, 2, 1), (3, 2, 1, 1))),
    # lambda2 has a 9-dimensional eigenspace
    lambda: realization_space(BipartiteDegreeSequence((1, 1, 1, 1), (1, 1, 1, 1))),
    lambda: realization_space(DegreeSequence((2, 2, 2, 2, 2, 2))),
    lambda: realization_space(DirectedDegreeSequence((1,) * 5, (1,) * 5)),
    lambda: _big_space((2, 2, 2, 2, 2), (3, 2, 2, 2, 1)),
    lambda: _big_space((2, 2, 2, 2, 2), (2, 2, 2, 2, 2)),
], ids=["bipartite-27", "degenerate-24", "simple-70", "directed-c6-44", "bench-1170",
        "regular-2040"])
def test_sweep_report_matches_dense_oracle(make):
    space = make()
    assert space.count > 20
    rep = spectral_report(space)
    lam2, phi = old.dense_sweep_report(space)
    assert not rep.conductance_exact
    assert abs(rep.lambda2 - lam2) <= 1e-12
    assert abs(rep.conductance - phi) <= 1e-12
    assert rep.relaxation_time == 1.0 / (1.0 - rep.lambda2)


def _nonincreasing(length, top):
    return (tuple(sorted(c, reverse=True))
            for c in combinations_with_replacement(range(top + 1), length))


def _small_spaces():
    """The space of every graphical simple sequence on up to six vertices,
    bipartite pair on up to 4 + 4 and directed sequence on up to four
    vertices, with and without C6 moves; each in nonincreasing order, and
    reversed where that differs, so that chord bits fall in both orders."""
    def orders(*seqs):
        return {seqs, tuple(seq[::-1] for seq in seqs)}

    for n in range(1, 7):
        for d in _nonincreasing(n, n - 1):
            if erdos_gallai(d):
                for (order,) in orders(d):
                    yield realization_space(DegreeSequence(order))
    for nu in range(1, 5):
        for nw in range(1, 5):
            for u in _nonincreasing(nu, nw):
                for w in _nonincreasing(nw, nu):
                    if gale_ryser((u, w)):
                        for uo, wo in orders(u, w):
                            yield realization_space(BipartiteDegreeSequence(uo, wo))
    for n in range(2, 5):
        for combo in combinations_with_replacement(product(range(n), repeat=2), n):
            if sum(o for o, _ in combo) != sum(i for _, i in combo):
                continue
            for (order,) in orders(combo):
                dd = DirectedDegreeSequence(*zip(*order))
                if directed_graphical(dd):
                    for c4_only in (False, True):
                        yield realization_space(dd, c4_only=c4_only)


def test_one_pass_kernel_matches_full_scan_on_small_spaces(kernel_oracle):
    # kernel_oracle checks each kernel against the full scan, order included
    spaces = list(_small_spaces())
    for space in spaces:
        assert len(space.kernel) == space.count
    assert kernel_oracle == spaces and len(spaces) == 2002
    six = sum(any(rm.bit_count() == 3 for rm, _, _ in space.rows) for space in spaces)
    assert six == 39


def test_move_tables_match_the_oracle_on_small_spaces():
    # the table over every chord is the oracle's with its move column
    # dropped, and a space's rows are the oracle's rows that touch only its
    # free chords, order included
    spaces = six = 0
    for space in _small_spaces():
        inst = space.instance
        want = [(rm, add, w) for rm, add, _, w in old.move_table(inst)]
        assert inst.move_table((1 << len(inst.chords)) - 1) == want
        fixed = ~0
        for mask in space.masks:
            fixed &= ~(mask ^ space.masks[0])
        assert space.rows == [row for row in want if not (row[0] | row[1]) & fixed]
        spaces += 1
        six += any(rm.bit_count() == 3 for rm, _, _ in space.rows)
    assert (spaces, six) == (2002, 39)


@pytest.mark.parametrize("u, w", [((2, 2, 2, 1), (3, 2, 1, 1)),
                                  ((2, 2, 2, 2, 2), (3, 2, 2, 2, 1))], ids=["27", "1170"])
def test_sweep_path_calls_eigh_once(monkeypatch, u, w):
    # eigh's eigenvectors cost threads under a multithreaded BLAS: the
    # Lanczos steps take eigvalsh, and only the final step takes eigh
    space = _big_space(u, w)
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    rep = spectral_report(space)
    assert space.count > 20 and not rep.conductance_exact
    assert len(calls) <= 1


def test_pruned_kernel_matches_full_scan(kernel_oracle):
    # C4 and C6 spaces, and the product instance, whose 1176-row move table
    # has only 138 rows over its free chords; kernel_oracle compares them
    spaces = [
        realization_space(DegreeSequence((2, 2, 2, 1, 1))),
        realization_space(DirectedDegreeSequence((1, 1, 1, 1), (1, 1, 1, 1))),
        realization_space(BipartiteDegreeSequence((3, 1, 1), (2, 2, 1)), max_chords=25),
    ]
    for space in spaces:
        assert space.kernel
    product = product_of(
        BipartiteDegreeSequence((3, 2, 2, 2), (2, 2, 2, 2, 1)),
        BipartiteDegreeSequence((2, 2, 2), (2, 2, 2)),
        max_chords=64,
    )
    assert product["composed_count"] == 1404
    assert kernel_oracle[:3] == spaces
    assert sorted(s.count for s in kernel_oracle[3:]) == [6, 234, 1404]
    composed = next(s for s in kernel_oracle if s.count == 1404)
    assert len(composed.rows) == 138
    assert len(old.move_table(composed.instance)) == 1176


# ---------------------------------------------------------------------------
# Cartesian products


def test_product_simple_composition():
    rep = product_of(
        SplitSequence((2, 2), (1, 1)), DegreeSequence((1, 1, 1, 1)), max_chords=28
    )
    assert rep["ok"] and rep["composed_count"] == 6
    assert rep["factor_counts"] == (2, 3)


def test_product_bipartite_composition():
    a = BipartiteDegreeSequence((1, 1), (1, 1))
    b = BipartiteDegreeSequence((3, 1, 1), (2, 2, 1))
    rep = product_of(a, b, max_chords=25)
    assert rep["ok"] and rep["composed_count"] == 4
    # |E| = |V1||E2| + |V2||E1|
    assert rep["edges"] == 2 * 1 + 2 * 1


def test_product_with_no_composed_realization_raises():
    # (3, 1) / (2, 2) has no realization, so neither has the composition;
    # 0 = 0 x 1 must not pass as a verified product
    with pytest.raises(NotGraphical, match="no realizations"):
        product_of(BipartiteDegreeSequence((3, 1), (2, 2)),
                   BipartiteDegreeSequence((1,), (1,)))


def test_product_identity_factor():
    # a rigid factor: the product graph is isomorphic to the live factor's
    a = BipartiteDegreeSequence((1, 1), (1, 1))
    rigid = BipartiteDegreeSequence((2, 2), (2, 2))  # complete 2x2, unique
    rep = product_of(a, rigid, max_chords=25)
    assert rep["factor_counts"] == (2, 1) and rep["composed_count"] == 2
    assert rep["edges"] == 1


def test_product_directed_with_merged_one_factor():
    d = BipartiteDegreeSequence((1, 1), (1, 1))
    diag = ForbiddenSet([(0, 0), (1, 1)])
    d3 = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    diag3 = ForbiddenSet([(0, 0), (1, 1), (2, 2)])
    rep = product_of(d3, d3, forbidden=(diag3, diag3), max_chords=30)
    assert rep["ok"] and rep["composed_count"] == 4
    rep2 = product_of(d, d3, forbidden=(diag, diag3), max_chords=30)
    assert rep2["ok"] and rep2["factor_counts"] == (1, 2)


def _count_scans(monkeypatch):
    """The masks at which a move table is scanned, in call order."""
    calls = []
    neighbors = Instance.weighted_neighbors
    monkeypatch.setattr(Instance, "weighted_neighbors", lambda self, mask, rows: calls.append(
        mask) or neighbors(self, mask, rows))
    return calls


@pytest.mark.parametrize("seq", [
    DegreeSequence((1, 1, 1, 1)),
    BipartiteDegreeSequence((2, 2, 2, 1), (3, 2, 1, 1)),  # 26 states: sweep
    DirectedDegreeSequence((1, 1, 1), (1, 1, 1)),  # C6 moves
], ids=["simple", "bipartite-sweep", "directed-c6"])
def test_spectral_report_scans_each_state_once(monkeypatch, kernel_oracle, seq):
    # the kernel takes one pass over the rows and scans no state on its
    # own, and the walk reads it; kernel_oracle holds its one build, equal
    # to the full scan, order included
    calls = _count_scans(monkeypatch)
    space = realization_space(seq)
    spectral_report(space)
    assert not calls
    assert kernel_oracle == [space] and not kernel_oracle.walked


def test_product_check_scans_each_state_once(monkeypatch, kernel_oracle):
    # the verify-exact benchmark's product instance: 1404 = 234 x 6; each
    # space's kernel is built once, equal to the full scan, and no state is
    # scanned on its own
    calls = _count_scans(monkeypatch)
    tables = []  # (the instance's chords, the table's chords, its rows)
    build = Instance.move_table

    def recorded(self, chords):
        rows = build(self, chords)
        tables.append((len(self.chords), chords.bit_count(), len(rows)))
        return rows

    monkeypatch.setattr(Instance, "move_table", recorded)
    rep = product_of(
        BipartiteDegreeSequence((3, 2, 2, 2), (2, 2, 2, 2, 1)),
        BipartiteDegreeSequence((2, 2, 2), (2, 2, 2)),
        max_chords=64,
    )
    assert rep["composed_count"] == 1404 and rep["factor_counts"] == (234, 6)
    assert not calls
    assert sorted(space.count for space in kernel_oracle) == [6, 234, 1404]
    # one table per space, over its free chords: the composed instance
    # builds its 138 rows, never a table over all 56 of its chords
    composed = [(free, rows) for chords, free, rows in tables if chords == 56]
    assert len(tables) == 3 and len(composed) == 1
    assert composed[0][0] < 56 and composed[0][1] == 138


@pytest.mark.parametrize("scale, message, witness", [
    (2.0, "transition weights are not proportional", ("key", (0, "C4"))),
    (0.0, "move is not a factor move", ("coord", 0)),
    (None, "move is not a factor move", ("coord", 0)),  # the entry is missing
], ids=["scaled", "zero", "missing"])
def test_product_check_catches_a_tampered_factor_kernel(monkeypatch, scale, message,
                                                        witness):
    kernel = Space.kernel.func

    def tampered(space):
        rows = list(kernel(space))
        if space.instance.nu == 2:  # the (1, 1) x (1, 1) factor: two states
            (j, w), = rows[0].items()
            rows[0] = {} if scale is None else {j: w * scale}
        return tuple(rows)

    a = BipartiteDegreeSequence((1, 1), (1, 1))
    b = BipartiteDegreeSequence((3, 1, 1), (2, 2, 1))
    assert product_of(a, b, max_chords=25)["ok"]
    monkeypatch.setattr(Space, "kernel", property(tampered))
    with pytest.raises(ProductMismatch, match=message) as err:
        product_of(a, b, max_chords=25)
    field, value = witness
    assert err.value.witness[field] == value


@pytest.mark.parametrize("tamper", [
    lambda forced: forced & (forced - 1),  # the lowest forced chord turns stray
    lambda forced: forced | 1 << 40,  # a forced chord that no realization holds
], ids=["stray", "unheld"])
def test_product_check_catches_a_realization_off_the_factors(monkeypatch, tamper):
    masks = []
    enumerate_masks = degmix.space._enumerate_masks
    monkeypatch.setattr(degmix.space, "_enumerate_masks", lambda inst, cap: masks.append(
        enumerate_masks(inst, cap)) or masks[-1])
    mask_of_edges = Instance.mask_of_edges
    monkeypatch.setattr(Instance, "mask_of_edges", lambda self, edges: tamper(
        mask_of_edges(self, edges)))
    a = BipartiteDegreeSequence((1, 1), (1, 1))
    b = BipartiteDegreeSequence((3, 1, 1), (2, 2, 1))
    with pytest.raises(ProductMismatch, match="does not restrict to the factors") as err:
        product_of(a, b, max_chords=25)
    assert err.value.witness == {"mask": masks[0][0]}  # the composed space's first


def test_product_mismatch_carries_witness():
    err = ProductMismatch("boom", witness={"pair": (1, 2)})
    assert err.witness == {"pair": (1, 2)}
    with pytest.raises(ProductMismatch):
        raise err


# ---------------------------------------------------------------------------
# locality


def test_swap_locality_simple_and_bipartite():
    rep = swap_locality_report(DegreeSequence((6, 6, 4, 4, 3, 3, 1, 1)), max_chords=28)
    assert rep["ok"] and rep["components"] >= 2 and rep["swaps_checked"] > 0
    a = BipartiteDegreeSequence((1, 1), (1, 1))
    b = BipartiteDegreeSequence((3, 1, 1), (2, 2, 1))
    rep2 = swap_locality_report(compose_bipartite(a, b), max_chords=25)
    assert rep2["ok"] and rep2["components"] == 3 and rep2["swaps_checked"] > 0


def test_swap_locality_names_the_first_crossing_swap(monkeypatch):
    # move u vertex 3 of a two-factor composition into the other factor: the
    # witness is the first swap, realization by realization in mask order
    # and then in the all-chord scan's order, that touches both factors
    d = compose_bipartite(BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)),
                          BipartiteDegreeSequence((1, 1), (1, 1)))
    owners = Layout.owners

    def moved(self):
        u_own, w_own = owners(self)
        u_own[3] = 1 - u_own[3]
        return u_own, w_own

    monkeypatch.setattr(Layout, "owners", moved)
    u_own, w_own = moved(_make_plan(d, None, "auto"))
    space = realization_space(d, max_chords=25)
    scanned = [(mask, move) for mask in space.masks
               for move in old.enumerate_swaps(space.instance.graph_of_mask(mask))]
    crossing = [{"move": move, "mask": mask} for mask, move in scanned
                if len({u_own[a] for a, _ in move.removed + move.added}
                       | {w_own[b] for _, b in move.removed + move.added}) > 1]
    assert scanned.index((crossing[0]["mask"], crossing[0]["move"])) == 4
    with pytest.raises(ProductMismatch, match="^swap crosses component boundaries$") as err:
        swap_locality_report(d, max_chords=25)
    assert err.value.witness == crossing[0]
    assert type(err.value.witness["move"]) is SwapMove


# ---------------------------------------------------------------------------
# total variation


def test_directed_connected_with_c6_up_to_four_vertices():
    # every graphical directed bi-sequence on n <= 4 vertices (canonical
    # vertex order) has a connected realization graph under C4 + C6 swaps
    from itertools import combinations_with_replacement

    from degmix import directed_graphical

    checked = 0
    for n in (2, 3, 4):
        vals = [(o, i) for o in range(n) for i in range(n)]
        for combo in combinations_with_replacement(vals, n):
            out_deg = tuple(x for x, _ in combo)
            in_deg = tuple(x for _, x in combo)
            if sum(out_deg) != sum(in_deg):
                continue
            dd = DirectedDegreeSequence(out_deg, in_deg)
            if not directed_graphical(dd):
                continue
            checked += 1
            assert realization_space(dd).connected(), (out_deg, in_deg)
    assert checked == 189


def test_tv_step_zero_is_one_minus_inverse():
    tv = tv_distance_audit(DegreeSequence((1, 1, 1, 1)), 0)
    assert abs(tv - (1 - 1 / 3)) < 1e-12


def test_tv_kernel_power_mixes():
    assert tv_distance_audit(DegreeSequence((1, 1, 1, 1)), 100) < 1e-6
    assert tv_distance_audit(BipartiteDegreeSequence((2, 2, 1), (3, 1, 1)), 200) < 1e-6


@pytest.mark.parametrize("seq, count", [
    (DegreeSequence((2, 2, 1, 1, 1, 1)), 18),
    (DirectedDegreeSequence((1,) * 5, (1,) * 5), 44),
], ids=["simple-18", "directed-44"])
def test_tv_far_past_mixing_meets_spectral_bound(seq, count):
    # powering P itself doubled the rounding error of its row sums with each
    # squaring: 7.7e-12 at 10^6 steps on the 18 states, 2.6e6 at 10^18
    lam2 = spectral_report(realization_space(seq)).lambda2
    for steps in (10 ** 6, 10 ** 18):
        tv = tv_distance_audit(seq, steps)
        bound = 0.5 * math.sqrt(count - 1) * lam2 ** steps
        assert 0.0 <= tv <= bound + 1e-12, (steps, tv)


def test_tv_deviation_power_matches_kernel_power():
    # (P - J/n)^t = P^t - J/n for a doubly stochastic P; the kernel power
    # carries about 1e-15 of rounding noise by t = 200
    seq = DegreeSequence((2, 2, 1, 1, 1, 1))
    p = realization_space(seq).transition_matrix()
    for steps in (1, 2, 5, 40, 200):
        pk = np.linalg.matrix_power(p, steps)
        want = 0.5 * np.max(np.abs(pk - 1.0 / len(p)).sum(axis=1))
        assert abs(tv_distance_audit(seq, steps) - want) <= 1e-12 * want + 1e-14


@pytest.mark.parametrize("seq, c4_only", [
    (DegreeSequence((2, 2, 1, 1, 1, 1)), False),
    # two states that C4 swaps do not join: the deviation never decays
    (DirectedDegreeSequence((1, 1, 1), (1, 1, 1)), True),
], ids=["simple-18", "disconnected-2"])
def test_tv_list_power_matches_matrix_power(seq, c4_only):
    space = realization_space(seq, c4_only=c4_only)
    n = space.count
    assert n <= degmix.space.EXACT_STATES
    p = space.transition_matrix()
    for steps in (0, 1, 40, 10 ** 18):
        want = np.linalg.matrix_power(p - 1.0 / n, steps) if steps else np.eye(n) - 1.0 / n
        got = np.array(degmix.space._deviation_power(space.kernel, steps))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), steps
        tv = 0.5 * np.abs(want).sum(axis=1).max()
        assert abs(tv_distance_audit(seq, steps, c4_only=c4_only) - tv) <= 1e-12 * tv, steps


def test_tv_disconnected_stays_away_from_zero():
    dd = DirectedDegreeSequence((1, 1, 1), (1, 1, 1))
    for steps in (10, 100, 1000):
        assert tv_distance_audit(dd, steps, c4_only=True) >= 0.5 - 1e-12


def test_forbidden_pair_out_of_range_raises():
    # (5, 5) lies outside the 2 x 2 classes, so it forbids nothing and must
    # not turn C6 swaps on
    bd, f = BipartiteDegreeSequence((1, 1), (1, 1)), ForbiddenSet([(5, 5)])
    with pytest.raises(ValueError, match="forbidden pair out of range"):
        realization_space(bd, f)
    with pytest.raises(ValueError, match="forbidden pair out of range"):
        tv_distance_audit(bd, 3, f=f)


def test_tv_empirical():
    tv = tv_distance_audit(DegreeSequence((1, 1, 1, 1)), 50000, seed=0, empirical=True)
    assert tv < 0.02


@pytest.mark.parametrize("seq", [
    DegreeSequence((2, 2, 2, 1, 1)),
    BipartiteDegreeSequence((2, 2, 1), (2, 2, 1)),
    DirectedDegreeSequence((1, 1, 1, 1), (1, 1, 1, 1)),  # C6 swaps
], ids=["simple", "bipartite", "directed-c6"])
def test_tv_empirical_matches_one_step_reference(seq):
    # the audit steps a one-coordinate product chain through run; the
    # reference procedure gives the same trajectory from the same seeds
    for seed in (0, 7):
        space = realization_space(seq)
        state = ChainState(space.instance, space.instance.edges_of_mask(space.masks[0]),
                           random.Random(seed))
        pc = ProductChain([state], random.Random(0))
        idx, counts = space.index(), np.zeros(space.count)
        for _ in range(3000):
            old.reference_run(pc, 1)
            counts[idx[state.mask]] += 1
        want = float(0.5 * np.abs(counts / 3000 - 1.0 / space.count).sum())
        assert tv_distance_audit(seq, 3000, seed=seed, empirical=True) == want


def test_tv_empirical_requires_a_seed():
    with pytest.raises(ValueError, match="seed"):
        tv_distance_audit(DegreeSequence((1, 1, 1, 1)), 10, empirical=True)


def test_tv_empirical_requires_a_step():
    # no trajectory has no occupation frequencies: an error, not nan
    for steps in (0, -1):
        with pytest.raises(ValueError, match="at least one step"):
            tv_distance_audit(DegreeSequence((1, 1, 1, 1)), steps, seed=0, empirical=True)


def test_empirical_kernel_matches_exact_three_sigma():
    # transition frequencies along one long run vs the exact kernel rows
    space = realization_space(DegreeSequence((1, 1, 1, 1)))
    p = space.transition_matrix()
    idx = space.index()
    state = ChainState(
        space.instance, space.instance.edges_of_mask(space.masks[0]), random.Random(99)
    )
    pc = ProductChain([state], random.Random(98))
    steps = 1000000
    trans = np.zeros((3, 3))
    prev = idx[state.mask]
    for _ in range(steps):
        run(pc, 1)
        cur = idx[state.mask]
        trans[prev, cur] += 1
        prev = cur
    visits = trans.sum(axis=1)
    for i in range(3):
        for j in range(3):
            mean = visits[i] * p[i, j]
            sd = math.sqrt(visits[i] * p[i, j] * (1 - p[i, j]))
            assert abs(trans[i, j] - mean) <= 3 * sd + 1e-9, (i, j)
