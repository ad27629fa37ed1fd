"""Degree spectra matrices: extraction, graphicality, witnesses, sampling."""

import re

import pytest

import legacy_oracles

from degmix import (
    DegreeSpectraMatrix,
    InconsistentMatrix,
    LabeledGraph,
    NotGraphical,
    component_sequences,
    degree_spectra,
    dsm_graphical,
    dsm_sample,
    dsm_witness,
    joint_degree_view,
)

from conftest import all_simple_graphs


TRIANGLE = LabeledGraph(3, [(0, 1), (0, 2), (1, 2)])
STAR = LabeledGraph(4, [(0, 1), (0, 2), (0, 3)])
PATH3 = LabeledGraph(3, [(0, 1), (1, 2)])  # center vertex 1


def test_degree_spectra_examples():
    m = degree_spectra(TRIANGLE)
    assert m.delta == 2 and all(col == (0, 2) for col in m.columns)

    m = degree_spectra(STAR)
    assert m.columns[0] == (3, 0, 0)  # center: three degree-1 neighbors
    assert all(m.columns[v] == (0, 0, 1) for v in (1, 2, 3))

    m = degree_spectra(PATH3)
    assert m.columns[1] == (2, 0)  # center: two degree-1 neighbors
    assert m.columns[0] == (0, 1) and m.columns[2] == (0, 1)


def test_column_sums_reproduce_degrees():
    for g in (TRIANGLE, STAR, PATH3, LabeledGraph(5, [(0, 1), (2, 3)])):
        assert degree_spectra(g).implied_degrees() == g.degrees()


def test_component_sequences_examples():
    comps = component_sequences(degree_spectra(TRIANGLE))
    assert len(comps) == 1
    c = comps[0]
    assert c.is_simple and (c.i, c.j) == (2, 2) and c.u_degrees == (2, 2, 2)

    comps = component_sequences(degree_spectra(STAR))
    assert len(comps) == 1
    c = comps[0]
    assert not c.is_simple and (c.i, c.j) == (1, 3)
    assert c.u_degrees == (1, 1, 1) and c.w_degrees == (3,)

    # empty graph: no components at all
    assert component_sequences(degree_spectra(LabeledGraph(3, []))) == []


def test_dsm_graphical_round_trip_small():
    for n in range(1, 6):
        for edges in all_simple_graphs(n):
            assert dsm_graphical(degree_spectra(LabeledGraph(n, edges)))


def test_dsm_graphical_rejects_perturbed():
    m = degree_spectra(TRIANGLE)
    cols = [list(c) for c in m.columns]
    cols[0][1] += 1  # one column sum bumped
    assert not dsm_graphical(DegreeSpectraMatrix(m.delta, cols))


def test_component_sequences_rejects_inconsistent():
    # vertex 0 claims a degree-2 neighbor, but no vertex has degree 2
    with pytest.raises(InconsistentMatrix):
        component_sequences(DegreeSpectraMatrix(2, [(0, 1), (1, 0), (1, 0)]))
    # stub totals between classes differ
    with pytest.raises(InconsistentMatrix):
        component_sequences(DegreeSpectraMatrix(3, [(0, 0, 1), (0, 0, 0), (0, 0, 0),
                                                    (1, 1, 1)]))


def _outcome(f, m):
    """``f(m)``, or ``InconsistentMatrix`` if it raises that."""
    try:
        return f(m)
    except InconsistentMatrix:
        return InconsistentMatrix


def _matrix(delta, columns):
    """``DegreeSpectraMatrix(delta, columns)`` for a tuple of non-negative int
    columns of length ``delta``, without the constructor's per-entry check,
    which costs more than the reads under test."""
    m = object.__new__(DegreeSpectraMatrix)
    m._set(delta, columns)
    return m


def _oracle_matrices():
    """The spectra matrix of every labeled simple graph on up to 6 vertices,
    and every non-negative +-1 change of one entry of those on up to 5."""
    seen, changed = set(), set()
    for n in range(7):
        for edges in all_simple_graphs(n):
            # the columns as degree_spectra counts them
            deg = [0] * n
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            delta = max(deg, default=0)
            cols = [[0] * delta for _ in range(n)]
            for a, b in edges:
                cols[a][deg[b] - 1] += 1
                cols[b][deg[a] - 1] += 1
            key = tuple(map(tuple, cols))
            if key in seen:
                continue
            seen.add(key)
            yield _matrix(delta, key)
            if n > 5:
                continue
            for v in range(n):
                for i in range(delta):
                    for step in (1, -1):
                        if cols[v][i] + step >= 0:
                            cols[v][i] += step
                            key = tuple(map(tuple, cols))
                            if key not in changed:
                                changed.add(key)
                                yield _matrix(delta, key)
                            cols[v][i] -= step


def test_class_pair_reading_matches_the_legacy_oracle():
    checked = consistent = 0
    for m in _oracle_matrices():
        want = _outcome(legacy_oracles.component_sequences, m)
        assert _outcome(component_sequences, m) == want, m
        if isinstance(want, list):
            assert joint_degree_view(m) == legacy_oracles.joint_degree_view(m), m
            consistent += 1
        checked += 1
    assert 0 < consistent < checked  # the changed entries make some inconsistent


@pytest.mark.parametrize("delta, columns, message", [
    pytest.param(1, [(2,), (1,), (1,)], "vertex 0 has degree 2 > delta",
                 id="degree-above-delta"),
    pytest.param(2, [(0, 1), (1, 0), (1, 0)],
                 "vertex 0 claims degree-2 neighbors but that class is empty",
                 id="empty-class"),
    pytest.param(3, [(3, 0, 0), (0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 1)],
                 "stub totals between classes 1 and 3 differ", id="pair-totals"),
    pytest.param(1, [(1,), (1,), (1,)], "odd stub total inside class 1", id="odd-inner"),
])
def test_single_fault_matrices_keep_their_message(delta, columns, message):
    m = DegreeSpectraMatrix(delta, columns)
    for f in (component_sequences, legacy_oracles.component_sequences, joint_degree_view):
        with pytest.raises(InconsistentMatrix, match="^%s$" % re.escape(message)):
            f(m)


def test_joint_degree_view_rejects_inconsistent():
    for m in (DegreeSpectraMatrix(2, [(0, 1), (1, 0), (1, 0)]),
              DegreeSpectraMatrix(3, [(0, 0, 1), (0, 0, 0), (0, 0, 0), (1, 1, 1)])):
        with pytest.raises(InconsistentMatrix):
            joint_degree_view(m)


def test_witness_realizes_matrix():
    for g in (TRIANGLE, STAR, PATH3, LabeledGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4)])):
        m = degree_spectra(g)
        w = dsm_witness(m)
        assert degree_spectra(w) == m


def test_witness_rejects_nongraphical():
    cols = [list(c) for c in degree_spectra(TRIANGLE).columns]
    cols[0][1] += 1
    for m, cause in (
        (DegreeSpectraMatrix(2, cols), "vertex 0 has degree 3 > delta"),
        # consistent; (3, 3) is not graphical
        (DegreeSpectraMatrix(3, [(0, 0, 3), (0, 0, 3)]),
         "the component inside degree class 3 has no realization"),
        # consistent; (2, 2) against (3, 1) is not graphical
        (DegreeSpectraMatrix(3, [(0, 0, 2), (0, 0, 2), (0, 3, 0), (0, 1, 2)]),
         "the component between degree classes 2 and 3 has no realization"),
    ):
        assert not dsm_graphical(m)
        for call in (lambda: dsm_witness(m), lambda: dsm_sample(m, 0, 1, 1, seed=0)):
            with pytest.raises(NotGraphical) as err:
                call()
            assert str(err.value) == "degree spectra matrix is not graphical: " + cause


def test_dsm_sample_preserves_matrix():
    g = LabeledGraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5)])
    m = degree_spectra(g)
    for sg in dsm_sample(m, burn_in=30, thin=3, count=5, seed=4):
        assert degree_spectra(sg) == m


def test_dsm_sample_rigid_is_constant():
    m = degree_spectra(STAR)
    draws = dsm_sample(m, burn_in=10, thin=2, count=4, seed=1)
    assert len({frozenset(g.edges) for g in draws}) == 1


def test_dsm_sample_rejects_thin_below_one():
    m = degree_spectra(STAR)
    for thin in (0, -1):
        with pytest.raises(ValueError, match="thin must be >= 1"):
            dsm_sample(m, burn_in=0, thin=thin, count=1, seed=0)


def test_dsm_sample_rejects_negative_burn_in():
    m = degree_spectra(STAR)
    with pytest.raises(ValueError, match="burn_in must be >= 0"):
        dsm_sample(m, burn_in=-1, thin=1, count=1, seed=0)


def test_dsm_sample_without_draws_runs_no_chain(monkeypatch):
    # no draw asked: return at once, as sample does, without the burn-in
    steps = []
    monkeypatch.setattr("degmix.chain.run", lambda pc, k: steps.append(k))
    m = degree_spectra(STAR)
    for count in (0, -2):
        assert dsm_sample(m, burn_in=300000, thin=1, count=count, seed=0) == []
    assert steps == []


def test_dsm_chain_visits_all_component_realizations():
    # C6 cycle: all neighbors have degree 2, single simple component with
    # multiple realizations; the chain must stay on the fixed matrix
    g = LabeledGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    m = degree_spectra(g)
    seen = set()
    # burn_in=0, thin=1: every one of the chain's first 4000 states is a draw
    for cur in dsm_sample(m, burn_in=0, thin=1, count=4000, seed=8):
        assert degree_spectra(cur) == m
        seen.add(frozenset(cur.edges))
    # 2-regular graphs on 6 labeled vertices: two triangles (10) or a 6-cycle (60)
    assert len(seen) == 70


def test_jdm_and_degree_sequence_constant_across_samples():
    g = LabeledGraph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
    m = degree_spectra(g)
    jdm = joint_degree_view(m)
    degs = tuple(sorted(g.degrees(), reverse=True))
    for sg in dsm_sample(m, burn_in=25, thin=5, count=6, seed=3):
        assert joint_degree_view(degree_spectra(sg)) == jdm
        assert tuple(sorted(sg.degrees(), reverse=True)) == degs


def test_empty_matrix_is_graphical():
    m = DegreeSpectraMatrix(0, [(), (), ()])
    assert dsm_graphical(m)
    assert dsm_witness(m).edges == frozenset()
