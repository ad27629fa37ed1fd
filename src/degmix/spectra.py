"""Degree spectra matrices and the spectra-preserving restricted chain.

The degree spectrum of a vertex counts its neighbors by their degree; the
matrix of all spectra splits a graph into edge-disjoint component graphs, one
per unordered pair of degree classes.  Swaps inside a component change no
spectrum, and every spectrum-preserving swap lives inside a component, so a
product chain over the components samples realizations of a fixed matrix.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ._value import Value
from .chain import _check_schedule, _sample_stream
from .errors import InconsistentMatrix, NotGraphical
from .graphs import LabeledGraph, bipartite_instance, simple_instance
from .layout import Layout
from .sequences import _as_int, erdos_gallai, gale_ryser

__all__ = [
    "DegreeSpectraMatrix",
    "ComponentSequence",
    "degree_spectra",
    "component_sequences",
    "dsm_graphical",
    "dsm_witness",
    "joint_degree_view",
    "dsm_sample",
]


class DegreeSpectraMatrix(Value):
    """Per-vertex neighbor counts by neighbor degree.

    ``columns[v][i-1]`` is the number of degree-i neighbors of vertex v; all
    columns have length ``delta``.  The degree of v is its column sum.
    """

    _fields = ("delta", "columns")
    delta: int
    columns: Tuple[Tuple[int, ...], ...]

    def __init__(self, delta: int, columns: Iterable[Iterable[int]]):
        delta = _as_int(delta)
        cols = tuple(tuple(_as_int(x) for x in col) for col in columns)
        if any(len(col) != delta for col in cols):
            raise InconsistentMatrix("every column must have length delta")
        if any(x < 0 for col in cols for x in col):
            raise InconsistentMatrix("negative neighbor count")
        self._set(delta, cols)

    @property
    def n(self) -> int:
        return len(self.columns)

    def implied_degrees(self) -> Tuple[int, ...]:
        return tuple(sum(col) for col in self.columns)

    def degree_classes(self) -> Dict[int, Tuple[int, ...]]:
        """Vertices grouped by implied degree (zero-degree class excluded)."""
        classes: Dict[int, List[int]] = {}
        for v, d in enumerate(self.implied_degrees()):
            if d > 0:
                classes.setdefault(d, []).append(v)
        return {d: tuple(vs) for d, vs in classes.items()}


class ComponentSequence(Value):
    """Degree sequence of one class-pair component: bipartite between the
    degree-i and degree-j classes for i != j, simple inside the class for
    i == j.  Vertex tuples give the global ids behind each position."""

    _fields = ("i", "j", "u_vertices", "w_vertices", "u_degrees", "w_degrees")
    i: int
    j: int
    u_vertices: Tuple[int, ...]
    w_vertices: Tuple[int, ...]
    u_degrees: Tuple[int, ...]
    w_degrees: Tuple[int, ...]

    def __init__(self, i: int, j: int, u_vertices: Tuple[int, ...],
                 w_vertices: Tuple[int, ...], u_degrees: Tuple[int, ...],
                 w_degrees: Tuple[int, ...]):
        self._set(i, j, u_vertices, w_vertices, u_degrees, w_degrees)

    @property
    def is_simple(self) -> bool:
        return self.i == self.j

    def is_graphical(self) -> bool:
        if self.is_simple:
            return erdos_gallai(self.u_degrees)
        return gale_ryser((self.u_degrees, self.w_degrees))


def degree_spectra(g: LabeledGraph) -> DegreeSpectraMatrix:
    """Exact spectra matrix of a simple graph; column sums recount degrees."""
    deg = g.degrees()
    delta = max(deg, default=0)
    cols = [[0] * delta for _ in range(g.n)]
    for a, b in g.edges:
        cols[a][deg[b] - 1] += 1
        cols[b][deg[a] - 1] += 1
    return DegreeSpectraMatrix(delta, cols)


def component_sequences(m: DegreeSpectraMatrix) -> List[ComponentSequence]:
    """One component per unordered class pair with nonzero interaction.

    Raises ``InconsistentMatrix`` if a vertex's degree exceeds ``delta``, a
    vertex claims neighbors in an empty class, a class's inner stub total is
    odd, or the stub totals between two classes differ; classes are checked
    in sorted order, each one's parity before its pairs.
    """
    for v, d in enumerate(m.implied_degrees()):
        if d > m.delta:
            raise InconsistentMatrix("vertex %d has degree %d > delta" % (v, d))
    classes = m.degree_classes()
    for v, col in enumerate(m.columns):
        for i, cnt in enumerate(col, start=1):
            if cnt and i not in classes:
                raise InconsistentMatrix(
                    "vertex %d claims degree-%d neighbors but that class is empty"
                    % (v, i)
                )
    values = sorted(classes)
    out: List[ComponentSequence] = []
    for ai, i in enumerate(values):
        vi = classes[i]
        inner = tuple(m.columns[v][i - 1] for v in vi)
        if sum(inner) % 2:
            raise InconsistentMatrix("odd stub total inside class %d" % i)
        if any(inner):
            out.append(ComponentSequence(i, i, vi, vi, inner, inner))
        for j in values[ai + 1:]:
            vj = classes[j]
            iu = tuple(m.columns[v][j - 1] for v in vi)
            iw = tuple(m.columns[u][i - 1] for u in vj)
            if sum(iu) != sum(iw):
                raise InconsistentMatrix(
                    "stub totals between classes %d and %d differ" % (i, j)
                )
            if any(iu):
                out.append(ComponentSequence(i, j, vi, vj, iu, iw))
    return out


def dsm_graphical(m: DegreeSpectraMatrix) -> bool:
    """True iff the matrix is structurally consistent and every component
    sequence is graphical: whether ``_dsm_plan`` succeeds."""
    try:
        _dsm_plan(m)
    except NotGraphical:
        return False
    return True


def _dsm_plan(m: DegreeSpectraMatrix) -> Layout:
    """The class-pair components as factors of one graph; spectra-preserving
    swaps force no edges between them."""
    try:
        comps = component_sequences(m)
    except InconsistentMatrix:
        comps = None
    if comps is None or not all(c.is_graphical() for c in comps):
        raise NotGraphical("degree spectra matrix is not graphical")
    factors = [
        simple_instance(c.u_degrees)
        if c.is_simple
        else bipartite_instance(c.u_degrees, c.w_degrees)
        for c in comps
    ]
    return Layout(factors, [c.u_vertices for c in comps], [c.w_vertices for c in comps])


def dsm_witness(m: DegreeSpectraMatrix) -> LabeledGraph:
    """A realization of the matrix: the start state of its product chain,
    each component realized independently (they are edge-disjoint)."""
    plan = _dsm_plan(m)
    return LabeledGraph(m.n, plan.edges(plan.starts))


def joint_degree_view(m: DegreeSpectraMatrix) -> Dict[Tuple[int, int], int]:
    """Derived joint degree matrix: edge counts between degree classes, one
    per component of ``component_sequences``, in its order; raises
    ``InconsistentMatrix`` where that does."""
    return {
        (c.i, c.j): sum(c.u_degrees) // 2 if c.is_simple else sum(c.u_degrees)
        for c in component_sequences(m)
    }


def dsm_sample(
    m: DegreeSpectraMatrix, burn_in: int, thin: int, count: int, seed: int
) -> List[LabeledGraph]:
    """Realizations whose recomputed spectra matrix equals ``m`` exactly,
    drawn from one logical chain."""
    _check_schedule(burn_in, thin)
    if count <= 0:
        return []
    draws = _sample_stream(_dsm_plan(m), seed, 0, count, burn_in, thin)
    return [LabeledGraph(m.n, edges) for edges in draws]
