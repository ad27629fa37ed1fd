"""Seeded input generators for the benchmark workloads.

Everything here is built from a ``random.Random`` the caller seeds, with
plain integer arithmetic written for the benchmark: degmix is never imported,
so the program under test sees only the JSON files these inputs become.

Composition arithmetic (the inverse of degmix's canonical decomposition):

* a split component has a primary class U (a clique, |U| = p) and a
  secondary class W (independent); composing it over a sequence g adds |g| to
  every U degree and p to every degree of g, and keeps W;
* splitted bipartite sequences compose by joining the first operand's
  primary class to the second operand's secondary class.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

Degrees = List[int]


def compose_split(u: Sequence[int], w: Sequence[int], g: Sequence[int]) -> Degrees:
    """Degree sequence (sorted non-increasing) of split component (u, w) over g."""
    merged = [x + len(g) for x in u] + [x + len(u) for x in g] + list(w)
    return sorted(merged, reverse=True)


def compose_bipartite(a, b) -> Tuple[Degrees, Degrees]:
    """(primary, secondary) of splitted bipartite a composed over b."""
    (au, aw), (bu, bw) = a, b
    return [x + len(bw) for x in au] + list(bu), list(aw) + [x + len(au) for x in bw]


def compose_bipartite_many(parts) -> Tuple[Degrees, Degrees]:
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = compose_bipartite(part, out)
    return list(out[0]), list(out[1])


def random_bipartite_edges(rng: random.Random, nu: int, nw: int, m: int):
    """m distinct (u, w) pairs in which every vertex of both classes occurs."""
    if m < max(nu, nw) or m > nu * nw:
        raise ValueError("cannot cover %d+%d vertices with %d edges" % (nu, nw, m))
    edges = set()
    for k in range(max(nu, nw)):  # a covering "staircase" first
        edges.add((k % nu, k % nw))
    rest = [(i, j) for i in range(nu) for j in range(nw) if (i, j) not in edges]
    edges.update(rng.sample(rest, m - len(edges)))
    return sorted(edges)


def bipartite_degrees(nu: int, nw: int, edges) -> Tuple[Degrees, Degrees]:
    du, dw = [0] * nu, [0] * nw
    for i, j in edges:
        du[i] += 1
        dw[j] += 1
    return du, dw


def heavy_tailed_graph(rng: random.Random, n: int):
    """Chung-Lu style random graph with weights (i+1)^-0.6 scaled to mean
    degree 4; returns its edge set on vertices 0..n-1 with every vertex given
    at least one edge."""
    weights = [(i + 1) ** -0.6 for i in range(n)]
    scale = 4.0 * n / sum(weights)
    total = scale * sum(weights)
    edges = set()
    for a in range(n):
        for b in range(a + 1, n):
            prob = min(1.0, scale * weights[a] * scale * weights[b] / total)
            if rng.random() < prob:
                edges.add((a, b))
    deg = degrees_of(n, edges)
    for v in range(n):
        if deg[v] == 0:  # attach stragglers to a random non-neighbour
            u = rng.choice([x for x in range(n) if x != v])
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    return edges


def degrees_of(n: int, edges) -> Degrees:
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def split_composed(rng: random.Random, components, tail_n: int) -> Degrees:
    """Split components given as (primary, secondary) degrees, outermost
    first, composed over a ``heavy_tailed_graph`` on ``tail_n`` vertices;
    returned in a seeded vertex order."""
    degrees = sorted(degrees_of(tail_n, heavy_tailed_graph(rng, tail_n)), reverse=True)
    for u, w in reversed(components):
        degrees = compose_split(u, w, degrees)
    rng.shuffle(degrees)
    return degrees


def composed_bipartite(rng: random.Random, shapes) -> Tuple[Degrees, Degrees]:
    """Splitted bipartite factors of the given (nu, nw, m) shapes composed
    left to right; each class returned in a seeded vertex order."""
    parts = [
        bipartite_degrees(nu, nw, random_bipartite_edges(rng, nu, nw, m))
        for nu, nw, m in shapes
    ]
    u, w = compose_bipartite_many(parts)
    rng.shuffle(u)
    rng.shuffle(w)
    return u, w


def hub_digraph(rng: random.Random, n: int, arcs_per_vertex: int, hub_arcs: int):
    """Out/in degrees of a random digraph in which vertex 0 sends and receives
    ``hub_arcs`` arcs and every other vertex about ``arcs_per_vertex``."""
    arcs = set()
    others = list(range(1, n))
    for v in rng.sample(others, hub_arcs):
        arcs.add((0, v))
    for v in rng.sample(others, hub_arcs):
        arcs.add((v, 0))
    target = len(arcs) + (n - 1) * arcs_per_vertex
    while len(arcs) < target:
        a, b = rng.sample(others, 2)
        arcs.add((a, b))
    out, inn = [0] * n, [0] * n
    for a, b in arcs:
        out[a] += 1
        inn[b] += 1
    order = list(range(n))
    rng.shuffle(order)
    return [out[v] for v in order], [inn[v] for v in order]


def random_graph(rng: random.Random, n: int, m: int):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return sorted(rng.sample(pairs, m))


def spectra_matrix(n: int, edges) -> Dict:
    """Degree spectra matrix in degmix's file format: columns[v][i-1] counts
    the degree-i neighbours of v."""
    deg = degrees_of(n, edges)
    delta = max(deg)
    cols = [[0] * delta for _ in range(n)]
    for a, b in edges:
        cols[a][deg[b] - 1] += 1
        cols[b][deg[a] - 1] += 1
    return {"delta": delta, "columns": cols}


def permuted(rng: random.Random, values: Sequence[int]) -> Degrees:
    out = list(values)
    rng.shuffle(out)
    return out
