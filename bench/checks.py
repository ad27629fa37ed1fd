"""Output checks made apart from degmix.

Every check recomputes what it needs from the benchmark's own inputs with
arithmetic written here (and networkx for simple-graph graphicality), or
tests a property the method must have.  None compares against a stored copy
of degmix's output.  A failed check raises ``CheckError``.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from inputs import compose_bipartite_many, compose_split


class CheckError(Exception):
    """An output that the benchmark's checks reject."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# samples


def parse_draws(text: str) -> List[List[Tuple[int, int]]]:
    """degmix's edges format: one "a b" pair per line, 1-based, draws
    separated by one blank line."""
    draws = []
    for block in text.strip("\n").split("\n\n"):
        edges = []
        for line in block.splitlines():
            a, b = line.split()
            edges.append((int(a), int(b)))
        draws.append(edges)
    return draws


def _common_draw_checks(draws, count: int, n_a: int, n_b: int, loops_banned: bool,
                        unordered: bool) -> None:
    require(len(draws) == count, "expected %d draws, got %d" % (count, len(draws)))
    for k, edges in enumerate(draws):
        seen = set()
        for a, b in edges:
            require(1 <= a <= n_a and 1 <= b <= n_b,
                    "draw %d: index out of range in %r" % (k, (a, b)))
            require(not (loops_banned and a == b),
                    "draw %d: loop or forbidden pair %r" % (k, (a, b)))
            key = (min(a, b), max(a, b)) if unordered else (a, b)
            require(key not in seen, "draw %d: repeated pair %r" % (k, (a, b)))
            seen.add(key)


def check_simple_draws(text: str, degrees: Sequence[int], count: int) -> None:
    n = len(degrees)
    draws = parse_draws(text)
    _common_draw_checks(draws, count, n, n, True, True)
    for k, edges in enumerate(draws):
        deg = [0] * n
        for a, b in edges:
            deg[a - 1] += 1
            deg[b - 1] += 1
        require(deg == list(degrees), "draw %d: degrees differ from the input" % k)


def check_bipartite_draws(text: str, u: Sequence[int], w: Sequence[int], count: int,
                          directed: bool = False) -> None:
    """Bipartite (u, w) class pairs, or directed (tail, head) arcs with the
    diagonal forbidden."""
    draws = parse_draws(text)
    _common_draw_checks(draws, count, len(u), len(w), directed, False)
    for k, edges in enumerate(draws):
        du, dw = [0] * len(u), [0] * len(w)
        for a, b in edges:
            du[a - 1] += 1
            dw[b - 1] += 1
        require(du == list(u) and dw == list(w), "draw %d: degrees differ from the input" % k)


def check_dsm_draws(text: str, matrix: Dict, count: int) -> None:
    """Each draw is a simple graph whose recounted spectra matrix is the input."""
    cols = matrix["columns"]
    n = len(cols)
    degrees = [sum(c) for c in cols]
    check_simple_draws(text, degrees, count)
    for k, edges in enumerate(parse_draws(text)):
        got = [[0] * matrix["delta"] for _ in range(n)]
        for a, b in edges:
            got[a - 1][degrees[b - 1] - 1] += 1
            got[b - 1][degrees[a - 1] - 1] += 1
        require(got == cols, "draw %d: spectra matrix differs from the input" % k)


# ---------------------------------------------------------------------------
# graphicality verdicts


def gale_ryser(u: Sequence[int], w: Sequence[int]) -> bool:
    if sum(u) != sum(w):
        return False
    us = sorted(u, reverse=True)
    for k in range(1, len(us) + 1):
        if sum(us[:k]) > sum(min(x, k) for x in w):
            return False
    return True


def expected_verdict(seq: Dict) -> bool:
    if seq["kind"] == "simple":
        return nx.is_graphical(seq["degrees"], method="eg")
    if seq["kind"] == "bipartite":
        return gale_ryser(seq["u"], seq["w"])
    raise ValueError("no independent verdict for kind %r" % seq["kind"])


def check_verdict(stdout: str, seq: Dict) -> None:
    got = json.loads(stdout)["graphical"]
    want = expected_verdict(seq)
    require(got is want, "verdict %r, independent check says %r" % (got, want))


# ---------------------------------------------------------------------------
# decompositions


def _split_identity(u: Sequence[int], w: Sequence[int]) -> None:
    p = len(u)
    require(p + len(w) > 0, "empty component")
    require(all(p - 1 <= x <= p - 1 + len(w) for x in u),
            "primary degrees outside [p-1, p-1+q]: %r" % (u,))
    require(all(0 <= x <= p for x in w), "secondary degrees outside [0, p]: %r" % (w,))
    require(sum(u) == p * (p - 1) + sum(w), "split identity fails for %r / %r" % (u, w))


def check_simple_decomposition(stdout: str, degrees: Sequence[int]) -> None:
    """Components satisfy the split identity, every certificate identity
    holds on the running remainder, and the whole recomposes to the input."""
    out = json.loads(stdout)
    require(out.get("kind") == "simple", "not a simple decomposition")
    comps = out["components"]
    cur = sorted(degrees, reverse=True)
    for k, comp in enumerate(comps):
        u, w = comp["primary"], comp["secondary"]
        _split_identity(u, w)
        p, q = comp["good_pair"]
        n = len(cur)
        require((p, q) == (len(u), len(w)),
                "component %d: good pair %r does not match its classes" % (k, (p, q)))
        require(0 < p + q < n, "component %d: good pair leaves no remainder" % k)
        lhs = sum(cur[:p])
        rhs = p * (n - q - 1) + sum(cur[n - q:])
        cert = comp["certificate"]
        require((cert["n"], cert["lhs_sum_top_p"], cert["rhs"]) == (n, lhs, rhs),
                "component %d: certificate %r, recomputed (%d, %d, %d)" % (k, cert, n, lhs, rhs))
        require(lhs == rhs, "component %d: good-pair identity fails" % k)
        cur = [x - p for x in cur[p:n - q]]
    tail = out["tail"] or []
    require(sorted(tail, reverse=True) == cur, "tail differs from the last remainder")
    rebuilt = sorted(tail, reverse=True)
    for comp in reversed(comps):
        rebuilt = compose_split(comp["primary"], comp["secondary"], rebuilt)
    require(rebuilt == sorted(degrees, reverse=True), "components do not recompose to the input")


def check_bipartite_decomposition(stdout: str, u: Sequence[int], w: Sequence[int]) -> None:
    out = json.loads(stdout)
    require(out.get("kind") == "bipartite", "not a bipartite decomposition")
    parts = [(f["primary"], f["secondary"]) for f in out["factors"]]
    require(len(parts) >= 1, "no factors")
    for a, b in parts:
        require(len(a) + len(b) > 0 and sum(a) == sum(b),
                "factor %r / %r has unequal class sums" % (a, b))
        require(gale_ryser(a, b), "factor %r / %r is not graphical" % (a, b))
    cu, cw = compose_bipartite_many(parts)
    require((sorted(cu), sorted(cw)) == (sorted(u), sorted(w)),
            "factors do not recompose to the input")


# ---------------------------------------------------------------------------
# realization counts, computed apart from degmix


def count_bipartite(u: Sequence[int], w: Sequence[int],
                    forbidden: frozenset = frozenset()) -> int:
    """0/1 matrices with row sums u and column sums w that are zero on the
    forbidden cells: a DP over rows on the remaining column sums."""
    nw = len(w)

    @lru_cache(maxsize=None)
    def rows(i: int, rem: Tuple[int, ...]) -> int:
        if i == len(u):
            return int(not any(rem))
        total = 0
        allowed = [j for j in range(nw) if rem[j] > 0 and (i, j) not in forbidden]
        for cols in combinations(allowed, u[i]):
            nxt = list(rem)
            for j in cols:
                nxt[j] -= 1
            total += rows(i + 1, tuple(nxt))
        return total

    if sum(u) != sum(w):
        return 0
    return rows(0, tuple(w))


def count_simple(degrees: Sequence[int]) -> int:
    """Labeled simple graphs with the given degrees: vertex i picks its
    neighbours among later vertices, memoized on the remaining degrees."""
    n = len(degrees)

    @lru_cache(maxsize=None)
    def go(i: int, rem: Tuple[int, ...]) -> int:
        if i == n:
            return 1
        if rem[0] > n - i - 1:
            return 0
        total = 0
        later = [j for j in range(1, n - i) if rem[j] > 0]
        for nbrs in combinations(later, rem[0]):
            nxt = list(rem[1:])
            for j in nbrs:
                nxt[j - 1] -= 1
            total += go(i + 1, tuple(nxt))
        return total

    return go(0, tuple(degrees))


def count_realizations(seq: Dict) -> int:
    if seq["kind"] == "simple":
        return count_simple(seq["degrees"])
    return count_bipartite(seq["u"], seq["w"])


# ---------------------------------------------------------------------------
# verify reports


def check_connectivity(stdout: str, count: int) -> None:
    out = json.loads(stdout)
    require(out.get("realizations") == count,
            "%r realizations, independent count %d" % (out.get("realizations"), count))
    require(out.get("connected") is True, "swap graph reported disconnected")


def check_spectral(stdout: str, count: int) -> Dict:
    """Realization count plus the spectral facts every lazy reversible chain
    obeys: 0 <= lambda2 < 1, relaxation = 1/(1-lambda2), and Cheeger's
    phi^2/2 <= 1 - lambda2 <= 2 phi.  Returns the parsed report."""
    out = json.loads(stdout)
    require(out.get("realizations") == count,
            "%r realizations, independent count %d" % (out.get("realizations"), count))
    lam2, relax, phi = out["lambda2"], out["relaxation_time"], out["conductance"]
    require(0.0 <= lam2 < 1.0, "lambda2 = %r outside [0, 1)" % lam2)
    gap = 1.0 - lam2
    require(math.isclose(relax, 1.0 / gap, rel_tol=1e-9), "relaxation %r != 1/(1-lambda2)" % relax)
    require(phi > 0, "conductance %r of a connected chain" % phi)
    require(phi * phi / 2.0 <= gap + 1e-9, "Cheeger lower bound fails: phi^2/2 > 1 - lambda2")
    require(gap <= 2.0 * phi + 1e-9, "Cheeger upper bound fails: 1 - lambda2 > 2 phi")
    return out


def check_product(stdout: str, count: int, factor_counts: Tuple[int, int]) -> None:
    """The composed count is the benchmark's own count, equal to the product
    of the independently counted factors, and degmix's factor counts
    multiply to it."""
    out = json.loads(stdout)
    require(out.get("ok") is True, "product check not ok")
    require(count == factor_counts[0] * factor_counts[1],
            "independent counts do not multiply: %d != %d * %d" % (count, *factor_counts))
    got = out["composed_count"]
    f0, f1 = out["factor_counts"]
    require(got == count, "composed count %d, independent count %d" % (got, count))
    require(f0 * f1 == got, "factor counts %d * %d != %d" % (f0, f1, got))
    require(out["edges"] > 0, "product graph without meta-edges")


def check_tv(stdout: str, steps: int, count: int, lambda2: Optional[float]) -> None:
    """Exact worst-start TV after t steps is at most 1/2 sqrt(N-1) lambda2^t
    (uniform stationary law, lazy chain so lambda* = lambda2)."""
    out = json.loads(stdout)
    tv = out["tv"]
    require(out.get("steps") == steps, "audit ran %r steps, asked %d" % (out.get("steps"), steps))
    require(0.0 <= tv <= 1.0, "TV %r outside [0, 1]" % tv)
    require(lambda2 is not None, "no lambda2 for the TV bound (spectral job failed)")
    bound = 0.5 * math.sqrt(count - 1) * lambda2 ** steps
    require(tv <= bound + 1e-12, "TV %r above the spectral bound %r" % (tv, bound))
