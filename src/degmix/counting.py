"""Census routines for bipartite degree sequence classes.

Counts are exact arbitrary-precision integers (the composed-class counts grow
like 15584^(n/6)).  A "sequence on n+n vertices" is an ordered, class-
designated pair of non-increasing vectors with entries at most n; the
designated convention is pinned by the 6+6 census value 15584.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from typing import Callable, Dict, List, Tuple

from ._value import Value
from .errors import DivisibilityError, TooLarge
from .sequences import gale_ryser

__all__ = [
    "CountReport",
    "count_almost_half_regular",
    "count_almost_half_regular_exhaustive",
    "count_bipartite_graphical",
    "count_composed_class",
]

DEFAULT_MAX_CENSUS = 10


class CountReport(Value):
    _fields = ("parameter", "count", "method")
    parameter: int
    count: int
    method: str

    def __init__(self, parameter: int, count: int, method: str):
        self._set(parameter, count, method)


def count_almost_half_regular(m: int) -> CountReport:
    """Closed form 2*C(2m, m) - m^2 - 1 for the number of graphical
    almost-half-regular bipartite degree sequences on m+m vertices
    (zero degrees allowed, either class may carry the almost-regular side)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return CountReport(m, 2 * comb(2 * m, m) - m * m - 1, "formula")


def _nonincreasing(n: int, cap: int) -> List[Tuple[int, ...]]:
    return [
        tuple(sorted(c, reverse=True))
        for c in combinations_with_replacement(range(cap + 1), n)
    ]


def _census(n: int, keep: Callable[[Tuple[int, ...], Tuple[int, ...]], bool]) -> int:
    """Ordered pairs (a, b) of non-increasing n-vectors with entries <= n and
    equal sums for which ``keep(a, b)`` holds."""
    by_sum: Dict[int, List[Tuple[int, ...]]] = {}
    for s in _nonincreasing(n, n):
        by_sum.setdefault(sum(s), []).append(s)
    return sum(1 for group in by_sum.values() for a in group for b in group if keep(a, b))


def _almost_regular(seq: Tuple[int, ...]) -> bool:
    return not seq or max(seq) - min(seq) <= 1


def count_almost_half_regular_exhaustive(m: int) -> CountReport:
    """Independent census: ordered pairs of non-increasing vectors with
    entries <= m, equal sums, Gale-Ryser graphical, at least one side
    almost regular.  It lists all C(2m, m) vectors, so m is capped."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > DEFAULT_MAX_CENSUS:
        raise TooLarge("census capped at m = %d" % DEFAULT_MAX_CENSUS)
    total = _census(
        m, lambda a, b: (_almost_regular(a) or _almost_regular(b)) and gale_ryser((a, b))
    )
    return CountReport(m, total, "exhaustive")


def count_bipartite_graphical(n: int) -> CountReport:
    """Number of graphical bipartite degree sequences on n+n vertices:
    ordered pairs of non-increasing vectors, entries <= n, equal sums,
    passing Gale-Ryser.  n = 6 gives 15584."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_MAX_CENSUS:
        raise TooLarge("census capped at n = %d" % DEFAULT_MAX_CENSUS)
    return CountReport(n, _census(n, lambda a, b: gale_ryser((a, b))), "exhaustive")


def count_composed_class(n: int, block: int) -> CountReport:
    """Lower bound on composable fast-mixing sequences on n+n vertices:
    distinct ordered tuples of graphical blocks compose to distinct
    sequences, so the count is census(block) ** (n // block)."""
    if block < 1 or n < 1:
        raise ValueError("sizes must be >= 1")
    if n % block != 0:
        raise DivisibilityError("block %d does not divide n %d" % (block, n))
    if block > DEFAULT_MAX_CENSUS:
        raise TooLarge("census capped at block = %d" % DEFAULT_MAX_CENSUS)
    base = count_bipartite_graphical(block).count
    return CountReport(n, base ** (n // block), "formula")
