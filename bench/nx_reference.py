"""Outside reference: networkx ``double_edge_swap`` on the sample-mixing
simple input.

Usage (from the repository root): python3 bench/nx_reference.py [--seed N]

Prints successful swaps per second of wall time.  The input's split
components force most vertex pairs (their edges never move), so most of
networkx's unrestricted proposals fail; degmix proposes only inside the
canonical factors.  degmix is not involved here; compare with
``chain.step_us`` and ``chain.accept_ratio`` of a traced sample-mixing run.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

import networkx as nx

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import build  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    args = ap.parse_args()
    files, _ = build("sample-mixing", args.seed)
    degrees = files["heavy.json"]["degrees"]
    graph = nx.havel_hakimi_graph(degrees)
    rng = random.Random(args.seed)
    swaps = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds:  # one successful swap per call
        nx.double_edge_swap(graph, nswap=1, max_tries=10 ** 7, seed=rng)
        swaps += 1
    seconds = time.perf_counter() - t0
    if sorted(d for _, d in graph.degree()) != sorted(degrees):
        print("degrees changed", file=sys.stderr)
        return 1
    print("networkx %s double_edge_swap: n=%d m=%d, %d swaps in %.3f s = %.0f swaps/s"
          % (nx.__version__, len(degrees), graph.number_of_edges(), swaps, seconds,
             swaps / seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
