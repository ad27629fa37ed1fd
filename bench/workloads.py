"""The four workloads: generated inputs, the degmix jobs run on them, each
job's set-up variant, and the check applied to each output.

A job is one ``degmix`` CLI invocation.  Its set-up variant is the same job
cut short to its set-up: a sampling job with ``--count 1 --burn-in 0
--thin 1`` (time to first draw), ``degmix test`` in place of ``decompose``
(validation alone), and ``verify --mode connectivity`` in place of the other
verify modes (enumeration plus the move table every mode builds first).

``small=True`` shrinks every input so that a whole pass takes seconds; the
benchmark's own tests use it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import checks as C
import inputs as I

WORKLOADS = ("sample-sparse", "sample-mixing", "decompose", "verify-exact")


@dataclass
class Output:
    """What one finished job left behind."""

    stdout: str
    out: Optional[str]  # text of the ``--out`` file, for sampling jobs
    round_facts: Dict  # facts shared by the jobs of one round (e.g. lambda2)


@dataclass
class Job:
    name: str
    argv: List[str]  # degmix arguments; "{out}" becomes the job's output path
    check: Callable[[Output], None]
    setup_argv: List[str]
    setup_check: Callable[[Output], None]


# Indecomposable split components on six vertices, (primary, secondary)
# degrees: each composes over any remainder and is recovered as one
# canonical component, so the component count of a composed sequence is
# known in advance and its cost does not depend on the seed.
SPLIT6 = (
    ((4, 2), (1, 1, 1, 1)),
    ((3, 3), (1, 1, 1, 1)),
    ((3, 3, 3), (1, 1, 1)),
    ((4, 3, 3), (2, 1, 1)),
    ((4, 4, 3), (2, 2, 1)),
    ((4, 4, 4), (2, 2, 2)),
)

# Indecomposable splitted bipartite factors on 3+3 vertices.
BIP33 = (
    ((1, 1, 1), (1, 1, 1)),
    ((2, 1, 1), (2, 1, 1)),
    ((2, 2, 1), (2, 2, 1)),
    ((3, 2, 1), (2, 2, 2)),
    ((2, 2, 2), (3, 2, 1)),
    ((2, 2, 2), (2, 2, 2)),
    ((3, 2, 2), (3, 2, 2)),
)


def _sample_job(name: str, path: str, seq: Dict, count: int, burn_in: int, thin: int,
                seed: int) -> Job:
    def checker(want: int):
        if seq["kind"] == "simple":
            return lambda o: C.check_simple_draws(o.out, seq["degrees"], want)
        if seq["kind"] == "bipartite":
            return lambda o: C.check_bipartite_draws(o.out, seq["u"], seq["w"], want)
        return lambda o: C.check_bipartite_draws(o.out, seq["out"], seq["in"], want,
                                                 directed=True)

    def argv(c: int, b: int, t: int) -> List[str]:
        return ["sample", "--seq", path, "--count", str(c), "--burn-in", str(b),
                "--thin", str(t), "--seed", str(seed), "--jobs", "1", "--out", "{out}"]

    return Job(name, argv(count, burn_in, thin), checker(count), argv(1, 0, 1), checker(1))


def _dsm_job(name: str, path: str, matrix: Dict, count: int, burn_in: int, thin: int,
             seed: int) -> Job:
    def argv(c: int, b: int, t: int) -> List[str]:
        return ["dsm", "--sample", "--matrix", path, "--count", str(c), "--burn-in", str(b),
                "--thin", str(t), "--seed", str(seed), "--out", "{out}"]

    return Job(name, argv(count, burn_in, thin),
               lambda o: C.check_dsm_draws(o.out, matrix, count),
               argv(1, 0, 1), lambda o: C.check_dsm_draws(o.out, matrix, 1))


def sample_sparse(rng: random.Random, small: bool):
    """Large sparse regular inputs, short chains, many draws: chord tables,
    start realizations, chain build and per-draw assembly do the work."""
    n_simple, n_bip, n_dir = (30, 15, 20) if small else (300, 150, 150)
    files = {
        "simple.json": {"kind": "simple", "degrees": [4] * n_simple},
        "bipartite.json": {"kind": "bipartite", "u": [3] * n_bip, "w": [3] * n_bip},
        "directed.json": {"kind": "directed", "out": [3] * n_dir, "in": [3] * n_dir},
    }
    count, burn_in, thin = 16, 200, 10
    jobs = [
        _sample_job("sample " + path[:-5], path, seq, count, burn_in, thin, rng.randrange(1 << 31))
        for path, seq in files.items()
    ]
    return files, jobs


def sample_mixing(rng: random.Random, small: bool):
    """Small-to-mid inputs, long burn-in and thinning, few draws: swap steps
    do the work."""
    degrees = I.split_composed(rng, rng.sample(SPLIT6, 4), 12 if small else 40)
    u, w = I.composed_bipartite(rng, [(6, 6, 14)] * 3)
    out, inn = I.hub_digraph(rng, 40, 3, 15)
    files = {
        "heavy.json": {"kind": "simple", "degrees": degrees},
        "factors.json": {"kind": "bipartite", "u": u, "w": w},
        "hub.json": {"kind": "directed", "out": out, "in": inn},
        "spectra.json": I.spectra_matrix(40, I.random_graph(rng, 40, 80)),
    }
    count, burn_in, thin = (2, 500, 100) if small else (2, 50000, 10000)
    jobs = [
        _sample_job("sample " + path[:-5], path, files[path], count, burn_in, thin,
                    rng.randrange(1 << 31))
        for path in ("heavy.json", "factors.json", "hub.json")
    ]
    # One DSM chain walks as many steps as the two logical chains above.
    jobs.append(_dsm_job("dsm spectra", "spectra.json", files["spectra.json"], count,
                         count * burn_in, thin, rng.randrange(1 << 31)))
    return files, jobs


def decompose(rng: random.Random, small: bool):
    """Long composed sequences, no chain: validation and canonical
    decomposition do the work."""
    k_simple, k_bip, tail_n = (5, 6, 10) if small else (40, 60, 30)
    shapes = [SPLIT6[i % len(SPLIT6)] for i in range(k_simple)]
    rng.shuffle(shapes)
    degrees = I.split_composed(rng, shapes, tail_n)
    parts = [BIP33[i % len(BIP33)] for i in range(k_bip)]
    rng.shuffle(parts)
    u, w = I.compose_bipartite_many(parts)
    rng.shuffle(u)
    rng.shuffle(w)
    files = {
        "composed.json": {"kind": "simple", "degrees": degrees},
        "factors.json": {"kind": "bipartite", "u": u, "w": w},
    }
    jobs = []
    for path, seq in files.items():
        test = ["test", "--seq", path, "--json"]

        def verdict(o: Output, s=seq) -> None:
            C.check_verdict(o.stdout, s)

        def check(o: Output, s=seq) -> None:
            if s["kind"] == "simple":
                C.check_simple_decomposition(o.stdout, s["degrees"])
            else:
                C.check_bipartite_decomposition(o.stdout, s["u"], s["w"])

        name = path[:-5]
        jobs.append(Job("test " + name, test, verdict, test, verdict))
        jobs.append(Job("decompose " + name,
                        ["decompose", "--seq", path, "--certificate", "--json"], check,
                        test, verdict))
    return files, jobs


def verify_exact(rng: random.Random, small: bool):
    """Enumerable instances: enumeration, move tables, transition matrices,
    eigensolves and conductance do the work."""
    if small:
        large = ((2, 2, 1, 1), (2, 2, 1, 1))
        head, rest = ((1, 1), (1, 1)), ((2, 2, 2), (2, 2, 2))
    else:
        large = ((2, 2, 2, 2, 2), (3, 2, 2, 2, 1))  # 1170 realizations: sweep path
        head, rest = ((3, 2, 2, 2), (2, 2, 2, 2, 1)), ((2, 2, 2), (2, 2, 2))  # 234 x 6
    composed = I.compose_bipartite(head, rest)
    files = {
        "sweep.json": {"kind": "bipartite", "u": I.permuted(rng, large[0]),
                       "w": I.permuted(rng, large[1])},
        "exact.json": {"kind": "simple", "degrees": I.permuted(rng, (2, 2, 1, 1, 1, 1))},
        "product.json": {"kind": "bipartite", "u": I.permuted(rng, composed[0]),
                         "w": I.permuted(rng, composed[1])},
    }
    counts = {path: C.count_realizations(seq) for path, seq in files.items()}
    factor_counts = (C.count_bipartite(*head), C.count_bipartite(*rest))
    cap = ["--max-chords", "64"]
    steps = 40

    def connectivity(path: str) -> List[str]:
        return ["verify", "--seq", path, "--mode", "connectivity", "--json"] + cap

    def conn_check(path: str):
        return lambda o: C.check_connectivity(o.stdout, counts[path])

    def spectral(path: str, keep: bool):
        def check(o: Output) -> None:
            rep = C.check_spectral(o.stdout, counts[path])
            if keep:
                o.round_facts["lambda2"] = rep["lambda2"]
        return Job("verify spectral " + path[:-5],
                   ["verify", "--seq", path, "--mode", "spectral", "--json"] + cap, check,
                   connectivity(path), conn_check(path))

    jobs = [
        spectral("sweep.json", False),
        spectral("exact.json", True),
        Job("verify product",
            ["verify", "--seq", "product.json", "--mode", "product", "--json"] + cap,
            lambda o: C.check_product(o.stdout, counts["product.json"], factor_counts),
            connectivity("product.json"), conn_check("product.json")),
        # Runs after "verify spectral exact" in the same round, whose lambda2
        # bounds the TV distance.
        Job("verify tv exact",
            ["verify", "--seq", "exact.json", "--mode", "tv", "--steps", str(steps),
             "--json"] + cap,
            lambda o: C.check_tv(o.stdout, steps, counts["exact.json"],
                                 o.round_facts.get("lambda2")),
            connectivity("exact.json"), conn_check("exact.json")),
    ]
    return files, jobs


BUILDERS = {
    "sample-sparse": sample_sparse,
    "sample-mixing": sample_mixing,
    "decompose": decompose,
    "verify-exact": verify_exact,
}


def build(workload: str, seed: int, small: bool = False):
    """(input files by name, jobs) of a workload; the same seed gives the
    same inputs and the same degmix seeds."""
    rng = random.Random("degmix-bench:%s:%d" % (workload, seed))
    return BUILDERS[workload](rng, small)
