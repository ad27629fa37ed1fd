"""Tests of the benchmark itself: every output check accepts a real degmix
output and rejects a deliberately corrupted copy, and a reduced-size pass of
every workload runs clean in seconds.

Run from the repository root: ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks as C  # noqa: E402
import inputs as I  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import BIP33, SPLIT6, WORKLOADS  # noqa: E402


def degmix(tmp_path, *args) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    got = subprocess.run([sys.executable, "-m", "degmix.cli", *args], cwd=tmp_path,
                         env=env, capture_output=True, text=True, check=True)
    return got.stdout


def write(tmp_path, name, data) -> str:
    (tmp_path / name).write_text(json.dumps(data))
    return name


def edges_text(draws) -> str:
    return "\n".join("".join("%d %d\n" % e for e in draw) for draw in draws)


def sample(tmp_path, seq, count=2) -> str:
    path = write(tmp_path, "seq.json", seq)
    degmix(tmp_path, "sample", "--seq", path, "--count", str(count), "--burn-in", "50",
           "--thin", "5", "--seed", "3", "--out", "draws.txt")
    return (tmp_path / "draws.txt").read_text()


def test_simple_draw_check_rejects_changed_degree_and_repeated_edge(tmp_path):
    degrees = [3, 3, 2, 2, 2, 2]
    text = sample(tmp_path, {"kind": "simple", "degrees": degrees})
    C.check_simple_draws(text, degrees, 2)
    draws = C.parse_draws(text)
    a, b = draws[0][0]
    nbrs = {v for e in draws[0] if a in e for v in e}
    c = next(v for v in range(1, 7) if v not in nbrs)
    moved = [[(a, c)] + draws[0][1:], draws[1]]  # b loses a degree, c gains one
    with pytest.raises(CheckError, match="degrees"):
        C.check_simple_draws(edges_text(moved), degrees, 2)
    repeated = [draws[0] + [(b, a)], draws[1]]
    with pytest.raises(CheckError, match="repeated"):
        C.check_simple_draws(edges_text(repeated), degrees, 2)
    with pytest.raises(CheckError, match="draws"):
        C.check_simple_draws(edges_text(draws[:1]), degrees, 2)
    loop = [[(a, a)] + draws[0][1:], draws[1]]
    with pytest.raises(CheckError, match="loop"):
        C.check_simple_draws(edges_text(loop), degrees, 2)


def test_directed_draw_check_rejects_forbidden_pair_and_range(tmp_path):
    out, inn = [1, 1, 1, 1], [1, 1, 1, 1]
    text = sample(tmp_path, {"kind": "directed", "out": out, "in": inn}, count=1)
    C.check_bipartite_draws(text, out, inn, 1, directed=True)
    arcs = C.parse_draws(text)[0]
    with pytest.raises(CheckError, match="forbidden"):
        C.check_bipartite_draws(edges_text([[(1, 1)] + arcs[1:]]), out, inn, 1, directed=True)
    with pytest.raises(CheckError, match="range"):
        C.check_bipartite_draws(edges_text([[(5, 1)] + arcs[1:]]), out, inn, 1, directed=True)


def test_dsm_draw_check_rejects_other_spectra(tmp_path):
    # Path 1-2-3-4 plus a pendant 5 on 3: degrees (1, 2, 3, 1, 1).
    edges = [(0, 1), (1, 2), (2, 3), (2, 4)]
    matrix = I.spectra_matrix(5, edges)
    path = write(tmp_path, "m.json", matrix)
    degmix(tmp_path, "dsm", "--sample", "--matrix", path, "--count", "2", "--burn-in", "20",
           "--thin", "2", "--seed", "1", "--out", "draws.txt")
    C.check_dsm_draws((tmp_path / "draws.txt").read_text(), matrix, 2)
    # Same degrees, other spectra: vertex 1 hangs on vertex 2 (degree 3).
    other = [(0, 2), (1, 2), (2, 3), (1, 4)]
    with pytest.raises(CheckError, match="spectra"):
        C.check_dsm_draws(edges_text([[(a + 1, b + 1) for a, b in other]] * 2), matrix, 2)


def test_simple_decomposition_check_rejects_dropped_component(tmp_path):
    degrees = [2, 2, 2, 2, 2]  # a 5-cycle: an indecomposable tail
    for u, w in SPLIT6[:3]:
        degrees = I.compose_split(u, w, degrees)
    path = write(tmp_path, "d.json", {"kind": "simple", "degrees": degrees})
    stdout = degmix(tmp_path, "decompose", "--seq", path, "--certificate", "--json")
    C.check_simple_decomposition(stdout, degrees)
    out = json.loads(stdout)
    assert len(out["components"]) == 3
    dropped = dict(out, components=out["components"][1:])
    with pytest.raises(CheckError):
        C.check_simple_decomposition(json.dumps(dropped), degrees)
    bad_cert = json.loads(stdout)
    bad_cert["components"][1]["certificate"]["rhs"] += 1
    with pytest.raises(CheckError, match="certificate"):
        C.check_simple_decomposition(json.dumps(bad_cert), degrees)


def test_bipartite_decomposition_check_rejects_dropped_factor(tmp_path):
    u, w = I.compose_bipartite_many(list(BIP33[:4]))
    path = write(tmp_path, "b.json", {"kind": "bipartite", "u": u, "w": w})
    stdout = degmix(tmp_path, "decompose", "--seq", path, "--json")
    C.check_bipartite_decomposition(stdout, u, w)
    out = json.loads(stdout)
    dropped = dict(out, factors=out["factors"][:-1])
    with pytest.raises(CheckError, match="recompose"):
        C.check_bipartite_decomposition(json.dumps(dropped), u, w)


def test_verdict_check_rejects_wrong_verdict(tmp_path):
    seq = {"kind": "simple", "degrees": [3, 3, 2, 2, 2]}
    stdout = degmix(tmp_path, "test", "--seq", write(tmp_path, "s.json", seq), "--json")
    C.check_verdict(stdout, seq)
    with pytest.raises(CheckError):
        C.check_verdict(json.dumps({"graphical": False}), seq)
    bip = {"kind": "bipartite", "u": [3, 1], "w": [2, 1, 1]}
    assert C.expected_verdict(bip) is True
    assert C.expected_verdict({"kind": "bipartite", "u": [3, 1], "w": [2, 2]}) is False


def test_independent_counts():
    assert C.count_simple((2, 2, 1, 1, 1, 1)) == 18
    assert C.count_simple((2, 2, 2)) == 1
    assert C.count_simple((1, 1, 1, 1)) == 3
    assert C.count_bipartite((2, 2, 2), (2, 2, 2)) == 6
    assert C.count_bipartite((1, 1, 1), (1, 1, 1), frozenset((i, i) for i in range(3))) == 2


def test_spectral_check_rejects_lambda2_outside_cheeger(tmp_path):
    seq = {"kind": "simple", "degrees": [2, 2, 1, 1, 1, 1]}
    path = write(tmp_path, "s.json", seq)
    stdout = degmix(tmp_path, "verify", "--seq", path, "--mode", "spectral", "--json")
    rep = C.check_spectral(stdout, 18)
    phi = rep["conductance"]
    # A gap below phi^2/2, with the relaxation time kept consistent.
    lam2 = 1.0 - phi * phi / 4.0
    bad = dict(rep, lambda2=lam2, relaxation_time=1.0 / (1.0 - lam2))
    with pytest.raises(CheckError, match="Cheeger"):
        C.check_spectral(json.dumps(bad), 18)
    with pytest.raises(CheckError, match="realizations"):
        C.check_spectral(stdout, 17)
    tv = degmix(tmp_path, "verify", "--seq", path, "--mode", "tv", "--steps", "30", "--json")
    C.check_tv(tv, 30, 18, rep["lambda2"])
    with pytest.raises(CheckError, match="bound"):
        C.check_tv(tv, 30, 18, 0.01)


def test_product_check_rejects_counts_that_do_not_multiply(tmp_path):
    head, rest = ((1, 1), (1, 1)), ((2, 2, 2), (2, 2, 2))
    u, w = I.compose_bipartite(head, rest)
    path = write(tmp_path, "p.json", {"kind": "bipartite", "u": u, "w": w})
    stdout = degmix(tmp_path, "verify", "--seq", path, "--mode", "product", "--json",
                    "--max-chords", "64")
    count = C.count_bipartite(u, w)
    C.check_product(stdout, count, (2, 6))
    bad = dict(json.loads(stdout), factor_counts=[2, 5])
    with pytest.raises(CheckError, match="factor counts"):
        C.check_product(json.dumps(bad), count, (2, 6))


def bench(*args, cwd=ROOT):
    """Run the benchmark as ``python bench/run.py ...`` from ``cwd``."""
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_pass_is_clean_and_counts_repeat(workload):
    result = {}
    for trace in ("0", "1", "1"):
        got = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace,
                    "--small")
        assert got.returncode == 0, got.stderr
        res = json.loads(got.stdout.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, got.stderr
        result.setdefault(trace, []).append(res["metrics"])
    assert set(result["0"][0]) == {"wall_s", "setup_s", "peak_rss_mb"}
    first, second = result["1"]
    counts = [k for k, m in first.items() if m["unit"] == "count"]
    assert counts and all(first[k]["value"] == second[k]["value"] for k in counts)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    got = bench("--workload", "decompose", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert got.returncode != 0
    assert "correct" not in got.stdout
