"""CLI behavior: exit codes, output formats, and golden outputs."""

import argparse
import json
import random
import re
import sys
from math import comb, prod
from pathlib import Path

import pytest

import degmix.chain
from degmix import (
    BipartiteDegreeSequence,
    canonical_decompose_bipartite,
    compose_bipartite,
    realization_space,
)
from degmix.cli import build_parser, main


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    return {
        "bad": write("bad.json", {"kind": "simple", "degrees": [3, 3, 1, 1]}),
        "threshold": write("thr.json", {"kind": "simple", "degrees": [4, 2, 2, 1, 1]}),
        "matching": write("m4.json", {"kind": "simple", "degrees": [1, 1, 1, 1]}),
        "block": write("b1.json", {"kind": "bipartite", "u": [1, 1], "w": [1, 1]}),
        "operand": write("b2.json", {"kind": "bipartite", "u": [3, 1, 1], "w": [2, 2, 1]}),
        "rhs": write("rhs.json", {"kind": "bipartite", "u": [4, 4, 3, 1, 1],
                                  "w": [1, 1, 4, 4, 3]}),
        "directed": write("dd.json", {"kind": "directed", "out": [1, 1, 1],
                                      "in": [1, 1, 1]}),
        "forb": write("f.json", [[1, 1], [2, 2], [3, 3]]),
        "diag": write("f2.json", [[1, 1], [2, 2]]),
        "dsm": write("dsm.json", {"delta": 3, "columns": [[3, 0, 0], [0, 0, 1],
                                                          [0, 0, 1], [0, 0, 1]]}),
        "tmp": tmp_path,
    }


def test_exit_codes(files, capsys):
    assert main(["test", "--seq", files["bad"]]) == 0
    assert "not graphical" in capsys.readouterr().out
    assert main(["test", "--seq", files["bad"], "--strict"]) == 1
    assert main(["test", "--seq", files["threshold"], "--strict"]) == 0
    assert "graphical" in capsys.readouterr().out


# 1e400 reads as infinity
INFINITE = '{"kind": "simple", "degrees": [1e400, 1]}'


@pytest.mark.parametrize("argv, payload", [
    pytest.param(["test"], None, id="missing-seq"),
    pytest.param(["test", "--seq", "{file}"], {"kind": "weird", "degrees": [1, 1]},
                 id="unknown-kind"),
    pytest.param(["test", "--seq", "{file}"], {"kind": "simple", "degrees": [1, -1]},
                 id="negative-degree"),
    pytest.param(["test", "--seq", "{file}"], {"kind": "simple", "degrees": [1.5, 1.5]},
                 id="test-fractional-degree"),
    pytest.param(["sample", "--seq", "{file}"], {"kind": "simple", "degrees": [1.5, 1.5]},
                 id="sample-fractional-degree"),
    pytest.param(["test", "--seq", "{file}"], INFINITE, id="test-infinite-degree"),
    pytest.param(["decompose", "--seq", "{file}"], INFINITE, id="decompose-infinite-degree"),
    pytest.param(["sample", "--seq", "{file}"], INFINITE, id="sample-infinite-degree"),
    pytest.param(["verify", "--seq", "{file}"], INFINITE, id="verify-infinite-degree"),
    pytest.param(["dsm", "--check", "--matrix", "{file}"],
                 '{"delta": 1, "columns": [[1], [1e400]]}', id="dsm-infinite-count"),
    pytest.param(["sample", "--seq", "{block}", "--forbidden", "{file}"], "[[1, 1e400]]",
                 id="forbidden-infinite-index"),
    pytest.param(["test", "--seq", "{file}"], {"kind": "simple", "degrees": [True, True]},
                 id="test-boolean-degree"),
    pytest.param(["sample", "--seq", "{file}"], {"kind": "simple", "degrees": [True, True]},
                 id="sample-boolean-degree"),
    pytest.param(["dsm", "--check", "--matrix", "{file}"],
                 {"delta": True, "columns": [[1], [1]]}, id="dsm-boolean-delta"),
    pytest.param(["sample", "--seq", "{block}", "--forbidden", "{file}"], [[True, 1]],
                 id="forbidden-boolean-index"),
    pytest.param(["sample", "--seq", "{file}"], '{"kind": "simple", "degrees": [1, 1',
                 id="malformed-json"),
    pytest.param(["sample", "--seq", "{block}", "--forbidden", "{file}"], [[1, 1], [3, 2]],
                 id="forbidden-out-of-range"),
    pytest.param(["sample", "--seq", "{block}", "--forbidden", "{file}"], [[1, 1], [1, 2]],
                 id="sample-forbidden-not-matching"),
    pytest.param(["test", "--seq", "{block}", "--forbidden", "{file}"], [[1, 1], [1, 2]],
                 id="test-forbidden-not-matching"),
    pytest.param(["sample", "--seq", "{matching}", "--thin", "0"], None, id="thin-zero"),
    pytest.param(["sample", "--seq", "{matching}", "--count", "-3"], None,
                 id="negative-count"),
    pytest.param(["dsm", "--sample", "--matrix", "{file}"],
                 {"delta": 2, "columns": [[1, 0], [1]]}, id="dsm-column-length"),
    pytest.param(["verify", "--seq", "{rhs}", "--mode", "product"], None,
                 id="verify-over-chord-cap"),
    pytest.param(["verify", "--seq", "{matching}", "--max-chords", "-1"], None,
                 id="verify-negative-max-chords"),
    pytest.param(["decompose", "--seq", "{directed}"], None, id="decompose-directed"),
    pytest.param(["compose", "{block}"], None, id="compose-one-operand"),
    pytest.param(["compose", "{block}", "{operand}", "--forbidden", "{forb}"], None,
                 id="compose-forbidden-count"),
    pytest.param(["compose", "{matching}", "{block}"], None, id="compose-simple-head"),
    pytest.param(["compose", "{block}", "{matching}", "--forbidden", "{forb}",
                  "--forbidden", "{forb}"], None, id="compose-forbidden-simple-last"),
    pytest.param(["compose", "{block}", "{directed}"], None, id="compose-directed-last"),
    pytest.param(["compose", "{file}", "{matching}"], {"kind": "bipartite", "u": [3], "w": [1, 1]},
                 id="compose-invalid-split-head"),
    pytest.param(["compose", "{block}", "{block}", "--forbidden", "{diag}",
                  "--forbidden", "{file}"], [[5, 5]], id="compose-forbidden-out-of-range"),
    pytest.param(["compose", "{block}", "{block}", "--forbidden", "{diag}",
                  "--forbidden", "{file}"], [[1, 1], [1, 2]],
                 id="compose-forbidden-not-matching"),
    pytest.param(["sample", "--seq", "{matching}", "--out", "{tmp}"], None,
                 id="sample-out-directory"),
    pytest.param(["dsm", "--sample", "--matrix", "{dsm}", "--out", "{tmp}"], None,
                 id="dsm-out-directory"),
    pytest.param(["count", "--kind", "composed", "--n", "6"], None,
                 id="count-composed-no-block"),
    pytest.param(["count", "--kind", "bipartite", "--n", "11"], None,
                 id="count-over-census-cap"),
    pytest.param(["count", "--kind", "ahr", "--exhaustive", "--n", "11"], None,
                 id="count-ahr-exhaustive-over-cap"),
    pytest.param(["count", "--kind", "composed", "--n", "6", "--block", "4"], None,
                 id="count-block-not-dividing"),
    pytest.param(["count", "--kind", "composed", "--n", "22", "--block", "11"], None,
                 id="count-block-over-cap"),
])
def test_usage_error_exits_2(files, tmp_path, capsys, monkeypatch, argv, payload):
    # a usage error is found before any chain runs, --out included
    def never(*args, **kwargs):
        raise AssertionError("sampled before the usage error")

    monkeypatch.setattr("degmix.chain.sample", never)
    monkeypatch.setattr("degmix.spectra.dsm_sample", never)
    path = tmp_path / "input.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    argv = [a.format(file=path, **files) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "error:" in err
    if argv[0] == "verify" and payload is None:
        assert "--max-chords" in err
    if "-1" in argv:  # refused as an argument, not read as a cap of -1
        assert err.endswith("argument --max-chords: must be at least 0, got -1")
    if "--block" in argv:
        assert "block" in err
    if payload == [[1, 1], [1, 2]]:
        assert err.endswith("%s: forbidden set is not a partial 1-factor" % path)
    # a number that is no integer, or JSON true (once read as 1), is named in
    # JSON text; test_input_of_the_wrong_json_type_names_the_expected_shape
    # pins each whole message
    for text, shown in (("1.5", "1.5"), ("1e400", "Infinity"), ("True", "true")):
        if text in str(payload):
            assert re.search(r"%s: expected .+, got (the entry )?\[?(1, )?%s(, 1)?\]?$"
                             % (re.escape(str(path)), shown), err), err


@pytest.mark.parametrize("argv, payload, expected", [
    (["test", "--seq", "{file}"], [1, 2],
     'a JSON object such as {"kind": "simple", "degrees": [...]}, got a list'),
    (["test", "--seq", "{block}", "--forbidden", "{file}"], {"a": 1},
     "a JSON list of [u, w] pairs, got an object"),
    (["dsm", "--check", "--matrix", "{file}"], [1, 2],
     'a JSON object such as {"delta": D, "columns": [[...], ...]}, got a list'),
    (["test", "--seq", "{file}"], {"kind": "simple", "degrees": 5},
     '"degrees" as a JSON list of integers, got a number'),
    (["test", "--seq", "{file}"], {"kind": "directed", "out": [1], "in": "1"},
     '"in" as a JSON list of integers, got a string'),
    (["dsm", "--check", "--matrix", "{file}"], {"delta": 2, "columns": 5},
     '"columns" as a JSON list of integer lists, got a number'),
    (["dsm", "--check", "--matrix", "{file}"], {"delta": 2, "columns": [[1, 1], 5]},
     '"columns" as a JSON list of integer lists, got the entry 5'),
    # an entry that is no integer is named in JSON text, not as Python
    # prints it (None, True, inf, {'a': 1})
    (["test", "--seq", "{file}"], {"kind": "simple", "degrees": [None, 1]},
     '"degrees" as a JSON list of integers, got the entry null'),
    (["test", "--seq", "{file}"], {"kind": "bipartite", "u": [1], "w": [{"a": 1}]},
     '"w" as a JSON list of integers, got the entry {"a": 1}'),
    (["dsm", "--check", "--matrix", "{file}"], {"delta": 1, "columns": [[True]]},
     '"columns" as a JSON list of integer lists, got the entry [true]'),
    (["test", "--seq", "{block}", "--forbidden", "{file}"], [[1, None]],
     "a JSON list of [u, w] pairs, got the entry [1, null]"),
    (["test", "--seq", "{file}"], {"kind": "simple", "degrees": [1.5, 1.5]},
     '"degrees" as a JSON list of integers, got the entry 1.5'),
    (["test", "--seq", "{file}"], INFINITE,
     '"degrees" as a JSON list of integers, got the entry Infinity'),
    (["test", "--seq", "{file}"], {"kind": "simple", "degrees": [True, True]},
     '"degrees" as a JSON list of integers, got the entry true'),
    (["dsm", "--check", "--matrix", "{file}"], '{"delta": 1, "columns": [[1], [1e400]]}',
     '"columns" as a JSON list of integer lists, got the entry [Infinity]'),
    (["dsm", "--check", "--matrix", "{file}"], {"delta": True, "columns": [[1], [1]]},
     '"delta" as an integer, got true'),
    (["test", "--seq", "{block}", "--forbidden", "{file}"], "[[1, 1e400]]",
     "a JSON list of [u, w] pairs, got the entry [1, Infinity]"),
    (["test", "--seq", "{block}", "--forbidden", "{file}"], [[True, 1]],
     "a JSON list of [u, w] pairs, got the entry [true, 1]"),
], ids=["sequence", "forbidden", "dsm", "degrees", "in", "columns", "column", "degree-null",
        "degree-object", "column-boolean", "forbidden-null", "degree-fraction",
        "degree-infinite", "degree-boolean", "column-infinite", "delta-boolean",
        "forbidden-infinite", "forbidden-boolean"])
def test_input_of_the_wrong_json_type_names_the_expected_shape(files, tmp_path, capsys, argv,
                                                               payload, expected):
    path = tmp_path / "input.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert main([a.format(file=path, **files) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "degmix %s: error: %s: expected %s\n" % (argv[0], path, expected)


@pytest.mark.parametrize("mode", ["connectivity", "spectral", "tv"])
def test_verify_forbidden_not_matching_exits_2(files, tmp_path, capsys, monkeypatch, mode):
    # found before any realization is enumerated
    def never(*args, **kwargs):
        raise AssertionError("enumerated before the usage error")

    monkeypatch.setattr("degmix.space.realization_space", never)
    monkeypatch.setattr("degmix.space.tv_distance_audit", never)
    path = tmp_path / "f.json"
    path.write_text(json.dumps([[1, 1], [1, 2]]))
    argv = ["verify", "--seq", files["block"], "--forbidden", str(path), "--mode", mode]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "degmix verify: error: %s: forbidden set is not a partial 1-factor\n" % path


@pytest.mark.parametrize("mode", ["spectral", "connectivity", "tv"])
def test_verify_no_realizations_is_a_finding(tmp_path, capsys, mode):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"kind": "simple", "degrees": [3, 1, 1]}))
    argv = ["verify", "--seq", str(path), "--mode", mode, "--json"]
    assert main(argv) == 0
    assert main(argv + ["--strict"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.splitlines() == ["verify: no realizations"] * 2


@pytest.mark.parametrize("mode", ["spectral", "connectivity", "tv"])
@pytest.mark.parametrize("payload", [
    {"kind": "bipartite", "u": [2, 1], "w": [1, 1]},
    {"kind": "directed", "out": [2, 1], "in": [1, 1]},
], ids=["bipartite", "directed"])
def test_verify_unequal_class_sums_is_a_finding(tmp_path, capsys, mode, payload):
    path = tmp_path / "sums.json"
    path.write_text(json.dumps(payload))
    argv = ["verify", "--seq", str(path), "--mode", mode]
    assert main(argv) == 0
    assert main(argv + ["--strict"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.splitlines() == ["verify: class degree sums differ"] * 2


def test_verify_product_forbidden_exits_2(tmp_path, capsys, monkeypatch):
    # product mode checks the unrestricted factors, so a forbidden set is
    # rejected before the sequence is decomposed
    def never(*args, **kwargs):
        raise AssertionError("decomposed before the usage error")

    monkeypatch.setattr("degmix.decomposition.canonical_decompose_bipartite", never)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"kind": "bipartite", "u": [3, 3, 1, 1], "w": [1, 1, 3, 3]}))
    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps([[1, 1], [2, 2], [3, 3], [4, 4]]))
    argv = ["verify", "--seq", str(seq), "--forbidden", str(diag), "--mode", "product"]
    assert main(argv) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == "degmix verify: error: --mode product does not take --forbidden\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["sample", "--seq", "{matching}", "--json"], id="sample-json"),
    pytest.param(["verify", "--seq", "{matching}", "--mode", "tv", "--seed", "7"],
                 id="verify-seed"),
    pytest.param(["compose", "{block}", "{operand}", "--strict"], id="compose-strict"),
    pytest.param(["count", "--kind", "ahr", "--n", "2", "--strict"], id="count-strict"),
])
def test_removed_flags_exit_2(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(**files) for a in argv])
    assert exc.value.code == 2
    flag = next(a for a in argv if a in ("--json", "--seed", "--strict"))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("degmix: error: unrecognized arguments: " + flag)


def test_readme_synopsis_matches_parser():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    documented = {}
    command = None
    for line in block.splitlines():
        if line.startswith("degmix "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z0-9-]*", line))
    documented.pop(None, None)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }
    assert documented == parsed


def test_verify_product_directed_exits_2(files, capsys):
    assert main(["verify", "--seq", files["directed"], "--mode", "product"]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "degmix verify: error: --mode product is not defined for directed input"


def test_test_json_output(files, capsys):
    assert main(["test", "--seq", files["matching"], "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"schema": "degmix/1", "graphical": True}


def test_decompose_golden(files, capsys):
    assert main(["decompose", "--seq", files["rhs"], "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {
        "schema": "degmix/1",
        "kind": "bipartite",
        "factors": [
            {"primary": [1, 1], "secondary": [1, 1]},
            {"primary": [1], "secondary": [1]},
            {"primary": [1, 1], "secondary": [1, 1]},
        ],
    }


def test_decompose_certificate(files, capsys):
    assert main(["decompose", "--seq", files["threshold"], "--json",
                 "--certificate"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["tail"] == [0]
    first = got["components"][0]
    assert first["good_pair"] == [1, 0]
    cert = first["certificate"]
    assert cert["lhs_sum_top_p"] == cert["rhs"] == 4


def test_compose_golden(files, capsys):
    assert main(["compose", files["block"], files["operand"], "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {"schema": "degmix/1", "kind": "bipartite",
                   "u": [4, 4, 3, 1, 1], "w": [1, 1, 4, 4, 3]}


def test_compose_directed_merges_forbidden(files, tmp_path, capsys):
    f1 = tmp_path / "f1.json"
    f1.write_text(json.dumps([[1, 1], [2, 2]]))
    f2 = tmp_path / "f2.json"
    f2.write_text(json.dumps([[1, 1], [2, 2]]))
    assert main(["compose", files["block"], files["block"],
                 "--forbidden", str(f1), "--forbidden", str(f2), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["forbidden"] == [[1, 1], [2, 2], [3, 3], [4, 4]]


def test_sample_edges_format(files, capsys):
    assert main(["sample", "--seq", files["threshold"], "--count", "2",
                 "--burn-in", "10", "--thin", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0] == blocks[1]  # threshold: unique realization
    assert blocks[0].splitlines()[0] == "1 2"


def test_sample_jsonl_reproducible(files, capsys):
    argv = ["sample", "--seq", files["matching"], "--count", "3", "--burn-in", "20",
            "--thin", "3", "--seed", "7", "--format", "jsonl"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    rows = [json.loads(line) for line in first.strip().splitlines()]
    assert len(rows) == 3 and all(len(r["edges"]) == 2 for r in rows)
    # JSON lines give 0-based ids, where edge lines give 1-based ones
    assert rows[0] == {"edges": [[0, 3], [1, 2]]}


def test_sample_to_file(files, tmp_path):
    out = tmp_path / "samples.txt"
    assert main(["sample", "--seq", files["matching"], "--count", "2", "--burn-in",
                 "5", "--thin", "1", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_text().strip()


def test_verify_connectivity_and_strict(files, capsys):
    assert main(["verify", "--seq", files["matching"], "--mode", "connectivity",
                 "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {"schema": "degmix/1", "realizations": 3, "connected": True}
    # C4-only directed triangle is a reportable disconnect: exit 1 under --strict
    assert main(["verify", "--seq", files["directed"], "--mode", "connectivity",
                 "--c4-only", "--strict"]) == 1
    assert main(["verify", "--seq", files["directed"], "--mode", "connectivity"]) == 0


def test_verify_star_past_a_thousand_chords(tmp_path, capsys):
    # [45] + [1] * 45 has 1,035 chords and one realization
    star = tmp_path / "star.json"
    star.write_text(json.dumps({"kind": "simple", "degrees": [45] + [1] * 45}))
    argv = ["verify", "--seq", str(star), "--max-chords", "2000", "--mode"]
    assert main(argv + ["connectivity"]) == 0
    assert capsys.readouterr() == ("1 realizations, connected\n", "")
    assert main(argv + ["spectral", "--json"]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    assert json.loads(got.out) == {
        "schema": "degmix/1", "realizations": 1, "lambda2": 0.0, "relaxation_time": 1.0,
        "conductance": 1.0, "conductance_exact": True, "trivial": True,
    }


def test_verify_spectral_golden(files, capsys):
    assert main(["verify", "--seq", files["matching"], "--mode", "spectral",
                 "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["realizations"] == 3
    assert abs(got["lambda2"] - 0.5) < 1e-12
    assert abs(got["relaxation_time"] - 2.0) < 1e-9


def test_verify_product(files, capsys):
    assert main(["verify", "--seq", files["rhs"], "--mode", "product",
                 "--max-chords", "25", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["ok"] and got["composed_count"] == 4


def _product(tmp_path, capsys, payload, *extra):
    """``verify --mode product`` on ``payload``: exit code and stdout."""
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(payload))
    code = main(["verify", "--seq", str(seq), "--mode", "product", *extra])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("degrees, factors", [([], 0), ([3] * 10, 1)],
                         ids=["no-factor", "over-chord-cap"])
def test_verify_product_of_an_indecomposable_input(tmp_path, capsys, degrees, factors):
    # no factor, or one: nothing to check and nothing to enumerate, so the
    # 45 chords of the 3-regular input raise no TooLarge; the report counts
    # the factors the layout has
    payload = {"kind": "simple", "degrees": degrees}
    got = _product(tmp_path, capsys, payload)
    assert got == (0, "indecomposable; nothing to verify\n")
    code, out = _product(tmp_path, capsys, payload, "--json")
    assert code == 0
    assert json.loads(out) == {"schema": "degmix/1", "factors": factors, "ok": True}


def test_verify_product_checks_every_canonical_factor(tmp_path, capsys):
    # (3, 1, 1) / (2, 2, 1) splits again, so the composition has three factors
    seq = compose_bipartite(BipartiteDegreeSequence((1, 1), (1, 1)),
                            BipartiteDegreeSequence((3, 1, 1), (2, 2, 1)))
    factors = canonical_decompose_bipartite(seq)
    counts = [realization_space(f, max_chords=25).count for f in factors]
    payload = {"kind": "bipartite", "u": list(seq.u_degrees), "w": list(seq.w_degrees)}
    code, out = _product(tmp_path, capsys, payload, "--max-chords", "25", "--json")
    got = json.loads(out)
    assert code == 0 and got["ok"]
    assert len(factors) == 3 and got["factor_counts"] == counts
    assert prod(counts) == got["composed_count"] == 4
    code, out = _product(tmp_path, capsys, payload, "--max-chords", "25")
    assert out == "product verified: 4 = %s realizations, %d meta-edges\n" % (
        " x ".join(map(str, counts)), got["edges"])


def test_verify_product_checks_the_sampler_layout(tmp_path, capsys, monkeypatch):
    # the check reads the layout the sampler runs: swap a vertex between
    # two factors there, and the product no longer holds
    plan = degmix.chain._make_plan

    def swapped(*args):
        layout = plan(*args)
        first, second = layout.u_maps[0], layout.u_maps[1]
        first[0], second[0] = second[0], first[0]
        return layout

    payload = {"kind": "bipartite", "u": [4, 4, 2, 2, 2], "w": [1, 1, 4, 4, 4]}  # 2 x 6
    assert _product(tmp_path, capsys, payload, "--max-chords", "25", "--strict")[0] == 0
    monkeypatch.setattr(degmix.chain, "_make_plan", swapped)
    code, out = _product(tmp_path, capsys, payload, "--max-chords", "25", "--strict")
    assert code == 1 and out.startswith("PRODUCT MISMATCH: ")


@pytest.mark.parametrize("payload, cap", [
    ({"kind": "bipartite", "u": [4, 4, 3, 1, 1], "w": [4, 4, 3, 1, 1]}, "25"),  # 3 factors
    ({"kind": "simple", "degrees": [6, 6, 3, 3, 3, 3, 1, 1]}, "28"),  # block and tail
], ids=["bipartite", "simple"])
def test_verify_product_report_does_not_depend_on_the_labels(tmp_path, capsys, payload, cap):
    # the layout maps each factor into the caller's labels, and the weight
    # ratios are listed in key order, so a relabeled input gives the same bytes
    sorted_out = _product(tmp_path, capsys, payload, "--max-chords", cap, "--json")
    rng = random.Random(3)
    relabeled = {k: rng.sample(v, len(v)) if isinstance(v, list) else v
                 for k, v in payload.items()}
    assert relabeled != payload
    assert _product(tmp_path, capsys, relabeled, "--max-chords", cap, "--json") == sorted_out
    assert json.loads(sorted_out[1])["ok"]


def test_verify_tv(files, capsys):
    assert main(["verify", "--seq", files["matching"], "--mode", "tv", "--steps",
                 "100", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["tv"] < 1e-6


def test_dsm_check_and_sample(files, capsys):
    assert main(["dsm", "--check", "--matrix", files["dsm"]]) == 0
    assert "graphical" in capsys.readouterr().out
    assert main(["dsm", "--sample", "--matrix", files["dsm"], "--count", "2",
                 "--burn-in", "5", "--thin", "1", "--seed", "0",
                 "--format", "jsonl"]) == 0
    rows = [json.loads(r) for r in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 2
    assert all(sorted(map(tuple, r["edges"])) == [(0, 1), (0, 2), (0, 3)] for r in rows)


def test_count_prints_exact_counts_past_the_int_digit_limit(capsys):
    # 6,020 digits: past the 4,300 that int-to-decimal conversion allows by
    # default since Python 3.10.7, once a traceback with exit 1
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    limit = get_limit()
    outs = []
    for extra in ([], ["--csv"], ["--json"]):
        assert main(["count", "--kind", "ahr", "--n", "10000", *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert get_limit() == limit  # restored after
    set_limit(0)
    try:
        got = [int(outs[0]), int(outs[1].split(",")[-2]), json.loads(outs[2])["count"]]
    finally:
        set_limit(limit)
    assert got == [2 * comb(20000, 10000) - 10000**2 - 1] * 3


@pytest.mark.parametrize("flags", [["--csv", "--json"], ["--json", "--csv"]])
def test_count_refuses_csv_with_json(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--kind", "composed", "--n", "6", "--block", "6", *flags])
    assert exc.value.code == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == "degmix count: error: argument %s: not allowed with argument %s\n" % (
        flags[1], flags[0])


@pytest.mark.parametrize("command", [["sample", "--seq", "d.json"],
                                     ["dsm", "--sample", "--matrix", "m.json"]])
def test_draw_options_parse_alike(command):
    parser = build_parser()
    got = parser.parse_args(command)
    assert (got.count, got.burn_in, got.thin, got.format, got.out) == (1, 1000, 10, "edges", None)
    got = parser.parse_args([*command, "--count", "3", "--burn-in", "0", "--thin", "2",
                             "--format", "jsonl", "--out", "o.txt"])
    assert (got.count, got.burn_in, got.thin, got.format, got.out) == (3, 0, 2, "jsonl", "o.txt")


def test_count_golden(files, capsys):
    assert main(["count", "--kind", "ahr", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "7"
    assert main(["count", "--kind", "bipartite", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "15584"
    assert main(["count", "--kind", "bipartite", "--n", "2", "--csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["kind,parameter,count,method", "bipartite,2,7,exhaustive"]
    assert main(["count", "--kind", "composed", "--n", "4", "--block", "2",
                 "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["count"] == 49
