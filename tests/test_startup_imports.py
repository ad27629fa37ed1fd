"""numpy is loaded only by the ``verify`` modes that compute with it,
the sampler and the exhaustive engine only by the commands that run them,
and hashlib (with OpenSSL) and ``dataclasses`` (with ``inspect``) by no
job: chain seeds come from the lean builtin sha256.  ``verify --mode
spectral`` loads numpy only past its one-realization and disconnected
exits, ``--mode tv`` only past ``EXACT_STATES`` realizations, and ``--mode
product`` never.

Every CLI job is its own process, so an import that a job does not use is
paid on every run.  These tests start fresh interpreters and read
``sys.modules`` after the import, and after whole CLI jobs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs one CLI job in-process, then reports on stderr which of these
# modules were loaded.
REPORTED = ("numpy", "hashlib", "dataclasses",
            "degmix.chain", "degmix.space", "degmix.spectra", "degmix.counting")
WRAPPER = """\
import sys
from degmix.cli import main
try:
    code = main(sys.argv[1:])
finally:
    for name in %r:
        sys.stderr.write("%%s loaded: %%s\\n" %% (name, name in sys.modules))
sys.exit(code)
""" % (REPORTED,)

SEQ = {"kind": "simple", "degrees": [3, 3, 2, 2, 2, 1, 1]}


def run_python(*args, cwd):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


def skip_if_loaded_at_startup(name, tmp_path):
    bare = run_python("-c", "import sys; print(%r in sys.modules)" % name, cwd=tmp_path)
    assert bare.returncode == 0, bare.stderr
    if bare.stdout.strip() == "True":
        pytest.skip("this interpreter loads %s at startup" % name)


def test_package_import_leaves_numpy_unloaded(tmp_path):
    got = run_python("-c", "import sys, degmix, degmix.cli; print('numpy' in sys.modules)",
                     cwd=tmp_path)
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "False"


# One realization; two, that C4 swaps alone do not join; 18, at most
# EXACT_STATES, which the TV audit powers on plain rows; and the composition
# of (1, 1) / (1, 1) with (2, 2, 2) / (2, 2, 2), a 2 x 6 product.
ONE = {"kind": "simple", "degrees": [2, 2, 2]}
C4_SPLIT = {"kind": "directed", "out": [1, 1, 1], "in": [1, 1, 1]}
EIGHTEEN = {"kind": "simple", "degrees": [2, 2, 1, 1, 1, 1]}
PRODUCT = {"kind": "bipartite", "u": [4, 4, 2, 2, 2], "w": [1, 1, 4, 4, 4]}


@pytest.mark.parametrize("argv, seq, loads_numpy", [
    (["decompose", "--seq", "seq.json"], SEQ, False),
    (["sample", "--seq", "seq.json", "--count", "1"], SEQ, False),
    (["verify", "--seq", "seq.json", "--mode", "connectivity"], SEQ, False),
    (["verify", "--seq", "seq.json", "--mode", "spectral"], ONE, False),
    (["verify", "--seq", "seq.json", "--mode", "spectral", "--c4-only"], C4_SPLIT, False),
    (["verify", "--seq", "seq.json", "--mode", "tv"], EIGHTEEN, False),
    (["verify", "--seq", "seq.json", "--mode", "product", "--max-chords", "25"], PRODUCT, False),
    # the controls: the wrapper does see numpy where a job uses it
    (["verify", "--seq", "seq.json", "--mode", "spectral"], SEQ, True),
    (["verify", "--seq", "seq.json", "--mode", "tv"], SEQ, True),
], ids=["decompose", "sample", "verify-connectivity", "verify-spectral-one",
        "verify-spectral-disconnected", "verify-tv-18", "verify-product", "verify-spectral",
        "verify-tv-130"])
def test_cli_jobs_load_numpy_only_to_compute(tmp_path, argv, seq, loads_numpy):
    (tmp_path / "seq.json").write_text(json.dumps(seq))
    got = run_python("-c", WRAPPER, *argv, cwd=tmp_path)
    assert got.returncode == 0, got.stderr
    assert "numpy loaded: %s" % loads_numpy in got.stderr


@pytest.mark.parametrize("argv, prelude, loads_hashlib", [
    (["decompose", "--seq", "seq.json"], "", False),
    (["verify", "--seq", "seq.json", "--mode", "connectivity"], "", False),
    # sample derives its chains' seeds without hashlib
    (["sample", "--seq", "seq.json", "--count", "1"], "", False),
    # the control: the wrapper does see hashlib once something imports it
    (["sample", "--seq", "seq.json", "--count", "1"], "import hashlib\n", True),
], ids=["decompose", "verify-connectivity", "sample", "sample-after-import"])
def test_cli_jobs_load_hashlib_only_to_seed(tmp_path, argv, prelude, loads_hashlib):
    if not loads_hashlib:
        skip_if_loaded_at_startup("hashlib", tmp_path)
    (tmp_path / "seq.json").write_text(json.dumps(SEQ))
    got = run_python("-c", prelude + WRAPPER, *argv, cwd=tmp_path)
    assert got.returncode == 0, got.stderr
    assert "hashlib loaded: %s" % loads_hashlib in got.stderr


@pytest.mark.parametrize("argv", [
    ["test", "--seq", "seq.json"],
    ["decompose", "--seq", "seq.json"],
    ["sample", "--seq", "seq.json", "--count", "1"],
    ["verify", "--seq", "seq.json", "--mode", "connectivity"],
], ids=["test", "decompose", "sample", "verify-connectivity"])
def test_cli_jobs_leave_dataclasses_unloaded(tmp_path, argv):
    skip_if_loaded_at_startup("dataclasses", tmp_path)
    (tmp_path / "seq.json").write_text(json.dumps(SEQ))
    got = run_python("-c", WRAPPER, *argv, cwd=tmp_path)
    assert got.returncode == 0, got.stderr
    assert "dataclasses loaded: False" in got.stderr


@pytest.mark.parametrize("argv, loaded", [
    (["test", "--seq", "seq.json"], ()),
    (["decompose", "--seq", "seq.json", "--certificate"], ()),
    # the control: the wrapper does see the sampler where a job runs it
    (["sample", "--seq", "seq.json", "--count", "1"], ("degmix.chain",)),
], ids=["test", "decompose", "sample"])
def test_cli_jobs_load_only_the_modules_they_run(tmp_path, argv, loaded):
    (tmp_path / "seq.json").write_text(json.dumps(SEQ))
    got = run_python("-c", WRAPPER, *argv, cwd=tmp_path)
    assert got.returncode == 0, got.stderr
    for name in ("degmix.chain", "degmix.space", "degmix.spectra", "degmix.counting"):
        assert "%s loaded: %s" % (name, name in loaded) in got.stderr
