"""The ``degmix`` console entry (``python -m degmix.cli``) against ``main``.

The entry ends the process with ``os._exit`` once ``main`` returns, so
these tests run it as a fresh process and check that it writes the same
bytes, exits with the same codes and leaves no worker behind as an
in-process ``main`` call; and that a reader closing the pipe early ends the
job without a traceback.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from degmix.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

INPUTS = {
    "seq.json": {"kind": "simple", "degrees": [3, 3, 2, 2, 2, 2, 1, 1]},
    "bad.json": {"kind": "simple", "degrees": [3, 3, 1, 1]},
    "exact.json": {"kind": "simple", "degrees": [2, 2, 1, 1, 1, 1]},  # 18 realizations
    "dsm.json": {"delta": 2, "columns": [[0, 2]] * 8},  # the 2-regular graphs on 8 vertices
}

# stdout buffered, as it is by default, so that what the entry leaves
# unflushed is lost
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@contextlib.contextmanager
def start(*argv, cwd):
    """The job as its own process, with stdout and stderr on pipes; on the
    way out, whatever is left of its process group is killed."""
    proc = subprocess.Popen([sys.executable, "-m", "degmix.cli", *argv], cwd=cwd, env=ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        yield proc
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def entry(*argv, cwd):
    return subprocess.run([sys.executable, "-m", "degmix.cli", *argv], cwd=cwd, env=ENV,
                          capture_output=True, timeout=120)


@pytest.fixture
def work(tmp_path, monkeypatch):
    for name, payload in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["sample", "--seq", "seq.json", "--count", "5", "--seed", "3", "--jobs", "1"],
    ["sample", "--seq", "seq.json", "--count", "5", "--seed", "3", "--jobs", "2"],
    ["sample", "--seq", "seq.json", "--count", "5", "--seed", "3", "--jobs", "2",
     "--format", "jsonl", "--out", "{out}"],
    ["dsm", "--sample", "--matrix", "dsm.json", "--count", "3", "--seed", "5"],
    ["dsm", "--sample", "--matrix", "dsm.json", "--count", "3", "--seed", "5",
     "--out", "{out}"],
    ["verify", "--seq", "exact.json", "--mode", "spectral", "--json"],
    ["verify", "--seq", "exact.json", "--mode", "tv", "--steps", "40", "--json"],
], ids=["sample-jobs1", "sample-jobs2", "sample-jobs2-out", "dsm", "dsm-out",
        "verify-spectral", "verify-tv"])
def test_entry_writes_what_main_writes(work, capsys, argv):
    def expand(out):
        return [a.replace("{out}", out) for a in argv]

    assert main(expand("in.txt")) == 0
    want = capsys.readouterr().out.encode()
    got = entry(*expand("sub.txt"), cwd=work)
    assert got.returncode == 0, got.stderr
    assert got.stdout == want
    assert got.stderr == b""
    if "{out}" in argv:
        assert want == b""
        assert (work / "sub.txt").read_bytes() == (work / "in.txt").read_bytes() != b""


@pytest.mark.parametrize("argv, code", [
    (["test", "--seq", "bad.json"], 0),
    (["test", "--seq", "bad.json", "--strict"], 1),  # a domain-negative finding
    (["test", "--seq", "missing.json"], 2),  # a usage error that main returns
    (["sample", "--seq", "seq.json", "--count", "0"], 2),  # one that argparse raises
], ids=["finding", "strict-finding", "usage-error", "argparse-error"])
def test_entry_keeps_the_exit_codes(work, capsys, argv, code):
    try:
        assert main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    want = capsys.readouterr()
    got = entry(*argv, cwd=work)
    assert got.returncode == code
    assert got.stdout == want.out.encode()
    assert got.stderr == want.err.encode()


def test_entry_leaves_no_worker_running(work):
    # every pool worker inherits the job's stdout and stderr pipes, so both
    # reach end-of-file only once no worker is left holding them
    with start("sample", "--seq", "seq.json", "--count", "8", "--jobs", "2", "--seed", "1",
               cwd=work) as proc:
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.count(b"\n\n") == 7


def test_closed_pipe_exits_1_without_a_traceback(work):
    # about 200 kB of edges, far past a pipe's buffer: the job is still
    # writing when the reader goes away
    (work / "reg.json").write_text(json.dumps({"kind": "simple", "degrees": [4] * 3000}))
    with start("sample", "--seq", "reg.json", "--count", "3", "--burn-in", "1000", "--thin",
               "10", cwd=work) as proc:
        assert proc.stdout.read(5) == b"1 2\n1"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    assert proc.returncode == 1
    assert err == b""
