"""degmix benchmark: one workload, a closed loop of CLI jobs, outputs checked.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one job at a time, each job a fresh ``python -m degmix.cli``
process with ``--jobs 1`` and one BLAS thread, timed from spawn to exit.  A
round runs every job of the workload once; with ``--trace 0`` it then runs
every job's set-up variant.  Rounds repeat while the next one is expected to
end within ``--seconds``.  Every output is checked (see ``checks.py``); a job
that exits non-zero or fails its check is a failed operation.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``wall_s``: the sum over the workload's jobs of each job's median wall
  time over the rounds (one run of the workload, with one-off stalls of a
  shared machine filtered per job);
* ``setup_s``: the same for the set-up variants;
* ``peak_rss_mb``: the largest peak RSS of any job process (its own rusage).

With ``--trace 1`` jobs run under ``trace_child.py`` and the result holds the
per-layer metrics: self times summed over a round (median over rounds) and
counts per round, which repeat exactly for a seed.  The last line printed is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import CheckError  # noqa: E402
from workloads import WORKLOADS, Output, build  # noqa: E402

TRACER = os.path.join(HERE, "trace_child.py")
RUN_LIMIT_S = 170.0  # the whole run ends well inside three minutes

# per-layer metric -> (kind, key, unit); kinds: "self" seconds of a span,
# "calls" of a span, "count" from a hook, or derived below.
LAYER_METRICS = {
    "cli.startup_s": ("startup", None, "s"),
    "io.load_s": ("self", "io.load", "s"),
    "cli.write_s": ("self", "cli.write", "s"),
    "sequences.validate_s": ("self", "sequences.validate", "s"),
    "sequences.validate_calls": ("calls", "sequences.validate", "count"),
    "sequences.realize_s": ("self", "sequences.realize", "s"),
    "sequences.realize_calls": ("calls", "sequences.realize", "count"),
    "decomposition.decompose_s": ("self", "decomposition.decompose", "s"),
    "decomposition.components": ("count", "decomposition.components", "count"),
    "graphs.instance_s": ("self", "graphs.instance", "s"),
    "graphs.chords": ("count", "graphs.chords", "count"),
    "chain.plan_s": ("self", "chain.plan", "s"),
    "chain.build_s": ("self", "chain.build", "s"),
    "chain.builds": ("calls", "chain.build", "count"),
    "chain.steps": ("count", "chain.steps", "count"),
    "chain.step_us": ("per_step", "chain.steps", "us"),
    "chain.accept_ratio": ("accept", "chain.steps", "ratio"),
    "chain.assemble_s": ("self", "chain.assemble", "s"),
    "chain.draws": ("calls", "chain.assemble", "count"),
    "spectra.build_s": ("self", "spectra.build", "s"),
    "spectra.step_us": ("per_step", "spectra.steps", "us"),
    "spectra.graph_s": ("self", "spectra.graph", "s"),
    "space.enumerate_s": ("self", "space.enumerate", "s"),
    "space.realizations": ("count", "space.realizations", "count"),
    "space.moves_s": ("self", "space.moves", "s"),
    "space.neighbor_calls": ("calls", "space.moves", "count"),
    "space.matrix_s": ("self", "space.matrix", "s"),
    "space.eigensolve_s": ("self", "space.eigensolve", "s"),
    "space.eigensolves": ("calls", "space.eigensolve", "count"),
    "space.conductance_s": ("self", "space.conductance", "s"),
    "space.product_check_s": ("self", "space.product_check", "s"),
    "space.tv_s": ("self", "space.tv", "s"),
}


def child_env(root: str, work_root: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # jobs reuse compiled bytecode, as installs do
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONPYCACHEPREFIX=os.path.join(work_root, "pycache"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    """Spawns jobs one at a time inside the run's work directory."""

    def __init__(self, work: str, env: dict, deadline: float):
        self.work, self.env, self.deadline = work, env, deadline
        self.serial = 0

    def run(self, argv, trace: bool = False):
        """Run one degmix job; returns (seconds, peak_rss_mb, exit code,
        stdout text, --out text or None, trace summary or None)."""
        self.serial += 1
        base = os.path.join(self.work, "job%d" % self.serial)
        out_path = base + ".out"
        args = [a.replace("{out}", out_path) for a in argv]
        with open(base + ".stdout", "w") as so, open(base + ".stderr", "w") as se:
            if trace:
                cmd = [sys.executable, TRACER, base + ".trace.json", str(time.monotonic_ns())]
            else:
                cmd = [sys.executable, "-m", "degmix.cli"]
            cmd += args
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=so, stderr=se)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = _read(base + ".stdout")
        out = _read(out_path) if os.path.exists(out_path) else None
        summary = None
        if trace and os.path.exists(base + ".trace.json"):
            summary = json.loads(_read(base + ".trace.json"))
        if proc.returncode != 0:
            stdout = _read(base + ".stderr")[-2000:]
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode, stdout, out, summary


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def run_checked(runner: Runner, name: str, argv, check, facts: dict, failures: list,
                trace: bool = False):
    """Run and check one job; returns (seconds, rss_mb, trace summary).  A
    failure is appended to ``failures`` as (name, rejected, message), where
    ``rejected`` marks an output that a check refused."""
    seconds, rss, code, stdout, out, summary = runner.run(argv, trace)
    if code != 0:
        failures.append((name, False, "exit %d: %s" % (code, stdout.strip()[-300:])))
        return seconds, rss, summary
    try:
        check(Output(stdout, out, facts))
    except (CheckError, ValueError, KeyError, TypeError) as exc:
        failures.append((name, True, "output rejected: %s" % exc))
    return seconds, rss, summary


def determinism_probe(runner: Runner, job) -> bool:
    """A small sampling job twice with one seed, then with --jobs 2: the
    three outputs must be byte-identical (README, Reproducibility)."""
    argv = list(job.argv)
    for flag, value in (("--count", "4"), ("--burn-in", "500"), ("--thin", "50")):
        argv[argv.index(flag) + 1] = value
    outs = []
    for jobs in ("1", "1", "2"):
        argv[argv.index("--jobs") + 1] = jobs
        _, _, code, _, out, _ = runner.run(argv)
        outs.append(out if code == 0 else None)
    return outs[0] is not None and outs[0] == outs[1] == outs[2]


def layer_values(summaries) -> dict:
    """Per-layer metrics of one round from the trace summaries of its jobs."""
    self_ns, calls, counts = {}, {}, {}
    startup = 0
    for s in summaries:
        startup += s["startup_ns"]
        for dst, src in ((self_ns, s["self_ns"]), (calls, s["calls"]), (counts, s["counts"])):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    out = {}
    for name, (kind, key, _) in LAYER_METRICS.items():
        if kind == "startup":
            out[name] = startup / 1e9
        elif kind == "self":
            out[name] = self_ns.get(key, 0) / 1e9
        elif kind == "calls":
            out[name] = calls.get(key, 0)
        elif kind == "count":
            out[name] = counts.get(key, 0)
        else:
            steps = counts.get(key, 0)
            if kind == "per_step":
                out[name] = self_ns.get(key, 0) / 1e3 / steps if steps else 0.0
            else:
                out[name] = counts.get("accepted@" + key, 0) / steps if steps else 0.0
    return out


def per_job_median_sum(rounds) -> float:
    """Sum over jobs of each job's median time; ``rounds[r][j]`` is job j's
    time in round r."""
    return sum(statistics.median(times) for times in zip(*rounds))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="shrunken inputs for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "degmix", "cli.py")):
        print("bench: run from the repository root (src/degmix/cli.py not found)",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        return _run(args, root, work_root, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root, work_root, work, started) -> int:
    files, jobs = build(args.workload, args.seed, small=args.small)
    for name, data in files.items():
        with open(os.path.join(work, name), "w") as fh:
            json.dump(data, fh)
    runner = Runner(work, child_env(root, work_root), started + RUN_LIMIT_S)
    # Untimed warm-up: compiles bytecode and fills the page cache.
    runner.run(["count", "--kind", "ahr", "--n", "4"])
    correct = True
    if jobs[0].argv[0] == "sample":
        probe_ok = determinism_probe(runner, jobs[0])
        print("determinism probe (same seed twice, then --jobs 2): %s"
              % ("identical" if probe_ok else "OUTPUTS DIFFER"))
        correct &= probe_ok

    attempted = 0
    failures, walls, setups, layers, rss = [], [], [], [], 0.0
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        t_round = time.perf_counter()
        facts, wall, summaries = {}, [], []
        for job in jobs:
            sec, mb, summary = run_checked(runner, job.name, job.argv, job.check, facts,
                                           failures, trace=bool(args.trace))
            attempted += 1
            wall.append(sec)
            rss = max(rss, mb)
            if summary is not None:
                summaries.append(summary)
        walls.append(wall)
        if args.trace:
            layers.append(layer_values(summaries))
        else:
            setup, facts = [], {}
            for job in jobs:
                sec, _, _ = run_checked(runner, job.name + " (set-up)", job.setup_argv,
                                        job.setup_check, facts, failures)
                attempted += 1
                setup.append(sec)
            setups.append(setup)
        longest = max(longest, time.perf_counter() - t_round)
        elapsed = time.perf_counter() - t_start
        if elapsed + longest > args.seconds or time.monotonic() + longest > runner.deadline:
            break

    for name, _, message in failures[:10]:
        print("FAILED %s: %s" % (name, message), file=sys.stderr)
    correct &= not any(rejected for _, rejected, _ in failures)
    failed = len(failures)
    print("%s seed %d: %d round(s), %d job(s) attempted, %d failed"
          % (args.workload, args.seed, len(walls), attempted, failed))
    if args.trace:
        metrics = {}
        for name, (kind, _, unit) in LAYER_METRICS.items():
            values = [r[name] for r in layers]
            if unit == "count" and len(set(values)) > 1:
                print("warning: %s differs between rounds: %r" % (name, values), file=sys.stderr)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["trace.wall_s"] = {"value": per_job_median_sum(walls), "unit": "s"}
        missing = sorted({m for s in summaries for m in s.get("missing", [])})
        if missing:
            print("warning: not traced (attribute gone): %s" % ", ".join(missing),
                  file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": per_job_median_sum(walls), "unit": "s"},
            "setup_s": {"value": per_job_median_sum(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    for name, m in metrics.items():
        print("  %-28s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
