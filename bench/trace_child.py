"""Run one degmix CLI job with spans recorded around calls into each module.

Usage: python trace_child.py SUMMARY_JSON SPAWN_NS degmix-args...

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it spawned this
process, so ``startup_ns`` covers interpreter start and imports up to the
entry of ``degmix.cli.main``.  Nothing under ``src/`` changes: the module
attributes listed in ``TARGETS`` are replaced at run time by wrappers, and
every module that imported a wrapped function by name gets the wrapper too.

A span's self time is its duration minus the time covered by its child
spans.  Spans are aggregated per name in memory as they close (self time,
calls, and counts derived from arguments or results) and written as one JSON
summary when the job ends.  A call nested directly in a span of the same name
adds no call (``realize`` calling ``realize_bipartite`` is one realization).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

clock = time.monotonic_ns  # CLOCK_MONOTONIC: comparable with the parent's reading


class Tracer:
    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.stack = []  # open spans: [name, child_ns]
        self.missing = []

    def span(self, name, fn, on_call=None, on_result=None):
        stack, self_ns, calls = self.stack, self.self_ns, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            if on_call is not None:
                on_call(self.counts, args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_ns[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if parent is None or parent[0] != name:
                    calls[name] += 1
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return wrapper

    def counter(self, key, fn):
        """Counts calls by the innermost open span, without timing them."""
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["%s@%s" % (key, stack[-1][0] if stack else "-")] += 1
            return fn(*args, **kwargs)

        return wrapper


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    got = sig.bind(*args, **kwargs)
    got.apply_defaults()
    return got.arguments


def _chain_steps(orig):
    def on_call(counts, args, kwargs):
        a = _bound(orig, args, kwargs)
        counts["chain.steps"] += a["burn_in"] + a["quota"] * a["thin"]
    return on_call


def _dsm_steps(orig):
    def on_call(counts, args, kwargs):
        a = _bound(orig, args, kwargs)
        counts["spectra.steps"] += a["burn_in"] + a["count"] * max(1, a["thin"])
    return on_call


def _components(counts, args, result):
    if isinstance(result, list):  # bipartite factors
        counts["decomposition.components"] += len(result)
    else:
        tail = result.tail is not None and result.tail.n > 0
        counts["decomposition.components"] += len(result.components) + tail


def _chords(counts, args, result):
    counts["graphs.chords"] += len(args[0].chords)


def _realizations(counts, args, result):
    counts["space.realizations"] += len(result)


# (module, attribute path, span name, hook factory or None, result hook or None)
TARGETS = [
    ("degmix.cli", "main", "cli.main", None, None),
    ("degmix.cli", "cmd_sample", "cli.write", None, None),
    ("degmix.cli", "cmd_dsm", "cli.write", None, None),
    ("degmix.io", "load_sequence", "io.load", None, None),
    ("degmix.io", "load_forbidden", "io.load", None, None),
    ("degmix.io", "load_dsm", "io.load", None, None),
    ("degmix.sequences", "erdos_gallai", "sequences.validate", None, None),
    ("degmix.sequences", "gale_ryser", "sequences.validate", None, None),
    ("degmix.sequences", "restricted_bipartite_graphical", "sequences.validate", None, None),
    ("degmix.sequences", "directed_graphical", "sequences.validate", None, None),
    ("degmix.sequences", "realize", "sequences.realize", None, None),
    ("degmix.sequences", "realize_bipartite", "sequences.realize", None, None),
    ("degmix.sequences", "realize_directed", "sequences.realize", None, None),
    ("degmix.decomposition", "canonical_decompose", "decomposition.decompose", None, _components),
    ("degmix.decomposition", "canonical_decompose_bipartite", "decomposition.decompose", None,
     _components),
    ("degmix.graphs", "Instance.__init__", "graphs.instance", None, _chords),
    ("degmix.graphs", "Instance.neighbors", "space.moves", None, None),
    ("degmix.graphs", "Instance.weighted_neighbors", "space.moves", None, None),
    ("degmix.chain", "_make_plan", "chain.plan", None, None),
    ("degmix.chain", "build_product_chain", "chain.build", None, None),
    ("degmix.chain", "_sample_stream", "chain.steps", _chain_steps, None),
    ("degmix.chain", "_assemble", "chain.assemble", None, None),
    ("degmix.spectra", "build_dsm_chain", "spectra.build", None, None),
    ("degmix.spectra", "dsm_sample", "spectra.steps", _dsm_steps, None),
    ("degmix.spectra", "DsmChain.current_graph", "spectra.graph", None, None),
    ("degmix.space", "_enumerate_masks", "space.enumerate", None, _realizations),
    ("degmix.space", "Space.transition_matrix", "space.matrix", None, None),
    ("degmix.space", "build_realization_graph", "space.matrix", None, None),
    ("degmix.space", "_exact_conductance", "space.conductance", None, None),
    ("degmix.space", "_sweep_conductance", "space.conductance", None, None),
    ("degmix.space", "verify_cartesian_product", "space.product_check", None, None),
    ("degmix.space", "tv_distance_audit", "space.tv", None, None),
    ("numpy.linalg", "eigvalsh", "space.eigensolve", None, None),
    ("numpy.linalg", "eigh", "space.eigensolve", None, None),
]


def install(tracer: Tracer) -> None:
    import degmix  # noqa: F401  (imports every module but the CLI)
    import degmix.cli  # noqa: F401

    modules = [m for name, m in sys.modules.items()
               if name == "degmix" or name.startswith("degmix.")]
    replaced = {}
    for modname, path, span, on_call, on_result in TARGETS:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            tracer.missing.append("%s.%s" % (modname, path))
            continue
        hook = on_call(orig) if on_call is not None else None
        wrapper = tracer.span(span, orig, hook, on_result)
        setattr(owner, attr, wrapper)
        replaced[id(orig)] = (orig, wrapper)
    # Functions imported by name elsewhere (``from .chain import sample``).
    for mod in modules:
        for name, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, name, hit[1])
    chain = importlib.import_module("degmix.chain")
    chain.ChainState._apply = tracer.counter("accepted", chain.ChainState._apply)


def main(argv) -> int:
    summary_path, spawn_ns, args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    install(tracer)
    import degmix.cli

    startup_ns = clock() - spawn_ns
    try:
        return degmix.cli.main(args)
    finally:
        with open(summary_path, "w") as fh:
            json.dump({"startup_ns": startup_ns, "self_ns": tracer.self_ns,
                       "calls": tracer.calls, "counts": tracer.counts,
                       "missing": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
