"""Command-line front end.

Subcommands: test, decompose, compose, sample, verify, dsm, count.
Exit codes: 0 success, 1 domain-negative finding under --strict (not
graphical, disconnected, product mismatch), 2 usage error (bad arguments,
unreadable or malformed input files, an instance over the enumeration cap).
A job whose reader closes stdout early also exits 1, without a traceback.

Each job is its own process, so each command imports the modules it
computes with: no job loads the sampler, the exhaustive engine or the
census code that it does not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional

from . import io as dio
from .errors import (
    DegmixError,
    Disconnected,
    DivisibilityError,
    ForbiddenSetNotMatching,
    InconsistentMatrix,
    InvalidSplit,
    ProductMismatch,
    TooLarge,
)
from .sequences import (
    BipartiteDegreeSequence,
    DegreeSequence,
    DirectedDegreeSequence,
    restricted_bipartite_graphical,
)

SCHEMA = "degmix/1"


class UsageError(Exception):
    """Bad command-line input; reported on one line with exit status 2."""


def _load(loader, path: str):
    """Read an input file; one that cannot be read or parsed is a usage error."""
    try:
        return loader(path)
    except KeyError as exc:
        raise UsageError("%s: missing field %s" % (path, exc)) from None
    except (OSError, ValueError, TypeError, AttributeError, InconsistentMatrix,
            ForbiddenSetNotMatching) as exc:
        raise UsageError("%s: %s" % (path, exc)) from None


def _load_inputs(args):
    """The --seq sequence and the --forbidden set, checked against each other."""
    seq = _load(dio.load_sequence, args.seq)
    if not args.forbidden:
        return seq, None
    forbidden = _load(dio.load_forbidden, args.forbidden)
    if not isinstance(seq, BipartiteDegreeSequence):
        raise UsageError("--forbidden applies to bipartite sequences only")
    _check_in_classes(args.forbidden, forbidden, seq)
    return seq, forbidden


def _check_in_classes(path: str, forbidden, seq: BipartiteDegreeSequence) -> None:
    """A forbidden pair outside the classes of ``seq`` is a usage error."""
    for u, w in sorted(forbidden.pairs):
        if not (0 <= u < seq.nu and 0 <= w < seq.nw):
            raise UsageError(
                "%s: forbidden pair [%d, %d] is outside the %d x %d classes"
                % (path, u + 1, w + 1, seq.nu, seq.nw)
            )


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps({"schema": SCHEMA, **payload}, indent=2, default=str))
    else:
        print(human)


def cmd_test(args) -> int:
    seq, forbidden = _load_inputs(args)
    if forbidden is not None:
        ok = restricted_bipartite_graphical(seq, forbidden)
    else:
        ok = seq.is_graphical()
    _emit(args, {"graphical": ok}, "graphical" if ok else "not graphical")
    return 0 if ok or not args.strict else 1


def cmd_decompose(args) -> int:
    from .decomposition import canonical_decompose, canonical_decompose_bipartite

    seq = _load(dio.load_sequence, args.seq)
    if isinstance(seq, DirectedDegreeSequence):
        raise UsageError("directed sequences are not factorized")
    if isinstance(seq, BipartiteDegreeSequence):
        factors = canonical_decompose_bipartite(seq)
        payload = {
            "kind": "bipartite",
            "factors": [
                {"primary": list(f.u_degrees), "secondary": list(f.w_degrees)}
                for f in factors
            ],
        }
        lines = ["%d factor(s)" % len(factors)] + [
            "  [%s / %s]" % (" ".join(map(str, f.u_degrees)), " ".join(map(str, f.w_degrees)))
            for f in factors
        ]
        _emit(args, payload, "\n".join(lines))
        return 0
    cd = canonical_decompose(seq)
    comps = []
    lines = ["%d split component(s)%s" % (len(cd.components), " + tail" if cd.tail else "")]
    steps = zip(cd.components, cd.good_pairs_used, cd.remainder_sizes, cd.top_sums)
    for comp, gp, n, top_sum in steps:
        entry = {
            "primary": list(comp.u_degrees),
            "secondary": list(comp.w_degrees),
            "good_pair": [gp.p, gp.q],
        }
        if args.certificate:
            # the q smallest degrees of the remainder are the head's secondaries
            entry["certificate"] = {
                "n": n,
                "lhs_sum_top_p": top_sum,
                "rhs": gp.p * (n - gp.q - 1) + sum(comp.w_degrees),
                "identity": "sum(d1..dp) == p*(n-q-1) + sum(d_{n-q+1}..d_n)",
            }
        comps.append(entry)
        lines.append(
            "  <U=%s | W=%s>  via (p=%d, q=%d)"
            % (comp.u_degrees, comp.w_degrees, gp.p, gp.q)
        )
    payload = {
        "kind": "simple",
        "components": comps,
        "tail": list(cd.tail.degrees) if cd.tail else None,
    }
    if cd.tail:
        lines.append("  tail %s" % (cd.tail.degrees,))
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_compose(args) -> int:
    from .decomposition import compose, compose_bipartite_many, compose_directed, psi_inverse

    seqs = [_load(dio.load_sequence, p) for p in args.seqs]
    if len(seqs) < 2:
        raise UsageError("need at least two sequence files")
    forb = [_load(dio.load_forbidden, p) for p in args.forbidden] if args.forbidden else None
    if forb is not None and len(forb) != len(seqs):
        raise UsageError("one --forbidden per operand is required")
    last = seqs[-1]
    heads = seqs[:-1]
    if not all(isinstance(s, BipartiteDegreeSequence) for s in heads):
        raise UsageError("leading operands must be bipartite (splitted)")
    if isinstance(last, DegreeSequence):
        if forb is not None:
            raise UsageError("forbidden sets need all-bipartite operands")
        out = last
        for path, head in reversed(list(zip(args.seqs, heads))):
            try:
                out = compose(psi_inverse(head), out)
            except InvalidSplit as exc:
                raise UsageError("%s: %s" % (path, exc)) from None
        payload = dio.sequence_to_dict(out)
        _emit(args, payload, json.dumps(payload))
        return 0
    if not isinstance(last, BipartiteDegreeSequence):
        raise UsageError("final operand must be simple or bipartite")
    if forb is None:
        payload = dio.sequence_to_dict(compose_bipartite_many(seqs))
        _emit(args, payload, json.dumps(payload))
        return 0
    for path, f, seq in zip(args.forbidden, forb, seqs):
        _check_in_classes(path, f, seq)
    cur, curf = seqs[-1], forb[-1]
    for head, f in zip(reversed(heads), reversed(forb[:-1])):
        cur, curf = compose_directed(head, f, cur, curf)
    payload = dio.sequence_to_dict(cur)
    payload["forbidden"] = dio.forbidden_to_list(curf)
    _emit(args, payload, json.dumps(payload))
    return 0


def _open_out(args):
    """The --out file, or stdout; opened before sampling, so that a path
    that cannot be written fails before the chain runs."""
    if not args.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w")
    except OSError as exc:
        raise UsageError("--out %s: %s" % (args.out, exc.strerror or exc)) from None


def _write_draws(stream, fmt: str, draws) -> None:
    """One sorted edge list per draw, as 1-based edge lines or JSON lines."""
    if fmt == "jsonl":
        for edges in draws:
            stream.write(json.dumps({"edges": [list(e) for e in edges]}) + "\n")
    else:
        for k, edges in enumerate(draws):
            if k:
                stream.write("\n")
            for a, b in edges:
                stream.write("%d %d\n" % (a + 1, b + 1))


def cmd_sample(args) -> int:
    from .chain import sample

    seq, forbidden = _load_inputs(args)
    with _open_out(args) as stream:
        try:
            draws = sample(
                seq,
                burn_in=args.burn_in,
                thin=args.thin,
                count=args.count,
                seed=args.seed,
                factorize=args.factorize,
                forbidden=forbidden,
                jobs=args.jobs,
            )
        except DegmixError as exc:
            print("sample: %s" % exc, file=sys.stderr)
            return 1 if args.strict else 0
        _write_draws(stream, args.format, draws)
    return 0


def cmd_verify(args) -> int:
    from .space import (
        _instance_for,
        realization_space,
        spectral_report,
        tv_distance_audit,
        verify_cartesian_product,
    )

    if args.mode == "product" and args.forbidden:
        raise UsageError("--mode product does not take --forbidden")
    seq, forbidden = _load_inputs(args)
    try:
        if args.mode == "connectivity":
            space = realization_space(seq, forbidden, args.max_chords, args.c4_only)
            ok = space.connected()
            _emit(
                args,
                {"realizations": space.count, "connected": ok},
                "%d realizations, %s"
                % (space.count, "connected" if ok else "DISCONNECTED"),
            )
            return 0 if ok or not args.strict else 1
        if args.mode == "spectral":
            rep = spectral_report(realization_space(seq, forbidden, args.max_chords, args.c4_only))
            payload = {
                "realizations": rep.realization_count,
                "lambda2": rep.lambda2,
                "relaxation_time": rep.relaxation_time,
                "conductance": rep.conductance,
                "conductance_exact": rep.conductance_exact,
                "trivial": rep.trivial,
            }
            _emit(
                args,
                payload,
                "N=%d lambda2=%.6g relax=%.6g conductance=%.6g%s"
                % (
                    rep.realization_count,
                    rep.lambda2,
                    rep.relaxation_time,
                    rep.conductance,
                    "" if rep.conductance_exact else " (sweep bound)",
                ),
            )
            return 0
        if args.mode == "tv":
            tv = tv_distance_audit(
                seq, args.steps, f=forbidden, max_chords=args.max_chords, c4_only=args.c4_only
            )
            _emit(args, {"steps": args.steps, "tv": tv}, "TV after %d steps: %.3g" % (args.steps, tv))
            return 0
        # product mode: check the composed realization graph against the
        # product of all its canonical factors, laid out as the sampler
        # lays them out.
        if isinstance(seq, DirectedDegreeSequence):
            raise UsageError("--mode product is not defined for directed input")
        from .chain import _make_plan

        layout = _make_plan(seq, None, "auto")
        if len(layout.factors) <= 1:
            _emit(args, {"factors": 1, "ok": True}, "indecomposable; nothing to verify")
            return 0
        report = verify_cartesian_product(_instance_for(seq, None, False), layout,
                                          args.max_chords)
        _emit(
            args,
            report,
            "product verified: %d = %s realizations, %d meta-edges"
            % (
                report["composed_count"],
                " x ".join(map(str, report["factor_counts"])),
                report["edges"],
            ),
        )
        return 0
    except Disconnected as exc:
        _emit(args, {"error": "disconnected", "detail": str(exc)}, "DISCONNECTED: %s" % exc)
        return 1 if args.strict else 0
    except ProductMismatch as exc:
        _emit(
            args,
            {"error": "product-mismatch", "detail": str(exc), "witness": exc.witness},
            "PRODUCT MISMATCH: %s" % exc,
        )
        return 1 if args.strict else 0
    except TooLarge as exc:
        raise UsageError("%s; raise the cap with --max-chords" % exc) from None
    except DegmixError as exc:
        print("verify: %s" % exc, file=sys.stderr)
        return 1 if args.strict else 0


def cmd_dsm(args) -> int:
    from .spectra import dsm_graphical, dsm_sample

    matrix = _load(dio.load_dsm, args.matrix)
    if args.check:
        ok = dsm_graphical(matrix)
        _emit(args, {"graphical": ok}, "graphical" if ok else "not graphical")
        return 0 if ok or not args.strict else 1
    with _open_out(args) as stream:
        graphs = dsm_sample(
            matrix, burn_in=args.burn_in, thin=args.thin, count=args.count, seed=args.seed
        )
        _write_draws(stream, args.format, [sorted(g.edges) for g in graphs])
    return 0


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's limit on int-to-decimal digits (Python 3.10.7
    on), so that exact counts print in full; ``main`` also runs in-process,
    so the limit is restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_count(args) -> int:
    from .counting import (
        count_almost_half_regular,
        count_almost_half_regular_exhaustive,
        count_bipartite_graphical,
        count_composed_class,
    )

    try:
        if args.kind == "ahr":
            rep = (
                count_almost_half_regular_exhaustive(args.n)
                if args.exhaustive
                else count_almost_half_regular(args.n)
            )
        elif args.kind == "bipartite":
            rep = count_bipartite_graphical(args.n)
        else:
            if not args.block:
                raise UsageError("--kind composed requires --block")
            rep = count_composed_class(args.n, args.block)
    except (TooLarge, DivisibilityError) as exc:
        raise UsageError(str(exc)) from None
    with _unlimited_int_digits():
        if args.csv:
            print("kind,parameter,count,method")
            print("%s,%d,%d,%s" % (args.kind, rep.parameter, rep.count, rep.method))
        else:
            _emit(
                args,
                {"kind": args.kind, "parameter": rep.parameter, "count": rep.count,
                 "method": rep.method},
                str(rep.count),
            )
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, without the usage text
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="degmix",
        description="Uniform sampling of graphs with prescribed degrees via "
        "decomposed swap Markov chains, with desk-scale verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *names):
        """The shared options ``names`` (of json, strict, seed) that ``p`` reads."""
        if "json" in names:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        if "strict" in names:
            p.add_argument("--strict", action="store_true",
                           help="exit 1 on domain-negative findings")
        if "seed" in names:
            p.add_argument("--seed", type=int, default=0, help="master seed")

    p = sub.add_parser("test", help="graphicality test")
    p.add_argument("--seq", required=True)
    p.add_argument("--forbidden")
    common(p, "json", "strict")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("decompose", help="canonical decomposition report")
    p.add_argument("--seq", required=True)
    p.add_argument("--certificate", action="store_true",
                   help="emit the good-pair arithmetic per extraction")
    common(p, "json", "strict")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("compose", help="compose sequences (first operands splitted bipartite)")
    p.add_argument("seqs", nargs="+", metavar="SEQ.json")
    p.add_argument("--forbidden", action="append",
                   help="one per operand; yields the directed composition")
    common(p, "json")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("sample", help="sample realizations via the product chain")
    p.add_argument("--seq", required=True)
    p.add_argument("--forbidden")
    p.add_argument("--count", type=_at_least(1), default=1)
    p.add_argument("--burn-in", type=_at_least(0), default=1000, dest="burn_in")
    p.add_argument("--thin", type=_at_least(1), default=10)
    p.add_argument("--factorize", choices=("auto", "off"), default="auto")
    p.add_argument("--format", choices=("edges", "jsonl"), default="edges")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="workers for the logical chains; output is identical for any value")
    common(p, "strict", "seed")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="exhaustive verification on desk-scale instances")
    p.add_argument("--seq", required=True)
    p.add_argument("--forbidden")
    p.add_argument("--mode", choices=("product", "spectral", "connectivity", "tv"),
                   default="spectral")
    p.add_argument("--max-chords", type=_at_least(0), default=None, dest="max_chords")
    p.add_argument("--steps", type=_at_least(0), default=200,
                   help="kernel power for --mode tv")
    p.add_argument("--c4-only", action="store_true", dest="c4_only",
                   help="disable C6 swaps (directed/restricted instances)")
    common(p, "json", "strict")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dsm", help="degree spectra matrix tools")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="graphicality test")
    mode.add_argument("--sample", action="store_true", help="sample realizations")
    p.add_argument("--matrix", required=True)
    p.add_argument("--count", type=_at_least(1), default=1)
    p.add_argument("--burn-in", type=_at_least(0), default=1000, dest="burn_in")
    p.add_argument("--thin", type=_at_least(1), default=10)
    p.add_argument("--format", choices=("edges", "jsonl"), default="edges")
    p.add_argument("--out")
    common(p, "json", "strict", "seed")
    p.set_defaults(func=cmd_dsm)

    p = sub.add_parser("count", help="census counts")
    p.add_argument("--kind", choices=("ahr", "bipartite", "composed"), required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--block", type=_at_least(1))
    p.add_argument("--exhaustive", action="store_true",
                   help="cross-check census instead of the closed form (ahr)")
    p.add_argument("--csv", action="store_true")
    common(p, "json")
    p.set_defaults(func=cmd_count)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("degmix %s: error: %s" % (args.command, exc), file=sys.stderr)
        return 2
    except DegmixError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1 if getattr(args, "strict", False) else 0
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def console_entry() -> None:
    """The ``degmix`` command: ``main``, then an exit without teardown.

    Once ``main`` has returned, every output is closed (the ``--out`` file
    and the ``--jobs`` worker pool by their ``with`` blocks) and the streams
    are flushed here, so freeing the interpreter's objects one by one would
    only delay the exit: ``os._exit`` leaves them to the OS.  An uncaught
    exception and argparse's ``SystemExit`` exit normally.  A reader that
    closes the pipe early ends the job with status 1 and no traceback.
    """
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    os._exit(code)


if __name__ == "__main__":
    console_entry()
