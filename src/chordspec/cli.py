"""Command-line front door.

Graphs travel as graph6 lines on stdin/stdout; JSON reports go to stdout and
logs to stderr. Exit codes: 0 success/pass, 1 verification failure
(counterexamples found), 2 usage or input errors.

The parser is built on the first ``main`` call and reused by every later
call in the process: its tree holds only fixed names, choices and defaults,
and argparse looks up ``sys.stdout`` and ``sys.stderr`` when it prints.
Importing this module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import appendix, chords, properties, verifier
from .families import build_family, family_names
from .graphs import Graph, Graph6Error, GraphError, graph6_decode, graph6_encode
from .spectral import q_index_texts

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _read_graphs(path: str | None) -> list[Graph]:
    # a file decodes as stdin does, so a byte that is not text reaches the
    # graph6 parser and is reported with its line
    stream = (sys.stdin if path in (None, "-")
              else open(path, encoding="utf-8", errors="surrogateescape"))
    graphs = []
    try:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                graphs.append(graph6_decode(line))
            except Graph6Error as exc:
                raise _InputError(f"line {lineno}: {exc}") from exc
    finally:
        if stream is not sys.stdin:
            stream.close()
    return graphs


class _InputError(Exception):
    pass


def _cmd_q(args) -> int:
    for text in q_index_texts(_read_graphs(args.input)):
        print(text)
    return EXIT_OK


def _cmd_detect(args) -> int:
    for g in _read_graphs(args.input):
        if args.apex:
            cert = chords.find_k_chords_at_apex(g, args.k)
        else:
            cert = chords.find_chorded_cycle(g, args.k)
        print("NONE" if cert is None else cert.to_text())
    return EXIT_OK


def _cmd_family(args) -> int:
    if args.list:
        for name in family_names():
            print(name)
        return EXIT_OK
    if not args.spec:
        raise _InputError("family needs a SPEC argument (or --list)")
    built = build_family(args.spec)
    print(graph6_encode(built.graph))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.what == "theorem":
        report = verifier.verify_theorem_main(
            args.n, threshold_offset=args.threshold_offset, jobs=args.jobs
        )
    elif args.what == "corollary":
        report = verifier.verify_corollary(
            args.n, min_chords=args.min_chords, jobs=args.jobs
        )
    elif args.what == "appendix":
        report = appendix.verify_appendix(args.n_lo, args.n_hi)
    else:
        report = properties.property_suite(args.seed, args.trials)
    print(report.to_json())
    print(report.to_table(), file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_report_diff(args) -> int:
    with open(args.a, "rb") as fa, open(args.b, "rb") as fb:
        ra = verifier.Report.from_json(fa.read())
        rb = verifier.Report.from_json(fb.read())
    diffs = verifier.report_diff(ra, rb)
    for d in diffs:
        print(d)
    return EXIT_OK if not diffs else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chordspec",
        description="Signless Laplacian thresholds and chorded-cycle certificates",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("q", help="print the signless Laplacian index per graph, correctly rounded "
                       "to 12 decimals")
    q.add_argument("input", nargs="?", default=None, help="graph6 file (default stdin)")
    q.set_defaults(fn=_cmd_q)

    d = sub.add_parser("detect", help="search for chorded-cycle certificates")
    d.add_argument("--k", type=int, default=3, help="chord count (default 3)")
    d.add_argument(
        "--apex",
        action="store_true",
        help="require all chords incident to one cycle vertex",
    )
    d.add_argument("input", nargs="?", default=None)
    d.set_defaults(fn=_cmd_detect)

    f = sub.add_parser("family", help="emit a named family as graph6")
    f.add_argument("spec", nargs="?", help="e.g. K11n2Plus:n=7 or G12:n=10,s=3")
    f.add_argument("--list", action="store_true", help="list family names")
    f.set_defaults(fn=_cmd_family)

    v = sub.add_parser("verify", help="run a verification task (JSON report)")
    vsub = v.add_subparsers(dest="what", required=True)
    jobs_help = "worker threads of the sweep, capped at the usable CPUs; order 6 sweeps serially"
    vt = vsub.add_parser("theorem")
    vt.add_argument("--n", type=int, required=True,
                    choices=verifier._SWEPT_ORDERS["theorem"])
    vt.add_argument("--threshold-offset", type=float, default=0.0)
    vt.add_argument("--jobs", type=int, default=1, help=jobs_help)
    vc = vsub.add_parser("corollary")
    vc.add_argument("--n", type=int, required=True,
                    choices=verifier._SWEPT_ORDERS["corollary"])
    vc.add_argument("--min-chords", type=int, default=3)
    vc.add_argument("--jobs", type=int, default=1, help=jobs_help)
    va = vsub.add_parser("appendix")
    va.add_argument("--n-lo", type=int, required=True)
    va.add_argument("--n-hi", type=int, required=True)
    vp = vsub.add_parser("properties")
    vp.add_argument("--seed", type=int, required=True)
    vp.add_argument("--trials", type=int, required=True)
    v.set_defaults(fn=_cmd_verify)

    r = sub.add_parser("report-diff", help="diff two JSON reports (wall time ignored)")
    r.add_argument("a")
    r.add_argument("b")
    r.set_defaults(fn=_cmd_report_diff)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader stopped reading (`... | head`); an OSError, so caught first
        return EXIT_OK
    except (_InputError, GraphError, verifier.VerifierError, OSError) as exc:
        print(f"chordspec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
