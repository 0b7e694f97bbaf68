"""
Command-line front end.

Verbs: ``stats``, ``verify``, ``map``, ``rsk``, ``unrsk``, ``enumerate``.
Exit codes: 0 when every requested check passes, 1 when an identity is
violated (the counterexample is part of the report), 2 for usage or domain
errors.

Output is deterministic: identical invocations produce byte-identical
output, and verification reports are independent of the worker count.  The
report verbs ``stats`` and ``verify`` share one output path: ``--json`` or
``--csv`` picks the format (text otherwise), the report goes to stdout, and
when the environment variable ``SIGNBALANCE321_OUTPUT_DIR`` is set the same
bytes are written into that directory as ``<verb>-<name>-n<size>.<ext>``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Callable

from .ballots import BallotClassTag, classify, delta, epsilon, parse_ballot
from .ballots import phi as ballot_phi
from .ballots import psi as ballot_psi
from .ballots import psi_inverse as ballot_psi_inverse
from .enumeration import generate_Tn_ballot, signed_distribution
from .errors import NotInDomain
from .identities import (
    IDENTITY_LABELS,
    IDENTITY_SUMMARIES,
    VerificationReport,
    report_csv,
    report_json,
    verify,
)
from .involutions import capital_phi, capital_psi, ldes_lind_bijection
from .permutations import (
    ldes,
    lind,
    lis_oracle,
    parse_permutation,
    sign_by_inversions,
)
from .tableaux import (
    TableauPair,
    TwoRowTableau,
    ballot_to_tableau,
    inverse_rsk,
    rsk,
    tableau_to_ballot,
)

ENV_OUTPUT_DIR = "SIGNBALANCE321_OUTPUT_DIR"

# The stats table: its header, then one row per statistic value, as CSV or
# as right-aligned text columns.
_STATS_COLUMNS = ("value", "count", "even", "odd", "signed")
_STATS_LINE = {"csv": "{},{},{},{},{}\n", "txt": "{:>6} {:>8} {:>8} {:>8} {:>8}\n"}


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")


def _report(args: argparse.Namespace, stem: str, render: Callable[[str], str]) -> None:
    """Print the report in the format the flags chose (``render`` maps the
    file extension to the document), and write the same bytes to the output
    directory, when one is set, as ``<stem>.<ext>``."""
    ext = "json" if args.json else "csv" if args.csv else "txt"
    document = render(ext)
    print(document, end="")
    out_dir = os.environ.get(ENV_OUTPUT_DIR)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{stem}.{ext}"), "w", encoding="utf-8") as fh:
            fh.write(document)


def _tableau_inline(t: TwoRowTableau) -> str:
    return str(t).rstrip("\n").replace("\n", " / ")


def _cmd_stats(args: argparse.Namespace) -> int:
    # The sign "statistic" has two values: +1 holds every even permutation,
    # -1 every odd one.
    by = "lis" if args.by == "sign" else args.by
    dist = signed_distribution(args.n, by, args.allow_large)
    if args.by == "sign":
        even, odd = map(sum, zip(*dist.rows.values()))
        counts = [(1, (even, 0)), (-1, (0, odd))]
    else:
        counts = sorted(dist.rows.items())
    rows = [(v, e + o, e, o, e - o) for v, (e, o) in counts]

    def render(ext: str) -> str:
        if ext == "json":
            doc_rows = [dict(zip(_STATS_COLUMNS, row)) for row in rows]
            doc = {"n": args.n, "statistic": args.by, "rows": doc_rows}
            return json.dumps(doc, indent=2, sort_keys=True)
        return "".join(_STATS_LINE[ext].format(*row) for row in (_STATS_COLUMNS, *rows))

    _report(args, f"stats-{args.by}-n{args.n}", render)
    return 0


def _verify_text(report: VerificationReport) -> str:
    lines = []
    for c in report.checks:
        line = f"{c.identity} n={c.n}: {'PASS' if c.passed else 'FAIL'}"
        if not c.passed:
            line += f"  lhs={json.dumps(c.lhs, sort_keys=True)}"
            line += f"  rhs={json.dumps(c.rhs, sort_keys=True)}"
            if c.counterexample:
                line += f"  counterexample: {c.counterexample}"
        lines.append(line)
    summary = "all checks passed" if report.passed else "FAILED"
    lines.append(f"{report.identity} up to n={report.n_max}: {summary}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify(
        args.identity, args.n_max, workers=args.workers, allow_large=args.allow_large
    )

    def render(ext: str) -> str:
        if ext == "json":
            return report_json(report) + "\n"
        return report_csv(report) if ext == "csv" else _verify_text(report)

    _report(args, f"verify-{args.identity}-n{args.n_max}", render)
    if report.passed:
        return 0
    failure = report.first_failure()
    if failure.counterexample:
        print(f"counterexample at n={failure.n}: {failure.counterexample}", file=sys.stderr)
    return 1


def _cmd_map(args: argparse.Namespace) -> int:
    if args.which != "psi" and args.d is not None:
        print("error: --d applies only to --which psi", file=sys.stderr)
        return 2
    if args.which in ("phi", "psi"):
        b = parse_ballot(args.input)
        if args.which == "phi":
            image = ballot_phi(b)
            if args.audit:
                print(f"epsilon: {epsilon(b)}")
        else:
            if args.d is None:
                print("error: --which psi requires --d", file=sys.stderr)
                return 2
            cls = classify(b)
            if cls.tag is BallotClassTag.A_STAR:
                image = ballot_psi(b, args.d)
                direction = "forward"
            elif cls.tag is BallotClassTag.B_STAR:
                image = ballot_psi_inverse(b, args.d)
                direction = "inverse"
            else:
                raise NotInDomain(
                    f"psi needs class A* or B*, got {cls.label} for {b}"
                )
            if args.audit:
                print(f"class: {cls.label}  delta: {delta(b)}  direction: {direction}")
        print(str(image))
        return 0
    w = parse_permutation(args.input)
    if args.which == "delshift":
        image = ldes_lind_bijection(w)
        print(str(image))
        if args.audit:
            print(f"ldes: {ldes(w)} -> lind: {lind(image)}")
        return 0
    outcome = capital_phi(w) if args.which == "Phi" else capital_psi(w)
    print(str(outcome.image))
    print(f"branch: {outcome.branch}")
    if args.audit:
        before = rsk(w)
        after = rsk(outcome.image)
        print(
            f"p: {tableau_to_ballot(before.insertion)} -> "
            f"{tableau_to_ballot(after.insertion)}"
        )
        print(
            f"q: {tableau_to_ballot(before.recording)} -> "
            f"{tableau_to_ballot(after.recording)}"
        )
        print(
            f"sign: {sign_by_inversions(w)} -> {sign_by_inversions(outcome.image)}"
        )
    return 0


def _cmd_rsk(args: argparse.Namespace) -> int:
    w = parse_permutation(args.perm)
    pair = rsk(w)
    print(f"P: {_tableau_inline(pair.insertion)}")
    print(f"Q: {_tableau_inline(pair.recording)}")
    return 0


def _cmd_unrsk(args: argparse.Namespace) -> int:
    p = parse_ballot(args.p)
    q = parse_ballot(args.q)
    pair = TableauPair(ballot_to_tableau(p), ballot_to_tableau(q))
    print(str(inverse_rsk(pair)))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for w in generate_Tn_ballot(args.n, args.allow_large):
        if args.lis is not None and lis_oracle(w) != args.lis:
            continue
        if args.ldes is not None and ldes(w) != args.ldes:
            continue
        if args.emit == "perms":
            print(w)
            continue
        pair = rsk(w)
        if args.emit == "ballots":
            print(tableau_to_ballot(pair.insertion), tableau_to_ballot(pair.recording))
        else:
            print(_tableau_inline(pair.insertion), _tableau_inline(pair.recording), sep="\t")
    return 0


@cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signbalance321",
        description="Statistics, tableau encodings, involutions, and exact "
        "sign-balance verification for 321-avoiding permutations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    stats = sub.add_parser("stats", help="distribution of a statistic over T_n")
    stats.add_argument("--n", type=int, required=True)
    stats.add_argument("--by", required=True, choices=("lis", "ldes", "lind", "sign"))
    _add_format_flags(stats)
    stats.add_argument("--allow-large", action="store_true")
    stats.set_defaults(handler=_cmd_stats)

    ver = sub.add_parser(
        "verify",
        help="verify a named identity exhaustively",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="labels:\n"
        + "\n".join(
            f"  {label}: {IDENTITY_SUMMARIES[label]}" for label in IDENTITY_LABELS
        ),
    )
    ver.add_argument("--identity", required=True, choices=IDENTITY_LABELS)
    ver.add_argument("--n-max", type=int, required=True)
    _add_format_flags(ver)
    ver.add_argument("--workers", type=int, default=1)
    ver.add_argument("--allow-large", action="store_true")
    ver.set_defaults(handler=_cmd_verify)

    mp = sub.add_parser("map", help="apply a map to a permutation or ballot string")
    mp.add_argument("--which", required=True, choices=("phi", "psi", "Phi", "Psi", "delshift"))
    mp.add_argument("--input", required=True)
    mp.add_argument("--d", type=int, default=None)
    mp.add_argument("--audit", action="store_true")
    mp.set_defaults(handler=_cmd_map)

    rk = sub.add_parser("rsk", help="insertion and recording tableaux of a permutation")
    rk.add_argument("perm")
    rk.set_defaults(handler=_cmd_rsk)

    un = sub.add_parser("unrsk", help="permutation of a ballot-encoded tableau pair")
    un.add_argument("--p", required=True)
    un.add_argument("--q", required=True)
    un.set_defaults(handler=_cmd_unrsk)

    en = sub.add_parser("enumerate", help="stream T_n, optionally filtered")
    en.add_argument("--n", type=int, required=True)
    en.add_argument("--lis", type=int, default=None)
    en.add_argument("--ldes", type=int, default=None)
    en.add_argument("--emit", choices=("perms", "ballots", "tableaux"), default="perms")
    en.add_argument("--allow-large", action="store_true")
    en.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
