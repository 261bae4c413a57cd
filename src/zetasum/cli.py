"""Command-line surface: compute constants, run identity verifications,
manage zero tables, emit machine-readable reports.  The routes of
`constants` and `verify` live in criteria (`criteria.constants` and the
verifier's table); this module formats what they return.

argparse is the only place inputs are parsed, checked and dispatched: each
subcommand's parser (zeros has three: find, check and export; verify has
p0_zeros and one under the name of each series identity) names its handler
and holds only the flags that handler reads.  The flags can also
be set through environment variables with the ZETASUM_ prefix (e.g.
ZETASUM_PRECISION=30), each applying only where its flag exists.  The
variable's string is the flag's default, and argparse converts it with the
flag's own checked type, so a bad value is a usage error like a bad flag.
An explicit flag wins, and the variable is then not checked.

--zeros-file and --height, the two sources of zeros, exclude each other:
both flags, or both variables with neither flag, are a usage error, and
either flag given discards the other's variable unchecked.

Exit codes: 0 on pass, 1 on computational failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from mpmath import mp

from .numerics import DEFAULT_PRECISION, MIN_PRECISION
from .digit_series import SeriesResult
from .zeta_zeros import (
    MissedZeroError,
    ZeroTable,
    ZeroTableError,
    find_zeros,
    load_zero_table,
    write_zero_table,
)
from . import criteria

ENV_PREFIX = "ZETASUM_"
FORMATS = ("json", "csv", "text")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _env(name: str, default=None):
    """The ZETASUM_<name> variable's string, or default if unset or empty."""
    return os.environ.get(ENV_PREFIX + name) or default


def _checked(convert, ok, rule: str):
    """An argparse type: convert the text, then require ok(value).  argparse
    applies it to a flag's value and to a string default alike."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse: "invalid int value: 'abc'"
    return parse


_precision = _checked(int, lambda p: p >= MIN_PRECISION, f"must be >= {MIN_PRECISION}")
_positive = _checked(int, lambda n: n >= 1, "must be >= 1")
_height = _checked(float, lambda t: t > 0, "must be > 0")  # NaN fails too
_format = _checked(str, FORMATS.__contains__, "must be one of " + ", ".join(FORMATS))
_switch = _checked({"1": True, "0": False}.get, lambda on: on is not None, "must be 1 or 0")


class _ZeroSource(argparse.Action):
    """Store --zeros-file or --height and drop the other source's default,
    so that the flag given is the one source of zeros."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, "height" if self.dest == "zeros_file" else "zeros_file", None)
        setattr(namespace, self.dest, values)


def _add_flags(p, *names: str, required: tuple = ()):
    """Add the named flags to the parser or argument group p, each
    defaulting to its ZETASUM_ variable as it is now.  A flag in required
    must be given unless its variable is set."""
    table = {
        "precision": (_precision, _env("PRECISION", DEFAULT_PRECISION),
                      dict(help=f"working precision in decimal digits (>= {MIN_PRECISION})")),
        "terms": (_positive, _env("TERMS"), dict(help="series term count override")),
        "zeros-file": (None, _env("ZEROS_FILE"),
                       dict(action=_ZeroSource, help="path to a zero-ordinate table")),
        "height": (_height, _env("HEIGHT"), dict(
            action=_ZeroSource, help="compute zeros up to this ordinate instead of loading")),
        "format": (_format, _env("FORMAT", "text"), dict(metavar="{" + ",".join(FORMATS) + "}")),
        "no-tail-correction": (_switch, _env("NO_TAIL_CORRECTION", False), dict(
            action="store_true", help="skip density-based completion of zero sums")),
    }
    for name in names:
        kind, default, extra = table[name]
        # store_true takes no type argument, but argparse converts a string
        # default with the action's type all the same
        p.add_argument("--" + name, default=default, **extra,
                       required=name in required and default is None).type = kind


def _get_zeros(args) -> ZeroTable:
    """The --zeros-file table, else the zeros up to --height (default 100)."""
    if args.zeros_file:
        return load_zero_table(args.zeros_file, precision=args.precision)
    height = 100.0 if args.height is None else args.height
    return find_zeros(height)


# ---------------------------------------------------------------------------
# Report emission

def _route_dict(label: str, result: SeriesResult, digits: int) -> dict:
    return {
        "label": label,
        "value": result.value().to_decimal_string(digits),
        "terms": result.terms_used,
        "tail_bound": result.tail_bound.to_decimal_string(8),
    }


def _sign_dict(result: SeriesResult, digits: int) -> dict:
    """The value, whether the whole enclosure lies above zero, and the bound."""
    return {"value": result.value().to_decimal_string(digits),
            "positive": result.enclosure().lower.value > 0,
            "tail_bound": result.tail_bound.to_decimal_string(8)}


def _emit(args, rows: list, doc: dict, lines: list):
    """Print a report in the form --format selects: doc as JSON, the flat
    row dicts as CSV (header from the first row's keys), or the text lines."""
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        w = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# Commands, each taking the parsed namespace

def cmd_constants(args) -> int:
    p = args.precision
    N = args.terms or 100_000
    grouped = {name: [_route_dict(label, r, p) for label, r in rows]
               for name, rows in criteria.constants(N, p).items()}
    rows = [{"constant": name, **route} for name, group in grouped.items() for route in group]
    lines = []
    for name, group in grouped.items():
        lines.append(name)
        lines += [f"  {r['label']}: {r['value']}  (tail_bound={r['tail_bound']})" for r in group]
    doc = {"constants": [{"name": k, "routes": v} for k, v in grouped.items()]}
    _emit(args, rows, doc, lines)
    return EXIT_PASS


def cmd_verify(args) -> int:
    if args.identity == "p0_zeros":
        report = criteria.verify_identity(
            "p0_zeros", zeros=_get_zeros(args),
            with_tail_correction=not args.no_tail_correction, precision=args.precision)
    else:
        report = criteria.verify_identity(args.identity, terms=args.terms,
                                          precision=args.precision)
    routes = [_route_dict(label, r, args.precision)
              for label, r in (report.route_a, report.route_b)]
    discrepancy = report.discrepancy.to_decimal_string(8)
    tolerance = report.tolerance.to_decimal_string(8)
    doc = {"identity": report.identity_id, "routes": routes,
           "discrepancy": discrepancy, "tolerance": tolerance, "verdict": report.verdict}
    rows = [{"identity": report.identity_id, **r, "verdict": report.verdict} for r in routes]
    lines = [f"identity: {report.identity_id}",
             *(f"  {r['label']}: {r['value']}  "
               f"(terms={r['terms']}, tail_bound={r['tail_bound']})" for r in routes),
             f"  discrepancy: {discrepancy}",
             f"  tolerance:   {tolerance}",
             f"  verdict:     {report.verdict}"]
    _emit(args, rows, doc, lines)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_zeros_find(args) -> int:
    table = find_zeros(args.height)
    if args.output:
        write_zero_table(table, args.output)
        print(f"{len(table)} zeros up to t={args.height} -> {args.output}")
    else:
        for g in table.ordinates:
            print(mp.nstr(g, 15, strip_zeros=False))
    return EXIT_PASS


def cmd_zeros_check(args) -> int:
    try:
        table = load_zero_table(args.path)
    except ZeroTableError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"ok: {len(table)} ordinates, max {float(table.max_ordinate()):.6f}")
    return EXIT_PASS


def cmd_zeros_export(args) -> int:
    table = load_zero_table(args.path)
    if args.limit is not None:
        table = table.truncated(args.limit)
    write_zero_table(table, args.output)
    print(f"wrote {len(table)} ordinates -> {args.output}")
    return EXIT_PASS


def cmd_li(args) -> int:
    zeros = _get_zeros(args)
    rows, lines = [], []
    for n in range(1, args.n_max + 1):
        r = criteria.li_lambda(n, zeros, not args.no_tail_correction, args.precision)
        row = {"n": n, **_sign_dict(r, args.precision)}
        rows.append(row)
        lines.append(f"lambda_{n} = {row['value']}  [{'+' if row['positive'] else '-'}]  "
                     f"(zeros={r.terms_used}, tail_bound={row['tail_bound']})")
    _emit(args, rows, {"lambda": rows}, lines)
    return EXIT_PASS


def cmd_gn(args) -> int:
    zeros = _get_zeros(args)
    K = len(zeros) if args.k is None else args.k
    r = criteria.gn_multisum(args.n, zeros, K, args.precision)
    row = {"n": args.n, "zeros_used": K, **_sign_dict(r, args.precision)}
    _emit(args, [row], row,
          [f"G_{args.n} multisum over {K} zeros = {row['value']}  positive={row['positive']}"])
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetasum",
        description="High-precision evaluation of gamma - ln(4 pi) + 2 by "
                    "independent routes, with certified tail bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the core constants, two routes each")
    p.set_defaults(run=cmd_constants)
    _add_flags(p, "precision", "terms", "format")

    vsub = sub.add_parser("verify", help="compare two routes of a named identity") \
        .add_subparsers(dest="identity", required=True)
    # the nine series identities read the same flags: one parser under nine
    # names (argparse stores the name given) costs one parser build, not nine
    first, *others = (i for i in criteria.IDENTITY_IDS if i != "p0_zeros")
    p = vsub.add_parser(first, aliases=others, prog="zetasum verify ID")
    p.set_defaults(run=cmd_verify)
    _add_flags(p, "precision", "terms", "format")
    p = vsub.add_parser("p0_zeros")
    p.set_defaults(run=cmd_verify)
    _add_flags(p, "precision", "format", "no-tail-correction")
    _add_flags(p.add_mutually_exclusive_group(), "zeros-file", "height")

    zsub = sub.add_parser("zeros", help="find, check, or export zero tables") \
        .add_subparsers(dest="subcommand", required=True)
    p = zsub.add_parser("find", help="compute the zeros up to --height")
    p.add_argument("--output", help="output file (default: print the ordinates)")
    p.set_defaults(run=cmd_zeros_find)
    _add_flags(p, "height", required=("height",))
    p = zsub.add_parser("check", help="validate a zero table")
    p.add_argument("path", help="input table")
    p.set_defaults(run=cmd_zeros_check)
    p = zsub.add_parser("export", help="copy a zero table, optionally truncated")
    p.add_argument("path", help="input table")
    p.add_argument("--output", required=True, help="output file")
    p.add_argument("--limit", type=_positive, help="truncate export to this many zeros")
    p.set_defaults(run=cmd_zeros_export)

    p = sub.add_parser("li", help="Keiper-Li coefficients lambda_1..lambda_n")
    p.add_argument("n_max", type=_positive)
    p.set_defaults(run=cmd_li)
    _add_flags(p, "precision", "format", "no-tail-correction")
    _add_flags(p.add_mutually_exclusive_group(), "zeros-file", "height")

    p = sub.add_parser("gn", help="G_n multisum over the first K zeros")
    p.add_argument("n", type=int)
    p.add_argument("--zeros", dest="k", type=int, help="number of zeros K")
    p.set_defaults(run=cmd_gn)
    _add_flags(p, "precision", "format")
    _add_flags(p.add_mutually_exclusive_group(), "zeros-file", "height")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "zeros_file", None) and getattr(args, "height", None) is not None:
            parser.error(f"{ENV_PREFIX}ZEROS_FILE and {ENV_PREFIX}HEIGHT exclude each other; "
                         "give --zeros-file or --height")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (ValueError, FileNotFoundError) as exc:  # DomainError, ZeroTableError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MissedZeroError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
