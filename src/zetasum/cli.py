"""Command-line surface: compute constants, run identity verifications,
manage zero tables, emit machine-readable reports.  The routes of
`constants` and `verify` live in criteria (`criteria.constants` and the
verifier's table); this module formats what they return.

Each subcommand's parser (zeros has three: find, check and export; verify
has p0_zeros and one under the name of each series identity) names its
handler and holds only the flags that handler reads.  The parser reads no
environment, so it is built once per process, on first use.

One rule fills the flags after parsing: a flag not given takes its
ZETASUM_ variable (e.g. ZETASUM_PRECISION=30), checked like the flag, or
else its default.  A variable applies only where its flag exists and
counts as unset when empty; a bad value is a usage error like a bad flag.
--zeros-file and --height, the two sources of zeros, exclude each other:
both flags, or both variables with neither flag, are a usage error, and a
zero-source flag given discards both variables unchecked.  `zeros find`
needs a height.

Exit codes: 0 on pass, 1 on computational failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from .numerics import DEFAULT_PRECISION, MIN_PRECISION
from .digit_series import SeriesResult
from .zeta_zeros import (
    MissedZeroError,
    ZeroTable,
    ZeroTableError,
    find_zeros,
    load_zero_table,
    table_rows,
    write_zero_table,
)
from . import criteria

ENV_PREFIX = "ZETASUM_"
FORMATS = ("json", "csv", "text")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _checked(convert, ok, rule: str):
    """A flag's type: convert the text, then require ok(value).  It checks a
    flag's value when argparse parses it and a ZETASUM_ variable's value
    when _fill reads it, with the same message."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


_precision = _checked(int, lambda p: p >= MIN_PRECISION, f"must be >= {MIN_PRECISION}")
_positive = _checked(int, lambda n: n >= 1, "must be >= 1")
_height = _checked(float, lambda t: t > 0, "must be > 0")  # NaN fails too
_format = _checked(str, FORMATS.__contains__, "must be one of " + ", ".join(FORMATS))
_switch = _checked({"1": True, "0": False}.get, lambda on: on is not None, "must be 1 or 0")

# flag -> (checked type, default, help and display); the variable is
# ZETASUM_ and the flag's name in capitals, with _ for -
_FLAGS = {
    "precision": (_precision, DEFAULT_PRECISION,
                  dict(help=f"working precision in decimal digits (>= {MIN_PRECISION})")),
    "terms": (_positive, None, dict(help="series term count override")),
    "zeros-file": (str, None, dict(help="path to a zero-ordinate table")),
    "height": (_height, None, dict(help="compute the zeros up to this ordinate; li, gn and "
                                       "verify p0_zeros given no table use 100")),
    "format": (_format, "text", dict(metavar="{" + ",".join(FORMATS) + "}")),
    "no-tail-correction": (_switch, False,
                           dict(help="skip density-based completion of zero sums")),
}
_SOURCES = ("zeros-file", "height")  # the sources of zeros, one at a time


def _fill(args) -> None:
    """Set each flag of the chosen subcommand that was not given to its
    ZETASUM_ variable, checked by the flag's type, or else to its default
    (see the module docstring), and apply the zero-source rule.  A usage
    error is reported by the subcommand's parser, as a bad flag is."""
    ns, error = vars(args), args.parser.error
    source_given = ns.get("zeros_file") is not None or ns.get("height") is not None
    for name, (kind, default, _) in _FLAGS.items():
        dest = name.replace("-", "_")
        if dest not in ns or ns[dest] is not None:
            continue
        var = ENV_PREFIX + dest.upper()
        text = None if source_given and name in _SOURCES else os.environ.get(var)
        try:
            ns[dest] = kind(text) if text else default
        except argparse.ArgumentTypeError as exc:
            error(f"argument --{name}: {exc}")
    if ns.get("zeros_file") and ns.get("height") is not None:
        error(f"{ENV_PREFIX}ZEROS_FILE and {ENV_PREFIX}HEIGHT exclude each other; "
              "give --zeros-file or --height")
    if "zeros_file" not in ns and "height" in ns and ns["height"] is None:
        error("the following arguments are required: --height")  # zeros find


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
            "positive": result.enclosure()[0] > 0,
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
    grouped = {name: [_route_dict(label, r, p) for label, r in rows]
               for name, rows in criteria.constants(args.terms, p).items()}
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
        for row in table_rows(table):
            print(row)
    return EXIT_PASS


def cmd_zeros_check(args) -> int:
    try:
        table = load_zero_table(args.path)
    except ZeroTableError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    top = f", max {float(table.max_ordinate()):.6f}" if len(table) else ""  # may be empty
    print(f"ok: {len(table)} ordinates{top}")
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
    lams = criteria.li_lambda(args.n_max, zeros, not args.no_tail_correction, args.precision)
    for n, r in enumerate(lams, start=1):
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

def _command(sub, name: str, run: str, *flags: str, **kw) -> argparse.ArgumentParser:
    """A subcommand parser with the named table flags, the zero sources in
    a mutually exclusive group.  A flag not given parses as None, for _fill
    to set; the parser keeps itself in the namespace for _fill's errors.
    main looks the handler up by the name run when it runs, so that a
    handler replaced in this module after the build (as a tracer does) is
    the one run."""
    p = sub.add_parser(name, **kw)
    p.set_defaults(run=run, parser=p)
    sources = p.add_mutually_exclusive_group() if "zeros-file" in flags else p
    for flag in flags:
        kind, _, shown = _FLAGS[flag]
        to = sources if flag in _SOURCES else p
        if kind is _switch:
            to.add_argument("--" + flag, action="store_true", default=None, **shown)
        else:
            to.add_argument("--" + flag, type=kind, **shown)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use; it
    reads no environment (main runs _fill after parsing), and callers must
    not change it."""
    parser = argparse.ArgumentParser(
        prog="zetasum",
        description="High-precision evaluation of gamma - ln(4 pi) + 2 by "
                    "independent routes, with certified tail bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "constants", "cmd_constants", "precision", "terms", "format",
             help="print the core constants, two routes each")

    vsub = sub.add_parser("verify", help="compare two routes of a named identity") \
        .add_subparsers(dest="identity", required=True)
    # the nine series identities read the same flags: one parser under nine
    # names (argparse stores the name given) costs one parser build, not nine
    first, *others = (i for i in criteria.IDENTITY_IDS if i != "p0_zeros")
    _command(vsub, first, "cmd_verify", "precision", "terms", "format",
             aliases=others, prog="zetasum verify ID")
    _command(vsub, "p0_zeros", "cmd_verify", "precision", "format", "no-tail-correction",
             "zeros-file", "height")

    zsub = sub.add_parser("zeros", help="find, check, or export zero tables") \
        .add_subparsers(dest="subcommand", required=True)
    p = _command(zsub, "find", "cmd_zeros_find", "height",
                 help="compute the zeros up to --height")
    p.add_argument("--output", help="output file (default: print the ordinates)")
    p = _command(zsub, "check", "cmd_zeros_check", help="validate a zero table")
    p.add_argument("path", help="input table")
    p = _command(zsub, "export", "cmd_zeros_export",
                 help="copy a zero table, optionally truncated")
    p.add_argument("path", help="input table")
    p.add_argument("--output", required=True, help="output file")
    p.add_argument("--limit", type=_positive, help="truncate export to this many zeros")

    p = _command(sub, "li", "cmd_li", "precision", "format", "no-tail-correction",
                 "zeros-file", "height", help="Keiper-Li coefficients lambda_1..lambda_n")
    p.add_argument("n_max", type=_positive)

    p = _command(sub, "gn", "cmd_gn", "precision", "format", "zeros-file", "height",
                 help="G_n multisum over the first K zeros")
    p.add_argument("n", type=int)
    p.add_argument("--zeros", dest="k", type=int, help="number of zeros K")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _fill(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return globals()[args.run](args)
    except (ValueError, OSError) as exc:  # DomainError, ZeroTableError; a file not read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MissedZeroError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
