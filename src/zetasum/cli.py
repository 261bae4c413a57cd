"""Command-line surface: compute constants, run identity verifications,
manage zero tables, emit machine-readable reports.

Exit codes: 0 on pass, 1 on computational failure, 2 on usage errors.
Every flag can also be set through an environment variable with the
ZETASUM_ prefix (e.g. ZETASUM_PRECISION=30); explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from mpmath import mpf

from .numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExtendedReal,
    ln2,
    ln_pi,
)
from .digit_series import (
    SeriesResult,
    gamma_addison,
    log4pi_alternating,
    log4pi_paired,
    log2_series,
    main_series,
)
from .special_series import StieltjesRequest, p01_integral, stieltjes
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

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    precision: int = DEFAULT_PRECISION
    terms: Optional[int] = None
    zeros_file: Optional[str] = None
    zeros_height: Optional[float] = None
    output_format: str = "text"
    tail_correction: bool = True

    def __post_init__(self):
        if self.precision < 15:
            raise DomainError("precision must be >= 15")
        if self.terms is not None and self.terms < 1:
            raise DomainError("terms must be >= 1")
        if self.zeros_height is not None and not self.zeros_height > 0:
            raise DomainError("height must be > 0")
        if self.output_format not in ("json", "csv", "text"):
            raise DomainError(f"unknown format {self.output_format!r}")


def _env(name: str) -> Optional[str]:
    return os.environ.get(ENV_PREFIX + name)


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--precision", type=int,
                   default=int(_env("PRECISION") or DEFAULT_PRECISION),
                   help="working precision in decimal digits (>= 15)")
    p.add_argument("--terms", type=int,
                   default=int(_env("TERMS")) if _env("TERMS") else None,
                   help="series term count override")
    p.add_argument("--zeros-file", default=_env("ZEROS_FILE"),
                   help="path to a zero-ordinate table")
    p.add_argument("--height", type=float,
                   default=float(_env("HEIGHT")) if _env("HEIGHT") else None,
                   help="compute zeros up to this ordinate instead of loading")
    p.add_argument("--format", dest="output_format",
                   choices=("json", "csv", "text"),
                   default=_env("FORMAT") or "text")
    p.add_argument("--no-tail-correction", action="store_true",
                   default=_env("NO_TAIL_CORRECTION") == "1",
                   help="skip density-based completion of zero sums")


def _config(args) -> RunConfig:
    return RunConfig(
        precision=args.precision,
        terms=args.terms,
        zeros_file=args.zeros_file,
        zeros_height=args.height,
        output_format=args.output_format,
        tail_correction=not args.no_tail_correction,
    )


def _get_zeros(config: RunConfig, default_height: float = 100.0) -> ZeroTable:
    if config.zeros_file:
        return load_zero_table(config.zeros_file, precision=config.precision)
    height = default_height if config.zeros_height is None else config.zeros_height
    return find_zeros(height, precision=config.precision)


# ---------------------------------------------------------------------------
# Report emission

def _route_dict(label: str, result: SeriesResult, digits: int) -> dict:
    return {
        "label": label,
        "value": result.value().to_decimal_string(digits),
        "terms": result.terms_used,
        "tail_bound": result.tail_bound.to_decimal_string(8),
    }


def _emit(config: RunConfig, rows: list, doc: dict, lines: list):
    """Print a report in the form --format selects: doc as JSON, the flat
    row dicts as CSV (header from the first row's keys), or the text lines."""
    if config.output_format == "json":
        print(json.dumps(doc, indent=2))
    elif config.output_format == "csv":
        w = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# Commands

def cmd_constants(config: RunConfig) -> int:
    p = config.precision
    N = config.terms or 100_000
    lp = log4pi_paired(N, precision=p)
    s = log2_series(N, precision=p)
    routes = [  # (constant, label, SeriesResult)
        ("gamma", "gamma_addison", gamma_addison(N, precision=p)),
        ("gamma", "stieltjes[0]", stieltjes(StieltjesRequest(0), p)),
        ("ln(4/pi)", "log4pi_paired", lp),
        ("ln(4/pi)", "log4pi_alternating", log4pi_alternating(2 * N + 1, precision=p)),
        ("ln 2", "3/4 - log2_series",
         SeriesResult(ExtendedReal.of(mpf(3) / 4, p) - s.value(p),
                      s.terms_used, s.tail_bound, "log2_series")),
        ("ln 2", "reference", criteria._const_route("reference", ln2(p), p)),
        ("ln pi", "2 ln 2 - log4pi_paired",
         SeriesResult(2 * ln2(p) - lp.value(p), lp.terms_used,
                      lp.tail_bound, "log4pi_paired")),
        ("ln pi", "reference", criteria._const_route("reference", ln_pi(p), p)),
        ("gamma - ln(4 pi) + 2", "main_series", main_series(N, precision=p)),
        ("gamma - ln(4 pi) + 2", "p01_integral", p01_integral(min(N, 2000), precision=p)),
    ]
    grouped: dict = {}
    for name, label, r in routes:
        grouped.setdefault(name, []).append(_route_dict(label, r, p))
    rows = [{"constant": name, **route} for name, group in grouped.items() for route in group]
    lines = []
    for name, group in grouped.items():
        lines.append(name)
        lines += [f"  {r['label']}: {r['value']}  (tail_bound={r['tail_bound']})" for r in group]
    doc = {"constants": [{"name": k, "routes": v} for k, v in grouped.items()]}
    _emit(config, rows, doc, lines)
    return EXIT_PASS


def cmd_verify(identity_id: str, config: RunConfig) -> int:
    zeros = None
    if identity_id == "p0_zeros":
        zeros = _get_zeros(config)
    report = criteria.verify_identity(
        identity_id,
        terms=config.terms,
        zeros=zeros,
        with_tail_correction=config.tail_correction,
        precision=config.precision,
    )
    routes = [_route_dict(label, r, config.precision)
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
    _emit(config, rows, doc, lines)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_zeros(subcommand: str, path: Optional[str], output: Optional[str],
              limit: Optional[int], config: RunConfig) -> int:
    if subcommand == "find":
        if config.zeros_height is None:
            raise DomainError("zeros find requires --height")
        table = find_zeros(config.zeros_height, precision=config.precision)
        if output:
            write_zero_table(table, output)
            print(f"{len(table)} zeros up to t={config.zeros_height} -> {output}")
        else:
            for g in table.ordinates:
                print(g.to_decimal_string(15))
        return EXIT_PASS
    if subcommand == "check":
        if not path:
            raise DomainError("zeros check requires a file argument")
        try:
            table = load_zero_table(path, precision=config.precision)
        except ZeroTableError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return EXIT_FAIL
        print(f"ok: {len(table)} ordinates, max {float(table.max_ordinate()):.6f}")
        return EXIT_PASS
    if subcommand == "export":
        src = path or config.zeros_file
        if not src or not output:
            raise DomainError("zeros export requires a source table and --output")
        table = load_zero_table(src, precision=config.precision)
        write_zero_table(table, output, limit=limit)
        n = limit if limit is not None else len(table)
        print(f"wrote {min(n, len(table))} ordinates -> {output}")
        return EXIT_PASS
    raise DomainError(f"unknown zeros subcommand {subcommand!r}")


def cmd_li(n_max: int, config: RunConfig) -> int:
    if n_max < 1:
        raise DomainError("li requires n_max >= 1")
    zeros = _get_zeros(config)
    rows, lines = [], []
    for n in range(1, n_max + 1):
        r = criteria.li_lambda(n, zeros, config.tail_correction, config.precision)
        row = {"n": n,
               "value": r.value().to_decimal_string(config.precision),
               "positive": r.value().value > 0,
               "tail_bound": r.tail_bound.to_decimal_string(8)}
        rows.append(row)
        lines.append(f"lambda_{n} = {row['value']}  [{'+' if row['positive'] else '-'}]  "
                     f"(zeros={r.terms_used}, tail_bound={row['tail_bound']})")
    _emit(config, rows, {"lambda": rows}, lines)
    return EXIT_PASS


def cmd_gn(n: int, k: Optional[int], config: RunConfig) -> int:
    zeros = _get_zeros(config)
    K = len(zeros) if k is None else k
    r = criteria.gn_multisum(n, zeros, K, config.precision)
    row = {"n": n, "zeros_used": K,
           "value": r.value().to_decimal_string(config.precision),
           "positive": r.value().value > 0,
           "tail_bound": r.tail_bound.to_decimal_string(8)}
    _emit(config, [row], row,
          [f"G_{n} multisum over {K} zeros = {row['value']}  positive={row['positive']}"])
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
    _add_common_flags(p)

    p = sub.add_parser("verify", help="compare two routes of a named identity")
    p.add_argument("identity", help="one of: " + ", ".join(criteria.IDENTITY_IDS))
    _add_common_flags(p)

    p = sub.add_parser("zeros", help="find, check, or export zero tables")
    p.add_argument("subcommand", choices=("find", "check", "export"))
    p.add_argument("path", nargs="?", help="input table (check/export)")
    p.add_argument("--output", help="output file")
    p.add_argument("--limit", type=int, help="truncate export to this many zeros")
    _add_common_flags(p)

    p = sub.add_parser("li", help="Keiper-Li coefficients lambda_1..lambda_n")
    p.add_argument("n_max", type=int)
    _add_common_flags(p)

    p = sub.add_parser("gn", help="G_n multisum over the first K zeros")
    p.add_argument("n", type=int)
    p.add_argument("--zeros", dest="k", type=int, help="number of zeros K")
    _add_common_flags(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = _config(args)
        if args.command == "constants":
            return cmd_constants(config)
        if args.command == "verify":
            return cmd_verify(args.identity, config)
        if args.command == "zeros":
            return cmd_zeros(args.subcommand, args.path, args.output,
                             args.limit, config)
        if args.command == "li":
            return cmd_li(args.n_max, config)
        if args.command == "gn":
            return cmd_gn(args.n, args.k, config)
        raise DomainError(f"unknown command {args.command!r}")
    except (DomainError, ZeroTableError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MissedZeroError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
