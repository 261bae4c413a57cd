"""The operations of each workload, the independent references they are
checked against, and the checks themselves.

An operation is one call into zetasum's public surface: either
``zetasum.cli.main(argv)`` with stdout captured, or one public library
function.  Every operation has a check that compares its output with a
reference computed here with mpmath at REF_DPS digits, never with the
package's own code.  A check returns None when the output is correct and a
one-line reason otherwise.

zetasum is imported inside functions: run.py first puts the checkout's
src/ on the path, so that no other installed copy is measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from mpmath import mp, mpf

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ZEROS_FILE = ROOT / "data" / "zeros_10k.txt"

REF_DPS = 80
PRECISION = 50  # the package default, used everywhere
PRINT_SLACK = mpf(10) ** (2 - PRECISION)  # last printed digits of a value
TAIL_PRINT_REL = mpf("1e-7")  # tail bounds are printed to 8 digits
ZERO_MATCH = 1e-9 + 1e-12  # finder tolerance plus table accuracy

SERIES_EXACT_IDS = ("pochti", "log2", "addison", "vacca_dual", "dual_addison",
                    "pochtipochti", "p01")
STIELTJES_MAX = 8
LI_N = 10
HARDY_HEIGHTS = (50.0, 100.0, 150.0)  # layer probes of hardy_z


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  FULL is what the benchmark measures; the smoke test
    uses TINY-style sizes to exercise every code path quickly."""

    zeros_file: Path = ZEROS_FILE
    terms: Optional[int] = None  # None: each identity's own default N
    exact_terms: int = 100_002  # main_series(N) that stays on the exact path
    heights: tuple = (100.0, 150.0)
    gn: tuple = ((2, 1000), (3, 100))  # (n, K) of each gn operation
    count_checks: int = 200
    count_height: float = 1000.0


FULL = Sizes()


def height_label(h: float) -> str:
    return f"{h:g}"


# ---------------------------------------------------------------------------
# References


class References:
    """Values the operations are checked against, computed with mpmath at
    REF_DPS digits and the zero table read as plain text."""

    def __init__(self, zeros_file: Path):
        with mp.workdps(REF_DPS):
            g, pi, ln2 = +mp.euler, +mp.pi, mp.log(2)
            target = g - mp.log(4 * pi) + 2
            self.values = {
                "target": target,
                "gamma": g,
                "pochti": g - mp.log(pi) + ln2,
                "log2": mpf(3) / 4 - ln2,
                "ln4pi": mp.log(4 / pi),
                "ln2pi": mp.log(2 / pi),
                "pochtipochti": g - mp.log(pi) - 2 * ln2 + mpf(9) / 4,
                "p12_limit": (1 - ln2) / 2,
                "lambda_1": target / 2,
            }
        with open(zeros_file, encoding="utf-8") as fh:
            self.zeros = [num(s) for s in (ln.strip() for ln in fh)
                          if s and not s.startswith("#")]
        self.zero_floats = [float(z) for z in self.zeros]

    def stieltjes(self, m: int) -> mpf:
        key = f"stieltjes.{m}"
        if key not in self.values:
            with mp.workdps(REF_DPS):
                self.values[key] = mp.stieltjes(m)
        return self.values[key]

    def count_check(self, T: float) -> bool:
        """Independent Riemann-von Mangoldt comparison at height T."""
        count = bisect_right(self.zero_floats, T)
        with mp.workdps(REF_DPS):
            x = mpf(T) / (2 * mp.pi)
            est = x * mp.log(x) - x + mpf(7) / 8
            return abs(count - est) < 2


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    """One operation: run() returns its output, check(output) judges it."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    wraps: Optional[str] = None  # span name of the library call a CLI op wraps
    last: bool = False  # keep after the shuffled operations of a pass


def run_cli(argv) -> tuple:
    """zetasum.cli.main(argv) with stdout and stderr captured."""
    import zetasum.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = zetasum.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def num(text: str) -> mpf:
    """A printed number, read at the reference precision."""
    with mp.workdps(REF_DPS):
        return mpf(text)


def _within(value: mpf, ref: mpf, bound: mpf) -> bool:
    with mp.workdps(REF_DPS):
        return abs(value - ref) <= bound * (1 + TAIL_PRINT_REL) + PRINT_SLACK


def _expect_exit(result, code: int) -> Optional[str]:
    got, _, err = result
    if got != code:
        return f"exit code {got}, expected {code}: {err.strip()[:200]}"
    return None


def _json(result):
    return json.loads(result[1])


# identity -> (reference of route a, reference of route b, expected verdict)
VERIFY_REFS = {
    "pochti": ("pochti", "pochti", "pass"),
    "log2": ("log2", "log2", "pass"),
    "addison": ("gamma", "gamma", "pass"),
    "vacca_dual": ("ln4pi", "ln4pi", "pass"),
    "dual_addison": ("ln2pi", "ln2pi", "pass"),
    "pochtipochti": ("pochtipochti", "pochtipochti", "pass"),
    "p01": ("target", "target", "pass"),
    "itog": ("target", "target", "pass"),
    # p12 converges to (1 - ln 2)/2, not to the target: the expected
    # verdict is fail with exit code 1, and route a must still lie within
    # its bound of (1 - ln 2)/2
    "p12": ("p12_limit", "target", "fail"),
    "p0_zeros": ("target", "target", "pass"),
}


def verify_op(identity: str, refs: References, sizes: Sizes) -> Op:
    argv = ["verify", identity, "--format", "json"]
    if identity == "p0_zeros":
        argv += ["--zeros-file", str(sizes.zeros_file)]
    elif sizes.terms is not None:
        argv += ["--terms", str(sizes.terms)]
    ref_a, ref_b, verdict = VERIFY_REFS[identity]

    def check(result) -> Optional[str]:
        bad = _expect_exit(result, 0 if verdict == "pass" else 1)
        if bad:
            return bad
        doc = _json(result)
        if doc["identity"] != identity:
            return f"report for {doc['identity']!r}"
        if doc["verdict"] != verdict:
            return f"verdict {doc['verdict']}, expected {verdict}"
        for route, ref in zip(doc["routes"], (ref_a, ref_b)):
            if not _within(num(route["value"]), refs.values[ref],
                           num(route["tail_bound"])):
                return f"{route['label']} not within its tail bound of {ref}"
        return None

    return Op(f"verify.{identity}", lambda: run_cli(argv), check,
              wraps="criteria.verify_identity")


def stieltjes_op(m: int, refs: References) -> Op:
    from zetasum import special_series

    def run():
        return special_series.stieltjes(special_series.StieltjesRequest(m))

    def check(r) -> Optional[str]:
        if not _within(r.value().value, refs.stieltjes(m), r.tail_bound.value):
            return f"stieltjes({m}) not within its tail bound"
        return None

    return Op(f"stieltjes.{m}", run, check)


def zeros_check_op(name: str, path: Path, expected: Callable[[], list]) -> Op:
    argv = ["zeros", "check", str(path)]

    def check(result) -> Optional[str]:
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        want = expected()
        line = f"ok: {len(want)} ordinates, max {float(want[-1]):.6f}"
        if result[1].strip() != line:
            return f"printed {result[1].strip()!r}, expected {line!r}"
        return None

    return Op(f"zeros.check.{name}", lambda: run_cli(argv), check,
              wraps="zeta_zeros.load_zero_table")


def _read_ordinates(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [num(s) for s in (ln.strip() for ln in fh)
                if s and not s.startswith("#")]


def find_op(height: float, path: Path, refs: References) -> Op:
    argv = ["zeros", "find", "--height", height_label(height), "--output", str(path)]

    def check(result) -> Optional[str]:
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        want = [z for z in refs.zeros if z <= height]
        got = _read_ordinates(path)
        if len(got) != len(want):
            return f"{len(got)} zeros below {height:g}, expected {len(want)}"
        worst = max((abs(a - b) for a, b in zip(got, want)), default=0)
        if worst > ZERO_MATCH:
            return f"ordinate off the table by {float(worst):.3g}"
        return None

    return Op(f"zeros.find.{height_label(height)}", lambda: run_cli(argv), check,
              wraps="zeta_zeros.find_zeros")


def li_op(refs: References, sizes: Sizes) -> Op:
    argv = ["li", str(LI_N), "--zeros-file", str(sizes.zeros_file),
            "--format", "json"]

    def check(result) -> Optional[str]:
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        rows = _json(result)["lambda"]
        if [r["n"] for r in rows] != list(range(1, LI_N + 1)):
            return "wrong set of coefficients"
        first = rows[0]
        if not _within(num(first["value"]), refs.values["lambda_1"],
                       num(first["tail_bound"])):
            return "lambda_1 not within its tail bound of target/2"
        if not all(num(r["value"]) > 0 for r in rows):
            return "a lambda_n is not positive"
        return None

    return Op(f"li.{LI_N}", lambda: run_cli(argv), check,
              wraps="criteria.li_lambda")


def gn_op(n: int, k: int, sizes: Sizes) -> Op:
    argv = ["gn", str(n), "--zeros", str(k), "--zeros-file", str(sizes.zeros_file),
            "--format", "json"]

    def check(result) -> Optional[str]:
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        doc = _json(result)
        if (doc["n"], doc["zeros_used"]) != (n, k):
            return f"G_{doc['n']} over {doc['zeros_used']} zeros"
        if not num(doc["value"]) > 0:
            return f"G_{n} multisum not positive"
        return None

    return Op(f"gn.{n}", lambda: run_cli(argv), check,
              wraps="criteria.gn_multisum")


def count_check_op(i: int, T: float, table, refs: References) -> Op:
    """zero_count_check on the table ingested before the run, at height T."""
    from zetasum import zeta_zeros

    expected = refs.count_check(T)

    def check(got) -> Optional[str]:
        if got is not expected:
            return f"zero_count_check at T={T!r} gave {got}, expected {expected}"
        return None

    return Op(f"count_check.{i}", lambda: zeta_zeros.zero_count_check(table, T), check)


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    """A named list of operations.  ops(refs, sizes, rng, tmpdir) builds
    them; the seeded rng draws the count-check heights, and no size depends
    on it."""

    name: str
    why: str
    ops: Callable[..., list]
    # what a fresh interpreter runs after importing zetasum.cli to be set up
    setup_code: str = ""


def _series_exact(refs, sizes, rng, tmpdir):
    return [verify_op(i, refs, sizes) for i in SERIES_EXACT_IDS]


def _series_long(refs, sizes, rng, tmpdir):
    ops = [verify_op("itog", refs, sizes), verify_op("p12", refs, sizes)]
    return ops + [stieltjes_op(m, refs) for m in range(STIELTJES_MAX + 1)]


def _zeros_table(refs, sizes, rng, tmpdir):
    from zetasum import zeta_zeros

    table = zeta_zeros.load_zero_table(sizes.zeros_file)
    heights = [rng.uniform(1.0, sizes.count_height) for _ in range(sizes.count_checks)]
    ops = [
        zeros_check_op("table", sizes.zeros_file, lambda: refs.zeros),
        verify_op("p0_zeros", refs, sizes),
        li_op(refs, sizes),
    ]
    ops += [gn_op(n, k, sizes) for n, k in sizes.gn]
    ops += [count_check_op(i, T, table, refs) for i, T in enumerate(heights)]
    return ops


def _zeros_find(refs, sizes, rng, tmpdir):
    paths = [tmpdir / f"zeros_{height_label(h)}.txt" for h in sizes.heights]
    ops = [find_op(h, p, refs) for h, p in zip(sizes.heights, paths)]
    top = sizes.heights[-1]
    check = zeros_check_op("found", paths[-1],
                           lambda: [z for z in refs.zeros if z <= top])
    check.last = True  # it reads the file the last find writes
    return ops + [check]


_LOAD_TABLE = ("from zetasum.zeta_zeros import load_zero_table\n"
               "load_zero_table(sys.argv[2])\n")

WORKLOADS = {
    w.name: w for w in (
        Workload("series_exact",
                 "six digit series at 1e5 terms and p01: exact Fraction sums only, "
                 "no mpf continuation, psi loop or zeros",
                 _series_exact),
        Workload("series_long",
                 "verify itog (1e6 terms), verify p12 (1e4 psi terms) and Stieltjes "
                 "0..8: O(N) mpf loops, the mpf continuation and the psi kernels",
                 _series_long),
        Workload("zeros_table",
                 "reads the 1e4-zero table: CLI re-ingest, linear count_below and the "
                 "criteria zero sums; no Hardy Z",
                 _zeros_table, _LOAD_TABLE),
        Workload("zeros_find",
                 "computes zeros to heights 100 and 150 (the second needs a rescan) "
                 "and checks the file: Hardy Z and the sign-scan finder",
                 _zeros_find, _LOAD_TABLE),
    )
}


def pass_order(ops: list, rng: random.Random) -> list:
    """One pass: the operations in a seeded random order, the ones marked
    last kept at the end in their listed order."""
    free = [op for op in ops if not op.last]
    rng.shuffle(free)
    return free + [op for op in ops if op.last]


# ---------------------------------------------------------------------------
# Layer probes: single calls at fixed arguments, run in the traced run only


def _probe(name: str, args: list, call, reference, tol) -> Op:
    """Call call(arg) for each arg; each value must lie within tol(ref) of
    reference(arg)."""

    def run():
        return [call(a) for a in args]

    def check(values) -> Optional[str]:
        with mp.workdps(REF_DPS):
            for a, v in zip(args, values):
                ref = reference(a)
                if abs(v.value - ref) > tol(ref):
                    return f"{name}({a}) off its reference by {float(abs(v.value - ref)):.3g}"
        return None

    return Op(f"probe.{name}", run, check)


def probe_ops(refs: References, sizes: Sizes) -> list:
    from fractions import Fraction

    from zetasum import digit_series, numerics, special_series, zeta_zeros

    rel = lambda ref: PRINT_SLACK * abs(ref)  # the 10^(2-P) relative contract
    xs = [Fraction(40_000 + j, 8) for j in range(25)]  # x near 5000
    ns = [5000 + j for j in range(25)]

    def p12_ref(n):
        return mp.digamma(n) - (mp.loggamma(n + mpf(1) / 2) - mp.loggamma(n - mpf(1) / 2))

    def p01_ref(n):
        f = lambda q: (1 - (q - n) ** 2) / (2 * q * q * (q + 1) ** 2)
        return mp.quad(f, [n, n + 1])

    ops = [
        _probe("digamma", xs, lambda x: numerics.digamma(x),
               lambda x: mp.digamma(mpf(x.numerator) / x.denominator), rel),
        _probe("ln_gamma", xs, lambda x: numerics.ln_gamma(x),
               lambda x: mp.loggamma(mpf(x.numerator) / x.denominator), rel),
        _probe("polygamma", xs, lambda x: numerics.polygamma(2, x),
               lambda x: mp.polygamma(2, mpf(x.numerator) / x.denominator), rel),
        _probe("p12_term", ns, lambda n: special_series.p12_term(n), p12_ref, rel),
        _probe("p01_term", [1000 + j for j in range(5)],
               lambda n: special_series.p01_term(n), p01_ref, rel),
    ]
    ops += [_probe(f"hardy_z.{height_label(t)}", [t] * 3,
                   lambda t: zeta_zeros.hardy_z(t), lambda t: mp.siegelz(t),
                   lambda ref: PRINT_SLACK)
            for t in HARDY_HEIGHTS]

    def check_table(tables) -> Optional[str]:
        if any(len(t) != len(refs.zeros) for t in tables):
            return "ingested table has the wrong length"
        return None

    ops.append(Op("probe.load_zero_table",
                  lambda: [zeta_zeros.load_zero_table(sizes.zeros_file) for _ in range(3)],
                  check_table))

    def check_exact(r) -> Optional[str]:
        if not r.is_exact_rational():
            return f"main_series({sizes.exact_terms}) left the exact path"
        if not _within(r.value().value, refs.values["target"], r.tail_bound.value):
            return f"main_series({sizes.exact_terms}) not within its tail bound"
        return None

    ops.append(Op("probe.main_series",
                  lambda: digit_series.main_series(sizes.exact_terms), check_exact))
    return ops
