"""Critical-line zeta machinery: Hardy Z evaluation, a Gram-point zero
finder whose zero count is proven by Rosser's rule and Turing's method in
Brent's explicit form, Illinois regula falsi refinement, external
zero-table ingestion, and the Riemann-von Mangoldt count check (a
cross-check on computed tables, the only check on ingested ones).

The count proof takes the signs of Z as given.  They come from the
Euler-Maclaurin evaluation at the scan precision, which carries no
certified error bound.

All zeros are represented by their positive ordinate gamma with the point
taken as 1/2 + i*gamma; every known zero in the supported height range lies
on the critical line, and this is the only representation the downstream
sums can use.  Reports built on these tables inherit that assumption.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from mpmath import mp, mpf, mpc, workdps

from .numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExtendedReal,
    _GUARD,
)

SUPPORTED_HEIGHT = 10_000.0
COUNT_CHECK_SLACK = 2.0


class MissedZeroError(RuntimeError):
    """A Gram block shows fewer sign changes of Z than Rosser's rule puts
    there, or a zero count disagrees with the Riemann-von Mangoldt
    estimate."""


class ZeroTableError(ValueError):
    """Malformed or inconsistent zero-table file."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ZeroTable:
    """Ordered positive ordinates of nontrivial zeros."""

    ordinates: tuple
    source: str  # "computed" | "ingested"
    claimed_accuracy: ExtendedReal

    def __post_init__(self):
        if self.source not in ("computed", "ingested"):
            raise DomainError(f"unknown zero-table source {self.source!r}")
        acc = self.claimed_accuracy.value
        if acc < 0 or (self.ordinates and acc >= self.ordinates[0].value):
            raise DomainError("claimed accuracy must be >= 0 and below the first ordinate")
        prev = mpf(0)
        for g in self.ordinates:
            v = g.value
            if v <= prev:
                raise DomainError("ordinates must be strictly increasing and positive")
            prev = v

    def __len__(self):
        return len(self.ordinates)

    def max_ordinate(self) -> mpf:
        if not self.ordinates:
            raise DomainError("empty zero table")
        return self.ordinates[-1].value

    def count_below(self, T) -> int:
        return bisect_right(self.ordinates, mpf(T), key=lambda g: g.value)

    def truncated(self, limit: int) -> "ZeroTable":
        return ZeroTable(self.ordinates[:limit], self.source, self.claimed_accuracy)

    @cached_property
    def inverse_cube_bound(self) -> mpf:
        """An upper bound on sum g^-3 over the ordinates, summed once per
        table in floats.  Each g is first cut to its top 53 bits, which is
        exact in a double and rounds g down, so g^-3 only grows; the three
        roundings of 1/(g g g) and the one of fsum, each at most 2^-53
        relative, are covered by the factor 1 + 2^-50."""
        cubes = []
        for g in self.ordinates:
            m, e = g.value.man_exp
            s = max(0, m.bit_length() - 53)
            gf = math.ldexp(m >> s, e + s)
            cubes.append(1 / (gf * gf * gf))
        return mpf(math.fsum(cubes)) * (1 + mpf(2) ** -50)


# ---------------------------------------------------------------------------
# Hardy Z via Euler-Maclaurin on the critical line

_lnn_cache: dict = {}
_em_coeff_cache: dict = {}


def _ln_table(N: int):
    """Cached (ln n, n^-1/2) pairs for 1..N at the current precision.

    Keyed by mp.prec: binary precisions 60 and 61 both read as dps 17.
    """
    tab = _lnn_cache.setdefault(mp.prec, [])
    for n in range(len(tab) + 1, N + 1):
        tab.append((mp.ln(n), 1 / mp.sqrt(n)))
    return tab


def _em_coefficient(k: int) -> mpf:
    """B_2k / (2k)!, cached per precision like _ln_table."""
    tab = _em_coeff_cache.setdefault(mp.prec, [])
    while len(tab) < k:
        j = 2 * (len(tab) + 1)
        tab.append(mp.bernoulli(j) / mp.factorial(j))
    return tab[k - 1]


def _zeta_half_raw(t: mpf) -> mpc:
    """zeta(1/2 + it) by Euler-Maclaurin with Bernoulli corrections."""
    s = mpc(mpf(1) / 2, t)
    # larger N buys faster-converging correction terms; the per-term ratio
    # is roughly ((2k + |s|) / 2 pi N)^2, and the smallest reachable term is
    # about exp(-(2 pi N - t)), so N must grow with both t and precision
    scale = max(3.0, 10 ** (mp.dps / 100))
    tf = float(t)
    N = max(12,
            int(tf / (2 * math.pi) * scale) + 8,
            int((mp.dps * 2.4 + tf) / (2 * math.pi)) + 4)
    tab = _ln_table(N)
    total = mpc(0, 0)
    for ln_n, rsqrt in tab[:N]:
        c, si = mp.cos_sin(t * ln_n)
        total += mpc(rsqrt * c, -rsqrt * si)
    Nf = mpf(N)
    lnN = tab[N - 1][0]
    n_pow_minus_s = mp.exp(-s * lnN)
    total += Nf * n_pow_minus_s / (s - 1)
    total -= n_pow_minus_s / 2
    # sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(1-s-2k)
    eps = mpf(10) ** (-(mp.dps - 2))
    poch = s  # s(s+1)...(s+2k-2) for the current k
    power = n_pow_minus_s / Nf  # N^(-s-2k+1) for the current k
    prev = None
    for k in range(1, 200):
        term = _em_coefficient(k) * poch * power
        total += term
        mag = abs(term)
        if mag < eps * abs(total):
            break
        if prev is not None and mag > prev:
            # asymptotic tail turned around: stop at the smallest term
            total -= term
            if prev > 1000 * eps * max(abs(total), mpf(1)):
                raise ArithmeticError(
                    "Euler-Maclaurin corrections bottom out above target accuracy")
            break
        prev = mag
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
        power = power / (Nf * Nf)
    return total


def _theta_raw(t: mpf) -> mpf:
    """Riemann-Siegel theta: Im lnGamma(1/4 + it/2) - (t/2) ln pi, with
    mpmath's principal-branch complex log-gamma (continuous in t > 0)."""
    return mp.loggamma(mpc(mpf(1) / 4, t / 2)).imag - t / 2 * mp.ln(mp.pi)


def _hardy_z_raw(t: mpf) -> mpf:
    z = _zeta_half_raw(t)
    theta = _theta_raw(t)
    c, si = mp.cos_sin(theta)
    return (mpc(c, si) * z).real


def hardy_z(t, precision: int = DEFAULT_PRECISION) -> ExtendedReal:
    """The real-valued Hardy Z function; its sign changes locate zeros."""
    tv = ExtendedReal.of(t, precision)
    if tv.value <= 0:
        raise DomainError("hardy_z requires t > 0")
    if tv.value > SUPPORTED_HEIGHT:
        raise DomainError(f"t={float(tv.value)} above supported height {SUPPORTED_HEIGHT}")
    with workdps(precision + _GUARD):
        return ExtendedReal(_hardy_z_raw(+tv.value), precision)


# ---------------------------------------------------------------------------
# Zero counting / scanning


def _rvm_estimate(T: mpf) -> mpf:
    x = T / (2 * mp.pi)
    return x * mp.ln(x) - x + mpf(7) / 8


def zero_count_check(table: ZeroTable, T) -> bool:
    """Compare the table's count of ordinates <= T against the smooth
    Riemann-von Mangoldt estimate; pass iff they differ by less than 2."""
    with workdps(30):
        t = mpf(T)
        est = _rvm_estimate(t)
        return abs(table.count_below(t) - est) < COUNT_CHECK_SLACK


REFINE_TOL = 1e-9  # width of a refined bracket, a computed table's claimed accuracy
REFINE_MAX_EVALS = 100


def _refine(z, lo: float, hi: float, z_lo: mpf, z_hi: mpf, tol: float) -> mpf:
    """Midpoint of a sign-change bracket of z inside [lo, hi] no wider than
    tol, by regula falsi with the Illinois modification (Dowell & Jarratt,
    BIT 11, 1971).

    Each secant point is clamped tol/4 inside the current bracket, so the
    bracket shrinks on every evaluation and closes once the secant estimate
    is within tol/4 of the zero.  Raises ArithmeticError if the bracket is
    still wider than tol after REFINE_MAX_EVALS evaluations.
    """
    a, b, fa, fb = mpf(lo), mpf(hi), z_lo, z_hi
    margin = mpf(tol) / 4
    moved = None  # the end that moved last: "a" or "b"
    for _ in range(REFINE_MAX_EVALS):
        if b - a <= tol:
            return (a + b) / 2
        m = b - fb * (b - a) / (fb - fa)
        m = min(max(m, a + margin), b - margin)
        fm = z(m)
        if (fa < 0) != (fm < 0):
            b, fb = m, fm
            if moved == "b":
                fa /= 2  # a stayed twice: halve its value (Illinois step)
            moved = "b"
        else:
            a, fa = m, fm
            if moved == "a":
                fb /= 2
            moved = "a"
    if b - a <= tol:
        return (a + b) / 2
    raise ArithmeticError(
        f"zero refinement in [{lo}, {hi}] did not reach width {tol} "
        f"in {REFINE_MAX_EVALS} evaluations")


GRAM_NEWTON_MAX = 12
BLOCK_SEARCH_EVALS = 24


def _gram_points():
    """Gram points (n, g_n) with theta(g_n) = n pi for n = -1, 0, 1, ...
    at the working precision; g_-1 ~ 9.667 is the larger root of
    theta = -pi.

    Each is found by Newton on _theta_raw with theta'(t) ~ ln(t/2pi)/2 -
    1/(48 t^2), started from the previous point plus 2 pi / ln(g/2pi), and
    stops once a step is below 2^(10 - prec) g.
    """
    ln_2pi = mp.ln(2 * mp.pi)
    rel = mpf(2) ** (10 - mp.prec)
    n, g = -1, mpf(10)
    while True:
        target = n * mp.pi
        for _ in range(GRAM_NEWTON_MAX):
            slope = (mp.ln(g) - ln_2pi) / 2 - 1 / (48 * g * g)
            step = (_theta_raw(g) - target) / slope
            g -= step
            if abs(step) <= rel * g:
                break
        yield n, g
        g += 2 * mp.pi / (mp.ln(g) - ln_2pi)
        n += 1


def _block_brackets(z, block: list) -> list:
    """Sign-change brackets (lo, hi, z(lo), z(hi)) of z in a Gram block,
    given as [(g, z(g)), ...] from one good Gram point to the next.

    Rosser's rule puts at least len(block) - 1 zeros in the block.  While
    fewer sign changes are seen, the interval whose end values are smallest
    for its width is halved; MissedZeroError is raised once
    BLOCK_SEARCH_EVALS evaluations per Gram interval are spent.
    """
    want = len(block) - 1
    pts, spent = list(block), 0
    while True:
        brackets = [(a, b, za, zb) for (a, za), (b, zb) in zip(pts, pts[1:])
                    if (za < 0) != (zb < 0)]
        if len(brackets) >= want:
            return brackets
        if spent == BLOCK_SEARCH_EVALS * want:
            raise MissedZeroError(
                f"Gram block [{float(block[0][0]):.6f}, {float(block[-1][0]):.6f}] "
                f"shows {len(brackets)} of the {want} sign changes Rosser's rule "
                f"puts there after {spent} evaluations")
        i = min(range(len(pts) - 1), key=lambda i: (
            (abs(pts[i][1]) + abs(pts[i + 1][1])) / (pts[i + 1][0] - pts[i][0])))
        t = (pts[i][0] + pts[i + 1][0]) / 2
        pts.insert(i + 1, (t, z(t)))
        spent += 1


def find_zeros(t_max, precision: int = DEFAULT_PRECISION) -> ZeroTable:
    """All zeros with ordinate in (0, t_max], found as sign changes of
    Hardy Z at and between the Gram points and refined by Illinois regula
    falsi, with their count proven by Turing's method.

    Z is evaluated once at each Gram point g_n.  A Gram interval whose ends
    obey Gram's law, (-1)^n Z(g_n) > 0, is one sign-change bracket; a run of
    failures makes a Gram block [g_j, g_k) between two good Gram points, in
    which Rosser's rule needs k - j sign changes, and the block is
    subdivided until they are seen (MissedZeroError if its budget runs out).
    The scan goes on past t_max for K Gram blocks, with K >= 0.0061 ln^2 g
    + 0.08 ln g at the last Gram point g.  Brent's theorem (Math. Comp. 33,
    1979) then gives N(g_m) <= m + 1 at the first good Gram point
    g_m >= t_max; the m + 1 brackets found below g_m each hold a zero, so
    they hold every zero there, each exactly once.  Only brackets below
    t_max are refined: one Z(t_max) says on which side of t_max the zero of
    a straddling bracket lies.

    Each ordinate is the midpoint of a bracket no wider than REFINE_TOL
    across which Z changes sign, and REFINE_TOL is the table's claimed
    accuracy.  Proven: the count, given the signs of Z.
    Not proven: the signs themselves, which rest on the Euler-Maclaurin
    evaluation at the scan precision without an error bound.  Brent's
    constants also rest on Lehman's bound for the integral of S(t), which
    is stated for heights above 168 pi ~ 528 and assumed below it.  The
    Riemann-von Mangoldt count check runs once, as a cross-check, and
    raises MissedZeroError if it fails.
    """
    t_max = float(t_max)
    if not t_max > 0:
        raise DomainError(f"t_max={t_max} must be > 0")
    if t_max > SUPPORTED_HEIGHT:
        raise DomainError(f"t_max={t_max} above supported height {SUPPORTED_HEIGHT}")
    # scanning precision only needs to resolve REFINE_TOL, not the caller's
    # reporting precision
    scan_dps = max(15, int(-math.log10(REFINE_TOL)) + 8)
    with workdps(scan_dps):
        z = _hardy_z_raw
        gram = _gram_points()
        _, g = next(gram)
        block = [(g, z(g))]
        below = []  # brackets of the Gram blocks that start below t_max
        past = 0  # Gram blocks from t_max on, each obeying Rosser's rule
        while True:
            n, g = next(gram)
            z_g = z(g)
            block.append((g, z_g))
            if not (z_g > 0 if n % 2 == 0 else z_g < 0):
                continue  # g_n breaks Gram's law, (-1)^n Z(g_n) > 0
            found = _block_brackets(z, block)
            start, block = block[0][0], [(g, z_g)]
            if start < t_max:
                below += found
                continue
            past += 1
            ln_g = math.log(g)
            if past >= 0.0061 * ln_g * ln_g + 0.08 * ln_g:
                break
        ordinates = []
        for lo, hi, z_lo, z_hi in below:
            if lo >= t_max:
                break
            if hi > t_max:
                hi = mpf(t_max)
                z_hi = z(hi)
                if (z_lo < 0) == (z_hi < 0):
                    break  # the zero lies above t_max
            ordinates.append(_refine(z, lo, hi, z_lo, z_hi, REFINE_TOL))
        table = ZeroTable(
            tuple(ExtendedReal(g, precision) for g in ordinates),
            "computed",
            ExtendedReal.of(REFINE_TOL, precision),
        )
        if not zero_count_check(table, t_max):
            raise MissedZeroError(
                f"zero count mismatch below t={t_max}: found {len(ordinates)}, "
                f"expected ~{float(_rvm_estimate(mpf(t_max))):.2f}")
        return table


# ---------------------------------------------------------------------------
# Ingestion / export


def load_zero_table(
    path,
    claimed_accuracy: float = 1e-10,
    precision: int = DEFAULT_PRECISION,
    count_check: bool = True,
) -> ZeroTable:
    """Parse a plain-text zero table: one ascending decimal ordinate per
    line, '#' comments and blank lines ignored."""
    ordinates = []
    prev = mpf(0)
    with workdps(precision + _GUARD):
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    value = mpf(text)
                except Exception:
                    raise ZeroTableError(f"cannot parse ordinate {text!r}", lineno) from None
                if value <= 0:
                    raise ZeroTableError(f"ordinate {text} not positive", lineno)
                if value <= prev:
                    raise ZeroTableError(
                        f"ordinate {text} not strictly increasing", lineno)
                ordinates.append(ExtendedReal(value, precision))
                prev = value
    table = ZeroTable(tuple(ordinates), "ingested", ExtendedReal.of(claimed_accuracy, precision))
    if count_check and ordinates:
        T = table.max_ordinate() + mpf(1) / 1000
        if not zero_count_check(table, T):
            raise ZeroTableError(
                f"count check failed: {len(table)} ordinates up to {float(T)} "
                f"vs estimate {float(_rvm_estimate(T)):.2f}")
    return table


TABLE_DIGITS = 15  # significant digits of each ordinate written to a table


def write_zero_table(table: ZeroTable, path, limit: int | None = None):
    """Write the table in the same plain-text format, the first `limit`
    ordinates only if a limit (>= 1) is given."""
    if limit is not None and limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    ords = table.ordinates[:limit] if limit is not None else table.ordinates
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {len(ords)} zeta-zero ordinates ({table.source}), "
                 f"accuracy {float(table.claimed_accuracy.value):.2e}\n")
        for g in ords:
            fh.write(mp.nstr(g.value, TABLE_DIGITS, strip_zeros=False) + "\n")
