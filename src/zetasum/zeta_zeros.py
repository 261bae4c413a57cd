"""Critical-line zeta machinery: Hardy Z evaluation, sign-scan zero
finding with Illinois regula falsi refinement, external zero-table
ingestion, and the Riemann-von Mangoldt count check that guards against
missed zeros.

All zeros are represented by their positive ordinate gamma with the point
taken as 1/2 + i*gamma; every known zero in the supported height range lies
on the critical line, and this is the only representation the downstream
sums can use.  Reports built on these tables inherit that assumption.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from mpmath import mp, mpf, mpc, workdps

from .numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExtendedReal,
    _GUARD,
    _lngamma_raw,
)

SUPPORTED_HEIGHT = 10_000.0
COUNT_CHECK_SLACK = 2.0


class MissedZeroError(RuntimeError):
    """Zero count disagrees with the Riemann-von Mangoldt estimate."""


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


# ---------------------------------------------------------------------------
# Hardy Z via Euler-Maclaurin on the critical line

_lnn_cache: dict = {}


def _ln_table(N: int):
    """Cached (ln n, n^-1/2) pairs for 1..N at the current precision."""
    key = mp.dps
    tab = _lnn_cache.setdefault(key, [])
    for n in range(len(tab) + 1, N + 1):
        tab.append((mp.ln(n), 1 / mp.sqrt(n)))
    return tab


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
        term = mp.bernoulli(2 * k) / mp.factorial(2 * k) * poch * power
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
    """Riemann-Siegel theta: Im lnGamma(1/4 + it/2) - (t/2) ln pi."""
    return _lngamma_raw(mpc(mpf(1) / 4, t / 2)).imag - t / 2 * mp.ln(mp.pi)


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


def _density(t: float) -> float:
    return math.log(max(t, 7.0) / (2 * math.pi)) / (2 * math.pi)


def _scan_brackets(z, t_lo: float, t_hi: float, shrink: int = 1):
    """Sign-change brackets (lo, hi, z(lo), z(hi)) of z on [t_lo, t_hi]
    using a density-scaled grid."""
    brackets = []
    t = t_lo
    z_prev = z(mpf(t))
    while t < t_hi:
        step = min(1.0, 0.5 / max(_density(t), 0.05)) / shrink
        t_next = min(t + step, t_hi)
        z_next = z(mpf(t_next))
        if (z_prev < 0) != (z_next < 0):
            brackets.append((t, t_next, z_prev, z_next))
        t, z_prev = t_next, z_next
    return brackets


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


def find_zeros(
    t_max,
    refine_tol: float = 1e-9,
    precision: int = DEFAULT_PRECISION,
) -> ZeroTable:
    """All critical-line zeros with ordinate in (0, t_max], by a grid sign
    scan of Hardy Z and Illinois regula falsi on each sign-change bracket,
    validated against the Riemann-von Mangoldt count.

    Each ordinate is the midpoint of a bracket no wider than refine_tol
    across which Z changes sign.  On a failed count check the range is
    rescanned at a quarter of the grid step before giving up with
    MissedZeroError; a rescan bracket that strictly contains the whole
    refine_tol bracket of exactly one first-pass ordinate reuses that
    ordinate, and every other bracket is refined.
    """
    t_max = float(t_max)
    if not t_max > 0:
        raise DomainError(f"t_max={t_max} must be > 0")
    if t_max > SUPPORTED_HEIGHT:
        raise DomainError(f"t_max={t_max} above supported height {SUPPORTED_HEIGHT}")
    # scanning precision only needs to resolve refine_tol, not the caller's
    # reporting precision
    scan_dps = max(15, int(-math.log10(refine_tol)) + 8)
    with workdps(scan_dps):
        z = _hardy_z_raw
        t_lo = 5.0  # no zeros below the first ordinate 14.13...
        half_tol = refine_tol / 2
        ordinates = []
        for shrink in (1, 4):
            found, ordinates = ordinates, []
            for lo, hi, z_lo, z_hi in _scan_brackets(z, t_lo, t_max, shrink):
                # a first-pass ordinate alone in this bracket, with its whole
                # refine_tol bracket inside it, already marks its sign change
                i, j = bisect_right(found, lo), bisect_left(found, hi)
                if j - i == 1 and lo + half_tol < found[i] < hi - half_tol:
                    ordinates.append(found[i])
                else:
                    ordinates.append(_refine(z, lo, hi, z_lo, z_hi, refine_tol))
            table = ZeroTable(
                tuple(ExtendedReal(g, precision) for g in ordinates),
                "computed",
                ExtendedReal.of(refine_tol, precision),
            )
            if zero_count_check(table, t_max):
                return table
        raise MissedZeroError(
            f"zero count mismatch below t={t_max}: found {len(ordinates)}, "
            f"expected ~{float(_rvm_estimate(mpf(t_max))):.2f}")


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


def write_zero_table(table: ZeroTable, path, digits: int = 15, limit: int | None = None):
    """Write the table in the same plain-text format."""
    ords = table.ordinates[:limit] if limit is not None else table.ordinates
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {len(ords)} zeta-zero ordinates ({table.source}), "
                 f"accuracy {float(table.claimed_accuracy.value):.2e}\n")
        for g in ords:
            fh.write(mp.nstr(g.value, digits, strip_zeros=False) + "\n")
