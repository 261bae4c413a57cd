"""Binary-digit-count series.

All series here have exactly rational terms built from the number of zero
and one bits of the index.  Partial sums are accumulated exactly (as
ExactRational) up to a configurable term count and in fixed point beyond
it, returned as ExtendedReal; every result carries a certified tail bound,
which past the exact count also covers the fixed-point rounding.

Tail bound derivations (integral comparison, using N1(n) <= log2(n) + 1
and that each comparison function is decreasing for n >= 2):

* paired series, terms (N1 +- N0)/(2n(2n+1)):  |term| <= (log2 n + 1)/(4n^2),
  so the tail is at most (log2 N + 1)/(4N) + 1/(4 N ln 2) <= (log2 N + 3)/(4N).
* cubic-denominator series, terms c(n)/(2n(2n+1)(2n+2)) with
  c(n) <= a*log2(n) + b: tail <= (a*log2 N + b)/(16 N^2) + a/(32 ln2 N^2),
  rounded up to the simpler expressions used below.
* the alternating transcriptions have terms constant on dyadic blocks; the
  partial sums oscillate within the magnitude of one block pair, giving the
  bound (floor(log2 N) + 2)/N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Tuple, Union

from mpmath import mp, mpf, workdps

from .numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExactRational,
    ExtendedReal,
    Interval,
    _GUARD,
)

DEFAULT_EXACT_TERMS = 100_000

# Fraction bits of the fixed-point continuation beyond the working binary
# precision plus the bit length of its floor count: all floors together
# then lose less than 2^-(prec + 8).
_FIXED_GUARD_BITS = 8


@dataclass(frozen=True)
class DigitCounts:
    """Zero-bit and one-bit counts of a positive integer."""

    n0: int
    n1: int

    @property
    def total(self) -> int:
        return self.n0 + self.n1

    @property
    def difference(self) -> int:
        return self.n1 - self.n0


def digit_counts(m: int) -> DigitCounts:
    """Bit counts of the binary expansion of m >= 1."""
    if m < 1:
        raise DomainError(f"digit_counts requires m >= 1, got {m}")
    ones = m.bit_count()
    return DigitCounts(n0=m.bit_length() - ones, n1=ones)


@dataclass(frozen=True)
class SeriesResult:
    """Truncated series value with a certified bound on the omitted tail.

    The true value lies in [partial_sum - tail_bound, partial_sum +
    tail_bound]; when positive_terms is set, in [partial_sum,
    partial_sum + tail_bound].
    """

    partial_sum: Union[ExactRational, ExtendedReal]
    terms_used: int
    tail_bound: ExtendedReal
    series_id: str
    positive_terms: bool = False

    def __post_init__(self):
        if self.tail_bound.value < 0:
            raise DomainError("tail_bound must be nonnegative")

    def value(self, precision: int | None = None) -> ExtendedReal:
        if isinstance(self.partial_sum, ExtendedReal):
            return self.partial_sum
        p = precision or self.tail_bound.precision
        return ExtendedReal.of(self.partial_sum, p)

    def enclosure(self) -> Interval:
        v = self.value()
        if self.positive_terms:
            return Interval(v, v + self.tail_bound)
        return Interval(v - self.tail_bound, v + self.tail_bound)

    def is_exact_rational(self) -> bool:
        return isinstance(self.partial_sum, Fraction)


# ---------------------------------------------------------------------------
# Summation engine

TermFn = Callable[[int], Tuple[int, int]]


def _tree_sum(term: TermFn, lo: int, hi: int) -> Tuple[int, int]:
    """Exact sum of term(lo..hi) as an unnormalized (num, den) pair.

    Pairwise merging keeps the running denominator close to the lcm of the
    term denominators, which is dramatically cheaper than left-to-right
    accumulation for 10^5-term sums.
    """
    if hi - lo < 8:
        num, den = term(lo)
        for n in range(lo + 1, hi + 1):
            p, q = term(n)
            g = gcd(den, q)
            m = q // g
            num = num * m + p * (den // g)
            den = den * m
        return num, den
    mid = (lo + hi) // 2
    n1, d1 = _tree_sum(term, lo, mid)
    n2, d2 = _tree_sum(term, mid + 1, hi)
    g = gcd(d1, d2)
    m2 = d2 // g
    return n1 * m2 + n2 * (d1 // g), d1 * m2


def _sum_series(
    series_id: str,
    term: TermFn,
    first: int,
    last: int,
    tail_bound: mpf,
    offset: Fraction = Fraction(0),
    positive: bool = False,
    exact_limit: int = DEFAULT_EXACT_TERMS,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Sum term(first..last) + offset, exactly while the term count allows.

    The first exact_limit terms are summed as an exact Fraction.  The rest
    are summed in fixed point with B fraction bits: the exact prefix and
    every further term are floored to a multiple of 2^-B, so the integer
    sum is a rigorous lower end and the true partial sum is less than one
    2^-B per floor above it.  The result is converted to mpf rounding
    down, which loses less than one ulp of it.  Both widths are added to
    the returned tail_bound, so the enclosure covers all rounding.
    """
    with workdps(precision + _GUARD):
        bound = ExtendedReal(mpf(tail_bound), precision)
        n_terms = last - first + 1
        if n_terms <= 0:
            partial: Union[Fraction, ExtendedReal] = offset
            return SeriesResult(partial, 0, bound, series_id, positive)
        exact_last = min(last, first + exact_limit - 1)
        num, den = _tree_sum(term, first, exact_last)
        exact = Fraction(num, den) + offset
        if exact_last == last:
            return SeriesResult(exact, n_terms, bound, series_id, positive)
        floors = last - exact_last + 1
        B = mp.prec + floors.bit_length() + _FIXED_GUARD_BITS
        acc = (exact.numerator << B) // exact.denominator
        for n in range(exact_last + 1, last + 1):
            p, q = term(n)
            acc += (p << B) // q
        value = mp.ldexp(mpf(acc, rounding="f"), -B)
        ulps = floors + (1 << max(0, acc.bit_length() - mp.prec))
        bound = ExtendedReal(bound.value + mp.ldexp(ulps, -B), precision)
        return SeriesResult(ExtendedReal(value, precision), n_terms, bound, series_id, positive)


# ---------------------------------------------------------------------------
# Tail bounds


def _bound_alternating(N: int) -> mpf:
    return mpf(int(mp.floor(mp.log(N, 2))) + 2) / N


def _bound_paired(N: int) -> mpf:
    return (mp.log(N, 2) + 3) / (4 * N)


def _bound_cubic(N: int, a: int, b: int) -> mpf:
    # terms bounded by (a*log2 n + b)/(8 n^3)
    return (a * mp.log(N, 2) + b + 3 / mp.ln(2)) / (16 * N ** 2)


# ---------------------------------------------------------------------------
# The series


def gamma_vacca_alternating(
    N: int,
    exact_limit: int = DEFAULT_EXACT_TERMS,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Alternating digit transcription of the Vacca series; converges to
    Euler's gamma."""
    if N < 2:
        raise DomainError("gamma_vacca_alternating requires N >= 2")

    def term(n: int) -> Tuple[int, int]:
        half = n >> 1
        c = half.bit_length()  # N1 + N0 of floor(n/2)
        return (c if n % 2 == 0 else -c), n

    with workdps(precision + _GUARD):
        bound = _bound_alternating(N)
    return _sum_series("gamma_vacca_alternating", term, 2, N, bound,
                       exact_limit=exact_limit, precision=precision)


def log4pi_alternating(
    N: int,
    exact_limit: int = DEFAULT_EXACT_TERMS,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Alternating dual series; converges to ln(4/pi)."""
    if N < 2:
        raise DomainError("log4pi_alternating requires N >= 2")

    def term(n: int) -> Tuple[int, int]:
        half = n >> 1
        d = 2 * half.bit_count() - half.bit_length()  # N1 - N0
        return (d if n % 2 == 0 else -d), n

    with workdps(precision + _GUARD):
        bound = _bound_alternating(N)
    return _sum_series("log4pi_alternating", term, 2, N, bound,
                       exact_limit=exact_limit, precision=precision)


def gamma_paired(
    N: int,
    exact_limit: int = DEFAULT_EXACT_TERMS,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Pairwise-grouped Vacca series with positive terms; converges to
    Euler's gamma."""
    if N < 1:
        raise DomainError("gamma_paired requires N >= 1")

    def term(n: int) -> Tuple[int, int]:
        return n.bit_length(), 2 * n * (2 * n + 1)

    with workdps(precision + _GUARD):
        bound = _bound_paired(N)
    return _sum_series("gamma_paired", term, 1, N, bound, positive=True,
                       exact_limit=exact_limit, precision=precision)


def log4pi_paired(
    N: int,
    exact_limit: int = DEFAULT_EXACT_TERMS,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Pairwise-grouped dual series; converges to ln(4/pi)."""
    if N < 1:
        raise DomainError("log4pi_paired requires N >= 1")

    def term(n: int) -> Tuple[int, int]:
        return 2 * n.bit_count() - n.bit_length(), 2 * n * (2 * n + 1)

    with workdps(precision + _GUARD):
        bound = _bound_paired(N)
    return _sum_series("log4pi_paired", term, 1, N, bound,
                       exact_limit=exact_limit, precision=precision)


def gamma_addison(
    N: int,
    exact_limit: int = DEFAULT_EXACT_TERMS,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Accelerated digit series with cubic denominators; converges to
    Euler's gamma."""
    if N < 1:
        raise DomainError("gamma_addison requires N >= 1")

    def term(n: int) -> Tuple[int, int]:
        return n.bit_length(), 2 * n * (2 * n + 1) * (2 * n + 2)

    with workdps(precision + _GUARD):
        bound = _bound_cubic(N, 1, 1)
    return _sum_series("gamma_addison", term, 1, N, bound,
                       offset=Fraction(1, 2), positive=True,
                       exact_limit=exact_limit, precision=precision)


def log2pi_dual(
    N: int,
    exact_limit: int = DEFAULT_EXACT_TERMS,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Dual of the accelerated series; converges to ln(2/pi)."""
    if N < 1:
        raise DomainError("log2pi_dual requires N >= 1")

    def term(n: int) -> Tuple[int, int]:
        return 2 * n.bit_count() - n.bit_length(), 2 * n * (2 * n + 1) * (2 * n + 2)

    with workdps(precision + _GUARD):
        bound = _bound_cubic(N, 1, 1)
    return _sum_series("log2pi_dual", term, 1, N, bound,
                       offset=Fraction(-1, 2),
                       exact_limit=exact_limit, precision=precision)


def combined_pochti(
    N: int,
    exact_limit: int = DEFAULT_EXACT_TERMS,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Sum of the accelerated pair; all terms positive; converges to
    gamma - ln(pi) + ln(2)."""
    if N < 1:
        raise DomainError("combined_pochti requires N >= 1")

    def term(n: int) -> Tuple[int, int]:
        return 2 * n.bit_count(), 2 * n * (2 * n + 1) * (2 * n + 2)

    with workdps(precision + _GUARD):
        bound = _bound_cubic(N, 2, 2)
    return _sum_series("combined_pochti", term, 1, N, bound, positive=True,
                       exact_limit=exact_limit, precision=precision)


def log2_series(
    N: int,
    exact_limit: int = DEFAULT_EXACT_TERMS,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Telescoping-style cubic series; converges to 3/4 - ln 2."""
    if N < 1:
        raise DomainError("log2_series requires N >= 1")

    def term(n: int) -> Tuple[int, int]:
        return 1, 2 * n * (2 * n + 1) * (2 * n + 2)

    with workdps(precision + _GUARD):
        bound = mpf(1) / (16 * N ** 2)
    return _sum_series("log2_series", term, 1, N, bound, positive=True,
                       exact_limit=exact_limit, precision=precision)


def pochtipochti_series(
    N: int,
    exact_limit: int = DEFAULT_EXACT_TERMS,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Positive-term series converging to gamma - ln(pi) - 2 ln 2 + 9/4."""
    if N < 1:
        raise DomainError("pochtipochti_series requires N >= 1")

    def term(n: int) -> Tuple[int, int]:
        return 2 * n.bit_count() + 3, 2 * n * (2 * n + 1) * (2 * n + 2)

    with workdps(precision + _GUARD):
        bound = _bound_cubic(N, 2, 5)
    return _sum_series("pochtipochti_series", term, 1, N, bound, positive=True,
                       exact_limit=exact_limit, precision=precision)


def main_series(
    N: int,
    exact_limit: int = DEFAULT_EXACT_TERMS,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """The headline positive-term series, starting at n = 3; converges to
    gamma - ln(4 pi) + 2."""
    if N < 3:
        raise DomainError("main_series requires N >= 3")

    def term(n: int) -> Tuple[int, int]:
        return 2 * n.bit_count() + 3, 2 * n * (2 * n + 1) * (2 * n + 2)

    with workdps(precision + _GUARD):
        bound = _bound_cubic(N, 2, 5)
    return _sum_series("main_series", term, 3, N, bound, positive=True,
                       exact_limit=exact_limit, precision=precision)
