"""Binary-digit-count series.

All series here have exactly rational terms built from the number of zero
and one bits of the index.  Each public series function is generated from
one row of a spec table (_SPECS): its name, docstring, start index, term,
tail bound, rational offset and positivity.  Partial sums are accumulated
exactly (as ExactRational) up to a configurable term count and in fixed
point beyond it, returned as ExtendedReal; every result carries a certified
tail bound, which past the exact count also covers the fixed-point rounding.

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
from typing import Callable, NamedTuple, Tuple, Union

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


class _Spec(NamedTuple):
    """One digit series: sum of term(n) for n = first..N, plus offset.

    term(n) returns the exact term as an integer (numerator, denominator)
    pair; bound(N) is the certified bound on the tail beyond n = N,
    evaluated at the working precision.
    """

    name: str
    doc: str
    first: int
    term: TermFn
    bound: Callable[[int], mpf]
    offset: Fraction = Fraction(0)
    positive: bool = False


def _from_fixed(acc: int, B: int, floors: int) -> Tuple[mpf, mpf]:
    """acc * 2^-B as an mpf rounded down, and the rounding width: floors
    units of 2^-B lost by the floors that built acc, plus one ulp of the
    conversion, at the working precision."""
    value = mp.ldexp(mpf(acc, rounding="f"), -B)
    ulps = floors + (1 << max(0, acc.bit_length() - mp.prec))
    return value, mp.ldexp(ulps, -B)


def _sum_series(spec: _Spec, last: int, exact_limit: int, precision: int) -> SeriesResult:
    """Sum term(first..last) + offset, exactly while the term count allows.

    The first exact_limit terms are summed as an exact Fraction.  The rest
    are summed in fixed point with B fraction bits: the exact prefix and
    every further term are floored to a multiple of 2^-B, so the integer
    sum is a rigorous lower end and the true partial sum is less than one
    2^-B per floor above it.  The result is converted to mpf rounding
    down, which loses less than one ulp of it.  Both widths are added to
    the returned tail_bound, so the enclosure covers all rounding.
    """
    term, first = spec.term, spec.first
    with workdps(precision + _GUARD):
        bound = ExtendedReal(spec.bound(last), precision)
        n_terms = last - first + 1
        exact_last = min(last, first + exact_limit - 1)
        num, den = _tree_sum(term, first, exact_last)
        exact = Fraction(num, den) + spec.offset
        if exact_last == last:
            return SeriesResult(exact, n_terms, bound, spec.name, spec.positive)
        floors = last - exact_last + 1
        B = mp.prec + floors.bit_length() + _FIXED_GUARD_BITS
        acc = (exact.numerator << B) // exact.denominator
        for n in range(exact_last + 1, last + 1):
            p, q = term(n)
            acc += (p << B) // q
        value, width = _from_fixed(acc, B, floors)
        bound = ExtendedReal(bound.value + width, precision)
        return SeriesResult(ExtendedReal(value, precision), n_terms, bound, spec.name,
                            spec.positive)


def _series(spec: _Spec) -> Callable[..., SeriesResult]:
    """The public function summing spec's series from n = first to N."""

    def series(
        N: int,
        exact_limit: int = DEFAULT_EXACT_TERMS,
        precision: int = DEFAULT_PRECISION,
    ) -> SeriesResult:
        if N < spec.first:
            raise DomainError(f"{spec.name} requires N >= {spec.first}")
        if exact_limit < 1:
            raise DomainError(f"{spec.name} requires exact_limit >= 1, got {exact_limit}")
        return _sum_series(spec, N, exact_limit, precision)

    series.__name__ = series.__qualname__ = spec.name
    series.__doc__ = spec.doc
    return series


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
# The series.  Each term is one closure with its denominator written out,
# so that the summation loops make one Python call per term.

_SPECS = (
    _Spec("gamma_vacca_alternating",
          """Alternating digit transcription of the Vacca series; converges to
    Euler's gamma.""",
          2,
          # N1 + N0 of floor(n/2), signed by the parity of n
          lambda n: ((n >> 1).bit_length() * (-1 if n & 1 else 1), n),
          _bound_alternating),
    _Spec("log4pi_alternating",
          """Alternating dual series; converges to ln(4/pi).""",
          2,
          # N1 - N0 of floor(n/2), signed by the parity of n
          lambda n: ((2 * (n >> 1).bit_count() - (n >> 1).bit_length())
                     * (-1 if n & 1 else 1), n),
          _bound_alternating),
    _Spec("gamma_paired",
          """Pairwise-grouped Vacca series with positive terms; converges to
    Euler's gamma.""",
          1,
          lambda n: (n.bit_length(), 2 * n * (2 * n + 1)),
          _bound_paired, positive=True),
    _Spec("log4pi_paired",
          """Pairwise-grouped dual series; converges to ln(4/pi).""",
          1,
          lambda n: (2 * n.bit_count() - n.bit_length(), 2 * n * (2 * n + 1)),
          _bound_paired),
    _Spec("gamma_addison",
          """Accelerated digit series with cubic denominators; converges to
    Euler's gamma.""",
          1,
          lambda n: (n.bit_length(), 2 * n * (2 * n + 1) * (2 * n + 2)),
          lambda N: _bound_cubic(N, 1, 1), offset=Fraction(1, 2), positive=True),
    _Spec("log2pi_dual",
          """Dual of the accelerated series; converges to ln(2/pi).""",
          1,
          lambda n: (2 * n.bit_count() - n.bit_length(), 2 * n * (2 * n + 1) * (2 * n + 2)),
          lambda N: _bound_cubic(N, 1, 1), offset=Fraction(-1, 2)),
    _Spec("combined_pochti",
          """Sum of the accelerated pair; all terms positive; converges to
    gamma - ln(pi) + ln(2).""",
          1,
          lambda n: (2 * n.bit_count(), 2 * n * (2 * n + 1) * (2 * n + 2)),
          lambda N: _bound_cubic(N, 2, 2), positive=True),
    _Spec("log2_series",
          """Telescoping-style cubic series; converges to 3/4 - ln 2.""",
          1,
          lambda n: (1, 2 * n * (2 * n + 1) * (2 * n + 2)),
          lambda N: mpf(1) / (16 * N ** 2), positive=True),
    _Spec("pochtipochti_series",
          """Positive-term series converging to gamma - ln(pi) - 2 ln 2 + 9/4.""",
          1,
          lambda n: (2 * n.bit_count() + 3, 2 * n * (2 * n + 1) * (2 * n + 2)),
          lambda N: _bound_cubic(N, 2, 5), positive=True),
    _Spec("main_series",
          """The headline positive-term series, starting at n = 3; converges to
    gamma - ln(4 pi) + 2.""",
          3,
          lambda n: (2 * n.bit_count() + 3, 2 * n * (2 * n + 1) * (2 * n + 2)),
          lambda N: _bound_cubic(N, 2, 5), positive=True),
)

(gamma_vacca_alternating, log4pi_alternating, gamma_paired, log4pi_paired,
 gamma_addison, log2pi_dual, combined_pochti, log2_series, pochtipochti_series,
 main_series) = (_series(spec) for spec in _SPECS)
