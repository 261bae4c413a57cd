"""Binary-digit-count series.

All series here have exactly rational terms built from the number of one
bits s(n) and the bit length L(n) of the index.  Each public series
function is generated from one row of a spec table (_SPECS): its name,
docstring, start index, numerator, denominator, tail bound, rational offset
and positivity.  A row's numerator is w(n) = c s(n) + b L(n) + e, given as
the coefficients (c, b, e); its denominator is prod_{t<=k} (2n + t), given
by its partial fractions sum_t A_t/(2n + t): k = 1 for the paired rows,
1/(2n(2n+1)) = 1/(2n) - 1/(2n+1), and k = 2 for the cubic ones.  The two
alternating rows have terms w(floor(n/2)) (-1)^n / n, and each pair
n = 2m, 2m+1 folds onto the paired term w(m)/(2m(2m+1)).  The per-term
kernel and the block evaluator below both derive from the row.

exact_limit is the largest term count whose partial sum is returned
exactly, as a Fraction.  A sum of more terms is taken in fixed point
from the first index on and returned as an mpf; every result carries
a certified tail bound, which for a fixed-point sum also covers its
rounding and the Taylor remainders of the blocks.

Block continuation.  Past exact_limit the (folded) terms are summed over
aligned dyadic blocks n = x + r, x = a 2^j, 0 <= r < 2^j, with 2^j <= x/16:
at each index the largest such block that fits, or the single term where
there is none (n < 32, odd n, or a last index alone) or where the block
would not pay for its moments (_least_level): a block's Taylor degree D
grows with B, and its moment table with D^2, so blocks start at 2^8 to
2^12 at 30 to 80 digits and only at 2^20 at 1000 digits.  A sum up
to N thus takes O(log N) blocks, about 16 per octave and up to two per bit
length where the blocks ramp up from the first index and down to the last,
plus O(B^2 log B) single terms, in runs between them.  On a block
s(n) = s(a) + s(r) and L(n) = L(x), so w(n) = w0 + c s(r) with
w0 = c s(a) + b L(x) + e.  About the block's centre, rho = 2r - (2^j - 1)
and the integer y_t = 2x + 2^j - 1 + t give 1/(2n + t) = 1/(y_t + rho) =
sum_d (-rho)^d y_t^-(d+1).  As r -> 2^j - 1 - r sends rho and 2 s(r) - j
to their negatives, w = (2 w0 + c j + c (2 s(r) - j))/2 gives the block sum

    sum_{d<D} (-1)^d g_d S_j(d)/2 sum_t A_t y_t^-(d+1)

plus a remainder: g_d = 2 w0 + c j and S_j(d) = sum rho^d at even d,
g_d = c and S_j(d) = sum (2 s(r) - j) rho^d at odd d, over 0 <= r < 2^j
(the other two sums vanish).  The S_j(d) are exact integers, built by
doubling with shifts and additions (_moments) and kept for the rest of
the call.  For each t the d-sum is an integer over 2 y_t^D by Horner's rule.

Taylor remainder.  sum_t A_t (z + t)^-(D+1) is a k-th divided difference
of y^-(D+1), so the D-th Taylor coefficient of 1/prod(z + t) is at most
C(D+k, k) z^-(D+k+1) in absolute value.  As |rho| < 2^j and
y_0 - |rho| >= 2x >= 2^L(x), each term's remainder is at most
C(D+k, k) (2x)^-(k+1) (2^j/2x)^D <= C(D+k, k) 2^(-(k+1) L(x) - (q+1) D),
q = L(x) - 1 - j >= 4, one bit per degree more than about the first
index (r/x < 2^-q).  The block's is below W 2^j times that, W the largest
|w| on it; D, about B/(q+1), is the least degree that puts this below 2^-B.

Rounding.  The fixed point has B fraction bits: the working binary
precision plus the bit length of an a-priori floor count (k + 3 per
summed index, plus the offset and the end terms) plus _FIXED_GUARD_BITS.
The rational offset and every single term are floored to 2^-B; a block
floors each of its k + 1 partial-fraction sums and subtracts one unit for
its remainder, so it lies between its true sum and k + 3 units below it.
The integer sum is a rigorous lower end, less than floors units of 2^-B
below the true partial sum, floors counting 1 for the offset, 1 per single
term and k + 3 per block.  Converting it to mpf rounds down by less than
one ulp; both widths go into the tail_bound.

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
from functools import cache
from itertools import accumulate, chain, repeat
from math import comb, gcd, perm
from operator import lshift
from typing import Callable, NamedTuple, Tuple, Union

from mpmath import mp, mpf, workdps

from .numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExtendedReal,
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

    partial_sum is a Fraction or an mpf; the tail bound carries the
    precision the result was computed at.  The true value lies in
    [partial_sum - tail_bound, partial_sum + tail_bound]; when
    positive_terms is set, in [partial_sum, partial_sum + tail_bound].
    value() wraps the partial sum at the bound's precision, the one place a
    result's value is wrapped; enclosure() gives those ends as mpfs,
    rounded outward.
    """

    partial_sum: Union[Fraction, mpf]
    terms_used: int
    tail_bound: ExtendedReal
    series_id: str
    positive_terms: bool = False

    def __post_init__(self):
        if not self.tail_bound.value >= 0:  # NaN too
            raise DomainError("tail_bound must be nonnegative")
        if not (isinstance(self.partial_sum, Fraction) or mp.isfinite(self.partial_sum)):
            raise DomainError("partial_sum must be finite")  # a Fraction always is

    def value(self) -> ExtendedReal:
        return ExtendedReal(self.partial_sum, self.tail_bound.precision)

    def enclosure(self) -> tuple:
        """(lower, upper) as mpfs, rounded outward at the bound's precision
        plus _GUARD; the lower end is the value itself when positive_terms
        is set."""
        v, t = self.value().value, self.tail_bound
        with workdps(t.precision + _GUARD):
            lower = v if self.positive_terms else mp.fsub(v, t.value, rounding="f")
            return lower, mp.fadd(v, t.value, rounding="c")

    def is_exact_rational(self) -> bool:
        return isinstance(self.partial_sum, Fraction)


# ---------------------------------------------------------------------------
# Summation engine

TermFn = Callable[[int], Tuple[int, int]]


def _tree_sum(term: TermFn, lo: int, hi: int) -> Tuple[int, int]:
    """Exact sum of term(lo..hi) (0/1 if empty) as an unnormalized pair.

    Pairwise merging keeps the running denominator close to the lcm of the
    term denominators, which is dramatically cheaper than left-to-right
    accumulation for 10^5-term sums.
    """
    if hi - lo < 8:
        num, den = 0, 1
        for n in range(lo, hi + 1):
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

    The term is w(n)/prod_{t<=k} (2n + t) with w(n) = c s(n) + b L(n) + e,
    weights = (c, b, e), and den the partial-fraction residues A_0..A_k of
    the denominator; an alternating row's term is instead
    w(floor(n/2)) (-1)^n / n from an even first index, whose pairs
    n = 2m, 2m+1 sum to that form at m.  bound(N) is the certified bound on
    the tail beyond n = N, evaluated at the working precision.
    """

    name: str
    doc: str
    first: int
    weights: Tuple[int, int, int]
    den: Tuple[Fraction, ...]
    bound: Callable[[int], mpf]
    offset: Fraction = Fraction(0)
    positive: bool = False
    alternating: bool = False


def _kernel(spec: _Spec) -> TermFn:
    """spec's term in the w/prod(2n + t) form, which for an alternating row
    is the folded pair at m = n."""
    c, b, e = spec.weights
    k = len(spec.den) - 1

    def kernel(n):
        # perm(2n + k, k + 1) = 2n (2n + 1) ... (2n + k)
        return c * n.bit_count() + b * n.bit_length() + e, perm(2 * n + k, k + 1)

    return kernel


def _from_fixed(acc: int, B: int, floors: int) -> Tuple[mpf, mpf]:
    """acc * 2^-B as an mpf rounded down, and the rounding width: floors
    units of 2^-B lost by the floors that built acc, plus one ulp of the
    conversion, at the working precision."""
    value = mp.ldexp(mpf(acc, rounding="f"), -B)
    ulps = floors + (1 << max(0, acc.bit_length() - mp.prec))
    return value, mp.ldexp(ulps, -B)


def _moments(j: int, degree: int, table: list) -> list:
    """The centred moments S_j(0..degree) (and possibly more; see the
    module docstring), by doubling: r < 2^i is r' or 2^h + r' with
    r' < 2^h, h = i - 1, whose rho is rho' -+ 2^h and 2 s(r) - i is
    2 s(r') - h -+ 1.  The symmetry folds the first half onto the second:

        S_i(d) = 2 ((E + 2^h)^d X_h)(0),

    E the shift a(l) -> a(l+1), X_h = S_h at odd d and S_h with its odd
    degrees zeroed at even d.  The table of the (E + 2^h)^m a grows by one
    antidiagonal per degree, by shifts and additions alone; each level
    keeps its last two, so one more degree costs O(degree) per level.
    table[i] = (S, dX, dS) holds level i: S[d] = S_i(d) for d < len(S), and
    the antidiagonals that build it.  One table serves one _sum_series call,
    not a memo: at high precision its integers run to thousands of bits.
    """
    while len(table) <= j:
        table.append(([], [], []))
    for d in range(len(table[j][0]), degree + 1):
        for i in range(j + 1):
            S, dX, dS = table[i]
            if len(S) > d:
                continue
            if i == 0:  # r = 0 only, rho = 0
                S.append(int(d == 0))
                continue
            Sh, h = table[i - 1][0], i - 1
            # dX[m] = ((E + 2^h)^m X_h)(d - m): dX[m] plus 2^h times the
            # previous degree's dX[m] gives dX[m + 1]; likewise dS for S_h
            dX[:] = accumulate(chain((0 if d & 1 else Sh[d],), map(lshift, dX, repeat(h))))
            dS[:] = accumulate(chain((Sh[d],), map(lshift, dS, repeat(h))))
            S.append(2 * (dS if d & 1 else dX)[-1])
    return table[j][0]


@cache
def _least_level(k: int, L: int, prec: int) -> int:
    """The least block level j >= 1 such that every level from j to L - 5
    pays at bit length L, or L - 4 if L - 5 does not (no block there).

    A block of 2^j terms with q = L - 1 - j needs degree about
    D = (prec + j - (k + 1) L)/(q + 1) (see _block_sum), so about (k + 2) D
    big-integer steps, and the moment table up to level j about j D^2
    shift-adds, shared by all blocks up to that level.  With D taken over q,
    not q + 1, a level pays when j D^2 <= 2^(j + 8), 16 times the 2^(j + 4)
    terms of the 16 blocks of its octave: a shift-add costs a fraction of a
    term's floor division, and the table serves the blocks of every octave
    above as well.  Timed (BENCH_29.json): 2^(j + 10) and q + 1 won from 80
    digits up but not at 30 or 50 digits; 2^(j + 6) lost from 50 up.
    """
    least = max(1, L - 4)
    for j in range(L - 5, 0, -1):
        q = L - 1 - j
        D = max(1, -(-(prec + j - (k + 1) * L) // q))
        if j * D * D > 1 << (j + 8):
            break
        least = j
    return least


def _pieces(lo: int, hi: int, k: int, prec: int):
    """lo..hi as pieces (x, y, j): the block x..y = x + 2^j - 1 when j > 0,
    else the single indices x..y.  A block is the largest aligned one with
    2^j <= x/16 that starts at x and fits, taken when j is at least
    _least_level at L(x), a memo; otherwise the indices run singly up to
    the next multiple of 2^least (or the next octave, or hi)."""
    n = start = lo
    while n <= hi:
        L = n.bit_length()
        least = _least_level(k, L, prec)
        j = min((n & -n).bit_length(), L - 4, (hi - n + 1).bit_length()) - 1
        if j >= least:
            if start < n:
                yield start, n - 1, 0
            yield n, n + (1 << j) - 1, j
            n = start = n + (1 << j)
        else:
            n = min((n | ((1 << least) - 1)) + 1, 1 << L, hi + 1)
    if start <= hi:
        yield start, hi, 0


def _block_sum(spec: _Spec, x: int, j: int, B: int, table: list) -> int:
    """The kernel summed over the block x..x + 2^j - 1, in units of 2^-B:
    at most the true sum and less than k + 3 units below it (see the module
    docstring for the centred expansion and its remainder)."""
    c, b, e = spec.weights
    k = len(spec.den) - 1
    L = x.bit_length()
    w0 = c * (x >> j).bit_count() + b * L + e  # w(x + r) = w0 + c s(r)
    top = max(abs(w0), abs(w0 + c * j))  # |w| on the block, 0 <= s(r) <= j
    q = L - 1 - j
    # remainder * 2^B < top C(D+k, k) 2^(excess - (q + 1) D)
    excess = B + j - (k + 1) * L
    D = max(1, -(-excess // (q + 1)))
    while (top * comb(D + k, k)).bit_length() > (q + 1) * D - excess:
        D += 1
    S = _moments(j, D - 1, table)
    # (-1)^d g_d S_j(d), twice the degree-d coefficient
    coeffs = [(-c if d & 1 else 2 * w0 + c * j) * S[d] for d in range(D)]
    total = -1  # the remainder's unit
    for t, A in enumerate(spec.den):
        y = 2 * x + (1 << j) - 1 + t
        num = 0
        for cd in coeffs:
            num = num * y + cd
        total += (A.numerator * num << B) // (2 * A.denominator * y ** D)
    return total


def _sum_series(spec: _Spec, last: int, exact_limit: int, precision: int) -> SeriesResult:
    """Sum term(first..last) + offset, exactly while the term count allows.

    An alternating row first folds its pairs n = 2m, 2m+1 onto the kernel
    at m and takes an even last index alone; both paths then sum the
    kernel.  At most exact_limit terms are summed exactly and returned as a
    Fraction.  More are summed in fixed point with B fraction bits from
    first on, the offset floored to 2^-B: the O(log N) blocks of _pieces,
    each by _block_sum, and its runs of single terms, one floor each.
    Every floor and block remainder leaves the integer sum a rigorous
    lower end; the floor count (a block counting len(den) + 2, see the
    module docstring) and the ulp of the downward conversion to mpf go
    into the returned tail_bound, so the enclosure covers all rounding and
    truncation.
    """
    kernel = _kernel(spec)
    with workdps(precision + _GUARD):
        bound = ExtendedReal(spec.bound(last), precision)
        n_terms = last - spec.first + 1
        lo, hi, ends = spec.first, last, []
        if spec.alternating:
            # the pairs fold from the even first index; an even last index
            # n = 2m is left alone, its term w(m)/n
            if not hi & 1:
                ends.append((kernel(hi >> 1)[0], hi))
                hi -= 1
            lo, hi = lo >> 1, hi >> 1
        if n_terms <= exact_limit:
            exact = Fraction(*_tree_sum(kernel, lo, hi)) + spec.offset
            exact += sum(Fraction(p, q) for p, q in ends)
            return SeriesResult(exact, n_terms, bound, spec.name, spec.positive)
        k = len(spec.den) - 1
        # the offset and an end term take one floor each; a block of
        # 2^j >= 2 indices takes k + 3, at most that per index
        floors_max = 1 + len(ends) + (k + 3) * (hi - lo + 1)
        B = mp.prec + floors_max.bit_length() + _FIXED_GUARD_BITS
        acc = (spec.offset.numerator << B) // spec.offset.denominator
        floors = 1 + len(ends)
        moments = []  # _moments' table, for this call only
        for p, q in ends:
            acc += (p << B) // q
        for x, y, j in _pieces(lo, hi, k, mp.prec):
            if j:
                acc += _block_sum(spec, x, j, B, moments)
                floors += k + 3
            else:
                acc += sum((p << B) // q for p, q in map(kernel, range(x, y + 1)))
                floors += y - x + 1
        value, width = _from_fixed(acc, B, floors)
        bound = ExtendedReal(bound.value + width, precision)
        return SeriesResult(value, n_terms, bound, spec.name, spec.positive)


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
# The series.  Each row gives the numerator weights (c, b, e) on
# (s(n), L(n), 1) and the denominator's partial fractions over 2n + t.

# 1/(2n(2n+1)) = 1/(2n) - 1/(2n+1)
_PAIRED = (Fraction(1), Fraction(-1))
# 1/(2n(2n+1)(2n+2)) = (1/2)/(2n) - 1/(2n+1) + (1/2)/(2n+2)
_CUBIC = (Fraction(1, 2), Fraction(-1), Fraction(1, 2))

_SPECS = (
    _Spec("gamma_vacca_alternating",
          """Alternating digit transcription of the Vacca series; converges to
    Euler's gamma.""",
          # N1 + N0 of floor(n/2), signed by the parity of n
          2, (0, 1, 0), _PAIRED, _bound_alternating, alternating=True),
    _Spec("log4pi_alternating",
          """Alternating dual series; converges to ln(4/pi).""",
          # N1 - N0 of floor(n/2), signed by the parity of n
          2, (2, -1, 0), _PAIRED, _bound_alternating, alternating=True),
    _Spec("gamma_paired",
          """Pairwise-grouped Vacca series with positive terms; converges to
    Euler's gamma.""",
          1, (0, 1, 0), _PAIRED, _bound_paired, positive=True),
    _Spec("log4pi_paired",
          """Pairwise-grouped dual series; converges to ln(4/pi).""",
          1, (2, -1, 0), _PAIRED, _bound_paired),
    _Spec("gamma_addison",
          """Accelerated digit series with cubic denominators; converges to
    Euler's gamma.""",
          1, (0, 1, 0), _CUBIC, lambda N: _bound_cubic(N, 1, 1),
          offset=Fraction(1, 2), positive=True),
    _Spec("log2pi_dual",
          """Dual of the accelerated series; converges to ln(2/pi).""",
          1, (2, -1, 0), _CUBIC, lambda N: _bound_cubic(N, 1, 1), offset=Fraction(-1, 2)),
    _Spec("combined_pochti",
          """Sum of the accelerated pair; all terms positive; converges to
    gamma - ln(pi) + ln(2).""",
          1, (2, 0, 0), _CUBIC, lambda N: _bound_cubic(N, 2, 2), positive=True),
    _Spec("log2_series",
          """Telescoping-style cubic series; converges to 3/4 - ln 2.""",
          1, (0, 0, 1), _CUBIC, lambda N: mpf(1) / (16 * N ** 2), positive=True),
    _Spec("pochtipochti_series",
          """Positive-term series converging to gamma - ln(pi) - 2 ln 2 + 9/4.""",
          1, (2, 0, 3), _CUBIC, lambda N: _bound_cubic(N, 2, 5), positive=True),
    _Spec("main_series",
          """The headline positive-term series, starting at n = 3; converges to
    gamma - ln(4 pi) + 2.""",
          3, (2, 0, 3), _CUBIC, lambda N: _bound_cubic(N, 2, 5), positive=True),
)

(gamma_vacca_alternating, log4pi_alternating, gamma_paired, log4pi_paired,
 gamma_addison, log2pi_dual, combined_pochti, log2_series, pochtipochti_series,
 main_series) = (_series(spec) for spec in _SPECS)
