"""Critical-line zeta machinery: Hardy Z evaluation, a Gram-point zero
finder whose zero count is proven by Rosser's rule and Turing's method in
Brent's explicit form, Anderson-Bjorck regula falsi refinement, zero tables
(plain data: mpf ordinates and one claimed accuracy) and their text form,
and the Riemann-von Mangoldt count check in doubles (a cross-check on
computed tables, the only check on ingested ones).

The count proof takes the signs of Z as given.  They come from the
Euler-Maclaurin evaluation at the scan precision, which carries no
certified error bound.  That evaluation runs in B-bit fixed point (Python
integers) from start to finish.  The main sum takes one cos_sin per prime,
on raw mpfs rounded to nearest, and one complex product per composite; it
is within 5 N log2(N) 2^-B of its value, given mpmath's ln and cos_sin to
a few ulps, and its term of n = N, within 5 log2(N) 2^-B, is the N^-s of
the Euler-Maclaurin tail.  The head N/(s-1) - 1/2 and the recurrence's
steps e, u and v_1 are each one floor of an integer quotient of t 2^B and
2^(2B)/(2 pi); main sum and tail together are within 2^(1-prec).  The
Bernoulli corrections are normalised by
B_2k/(2k)! = (-1)^(k+1) 2 zeta(2k)/(2 pi)^(2k), so that every quantity in
their recurrence is O(1).  Z is then one floor of
cos(theta) Re - sin(theta) Im, with theta's cos_sin rounded to nearest at
the working precision, and one rounding to nearest at it.

Doubles only choose where that Z is evaluated.  One regula falsi loop
serves both arithmetics.  The finder runs it in doubles on an
Euler-Maclaurin Z in complex doubles with a Stirling theta to predict
each zero, then evaluates the exact Z at the prediction plus and minus a
quarter of the refinement width: a hit leaves a sign change across half
that width, and only a miss is refined further, by the same loop in mpf.
One Newton step likewise finds each Gram point, first on theta in
doubles, then on the exact theta.  The doubles' Bernoulli and Stirling
coefficients are derived from the exact Bernoulli numbers of
numerics._bernoulli on first use, each fraction rounded once.

All zeros are represented by their positive ordinate gamma with the point
taken as 1/2 + i*gamma; every known zero in the supported height range lies
on the critical line, and this is the only representation the downstream
sums can use.  Reports built on these tables inherit that assumption.
"""

from __future__ import annotations

import codecs
import math
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction
from functools import cache, lru_cache
from itertools import count, repeat
from operator import itemgetter

from mpmath import mp, mpf, mpc, workdps, workprec
from mpmath.libmp import MPZ, fzero, list_primes, mpf_cos_sin, mpf_mul, pi_fixed, round_nearest

from .numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExtendedReal,
    _GUARD,
    _bernoulli,
)

SUPPORTED_HEIGHT = 10_000.0
COUNT_CHECK_SLACK = 2.0


class MissedZeroError(RuntimeError):
    """A Gram block shows fewer sign changes of Z than Rosser's rule puts
    there, or a zero count disagrees with the Riemann-von Mangoldt
    estimate."""


class ZeroTableError(DomainError):
    """A malformed zero table or zero-table file.  index is the position of
    the first ordinate out of order, line_number its line in the file."""

    def __init__(self, message: str, line_number: int | None = None, index: int | None = None):
        self.line_number, self.index = line_number, index
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ZeroTable:
    """Positive ordinates of nontrivial zeros, strictly increasing, as mpf
    values (of no precision of their own), and one claimed accuracy: each
    lies within it of its zero.  The constructor checks each once.

    The order check reads each ordinate's (sign, man, exp, bc) in exact
    integers.  An ordinate passes only with sign 0 and man > 0: mpmath
    gives zero, +-inf and NaN a mantissa of 0.  A positive man 2^exp, man
    of bc bits, lies in [2^(exp+bc-1), 2^(exp+bc)), so positives order by
    exp + bc, then by man aligned to the widest mantissa in the table,
    man 2^(width-bc): no shift is longer than that mantissa, however far
    apart the exponents are.  A ZeroTableError's index is the first
    ordinate that fails."""

    ordinates: tuple  # of mpf
    source: str  # "computed" | "ingested"
    claimed_accuracy: mpf

    def __post_init__(self):
        if self.source not in ("computed", "ingested"):
            raise DomainError(f"unknown zero-table source {self.source!r}")
        ords = self.ordinates
        width = max((g._mpf_[3] for g in ords), default=0)
        last = ()  # a tuple below every key
        for i, g in enumerate(ords):
            sign, man, exp, bc = g._mpf_
            key = exp + bc, man << width - bc
            if sign or not man or not key > last:
                raise ZeroTableError(f"ordinate {g} not above {ords[i - 1] if i else 0}", index=i)
            last = key
        first = self.ordinates[0] if self.ordinates else mp.inf
        if not 0 <= self.claimed_accuracy < first:
            raise DomainError("claimed accuracy must be >= 0 and below the first ordinate")

    def __len__(self):
        return len(self.ordinates)

    def max_ordinate(self) -> mpf:
        if not self.ordinates:
            raise DomainError("empty zero table")
        return self.ordinates[-1]

    def count_below(self, T) -> int:
        return bisect_right(self.ordinates, mpf(T))

    def truncated(self, limit: int) -> "ZeroTable":
        return ZeroTable(self.ordinates[:limit], self.source, self.claimed_accuracy)


# ---------------------------------------------------------------------------
# Hardy Z via Euler-Maclaurin on the critical line

@cache
def _prime_rows(limit: int, prec: int) -> list:
    """(p, ln p as a raw mpf, floor(2^prec / sqrt(p))) for the primes
    p <= limit, from mpmath's sieve, ln p rounded at binary precision prec:
    60 and 61 bits both read as dps 17, so the memo's key is the binary one."""
    with workprec(prec):
        return [(p, mp.ln(p)._mpf_, math.isqrt((1 << 2 * prec) // p))
                for p in list_primes(limit)]


def _prime_table(N: int) -> list:
    """The rows of _prime_rows for the primes p <= N at the current
    precision, cut from the table up to the power of two above N, so that
    nearby N share one memoised table."""
    rows = _prime_rows(1 << N.bit_length(), mp.prec)
    return rows[:bisect_right(rows, N, key=itemgetter(0))]


@cache
def _em_coefficient(j: int, B: int) -> int:
    """floor(2 zeta(2j) 2^B), memoised.  With it
    B_2j/(2j)! = (-1)^(j+1) 2 zeta(2j)/(2 pi)^(2j) is a number in
    (2, pi^2/3] times a power of 1/(2 pi) that the caller folds into its
    recurrence, so no coefficient is stored below 2^-B."""
    with workprec(B + 10):
        return _fixed((2 * mp.zeta(2 * j))._mpf_, B)


def _fixed(x: tuple, B: int) -> int:
    """The raw mpf x = (sign, man, exp, bc) times 2^B, truncated toward
    zero to an integer: int(mp.ldexp(mpf(x), B)) without building an mpf."""
    sign, man, exp, _ = x
    exp += B
    man = man << exp if exp >= 0 else man >> -exp
    return -man if sign else man


def _mul(x: tuple, y: tuple, B: int) -> tuple:
    """The product of two complex numbers held as pairs of B-bit fixed-point
    integers, each part floored: within sqrt(2) 2^-B of the exact product."""
    a, b = x
    c, d = y
    return (a * c - b * d) >> B, (a * d + b * c) >> B


def _main_sum(t: mpf, N: int, B: int) -> tuple:
    """sum_{n<=N} n^(-1/2-it) and the term N^(-1/2-it), as pairs of B-bit
    fixed-point integers, for a current precision of at least
    B + bitlen(floor(t ln N)) + 4 bits.

    n -> n^(-1/2-it) is completely multiplicative, so only the primes need
    a cos_sin: each prime term p^(-1/2) e^(-it ln p) is evaluated on raw
    mpfs at the current precision, rounded to nearest (the rounding of
    mp.cos_sin(t * ln_p), bit for bit), and cut to B bits.  Every other
    term is one complex product of the term of its largest prime factor p
    and the term of n/p, walking the tree of nondecreasing prime
    factorisations with only the current chain held; the term of N is
    recorded on the way, and is (2^B, 0) for N = 1.

    Rounding, taking mpmath's ln and cos_sin to be good to a few ulps: the
    phase t ln p is then within 2^-(B+3), so each prime term is within
    3 2^-B of its value in modulus.  Every term has modulus at most 1, so a
    product adds its factors' errors and one floor of sqrt(2) 2^-B; the
    term of n is within 5 Omega(n) 2^-B, and the sum within
    5 N log2(N) 2^-B.
    """
    W = mp.prec
    t = t._mpf_
    terms = []
    for p, ln_p, rsqrt in _prime_table(N):
        c, si = mpf_cos_sin(mpf_mul(t, ln_p, W, round_nearest), W, round_nearest)
        terms.append((p, rsqrt * _fixed(c, B) >> W, -(rsqrt * _fixed(si, B) >> W)))
    sr, si = 1 << B, 0  # the term of n = 1
    last = sr, si  # the term of n = N
    stack = [(1, 1 << B, 0, 0)]  # (n, its term, index of its largest prime)
    while stack:
        n, a, b, i = stack.pop()
        lim = N // n
        for j in range(i, len(terms)):
            p, x, y = terms[j]
            if p > lim:
                break
            c = (a * x - b * y) >> B
            d = (a * y + b * x) >> B
            sr += c
            si += d
            if p * p <= lim:
                stack.append((n * p, c, d, j))
            elif n * p == N:
                last = c, d
    return (sr, si), last


def _zeta_half_raw(t: mpf) -> tuple:
    """zeta(1/2 + it) by Euler-Maclaurin with Bernoulli corrections, as
    (re, im, B): a pair of B-bit fixed-point integers and
    B = prec + bitlen(N) + bitlen(bitlen(N)) + 4.

    zeta(s) = sum_{n<=N} n^-s + N^-s (N/(s-1) - 1/2 + sum_k c_k), with
    c_k = B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-2k) = (-1)^(k+1) 2 zeta(2k) v_k
    and v_k = s(s+1)...(s+2k-2) / (N^(2k-1) (2 pi)^(2k)).  The recurrence
    v_(k+1) = v_k f_(2k-1) f_(2k), f_j = (s + j)/(2 pi N), keeps every
    quantity O(1), where the raw B_2k/(2k)! would lose ~2k bits a step.
    N^-s multiplies the bracket, never a single correction.

    Only the prime phases of the main sum leave the integers.  N^-s is the
    main sum's own term of n = N.  The rest comes from T = t 2^B truncated
    (exact for every t of at most prec bits above 2^(prec-B)) and
    R = 2^(2B)/(2 pi) to within one unit: N/(s-1) - 1/2 =
    -N (1/2 + it)/(1/4 + t^2) - 1/2, e = 1/(2 pi N), u = t/(2 pi N) and
    v_1 = s/(N (2 pi)^2) are each one floor of an integer quotient, within
    2^-B (plus at most t 2^-2B from R) of its value at T.

    Rounding: the main sum is within 5 N log2(N) 2^-B and N^-s within
    5 Omega(N) 2^-B <= 5 log2(N) 2^-B (see _main_sum).  Times the bracket,
    at most 2N + 1 in modulus, N^-s adds at most 15 N log2(N) 2^-B, so the
    two stay below 20 N log2(N) 2^-B < 2^(1-prec).  Each step of the
    recurrence adds O(k) floors of 2^-B.  The corrections stop once a term
    N^-s c_k is below eps |total|, or at the smallest term once they turn
    around (ArithmeticError if that term is still above
    1000 eps max(|total|, 1)).
    """
    # the per-term ratio of the corrections is roughly ((2k + t)/(2 pi N))^2,
    # which N >= 3t/(2 pi) keeps below 1/9 at first; the smallest term is
    # about exp(-(2 pi N - (pi/2) t)), which the third entry puts near
    # 10^-(1.04 dps)
    tf = float(t)
    N = max(12,
            int(tf / (2 * math.pi) * 3) + 8,
            int((mp.dps * 2.4 + math.pi / 2 * tf) / (2 * math.pi)) + 4)
    L = N.bit_length()
    B = mp.prec + L + L.bit_length() + 4
    inv_eps2 = 10 ** (2 * (mp.dps - 2))  # 1/eps^2, eps = 10^-(dps-2)
    with workprec(B + int(tf * math.log(N)).bit_length() + 4):
        main, ns = _main_sum(t, N, B)
    T = _fixed(t._mpf_, B)
    R = (1 << 4 * B - 1) // pi_fixed(2 * B)  # 2^(2B)/(2 pi); pi_fixed(P) = floor(pi 2^P)
    D = T * T + (1 << 2 * B - 2)  # (1/4 + t^2) 2^(2B)
    bracket = -(N << 3 * B - 1) // D - (1 << B - 1), -(N * T << 2 * B) // D
    e, u = (R >> B) // N, (T * R >> 2 * B) // N
    v = (R * R >> 3 * B + 1) // N, (T * R * R >> 4 * B) // N

    def total_of(bracket):
        x, y = _mul(ns, bracket, B)
        return main[0] + x, main[1] + y

    total = total_of(bracket)
    prev = None
    for k in count(1):
        z = _em_coefficient(k, B) * (1 if k % 2 else -1)
        c = (z * v[0]) >> B, (z * v[1]) >> B
        with_c = bracket[0] + c[0], bracket[1] + c[1]
        total_c = total_of(with_c)
        mag = (c[0] ** 2 + c[1] ** 2) // N  # |N^-s c_k|^2, scaled by 2^2B
        if mag * inv_eps2 < total_c[0] ** 2 + total_c[1] ** 2:
            total = total_c
            break
        if prev is not None and mag > prev:
            # asymptotic tail turned around: stop at the smallest term
            if prev * inv_eps2 > 10 ** 6 * max(total[0] ** 2 + total[1] ** 2, 1 << 2 * B):
                raise ArithmeticError(
                    "Euler-Maclaurin corrections bottom out above target accuracy")
            break
        bracket, total, prev = with_c, total_c, mag
        v = _mul(v, ((4 * k - 1) * e >> 1, u), B)
        v = _mul(v, ((4 * k + 1) * e >> 1, u), B)
    return total[0], total[1], B


def _theta_raw(t: mpf) -> mpf:
    """Riemann-Siegel theta: Im lnGamma(1/4 + it/2) - (t/2) ln pi, with
    mpmath's principal-branch complex log-gamma (continuous in t > 0)."""
    return mp.loggamma(mpc(mpf(1) / 4, t / 2)).imag - t / 2 * mp.ln(mp.pi)


def _hardy_z_raw(t: mpf) -> mpf:
    """Z(t) = Re(e^(i theta) zeta(1/2 + it)) at the current precision prec:
    cos theta and sin theta rounded to nearest at prec and cut to B bits,
    one floor of (cos theta Re - sin theta Im) 2^-B, and one rounding to
    nearest at prec."""
    re, im, B = _zeta_half_raw(t)
    c, si = mpf_cos_sin(_theta_raw(t)._mpf_, mp.prec, round_nearest)
    z = _fixed(c, B) * re - _fixed(si, B) * im >> B
    return mp.ldexp(z, -B)


# ---------------------------------------------------------------------------
# Hardy Z in doubles: the finder's predictor, which decides nothing

@cache
def _float_coefficients() -> tuple:
    """theta's Stirling coefficients (1 - 2^(1-2k)) |B_2k| / (4k (2k-1)) for
    k = 1..6, and B_2k/(2k)! for k = 1..42, enough for the corrections of
    _hardy_z_float to fall below 1e-16 at every t up to SUPPORTED_HEIGHT:
    each an exact Fraction (numerics._bernoulli) rounded once to a double."""
    bernoulli = [_bernoulli(2 * k) for k in range(1, 43)]
    stirling = [(1 - Fraction(2, 4 ** k)) * abs(b) / (4 * k * (2 * k - 1))
                for k, b in enumerate(bernoulli[:6], 1)]
    return (tuple(map(float, stirling)),
            tuple(float(b / math.factorial(2 * k)) for k, b in enumerate(bernoulli, 1)))


def _theta_float(t: float) -> float:
    """Riemann-Siegel theta in doubles by its Stirling series
    t/2 ln(t/(2 pi)) - t/2 - pi/8 + 1/(48 t) + 7/(5760 t^3) + ..., six
    terms in 1/t: within 1e-13 + 1e-15 |theta(t)| of theta for
    g_-1 ~ 9.667 <= t <= SUPPORTED_HEIGHT (the seventh term is below 1e-15
    there, and the rest is rounding)."""
    x = 1 / t
    x2 = x * x
    series = 0.0
    for c in reversed(_float_coefficients()[0]):
        series = series * x2 + c
    return t / 2 * math.log(t / (2 * math.pi)) - t / 2 - math.pi / 8 + series * x


def _hardy_z_float(t: float) -> float:
    """Z(t) in complex doubles, for choosing where the exact Z is evaluated:
    Euler-Maclaurin as in _zeta_half_raw with N = floor(t/4) + 8, each
    n^-s a complex power, the corrections B_2k/(2k)! s(s+1)...(s+2k-2)
    N^(1-2k) taken until one is below 1e-16, and the rotation by
    _theta_float.  The phases t ln n and theta are rounded at up to
    t ln t, so the error grows with t: within 1e-13 + 5e-15 t of Z(t) for
    g_-1 ~ 9.667 <= t <= SUPPORTED_HEIGHT, measured, not proven."""
    N = int(t / 4) + 8
    s = complex(0.5, t)
    terms = list(map(pow, range(1, N + 1), repeat(-s)))
    tail = N / (s - 1) - 0.5
    w = s / N  # s(s+1)...(s+2k-2) N^(1-2k)
    for k, b in enumerate(_float_coefficients()[1], 1):
        c = b * w
        tail += c
        if abs(c) < 1e-16:
            break
        w *= (s + 2 * k - 1) * (s + 2 * k) / (N * N)
    zeta = sum(terms) + terms[-1] * tail
    theta = _theta_float(t)
    return math.cos(theta) * zeta.real - math.sin(theta) * zeta.imag


def hardy_z(t, precision: int = DEFAULT_PRECISION) -> ExtendedReal:
    """The real-valued Hardy Z function; its sign changes locate zeros."""
    tv = ExtendedReal(t, precision)
    if not tv.value > 0:  # NaN too
        raise DomainError("hardy_z requires t > 0")
    if tv.value > SUPPORTED_HEIGHT:
        raise DomainError(f"t={float(tv.value)} above supported height {SUPPORTED_HEIGHT}")
    with workdps(precision + _GUARD):
        return ExtendedReal(_hardy_z_raw(+tv.value), precision)


# ---------------------------------------------------------------------------
# Zero counting / scanning


def _rvm_estimate(T: float) -> float:
    x = T / (2 * math.pi)
    return x * (math.log(x) - 1) + 7 / 8  # inf, not nan, at T = inf


def zero_count_check(table: ZeroTable, T) -> bool:
    """Whether the table's count of ordinates <= T lies within 2 of the
    smooth Riemann-von Mangoldt estimate, in doubles; T must be > 0."""
    T = float(T)
    if not T > 0:
        raise DomainError(f"count check height T={T} must be > 0")
    return abs(table.count_below(T) - _rvm_estimate(T)) < COUNT_CHECK_SLACK


REFINE_TOL = 1e-9  # width of a refined bracket, a computed table's claimed accuracy
REFINE_MAX_EVALS = 100


def _regula_falsi(z, a, b, fa, fb):
    """Regula falsi on z with the Anderson-Bjorck modification (Anderson &
    Bjorck, BIT 13, 1973), from a bracket a < b across which z changes sign,
    in the arithmetic of the values given: mpf or doubles.

    A generator: before each evaluation it yields the bracket and its secant
    point (a, b, m), and it takes back by send the point x to evaluate, m or
    m moved by the caller.  x replaces the end at which z has its sign.  When
    the same end is replaced twice running, the value kept at the other end
    is scaled by g = 1 - z(x)/f, f the value x replaces, or by 1/2 when
    g <= 0 or f = 0 (a secant point that hit the zero exactly).  The caller
    decides when to stop."""
    t, f = [a, b], [fa, fb]
    moved = None  # the end replaced last: 0 for a, 1 for b
    while True:
        x = yield t[0], t[1], t[1] - f[1] * (t[1] - t[0]) / (f[1] - f[0])
        fx = z(x)
        i = int((f[0] < 0) != (fx < 0))  # the end x replaces
        if moved == i:
            g = 1 - fx / f[i] if f[i] else 0
            f[1 - i] *= g if g > 0 else 0.5
        t[i], f[i], moved = x, fx, i


def _refine(z, lo: float, hi: float, z_lo: mpf, z_hi: mpf, tol: float) -> mpf:
    """Midpoint of a sign-change bracket of z inside [lo, hi] no wider than
    tol, by _regula_falsi in mpf.

    Each secant point is clamped tol/4 inside the current bracket, so the
    bracket shrinks on every evaluation and closes once the secant estimate
    is within tol/4 of the zero.  Raises ArithmeticError if the bracket is
    still wider than tol after REFINE_MAX_EVALS evaluations.

    find_zeros passes the sub-bracket left by its two exact evaluations
    around a predicted zero: one no wider than tol when the prediction hit,
    returned with no evaluation, else the narrowed bracket of a miss.
    """
    margin = mpf(tol) / 4
    steps = _regula_falsi(z, mpf(lo), mpf(hi), z_lo, z_hi)
    a, b, m = next(steps)
    for _ in range(REFINE_MAX_EVALS):
        if b - a <= tol:
            break
        a, b, m = steps.send(min(max(m, a + margin), b - margin))
    if b - a <= tol:
        return (a + b) / 2
    raise ArithmeticError(
        f"zero refinement in [{lo}, {hi}] did not reach width {tol} "
        f"in {REFINE_MAX_EVALS} evaluations")


def _predict_zero(lo, hi, z_lo, z_hi) -> float:
    """Where the zero of a sign-change bracket of Z probably lies: the
    _regula_falsi secant points on _hardy_z_float, in doubles and with no
    clamp, from the exact end values, until two successive estimates agree
    to 1e-11; after REFINE_MAX_EVALS evaluations, the last point evaluated.
    The estimate decides nothing; it only says where to evaluate Z."""
    steps = _regula_falsi(_hardy_z_float, float(lo), float(hi), float(z_lo), float(z_hi))
    _, _, m = next(steps)
    x = None  # the last point evaluated
    for _ in range(REFINE_MAX_EVALS):
        if x is not None and abs(m - x) <= 1e-11:
            return m
        x = m
        _, _, m = steps.send(x)
    return x


GRAM_NEWTON_MAX = 12
BLOCK_SEARCH_EVALS = 24


def _gram_newton(theta, ln_over_2pi, x, target, rel):
    """Newton on theta(x) = target with theta'(x) ~ ln(x/2pi)/2 - 1/(48 x^2),
    ln(x/2pi) given by ln_over_2pi, in the arithmetic of x: until a step is
    at most rel x, or for GRAM_NEWTON_MAX steps."""
    for _ in range(GRAM_NEWTON_MAX):
        step = (theta(x) - target) / (ln_over_2pi(x) / 2 - 1 / (48 * x * x))
        x -= step
        if abs(step) <= rel * x:
            break
    return x


def _gram_points():
    """Gram points (n, g_n) with theta(g_n) = n pi for n = -1, 0, 1, ...
    at the working precision; g_-1 ~ 9.667 is the larger root of
    theta = -pi.

    Each is found by _gram_newton, started from the previous point plus
    2 pi / ln(g/2pi): first in doubles on _theta_float, until a step is
    below 1e-12 g, then in mpf on _theta_raw, until a step is below
    2^(10 - prec) g.  The double start is within ~1e-15 g, so the mpf stage
    usually stops after one evaluation; the point it returns is decided by
    _theta_raw alone.
    """
    ln_2pi = mp.ln(2 * mp.pi)
    rel = mpf(2) ** (10 - mp.prec)
    n, x = -1, 10.0
    while True:
        x = _gram_newton(_theta_float, lambda x: math.log(x / (2 * math.pi)), x,
                         n * math.pi, 1e-12)
        g = _gram_newton(_theta_raw, lambda g: mp.ln(g) - ln_2pi, mpf(x), n * mp.pi, rel)
        yield n, g
        x = float(g)
        x += 2 * math.pi / math.log(x / (2 * math.pi))
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


def find_zeros(t_max) -> ZeroTable:
    """All zeros with ordinate in (0, t_max], found as sign changes of
    Hardy Z at and between the Gram points and refined by Anderson-Bjorck
    regula falsi, with their count proven by Turing's method.

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

    Each bracket to refine first gets a predicted zero x from
    _predict_zero, in doubles, which decides nothing.  Z is then evaluated
    exactly at x -+ REFINE_TOL/4, x clamped REFINE_TOL/2 inside the
    bracket, and _refine gets the one of the three sub-brackets across
    which Z changes sign: when the prediction hit, the middle one, no wider
    than REFINE_TOL, which it returns with no evaluation; when it missed,
    an end one, which it narrows by regula falsi from there.  A miss costs
    those two evaluations; a prediction outside the bracket (or NaN) skips
    them.

    Each ordinate is the midpoint of a bracket no wider than REFINE_TOL
    across which Z changes sign, and REFINE_TOL is the table's claimed
    accuracy.  Every sign, bracket end and Gram point is decided in mpf.
    Proven: the count, given the signs of Z.
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
    # the scan precision only needs to resolve REFINE_TOL
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
        margin = mpf(REFINE_TOL) / 4
        for lo, hi, z_lo, z_hi in below:
            if lo >= t_max:
                break
            if hi > t_max:
                hi = mpf(t_max)
                z_hi = z(hi)
                if (z_lo < 0) == (z_hi < 0):
                    break  # the zero lies above t_max
            if hi - lo > REFINE_TOL:
                x = _predict_zero(lo, hi, z_lo, z_hi)
                if lo < x < hi:  # False for NaN
                    c = min(max(mpf(x), lo + 2 * margin), hi - 2 * margin)
                    pts = [(lo, z_lo), (c - margin, z(c - margin)),
                           (c + margin, z(c + margin)), (hi, z_hi)]
                    (lo, z_lo), (hi, z_hi) = next(
                        (p, q) for p, q in zip(pts, pts[1:]) if (p[1] < 0) != (q[1] < 0))
            ordinates.append(_refine(z, lo, hi, z_lo, z_hi, REFINE_TOL))
        table = ZeroTable(tuple(ordinates), "computed", mpf(REFINE_TOL))
        if not zero_count_check(table, t_max):
            raise MissedZeroError(
                f"zero count mismatch below t={t_max}: found {len(ordinates)}, "
                f"expected ~{_rvm_estimate(t_max):.2f}")
        return table


# ---------------------------------------------------------------------------
# Ingestion / export


# write_zero_table's first line; its group is the table's accuracy
_HEADER = (r"# \d+ zeta-zero ordinates \((?:computed|ingested)\), "
           r"accuracy (\d\.\d\de[+-]\d+)")

# largest |Decimal exponent| of a row in exponent form read in integers; it holds
# any row of <= 4,300 digits (int()'s limit) written with |exponent| <= 10,000,
# and keeps a short text such as 1e99999 from building a huge 10^k.  A row of
# digits and a point builds no 10^k longer than itself, so it has no cap
_EXACT_EXPONENT = 15_000


def _parse_ordinate(text: str, powers: dict) -> mpf:
    """text as an mpf rounded once to nearest, ties to even, at the working
    precision prec.

    A row of ASCII digits and a point (the form write_zero_table writes) is
    m / 10^k, k its fraction digits; powers caches (10^k, its bit length)
    per k, for one parse of a file only: 10^k is as long as the row, and a
    memo across parses would keep every file's powers alive, where
    load_zero_table's memo keeps only the tables.  Past int()'s 4,300-digit
    limit such a row, at any length, is its exact ratio m / den from
    decimal.Decimal, as is any other ASCII row without "_" that Decimal
    reads as finite, of exponent at most _EXACT_EXPONENT in magnitude.
    Then in integers: q = floor(m 2^s / den) has at least prec + 3 bits, its
    last bit set when the division leaves a remainder (a sticky bit, so no
    inexact quotient reads as a tie), and is rounded once to prec bits and
    shifted to an odd mantissa, mpmath's normal form.

    That is bit for bit mpf(text) while mpf(text) rounds once: while
    |E - j| <= 400, E the exponent and j the fraction digits short of
    trailing zeros.  Past that mpf(text) multiplies by a power of ten at
    prec + 10 bits and rounds twice; this rounds once.  Every other text
    goes to mpf(text): nan, inf, larger exponents, underscores, a/b."""
    whole, _, frac = text.partition(".")
    plain = whole.isdigit() and frac.isdigit() and text.isascii()
    m = None
    if plain:
        try:
            m = int(whole + frac)
        except ValueError:  # past int()'s digit limit: Decimal reads the row
            pass
    if m is not None:
        sign, k = 0, len(frac)
        power = powers.get(k)
        if power is None:
            den = 10 ** k
            power = powers[k] = den, den.bit_length()
        den, den_bits = power
    else:
        d = Decimal(text, Context(traps=[]))  # NaN, not an exception, for junk
        if not (plain or text.isascii() and "_" not in text and d.is_finite()
                and abs(d.as_tuple().exponent) <= _EXACT_EXPONENT):
            return mpf(text)
        # copy_abs, not abs: abs rounds to the context's 28 digits
        sign, (m, den) = int(d.is_signed()), d.copy_abs().as_integer_ratio()
        den_bits = den.bit_length()
    if not m:
        return mp.make_mpf(fzero)  # mpmath has no -0
    prec = mp.prec
    s = max(0, prec + 3 + den_bits - m.bit_length())
    q, r = divmod(m << s, den)
    if r:
        q, s = q << 1 | 1, s + 1
    shift = q.bit_length() - prec
    # adding half an ulp less one, plus the lowest kept bit, rounds up
    # exactly when the dropped bits exceed half an ulp, or equal it with
    # that bit odd: to nearest, ties to even
    q = q + (1 << shift - 1) - 1 + (q >> shift & 1) >> shift
    if not q & 1:
        zeros = (q & -q).bit_length() - 1
        q >>= zeros
        shift += zeros
    return mp.make_mpf((sign, MPZ(q), shift - s, q.bit_length()))


# tables the ingest memo holds, least recently used dropped first.  A pass of
# the benchmark's zeros workload loads one table at one precision six times
# (one parse, five hits); the test suite makes 149 loads and 38 hits, and an
# unbounded memo would make 39 hits and hold 91 tables.  The shipped table
# takes ~2.5 MB at 50 digits, ~4 MB at 320
_TABLES_HELD = 4

# the largest double: the count check and the zero sums read ordinates in
# doubles, so a finite row above it is named by its line
_DOUBLE_MAX = mpf(sys.float_info.max)


def load_zero_table(
    path,
    claimed_accuracy: float | None = None,
    precision: int = DEFAULT_PRECISION,
) -> ZeroTable:
    """Parse a plain-text zero table at precision + _GUARD digits: one
    ascending decimal ordinate per line, '#' comments and blank lines
    ignored; lines end in LF, CRLF or CR, and a leading UTF-8 byte-order
    mark is skipped.  Each row is rounded once to nearest at that precision
    by exact integer division (_parse_ordinate): a row of digits and a
    point (past int()'s limit too), and any other form decimal.Decimal
    reads, signed or in exponent form; nan, inf and other text go to
    mpf(row).  The claimed accuracy, unless given, is the one
    stated by a first line in write_zero_table's form, else 1e-10.  A
    ZeroTableError names the line of the first bad ordinate (not UTF-8;
    unparsable, shown to 60 characters; finite but above the largest
    double; not positive and finite; or not above the one before); one is
    raised too if the count fails zero_count_check.

    The file is read whole, and the table is memoised on its bytes and the
    two other arguments, so a process that loads one file again gets the
    same ZeroTable (it is immutable) without parsing it again, and a file
    rewritten in place is parsed afresh.  Errors are not memoised, and the
    memo holds at most _TABLES_HELD tables, the least recently used dropped
    first.  A one-shot CLI call loads its table once and gains nothing."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _ingest(data, claimed_accuracy, precision)  # positional: one key per call


@lru_cache(maxsize=_TABLES_HELD)
def _ingest(data: bytes, claimed_accuracy, precision) -> ZeroTable:
    """load_zero_table on the file's bytes; a pure function of its arguments."""
    ordinates, line_numbers, header, powers = [], [], None, {}
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    with workdps(precision + _GUARD):
        for lineno, raw in enumerate(data.splitlines(), start=1):
            try:
                text = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ZeroTableError(f"cannot decode row as UTF-8: byte {raw[exc.start]:#04x} "
                                     f"at column {exc.start + 1}", lineno) from None
            if lineno == 1:
                header = re.fullmatch(_HEADER, text)
            if not text or text.startswith("#"):
                continue
            try:
                g = _parse_ordinate(text, powers)
            except Exception:
                g = None
            # exp + bc >= 1024 first: only a row of at least 2^1023 pays for
            # the comparison; a zero, nan or inf has exp + bc < 0
            if g is None or g._mpf_[2] + g._mpf_[3] >= 1024 and g > _DOUBLE_MAX:
                clipped = text if len(text) <= 60 else text[:57] + "..."
                raise ZeroTableError(f"cannot parse ordinate {clipped!r}" if g is None else
                                     f"ordinate {clipped} beyond the double range", lineno)
            ordinates.append(g)
            line_numbers.append(lineno)
        if claimed_accuracy is None:
            claimed_accuracy = header.group(1) if header else 1e-10
        try:
            table = ZeroTable(tuple(ordinates), "ingested", mpf(claimed_accuracy))
        except ZeroTableError as exc:
            raise ZeroTableError(str(exc), line_numbers[exc.index]) from None
    if ordinates:
        with workprec(53):  # in doubles, whatever the caller's precision
            T = float(table.max_ordinate() + mpf(1) / 1000)
        if not zero_count_check(table, T):
            raise ZeroTableError(
                f"count check failed: {len(table)} ordinates up to {T} "
                f"vs estimate {_rvm_estimate(T):.2f}")
    return table


TABLE_DIGITS = 15  # significant digits of each ordinate written to a table


def table_rows(table: ZeroTable) -> list:
    """The table's ordinates as text rows of TABLE_DIGITS digits each."""
    return [mp.nstr(g, TABLE_DIGITS, strip_zeros=False) for g in table.ordinates]


def _reads_back(texts, values) -> bool:
    """Whether each text parses as its mpf value at the precision of the
    longest mantissa among the values (at least 53 bits): the precision a
    table loaded from these rows, or an accuracy read from a header, was
    read at.  A value read from its text at P bits has a mantissa of at
    most P bits and lies within half an ulp at P bits of it, so it reads
    back at the longest mantissa's precision too."""
    prec = max([53] + [x.man_exp[0].bit_length() for x in values])
    powers = {}
    with workprec(prec):
        return all(_parse_ordinate(text, powers) == x for text, x in zip(texts, values))


def write_zero_table(table: ZeroTable, path):
    """Write the table in the same plain-text format.  The first line
    states its accuracy in three digits: the claimed one, plus the rounding
    of the rows, half a unit in the last digit of the top ordinate, unless
    every row reads back as its ordinate (as the rows of a table loaded
    from TABLE_DIGITS-digit rows do, which are written back unchanged);
    the accuracy's nearest three digits if they read back as it (as a
    loaded header's do), else rounded up.  So an exported table's export
    is byte-identical to it."""
    rows = table_rows(table)
    accuracy = table.claimed_accuracy
    stated = f"{float(accuracy):.2e}"
    rounding = 0
    if not _reads_back(rows, table.ordinates):
        rounding = Decimal(5).scaleb(len(str(int(table.max_ordinate()))) - TABLE_DIGITS - 1)
    if rounding or not _reads_back([stated], [accuracy]):
        up = Context(prec=3, rounding=ROUND_CEILING)
        stated = f"{float(up.add(Decimal(math.nextafter(float(accuracy), math.inf)), rounding)):.2e}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {len(table)} zeta-zero ordinates ({table.source}), accuracy {stated}\n")
        for row in rows:
            fh.write(row + "\n")
