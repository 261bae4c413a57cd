"""Non-digit series routes: Stieltjes constants, the fractional-part
integral, and the digamma midpoint series.

The Stieltjes constants are a short direct sum, N = 4P terms at P digits,
finished by as many Euler-Maclaurin corrections as the precision needs.
The remainder is certified: DLMF 2.10.1 bounds it by 2|B_p|/p! times the
integral of |f^(p)| beyond N, where f(t) = ln^m(t)/t.  f^(p) is t^-(p+1)
times an integer polynomial in ln t, and replacing each coefficient by
its absolute value leaves integrals of t^-(p+1) ln^a t, which are
incomplete gamma functions of integer order and so finite sums in closed
form.  The majorant therefore needs no root isolation, whatever the sign
changes of f^(p).  The whole evaluation is in fixed point, in Python
integers: ln n for every n <= N comes from one table, ln 2 and each prime
by an atanh series of floors and each composite as the sum of two
entries; the sum, the integral, f(N)/2 and each correction (with B_2k an
exact Fraction) are floors whose losses are counted, and the majorant is
an integer rounded up.  The floor count and one conversion ulp are the
rounding in the tail bound.

The fractional-part integral is summed in closed form: partial fractions
on each unit interval, then summation by parts over the intervals, so N
intervals cost one log-gamma and N integer divisions.  The tests keep
generic quadrature (mpmath's quad) of the integrand as an independent
cross-check.

The digamma midpoint series sums t(n) = psi(n) - integral of psi over
[n - 1/2, n + 1/2].  Since Gamma(n + 1/2) = (n - 1/2) Gamma(n - 1/2), the
integral collapses to ln(n - 1/2), and the series telescopes against
Stirling's formula to the closed-form value (1 - ln 2)/2.  Terms are
strictly positive (psi'' < 0), and t(n) = -psi''(n)/24 - psi''''(n)/1920 -
..., so t(n) ~ 1/(24 n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import factorial, isqrt

from mpmath import mp, mpf, workdps
from mpmath.libmp import list_primes

from .numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExtendedReal,
    _GUARD,
    _bernoulli,
    _rounding_slack,
)
from .digit_series import _FIXED_GUARD_BITS, SeriesResult, _from_fixed

MAX_STIELTJES_INDEX = 8
# The automatic correction order stops here even if 10^-(P+2) is not met;
# at the default N = 4P it needs about P/2, so the cap binds above P ~ 430.
_MAX_AUTO_ORDER = 200


@dataclass(frozen=True)
class StieltjesRequest:
    """Parameters for a Stieltjes-constant evaluation.

    n_terms and correction_order left as None are chosen by stieltjes()
    from the working precision.
    """

    m: int
    n_terms: int | None = None
    correction_order: int | None = None

    def __post_init__(self):
        if self.m < 0:
            raise DomainError("Stieltjes index must be >= 0")
        if self.m > MAX_STIELTJES_INDEX:
            raise DomainError(
                f"Stieltjes index {self.m} > {MAX_STIELTJES_INDEX}: cancellation "
                "exceeds the default working precision")
        if self.n_terms is not None and self.n_terms < 10:
            raise DomainError("n_terms must be >= 10")
        order = self.correction_order
        if order is not None and (order < 2 or order % 2):
            raise DomainError("correction_order must be an even integer >= 2")


def _log_power_derivative_coeffs(m: int):
    """Yield the coefficients of d^j/dt^j [ln^m(t)/t] for j = 0, 1, 2, ...

    The j-th derivative is t^-(j+1) * sum_a c[j][a] * ln^a(t) with integer
    coefficients; c[0] = {m: 1} and differentiation maps
    c[j][a] -> a*c[j][a] at power a-1 and -(j+1)*c[j][a] at power a.
    """
    cur = {m: 1}
    j = 0
    while True:
        yield cur
        nxt: dict = {}
        for a, c in cur.items():
            if a > 0:
                nxt[a - 1] = nxt.get(a - 1, 0) + a * c
            nxt[a] = nxt.get(a, 0) - (j + 1) * c
        cur, j = nxt, j + 1


def _two_atanh_inv(q: int, G: int) -> int:
    """2 atanh(1/q) = sum_j 2 q^-(2j+1)/(2j+1) in units of 2^-G, for q >= 3:
    one floor per term, floor(2^(G+1)/(q^(2j+1) (2j+1))), as the quotient by
    q^2 of the previous power's floor is the next power's floor.  The sum
    stops at the first zero power; with the tail beyond it below one unit,
    it lies below the true value by less than its term count, at most
    (G + 1)/3 + 2."""
    q2 = q * q
    power = total = (2 << G) // q
    k = 1
    while power:
        power //= q2
        total += power // (2 * k + 1)
        k += 1
    return total


def _log_table(N: int, F: int) -> list:
    """L with L[n] <= 2^F ln n < L[n] + 2 bits(n) for n = 1..N, bits(n) the
    bit length of n (L[0] = 0 is a placeholder).

    The table is built at G = F + g bits, 2^g > F, and shifted down once.
    A smallest-prime-factor sieve (each prime p up to sqrt(N) marking the
    multiples from p^2, the smallest last) gives each composite n = p (n/p),
    whose entry is the sum of two entries.  A prime p takes
    ln p = ln(p - 1) + 2 atanh(1/(2p - 1)), so ln 2 = 2 atanh(1/3).  Each
    atanh is below its value by less than 2^g units of 2^-G
    (_two_atanh_inv), so an entry built from T(n) of them is below by less
    than T(n) + 1 units of 2^-F after the shift.  T(1) = 0,
    T(p) = 2 + T((p - 1)/2) for odd p, T(2) = 1 and T(ab) = T(a) + T(b)
    give T(n) <= 2 log2 n < 2 bits(n) by induction, so T(n) + 1 <= 2 bits(n).
    """
    g = F.bit_length()
    spf = [0] * (N + 1)
    for p in reversed(list_primes(isqrt(N))):
        spf[p * p::p] = [p] * len(range(p * p, N + 1, p))
    table = [0, 0]
    for n in range(2, N + 1):
        p = spf[n]
        table.append(table[p] + table[n // p] if p else
                     table[n - 1] + _two_atanh_inv(2 * n - 1, F + g))
    return [x >> g for x in table]


def _em_remainder_bound(coeff: dict, p: int, N: int, ln_hi: int, F: int) -> int:
    """An integer r with r 2^-F >= 2 |B_p|/p! * sum_a |c_a| I_a, a majorant
    of the Euler-Maclaurin remainder whose first omitted derivative is
    f^(p) = t^-(p+1) sum_a c_a ln^a t, with I_a = int_N^inf t^-(p+1) ln^a t
    dt, given ln_hi >= 2^F ln N.

    Substituting t = e^u, I_a = int_{ln N}^inf u^a e^(-p u) du
    = N^-p p^-(a+1) e_a with e_a = sum_{i<=a} a!/i! (p ln N)^i, and
    e_a = a e_(a-1) + (p ln N)^a.  The powers of p ln N are taken in units
    of 2^-F from p ln_hi, each product rounded up, and the rest is one
    exact division rounded up, B_p an exact Fraction.
    """
    x = p * ln_hi
    top = max(coeff)
    e = x_a = 1 << F
    total = 0
    for a in range(top + 1):
        if a:
            x_a = -(-x_a * x >> F)
            e = a * e + x_a
        total += abs(coeff.get(a, 0)) * e * p ** (top - a)
    B = _bernoulli(p)
    den = B.denominator * factorial(p) * p ** (top + 1) * N ** p
    return -(-2 * abs(B.numerator) * total // den)


def stieltjes(req: StieltjesRequest, precision: int = DEFAULT_PRECISION) -> SeriesResult:
    """Stieltjes constant gamma_m by the direct slowly-convergent series,
    finished with Euler-Maclaurin correction terms at the truncation point.

    With f(t) = ln^m(t)/t, K = correction_order/2 and p = 2K + 2,
      gamma_m = sum_{n<=N} f(n) - ln^(m+1)(N)/(m+1) - f(N)/2
                - sum_{k=1..K} B_2k/(2k)! f^(2k-1)(N) + R,
    and DLMF 2.10.1 with |B~_p(t) - B_p| <= 2|B_p| gives
      |R| <= 2 |B_p|/p! * int_N^inf |f^(p)(t)| dt.
    f^(p)(t) = t^-(p+1) sum_a c_a ln^a t (_log_power_derivative_coeffs), so
    the integral is at most sum_a |c_a| I_a, in closed form
    (_em_remainder_bound).  This holds for every m and N whatever the sign
    changes of f^(p); for m = 0 it is twice the first omitted correction.

    Defaults: N = max(10, 4 P), and the smallest even order whose bound is
    below 10^-(P+2), trying orders up to _MAX_AUTO_ORDER and stopping
    earlier where the bound stops decreasing (past p ~ 2 pi N the
    Euler-Maclaurin series diverges).  An explicit n_terms or
    correction_order is used as given.

    Everything is summed in fixed point with F fraction bits, in Python
    integers, every step a floor.  ln n for n <= N comes from one table L
    (_log_table), each entry below 2^F ln n by less than E = 2 bits(N)
    units.  With c = floor(0.7 bits(N)) + 1 > ln N and D = m c^(m-1),
    L[n]^m is below (2^F ln n)^m by less than D E 2^(F(m-1)), so the floors
    lose less than these counts of units:
      the sum of floor(floor(L[n]^m / 2^(F(m-1))) / n) (floor(2^F / n) at
        m = 0): 2N + D E (1 + c), as sum 1/n <= 1 + c;
      the integral, floor(L[N]^(m+1) / ((m+1) 2^(Fm))): c^m E + 1;
      each power P_a = floor(L[N]^a / 2^(F(a-1))), a <= m: eps = D E + 1,
        so f(N)/2, floor(P_m / 2N): eps + 1;
      the k-th correction, floor(B_2k sum_a c_a P_a / ((2k)! N^2k)):
        eps |B_2k| sum_a |c_a| / ((2k)! N^2k) + 1, rounded up.
    The first three size F: the working precision plus their bit length
    plus _FIXED_GUARD_BITS.  Their total with the corrections' is the
    count digit_series._from_fixed takes, which adds the ulp of the
    downward conversion; that width and the majorant, rounded up, are the
    tail bound, with 10^-(P-2) (1 + |value|) added for the result's own
    digits, which also absorbs the rounding of that sum.
    """
    m = req.m
    N = req.n_terms if req.n_terms is not None else max(10, 4 * precision)
    with workdps(precision + _GUARD):
        E = 2 * N.bit_length()
        c = 7 * N.bit_length() // 10 + 1
        D = m * c ** (m - 1) if m else 0
        eps = D * E + 1
        floors = 2 * N + D * E * (1 + c) + c ** m * E + eps + 2
        F = mp.prec + floors.bit_length() + _FIXED_GUARD_BITS
        table = _log_table(N, F)
        ln_N = table[N]

        derivs = _log_power_derivative_coeffs(m)
        order = req.correction_order or 2
        coeffs = list(islice(derivs, order + 3))
        rem = _em_remainder_bound(coeffs[order + 2], order + 2, N, ln_N + E, F)
        if req.correction_order is None:
            # rem 2^-F >= 10^-(P+2), exactly
            target = 10 ** (precision + 2)
            while rem * target >= 1 << F and order < _MAX_AUTO_ORDER:
                coeffs += islice(derivs, 2)
                nxt = _em_remainder_bound(coeffs[order + 4], order + 4, N, ln_N + E, F)
                if nxt >= rem:
                    break
                order, rem = order + 2, nxt

        # x^a << F >> F a is floor(x^a / 2^(F(a-1))), and 2^F at a = 0
        acc = sum((x ** m << F >> F * m) // n for n, x in enumerate(table[1:], 1))
        acc -= ln_N ** (m + 1) // ((m + 1) << F * m)
        pows = [ln_N ** a << F >> F * a for a in range(m + 1)]
        acc -= pows[m] // (2 * N)
        scale = 1  # (2k)! N^2k
        for k in range(1, order // 2 + 1):
            coeff, B = coeffs[2 * k - 1], _bernoulli(2 * k)
            scale *= (2 * k - 1) * 2 * k * N * N
            den = B.denominator * scale
            acc -= B.numerator * sum(a_c * pows[a] for a, a_c in coeff.items()) // den
            floors += -(-eps * abs(B.numerator) * sum(map(abs, coeff.values())) // den) + 1
        value, width = _from_fixed(acc, F, floors)
        bound = mp.ldexp(mpf(rem, rounding="c"), -F) + width
        bound += _rounding_slack(precision) * (1 + abs(value))
        return SeriesResult(value, N, ExtendedReal(bound, precision), f"stieltjes[{m}]")


# ---------------------------------------------------------------------------
# Fractional-part integral


def _p01_term_raw(n: int) -> mpf:
    """Closed form of the integral over [n, n+1] of
    (1 - {q}^2) / (2 q^2 (q+1)^2).

    With u = q - n the numerator is P(q) = -q^2 + 2nq + 1 - n^2 and
    P(q)/(q^2 (q+1)^2) = A/q + B/q^2 + C/(q+1) + D/(q+1)^2 with
    A = 2n^2 + 2n - 2, B = 1 - n^2, C = -A, D = -n(n+2).
    """
    A = 2 * n * n + 2 * n - 2
    B = 1 - n * n
    D = -n * (n + 2)
    n_ = mpf(n)
    val = A * (mp.ln(n_ + 1) - mp.ln(n_))
    val += B * (1 / n_ - 1 / (n_ + 1))
    val -= A * (mp.ln(n_ + 2) - mp.ln(n_ + 1))
    val += D * (1 / (n_ + 1) - 1 / (n_ + 2))
    return val / 2


def p01_term(n: int, precision: int = DEFAULT_PRECISION) -> ExtendedReal:
    """Integral of the fractional-part integrand over [n, n+1]; positive."""
    if n < 1:
        raise DomainError("p01_term requires n >= 1")
    # the closed form cancels ~5*log10(n) digits (term ~ n^-4, pieces ~ n)
    with workdps(precision + _GUARD + 5 * len(str(n))):
        return ExtendedReal(_p01_term_raw(n), precision)


def p01_integral(N: int, precision: int = DEFAULT_PRECISION) -> SeriesResult:
    """Sum of the first N unit-interval pieces of the fractional-part
    integral; converges to gamma - ln(4 pi) + 2.

    The sum is taken in closed form, by summation by parts over the terms
    of _p01_term_raw.  With A_n = 2n^2 + 2n - 2, whose second difference is
    4, the logarithms of the N terms sum to

        sum_{n<=N} A_n (2 ln(n+1) - ln n - ln(n+2))
            = -2 ln 2 - 4 lnGamma(N+1) + a ln(N+1) - b ln(N+2),

    a = 2A_N - A_(N-1) = 2N^2 + 6N - 2 and b = A_N.  At N = 1, where no
    n = 0 term is summed, the -2 ln 2 cancels the -A_0 ln 2 = 2 ln 2 in
    a ln 2, so the form holds for every N >= 1.  The rational pieces of
    term n are 1/n - 1 + 1/(n+1) - 1, so they sum to exactly
    R = H_N + H_(N+1) - 1 - 2N.  H_N is summed in fixed point with F
    fraction bits, one floor per integer division, not through psi, so
    that the route stays independent of Euler's gamma.  The value is half
    the sum of these five pieces.  p01_term remains the per-term
    evaluation.

    Tail bound: the integrand is at most 1/(2 q^4), so the omitted part is
    below 1/(6 (N+1)^3).

    Rounding: take each mpmath operation (logarithm, log-gamma, product,
    sum, conversion) to err by at most u relative, u the working
    precision's eps (one ulp), and let l = ln(N + 2).  The two products
    err by at most 3u times their size, as do 4 lnGamma(N+1) and 2 ln 2.
    The floors in R (H_N's N floors count twice) lose less than
    (2N + 1) 2^-F <= 2^-(prec + 8), with F = prec + (2N + 1).bit_length()
    + 8, and |R| >= 1/2, so R too errs by at most 3u |R|.  The pieces
    total at most M = (a + b) l + 4 N l + 2 + 2N + 1 <= 4 (N + 2)^2 l in
    size, each of the four additions errs by at most u M (1 + 3u), and
    halving is exact: the value errs by at most 4u M <= 16 u (N + 2)^2 l.
    The cancellation is in the (N + 2)^2 l, about 2 log10 N digits, which
    the two guard digits per digit of N + 2 (plus two) cover.  The
    returned value is the sum lowered by r = 17 u (N + 2)^2 l, the extra
    u (N + 2)^2 l covering the roundings of r, of that shift and of the
    bound's sum, and the tail bound grows by 2r, so [value, value +
    tail_bound] still encloses the integral.
    """
    if N < 1:
        raise DomainError("p01_integral requires N >= 1")
    with workdps(precision + _GUARD + 2 * len(str(N + 2)) + 2):
        a, b = 2 * N * N + 6 * N - 2, 2 * N * N + 2 * N - 2
        F = mp.prec + (2 * N + 1).bit_length() + _FIXED_GUARD_BITS
        one = 1 << F
        harmonic = sum(one // k for k in range(1, N + 1))
        rational = 2 * harmonic + one // (N + 1) - (2 * N + 1) * one
        acc = (a * mp.ln(N + 1) - b * mp.ln(N + 2) - 4 * mp.loggamma(N + 1)
               - 2 * mp.ln(2) + mp.ldexp(rational, -F)) / 2
        rounding = 17 * mp.eps * (N + 2) ** 2 * mp.ln(N + 2)
        bound = mpf(1) / (6 * (N + 1) ** 3) + 2 * rounding
        return SeriesResult(acc - rounding, N, ExtendedReal(bound, precision),
                            "p01_integral", positive_terms=True)


# ---------------------------------------------------------------------------
# Digamma midpoint series


def _p12_guard(n: int, precision: int) -> int:
    # psi(n) and ln(n - 1/2) agree to ~2*log10(n) digits before cancelling
    return precision + _GUARD + 2 * len(str(n))


def p12_term(n: int, precision: int = DEFAULT_PRECISION) -> ExtendedReal:
    """psi(n) minus the integral of psi over [n - 1/2, n + 1/2]; positive."""
    if n < 1:
        raise DomainError("p12_term requires n >= 1")
    with workdps(_p12_guard(n, precision)):
        x = mpf(n)
        t = mp.digamma(x) - (mp.loggamma(x + mpf(1) / 2) - mp.loggamma(x - mpf(1) / 2))
        return ExtendedReal(t, precision)


def p12_series(
    N: int,
    accelerate: bool = True,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Partial sum of the digamma midpoint series (limit (1 - ln 2)/2).

    The sum of t(1..N) is evaluated telescoped, in O(1):
      sum_{n<=N} psi(n) = N psi(N+1) - N,
    and the integrals of psi sum to lnGamma(N + 1/2) - lnGamma(1/2), so
      sum_{n<=N} t(n) = N psi(N+1) - N - lnGamma(N + 1/2) + lnGamma(1/2).
    p12_term remains the per-term evaluation.

    Raw tail bound 1/(24 N): each term equals -psi''(xi)/24 for some xi in
    (n - 1/2, n + 1/2) and 0 < -psi''(q) < 2/q^2 + 2/q^3 for q >= 1/2, so
    t(n) < 1/(24 (n - 1/2)^2) summing below 1/(24 N) + O(1/N^2), absorbed
    into the stated bound for N >= 1.

    With accelerate=True the omitted tail sum_{n>N} (-psi''(n)/24 -
    psi''''(n)/1920) is added in closed form using
      sum_{n>N} psi''(n)  = -2 psi'(N+1) - N psi''(N+1)
      sum_{n>N} psi''''(n) = -4 psi'''(N+1) - N psi''''(N+1)
    leaving a remainder from the psi^(6) Taylor term and beyond, bounded
    generously by 1/N^4.
    """
    if N < 1:
        raise DomainError("p12_series requires N >= 1")
    with workdps(_p12_guard(N, precision)):
        half = mpf(1) / 2
        x1 = mpf(N + 1)
        acc = N * mp.digamma(x1) - N - (mp.loggamma(N + half) - mp.loggamma(half))
        if accelerate:
            s2 = -2 * mp.polygamma(1, x1) - N * mp.polygamma(2, x1)
            s4 = -4 * mp.polygamma(3, x1) - N * mp.polygamma(4, x1)
            acc += -s2 / 24 - s4 / 1920
            bound = mpf(1) / N ** 4
        else:
            bound = mpf(1) / (24 * N)
        bound += _rounding_slack(precision)
        return SeriesResult(acc, N, ExtendedReal(bound, precision), "p12_series",
                            positive_terms=not accelerate)


def p12_closed_form(precision: int = DEFAULT_PRECISION) -> ExtendedReal:
    """(1 - ln 2)/2, the provable limit of the digamma midpoint series."""
    with workdps(precision + _GUARD):
        return ExtendedReal((1 - mp.ln(2)) / 2, precision)
