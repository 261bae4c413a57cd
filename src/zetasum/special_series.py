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
changes of f^(p).

The fractional-part integral is evaluated term by term in closed form
(partial fractions on each unit interval); generic quadrature is kept as an
independent cross-check.

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

from mpmath import mp, mpf, workdps

from .numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExtendedReal,
    _GUARD,
    _digamma_raw,
    _lngamma_raw,
    _polygamma_raw,
)
from .digit_series import SeriesResult

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


def _eval_log_poly(coeff: dict, ln_pows: list, t: mpf, j: int) -> mpf:
    """t^-(j+1) sum_a c_a ln^a t, with ln_pows[a] = ln^a t."""
    total = mp.zero
    for a, c in coeff.items():
        total += c * ln_pows[a]
    return total / t ** (j + 1)


def _em_remainder_bound(coeff: dict, p: int, N: int, ln_N: mpf) -> mpf:
    """2 |B_p|/p! * sum_a |c_a| I_a, a majorant of the Euler-Maclaurin
    remainder whose first omitted derivative is f^(p) = t^-(p+1) *
    sum_a c_a ln^a t, with I_a = int_N^inf t^-(p+1) ln^a t dt.

    Substituting t = e^u, I_a = int_{ln N}^inf u^a e^(-p u) du
    = N^-p p^-(a+1) e_a with e_a = sum_{i<=a} a!/i! (p ln N)^i, and
    e_a = a e_(a-1) + (p ln N)^a.
    """
    x = p * ln_N
    e = x_a = mp.one
    total = mp.zero
    for a in range(max(coeff) + 1):
        if a:
            x_a *= x
            e = a * e + x_a
        total += abs(coeff.get(a, 0)) * e / p ** (a + 1)
    return 2 * abs(mp.bernoulli(p)) / mp.factorial(p) * total / mpf(N) ** p


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

    The tail bound is that majorant plus rounding, 2u ((N + m + 4) S +
    (m + 4) I) for the working-precision sum, where u is the unit roundoff,
    S the sum of the positive terms f(n) and I = ln^(m+1)(N)/(m+1): each
    f(n) is off by at most (m + 3) u f(n), each of the N additions by u S,
    I by (m + 3) u I and its subtraction by u (S + I), and the factor 2
    covers the corrections and higher orders.  10^-(P-2) (1 + |value|) is
    added for the result's own digits; it also absorbs the rounding of the
    majorant.
    """
    m = req.m
    N = req.n_terms if req.n_terms is not None else max(10, 4 * precision)
    with workdps(precision + _GUARD):
        ln_N = mp.ln(N)
        derivs = _log_power_derivative_coeffs(m)
        order = req.correction_order or 2
        coeffs = list(islice(derivs, order + 3))
        rem = _em_remainder_bound(coeffs[order + 2], order + 2, N, ln_N)
        if req.correction_order is None:
            target = mpf(10) ** -(precision + 2)
            while rem >= target and order < _MAX_AUTO_ORDER:
                coeffs += islice(derivs, 2)
                nxt = _em_remainder_bound(coeffs[order + 4], order + 4, N, ln_N)
                if nxt >= rem:
                    break
                order, rem = order + 2, nxt

        acc = mp.zero
        for n in range(1, N + 1):
            ln_n = mp.ln(n)
            acc += ln_n ** m / n
        integral = ln_N ** (m + 1) / (m + 1)
        rounding = ((N + m + 4) * acc + (m + 4) * integral) * mp.eps
        acc -= integral
        ln_pows = [ln_N ** a for a in range(m + 1)]
        acc -= _eval_log_poly(coeffs[0], ln_pows, mpf(N), 0) / 2
        for k in range(1, order // 2 + 1):
            d = _eval_log_poly(coeffs[2 * k - 1], ln_pows, mpf(N), 2 * k - 1)
            acc -= mp.bernoulli(2 * k) / mp.factorial(2 * k) * d
        bound = rem + rounding + mpf(10) ** (-(precision - 2)) * (1 + abs(acc))
        return SeriesResult(
            ExtendedReal(acc, precision),
            N,
            ExtendedReal(bound, precision),
            f"stieltjes[{m}]",
        )


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


def _p01_guard(n: int, precision: int) -> int:
    # the closed form cancels ~5*log10(n) digits (term ~ n^-4, pieces ~ n)
    return precision + _GUARD + 5 * len(str(n))


def p01_term(n: int, precision: int = DEFAULT_PRECISION) -> ExtendedReal:
    """Integral of the fractional-part integrand over [n, n+1]; positive."""
    if n < 1:
        raise DomainError("p01_term requires n >= 1")
    with workdps(_p01_guard(n, precision)):
        return ExtendedReal(_p01_term_raw(n), precision)


def p01_integrand(q: ExtendedReal) -> ExtendedReal:
    """(1 - {q}^2) / (2 q^2 (q+1)^2), the positive integrand behind
    p01_term; exposed for quadrature cross-checks."""
    with workdps(q.precision + _GUARD):
        v = q.value
        u = v - mp.floor(v)
        return ExtendedReal((1 - u * u) / (2 * v * v * (v + 1) ** 2), q.precision)


def p01_integral(N: int, precision: int = DEFAULT_PRECISION) -> SeriesResult:
    """Sum of the first N unit-interval pieces of the fractional-part
    integral; converges to gamma - ln(4 pi) + 2.

    Tail bound: the integrand is at most 1/(2 q^4), so the omitted part is
    below 1/(6 (N+1)^3).
    """
    if N < 1:
        raise DomainError("p01_integral requires N >= 1")
    with workdps(_p01_guard(N, precision)):
        acc = mp.zero
        for n in range(1, N + 1):
            acc += _p01_term_raw(n)
        bound = mpf(1) / (6 * (N + 1) ** 3)
        return SeriesResult(
            ExtendedReal(acc, precision),
            N,
            ExtendedReal(bound, precision),
            "p01_integral",
            positive_terms=True,
        )


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
        t = _digamma_raw(x) - (_lngamma_raw(x + mpf(1) / 2) - _lngamma_raw(x - mpf(1) / 2))
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
        acc = N * _digamma_raw(x1) - N - (_lngamma_raw(N + half) - _lngamma_raw(half))
        if accelerate:
            s2 = -2 * _polygamma_raw(1, x1) - N * _polygamma_raw(2, x1)
            s4 = -4 * _polygamma_raw(3, x1) - N * _polygamma_raw(4, x1)
            acc += -s2 / 24 - s4 / 1920
            bound = mpf(1) / N ** 4
        else:
            bound = mpf(1) / (24 * N)
        bound += mpf(10) ** (-(precision - 2))
        return SeriesResult(
            ExtendedReal(acc, precision),
            N,
            ExtendedReal(bound, precision),
            "p12_series",
            positive_terms=not accelerate,
        )


def p12_closed_form(precision: int = DEFAULT_PRECISION) -> ExtendedReal:
    """(1 - ln 2)/2, the provable limit of the digamma midpoint series."""
    with workdps(precision + _GUARD):
        return ExtendedReal((1 - mp.ln(2)) / 2, precision)
