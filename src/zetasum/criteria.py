"""Zero-sum quantities, the cross-representation identity verifier, and
the routes that `zetasum verify` and `zetasum constants` read.

Zero sums fold conjugate pairs onto positive ordinates: with rho = 1/2 +
i*gamma on the critical line, rho(1-rho) = 1/4 + gamma^2 is real, so every
quantity here is real by construction.  The paired sum of 1/(rho(1-rho))
is 2 lambda_1, so zero_sum_p0 doubles li_lambda(1) and takes its value
from li_lambda's one fixed-point pass.  Truncated sums can be completed
with a density-based tail correction using the smoothed zero density
ln(t/2pi)/(2pi); the remainder bound for that correction is heuristic
(zero-count fluctuations): a slack F is counted for each unpaired term
x = 1/(1/4 + gamma^2), so the paired sum carries 2F, and tail-corrected
results carry a visibly wider tolerance than plain series results.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, fsum, ldexp
from typing import Optional

from mpmath import mp, mpf, workdps

from .numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExtendedReal,
    _GUARD,
    _rounding_slack,
)
from .digit_series import (
    _FIXED_GUARD_BITS,
    SeriesResult,
    _from_fixed,
    combined_pochti,
    gamma_addison,
    log2_series,
    log2pi_dual,
    log4pi_paired,
    main_series,
    pochtipochti_series,
)
from .special_series import (
    StieltjesRequest,
    p01_integral,
    p12_series,
    stieltjes,
)
from .zeta_zeros import ZeroTable

MAX_LI_INDEX = 1000

# the c of li_lambda's fixed-point width c n^2 K, in units of 2^-B
_LI_ROUNDING = 32


@dataclass(frozen=True)
class IdentityReport:
    """Two independent routes to the same quantity, compared."""

    identity_id: str
    route_a: tuple  # (label, SeriesResult)
    route_b: tuple  # (label, SeriesResult)
    discrepancy: ExtendedReal
    tolerance: ExtendedReal

    @property
    def passed(self) -> bool:
        return self.discrepancy.value <= self.tolerance.value

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _density_tail(T: mpf) -> mpf:
    """Integral of (1/t^2) * ln(t/2pi)/(2pi) from T upward, i.e. the
    smoothed value of sum 1/(1/4+gamma^2) over zeros above T."""
    return (mp.ln(T / (2 * mp.pi)) + 1) / (2 * mp.pi * T)


def _fluctuation_bound(T: mpf) -> mpf:
    # heuristic slack for zero-count fluctuation around the smooth density
    return 4 * mp.ln(T) / (T * T)


def zero_sum_p0(
    zeros: ZeroTable,
    with_tail_correction: bool = True,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """2 * sum over the table of 1/(1/4 + gamma^2), the paired form of the
    sum of 1/(rho(1-rho)) over all nontrivial zeros; converges to
    gamma - ln(4 pi) + 2.

    1/(rho(1-rho)) = 1/rho + 1/(1-rho), and 1 - rho is a zero with rho, so
    the sum is 2 sum 1/rho = 2 lambda_1 term for term (Bombieri and
    Lagarias, J. Number Theory 77, 1999): this is twice li_lambda(1)'s value
    and bound, tail correction and table accuracy included.  Without the
    correction the partial sums increase monotonically from below.
    """
    if len(zeros) == 0:
        raise DomainError("zero_sum_p0 requires a nonempty zero table")
    (lam,) = li_lambda(1, zeros, with_tail_correction, precision)
    return SeriesResult(
        mp.ldexp(lam.partial_sum, 1),
        len(zeros),
        ExtendedReal(mp.ldexp(lam.tail_bound.value, 1), precision),
        "zero_sum_p0",
        positive_terms=not with_tail_correction,
    )


def li_lambda(
    n: int,
    zeros: ZeroTable,
    with_tail_correction: bool = True,
    precision: int = DEFAULT_PRECISION,
) -> tuple:
    """The Keiper-Li coefficients (lambda_1, ..., lambda_n), one SeriesResult
    each, from one pass over the zeros.  lambda_k = sum over zeros of
    1 - (1-1/rho)^k, folded over conjugate pairs as 2 Re(1 - (1 - 1/rho)^k).

    On the critical line 1 - 1/rho = e^{2it} with t = atan(1/(2 gamma)), so
    the paired term is 2 v_k with v_k = 1 - cos(2kt) = 2 sin^2(kt).  With
    x = 1/(1/4 + gamma^2), v_1 = x/2 and 0 <= v_k <= k^2 x/2, since
    |sin kt| <= k |sin t|: for large gamma the term behaves like k^2 x.

    Each v_k is computed in fixed point with B fraction bits, B taken for
    the largest index n: one integer division gives v_1 from the
    ordinate's exact mantissa and exponent, and the Chebyshev recurrence
    cos(2(k+1)t) = 2 cos(2t) cos(2kt) - cos(2(k-1)t), written for v,

        v_{k+1} = 2(v_1 + v_k - v_1 v_k) - v_{k-1},   v_0 = 0,

    gives the rest with one floored product each: O(n) integer operations
    per zero, with no complex powers and no cancellation.

    Rounding, in units of 2^-B: v_1 errs by e_1, with |e_1| < 1, and step
    k's floor adds less than 2.  With c_k = 1 - v_k = cos(2kt), the error
    obeys the recurrence itself,

        e_{k+1} = 2 c_1 e_k - e_{k-1} + s_k,   s_k = 2 e_1 (c_k - e_k 2^-B) + floor,

    so |s_k| < 4 + 2 |e_k| 2^-B.  A source at step j reaches v_k as
    U_{k-1-j}(c_1) s_j, and e_1 as U_{k-1}(c_1) e_1, where the Chebyshev
    polynomials of the second kind obey |U_m| <= m + 1 on [-1, 1]; hence
    |e_k| < k + 4 (1 + ... + (k-1)) + O(k^4 2^-B) = 2 k^2 - k + O(k^4 2^-B)
    < 2 k^2.  The paired sum over K zeros errs by less than 4 k^2 K units,
    well inside the c k^2 K units, c = _LI_ROUNDING = 32, that lambda_k's
    bound carries with one ulp of the conversion.
    B = working bits + (c n^2 K).bit_length() + 8 keeps every k's width
    below 2^-(working bits + 8).

    Tail: every omitted term lies in [0, k^2 x].  With D the density
    integral of x above the table height T and F the heuristic fluctuation
    slack, the uncorrected bound is k^2 (D + F).  The correction adds
    k^2 D, with remainder bound k^2 F + k^2(k^2 - 1)/12 (D + F)/(1/4 + T^2),
    which rests on

        4 sin^2(kt) >= k^2 x - k^2(k^2 - 1) x^2 / 12   for every t.

    It is an equality at k = 1, 2.  Where x <= 56/(k^2 - 9) (everywhere for
    k <= 3) it follows from Taylor's theorem for T_k at 1 with V. Markov's
    bound |T_k''''| <= T_k''''(1) on [-1, 1]; where x > 12/(k^2 - 1) its
    right side is negative.

    Table accuracy: t = atan(1/(2 gamma)) has dt/dgamma = -x/2, and
    sin 2t = gamma x, so with |sin 2kt| <= k |sin 2t|

        |d/dgamma 4 sin^2(kt)| = 2k x |sin 2kt| <= 2 k^2 gamma x^2
                               = k^2 |dx/dgamma| < 2 k^2 / gamma^3.

    The true ordinate and the mean-value point lie within the claimed
    accuracy delta of the listed g, so the sum moves by less than
    2 k^2 delta sum (g - delta)^-3 <= 2 k^2 delta (g1/(g1 - delta))^3 sum g^-3,
    g1 the first ordinate, which goes into the bound.  sum g^-3 is summed in
    doubles on every call, rounded up: each g is cut to its top 53 bits,
    scaled by 2^-E (g1 < 2^E) and capped below 2^300, all of which lower it,
    so no term exceeds 8 or overflows; 1 + 2^-50 covers the four roundings.
    """
    if n < 1:
        raise DomainError("li_lambda requires n >= 1")
    if n > MAX_LI_INDEX:
        raise DomainError(
            f"li_lambda index {n} > {MAX_LI_INDEX}: the n^2 density tail "
            "correction assumes n much smaller than the table height")
    if len(zeros) == 0:
        raise DomainError("li_lambda requires a nonempty zero table")
    with workdps(precision + _GUARD):
        K = len(zeros)
        B = mp.prec + (_LI_ROUNDING * n * n * K).bit_length() + _FIXED_GUARD_BITS
        sums = [0] * n  # sums[k - 1]: v_k summed over the zeros
        delta, g1 = zeros.claimed_accuracy, zeros.ordinates[0]
        E = mp.mag(g1)
        cubes = []  # (g 2^-E)^-3, g cut to 53 bits
        for g in zeros.ordinates:
            _, m, e, bc = g._mpf_
            s = bc - 53 if bc > 53 else 0
            h = ldexp(m >> s, min(e + s - E, 300 - 53))  # below 2^300
            cubes.append(1 / (h * h * h))
            # v_1 = x/2 = 2/(4 m^2 2^(2e) + 1) for gamma = m 2^e
            if e < 0:
                v1 = (1 << (B + 1 - 2 * e)) // ((m * m << 2) + (1 << -2 * e))
            else:
                v1 = (1 << (B + 1)) // ((m * m << (2 + 2 * e)) + 1)
            sums[0] += v1
            prev, v = 0, v1
            for k in range(1, n):
                prev, v = v, ((v1 + v - (v1 * v >> B)) << 1) - prev
                sums[k] += v
        widen = (g1 / (g1 - delta)) ** 3
        inverse_cubes = mp.ldexp(mpf(fsum(cubes)) * (1 + mpf(2) ** -50), -3 * E)
        T = zeros.max_ordinate()
        D, fluct = _density_tail(T), _fluctuation_bound(T)
        results = []
        for k, acc in enumerate(sums, start=1):
            k2 = k * k
            value, rounding = _from_fixed(2 * acc, B, _LI_ROUNDING * k2 * K)
            if with_tail_correction:
                value += k2 * D
                bound = k2 * fluct + mpf(k2 * (k2 - 1)) / 12 * (D + fluct) / (mpf(1) / 4 + T * T)
            else:
                bound = k2 * (D + fluct)
            bound += 2 * k2 * delta * widen * inverse_cubes + rounding \
                + _rounding_slack(precision)
            results.append(SeriesResult(value, K, ExtendedReal(bound, precision),
                                        f"li_lambda[{k}]"))
        return tuple(results)


def gn_multisum(
    n: int,
    zeros: ZeroTable,
    K: int,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """The n-fold sum of G_n over the first K zeros, where
    G_n(z_1..z_n) = prod_j x_j * prod_{j<k} (x_j - x_k)^2 with
    x = 1/(z(1-z)).

    On-line zeros make every x_j real and positive.  By Heine's (Andreief's)
    identity (Szego, Orthogonal Polynomials, section 2.1) the ordered n-fold
    sum equals n! det[p_{i+j+1}]_{i,j<n}, the Hankel determinant of the
    power sums p_m = sum_j x_j^m, m = 1..2n-1: n = 1 gives p1, exactly half
    of the uncorrected zero_sum_p0, and n = 2 gives 2(p1 p3 - p2^2).  Tail
    bounds come from the density tail of sum x_j scaled by crude sup bounds
    on the remaining factors.  The bound omits the table's claimed accuracy
    and rests on the heuristic fluctuation slack F, so it is not certified.
    """
    if n not in (1, 2, 3):
        raise DomainError("gn_multisum supports n in {1, 2, 3}")
    if K < 1 or K > len(zeros):
        raise DomainError(f"K={K} outside 1..{len(zeros)}")
    with workdps(precision + _GUARD):
        quarter = mpf(1) / 4
        xs = [1 / (quarter + g * g) for g in zeros.ordinates[:K]]
        T = zeros.ordinates[K - 1]
        tail1 = _density_tail(T) + _fluctuation_bound(T)
        x_max = xs[0]
        p = [mp.fsum(x ** m for x in xs) for m in range(1, 2 * n)]
        total = factorial(n) * mp.det([[p[i + j] for j in range(n)] for i in range(n)])
        p1 = p[0]
        if n == 1:
            bound = tail1
        elif n == 2:
            # a new index j > K contributes sum_k 2 x_j x_k (x_j-x_k)^2
            bound = 4 * x_max ** 2 * (p1 + tail1) * tail1
        else:
            bound = 18 * x_max ** 4 * (p1 + tail1) ** 2 * tail1
        bound += _rounding_slack(precision) * max(1, abs(total))
        return SeriesResult(total, K, ExtendedReal(bound, precision), f"gn_multisum[{n}]",
                            positive_terms=(n == 1))


# ---------------------------------------------------------------------------
# Routes: the identity verifier's table and the constants command's rows
#
# Every route is route(N, p) -> SeriesResult; a closed form ignores N.  A
# route looks up each function it calls by name when it runs, so that a
# module global replaced at run time (as a tracer does) is the one called.

def _digit(name: str):
    """The digit series called name, as a route.  Only its value at p
    digits is read, so it is summed in fixed point at every N, never as an
    exact Fraction."""
    return lambda N, p: globals()[name](N, exact_limit=1, precision=p)


def _closed(label: str, value):
    """The closed form value(), an mpf expression evaluated at p digits,
    with the rounding slack as its bound."""
    def route(N, p):
        with workdps(p + _GUARD):
            return SeriesResult(value(), 0, ExtendedReal(_rounding_slack(p), p), label)
    return route


def _less(shift: mpf, r: SeriesResult) -> SeriesResult:
    """shift minus r's value, with r's terms and bound; run at r's working
    precision."""
    return SeriesResult(shift - r.value().value, r.terms_used, r.tail_bound, r.series_id)


def _stieltjes0(N, p):
    return stieltjes(StieltjesRequest(0), p)


_TARGET = ("gamma - ln(4 pi) + 2",
           _closed("constant", lambda: mp.euler - mp.ln(4 * mp.pi) + 2))
_P01 = ("p01_integral", lambda N, p: p01_integral(N, precision=p))

_TERMS = {"terms": 100_000}  # a digit identity's one input, with its default N

# identity id -> (label_a, route_a, label_b, route_b, inputs): route_a takes
# the inputs the identity reads, in order, then p, each defaulting to the
# value given (None: required); route_b reads none of them
_IDENTITIES = {
    "addison": ("gamma_addison", _digit("gamma_addison"), "stieltjes(0)", _stieltjes0, _TERMS),
    "dual_addison": ("log2pi_dual", _digit("log2pi_dual"),
                     "ln(2/pi)", _closed("constant", lambda: mp.ln(2) - mp.ln(mp.pi)), _TERMS),
    "itog": ("main_series", _digit("main_series"), *_TARGET, {"terms": 1_000_000}),
    "log2": ("log2_series", _digit("log2_series"),
             "3/4 - ln 2", _closed("constant", lambda: mpf(3) / 4 - mp.ln(2)), _TERMS),
    "p01": (*_P01, *_TARGET, {"terms": 1_000}),
    "p12": ("p12_series", lambda N, p: p12_series(N, precision=p), *_TARGET, {"terms": 10_000}),
    "pochti": ("combined_pochti", _digit("combined_pochti"),
               "gamma - ln pi + ln 2",
               _closed("constant", lambda: mp.euler - mp.ln(mp.pi) + mp.ln(2)), _TERMS),
    "pochtipochti": ("pochtipochti_series", _digit("pochtipochti_series"),
                     "gamma - ln pi - 2 ln 2 + 9/4",
                     _closed("constant", lambda: mp.euler - mp.ln(mp.pi) - 2 * mp.ln(2)
                             + mpf(9) / 4), _TERMS),
    "vacca_dual": ("log4pi_paired", _digit("log4pi_paired"),
                   "ln(4/pi)", _closed("constant", lambda: 2 * mp.ln(2) - mp.ln(mp.pi)), _TERMS),
    "p0_zeros": ("zero_sum_p0", lambda zeros, corrected, p: zero_sum_p0(zeros, corrected, p),
                 *_TARGET, {"zeros": None, "with_tail_correction": True}),
}

IDENTITY_IDS = tuple(_IDENTITIES)


def verify_identity(
    identity_id: str,
    terms: Optional[int] = None,
    zeros: Optional[ZeroTable] = None,
    with_tail_correction: Optional[bool] = None,
    precision: int = DEFAULT_PRECISION,
) -> IdentityReport:
    """Evaluate both routes of a named identity and compare.

    An identity takes only the inputs it reads: terms for a series
    identity, zeros (required) and with_tail_correction for p0_zeros.  An
    input it does not read, or a required one missing, is a DomainError.
    The tolerance is the sum of the two routes' tail bounds plus rounding
    slack; the verdict is pass iff the discrepancy stays within it.
    """
    if identity_id not in _IDENTITIES:
        raise DomainError(f"unknown identity {identity_id!r}; "
                          f"known: {', '.join(IDENTITY_IDS)}")
    label_a, route_a, label_b, route_b, reads = _IDENTITIES[identity_id]
    given = {"terms": terms, "zeros": zeros, "with_tail_correction": with_tail_correction}
    for name, value in given.items():
        if value is not None and name not in reads:
            raise DomainError(f"{identity_id} does not read {name}")
        if value is None and name in reads and reads[name] is None:
            raise DomainError(f"{identity_id} needs {name}")
    inputs = [reads[name] if given[name] is None else given[name] for name in reads]
    p = precision
    with workdps(p + _GUARD):
        a = (label_a, route_a(*inputs, p))
        b = (label_b, route_b(None, p))
        discrepancy = abs(a[1].value().value - b[1].value().value)
        tolerance = a[1].tail_bound.value + b[1].tail_bound.value + _rounding_slack(p)
        return IdentityReport(identity_id, a, b, ExtendedReal(discrepancy, p),
                              ExtendedReal(tolerance, p))


def constants(N: Optional[int], p: int) -> dict:
    """What `zetasum constants` prints at N terms (None: a digit identity's
    default) and p digits: each constant -> its two (label, SeriesResult)
    rows, in print order.  Each route runs once: the ln pi row reuses the
    ln(4/pi) row's log4pi_paired sum."""
    if N is None:
        N = _TERMS["terms"]
    with workdps(p + _GUARD):
        log4pi = _digit("log4pi_paired")(N, p)
        return {
            "gamma": (("gamma_addison", _digit("gamma_addison")(N, p)),
                      ("stieltjes[0]", _stieltjes0(N, p))),
            "ln(4/pi)": (("log4pi_paired", log4pi),
                         ("reference",
                          _closed("reference", lambda: 2 * mp.ln(2) - mp.ln(mp.pi))(N, p))),
            "ln 2": (("3/4 - log2_series", _less(mpf(3) / 4, _digit("log2_series")(N, p))),
                     ("reference", _closed("reference", lambda: mp.ln(2))(N, p))),
            "ln pi": (("2 ln 2 - log4pi_paired", _less(2 * mp.ln(2), log4pi)),
                      ("reference", _closed("reference", lambda: mp.ln(mp.pi))(N, p))),
            "gamma - ln(4 pi) + 2": (("main_series", _digit("main_series")(N, p)),
                                     ("p01_integral", p01_integral(N, precision=p))),
        }
