"""Zero-sum quantities and the cross-representation identity verifier.

Zero sums fold conjugate pairs onto positive ordinates: with rho = 1/2 +
i*gamma on the critical line, rho(1-rho) = 1/4 + gamma^2 is real, so every
quantity here is real by construction.  Truncated sums can be completed
with a density-based tail correction using the smoothed zero density
ln(t/2pi)/(2pi); the remainder bound for that correction is heuristic
(zero-count fluctuations), so tail-corrected results carry a visibly wider
tolerance than plain series results.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, fsum
from typing import Optional

from mpmath import mp, mpf, mpc, workdps

from .numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExtendedReal,
    _GUARD,
    euler_gamma,
    ln2,
    ln_pi,
    target_constant,
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
class TailCorrection:
    """Density-based completion of a zero sum truncated at height T."""

    T: ExtendedReal
    correction: ExtendedReal
    bound_on_remainder: ExtendedReal

    def __post_init__(self):
        if self.correction.value < 0:
            raise DomainError("tail correction must be nonnegative")
        if self.bound_on_remainder.value < 0:
            raise DomainError("remainder bound must be nonnegative")


@dataclass(frozen=True)
class IdentityReport:
    """Two independent routes to the same quantity, compared."""

    identity_id: str
    route_a: tuple  # (label, SeriesResult)
    route_b: tuple  # (label, SeriesResult)
    discrepancy: ExtendedReal
    tolerance: ExtendedReal
    verdict: str  # "pass" | "fail"

    def __post_init__(self):
        expect = "pass" if self.discrepancy.value <= self.tolerance.value else "fail"
        if self.verdict != expect:
            raise DomainError("verdict inconsistent with discrepancy/tolerance")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


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

    With the tail correction the omitted zeros above the table height T are
    replaced by the density integral (ln(T/2pi) + 1)/(pi T) and the tail
    bound shrinks to the fluctuation slack 4 ln(T)/T^2; without it the
    bound is the correction plus that slack, and partial sums increase
    monotonically from below.

    Either way the bound also carries the table's claimed accuracy delta:
    |d/dg 1/(1/4 + g^2)| = 2g/(1/4 + g^2)^2 < 2/g^3, and both the true
    ordinate and the mean-value point lie within delta of the listed g, so
    each pair, counted twice, moves the sum by less than
    4 delta/(g - delta)^3 <= 4 delta (g1/(g1 - delta))^3 / g^3, g1 the
    first ordinate.  sum g^-3 is taken in floats: each term and fsum round
    at most four times by 2^-53, which the factor 1 + 2^-48 covers.
    """
    if len(zeros) == 0:
        raise DomainError("zero_sum_p0 requires a nonempty zero table")
    with workdps(precision + _GUARD):
        quarter = mpf(1) / 4
        acc = mp.zero
        for g in zeros.ordinates:
            acc += 1 / (quarter + g.value * g.value)
        acc *= 2
        delta = zeros.claimed_accuracy.value
        g1 = zeros.ordinates[0].value
        inv_cubes = fsum(float(g.value) ** -3 for g in zeros.ordinates)
        moved = 4 * delta * (g1 / (g1 - delta)) ** 3 * inv_cubes * (1 + mpf(2) ** -48)
        T = zeros.max_ordinate()
        fluct = _fluctuation_bound(T)
        if with_tail_correction:
            acc += 2 * _density_tail(T)
            bound = fluct
        else:
            bound = 2 * _density_tail(T) + fluct
        bound += moved + mpf(10) ** (-(precision - 2))
        return SeriesResult(
            ExtendedReal(acc, precision),
            len(zeros),
            ExtendedReal(bound, precision),
            "zero_sum_p0",
            positive_terms=not with_tail_correction,
        )


def tail_correction_p0(zeros: ZeroTable, precision: int = DEFAULT_PRECISION) -> TailCorrection:
    """The density completion applied by zero_sum_p0, as a record."""
    if len(zeros) == 0:
        raise DomainError("empty zero table")
    with workdps(precision + _GUARD):
        T = zeros.max_ordinate()
        return TailCorrection(
            ExtendedReal(T, precision),
            ExtendedReal(2 * _density_tail(T), precision),
            ExtendedReal(_fluctuation_bound(T), precision),
        )


def li_lambda(
    n: int,
    zeros: ZeroTable,
    with_tail_correction: bool = True,
    precision: int = DEFAULT_PRECISION,
) -> SeriesResult:
    """Keiper-Li coefficient lambda_n = sum over zeros of 1 - (1-1/rho)^n,
    folded over conjugate pairs as 2 Re(1 - (1 - 1/rho)^n).

    On the critical line 1 - 1/rho = e^{2it} with t = atan(1/(2 gamma)), so
    the paired term is 2 v_n with v_n = 1 - cos(2nt) = 2 sin^2(nt).  With
    x = 1/(1/4 + gamma^2), v_1 = x/2 and 0 <= v_n <= n^2 x/2, since
    |sin nt| <= n |sin t|: for large gamma the term behaves like n^2 x.

    Each v_n is computed in fixed point with B fraction bits: one integer
    division gives v_1 from the ordinate's exact mantissa and exponent, and
    a Lucas ladder over the bits of n applies the Chebyshev rules
    v_{2k} = 4 v_k - 2 v_k^2 and
    v_{2k+1} = 2(v_k + v_{k+1} - v_k v_{k+1}) - v_1,
    flooring every product: O(log n) integer operations per zero, with no
    complex powers and no cancellation.

    Rounding: v_1 errs by less than one unit of 2^-B and each step's floor
    by less than two.  The rules' partial derivatives are 2 cos(2kt), so a
    level takes the pair's error E to at most 4E + 3.  Over the
    L = bit_length(n) levels from (v_0, v_1) = (0, v_1) the error stays
    below 2 * 4^L <= 8 n^2 units, n^2 being also the Lipschitz factor
    |dv_n/dv_1| of the whole ladder.  The paired sum over K zeros thus errs
    by less than 16 n^2 K units; c = _LI_ROUNDING = 32 doubles that to cover
    rounded cosines exceeding 1.  B = working bits + (c n^2 K).bit_length()
    + 8, and c n^2 K units plus one ulp of the conversion go into the tail
    bound.

    Tail: every omitted term lies in [0, n^2 x].  With D the density
    integral of x above the table height T and F the heuristic fluctuation
    slack, the uncorrected bound is n^2 (D + F).  The correction adds
    n^2 D, with remainder bound n^2 F + n^2(n^2 - 1)/12 (D + F)/(1/4 + T^2),
    which rests on

        4 sin^2(nt) >= n^2 x - n^2(n^2 - 1) x^2 / 12   for every t.

    It is an equality at n = 1, 2.  Where x <= 56/(n^2 - 9) (everywhere for
    n <= 3) it follows from Taylor's theorem for T_n at 1 with V. Markov's
    bound |T_n''''| <= T_n''''(1) on [-1, 1]; where x > 12/(n^2 - 1) its
    right side is negative.
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
        n2 = n * n
        floors = _LI_ROUNDING * n2 * len(zeros)
        B = mp.prec + floors.bit_length() + _FIXED_GUARD_BITS
        ladder = [bit == "1" for bit in bin(n)[3:]]
        acc = 0
        for g in zeros.ordinates:
            # v_1 = x/2 = 2/(4 m^2 2^(2e) + 1) for gamma = m 2^e
            m, e = g.value.man_exp
            if e < 0:
                v1 = (1 << (B + 1 - 2 * e)) // ((m * m << 2) + (1 << -2 * e))
            else:
                v1 = (1 << (B + 1)) // ((m * m << (2 + 2 * e)) + 1)
            a, b = v1, 4 * v1 - 2 * (v1 * v1 >> B)  # (v_k, v_{k+1}) at k = 1
            for odd in ladder:
                mixed = 2 * (a + b - (a * b >> B)) - v1
                if odd:
                    a, b = mixed, 4 * b - 2 * (b * b >> B)
                else:
                    a, b = 4 * a - 2 * (a * a >> B), mixed
            acc += a
        value, rounding = _from_fixed(2 * acc, B, floors)
        T = zeros.max_ordinate()
        D, fluct = _density_tail(T), _fluctuation_bound(T)
        if with_tail_correction:
            value += n2 * D
            bound = n2 * fluct + mpf(n2 * (n2 - 1)) / 12 * (D + fluct) / (mpf(1) / 4 + T * T)
        else:
            bound = n2 * (D + fluct)
        bound += rounding + mpf(10) ** (-(precision - 2))
        return SeriesResult(
            ExtendedReal(value, precision),
            len(zeros),
            ExtendedReal(bound, precision),
            f"li_lambda[{n}]",
        )


def g_value(z, precision: int = DEFAULT_PRECISION):
    """1/(z(1-z)); real for z on the critical line.  Returns ExtendedReal
    when the result is real (to working accuracy), else an mpc."""
    with workdps(precision + _GUARD):
        zv = mpc(z.value, 0) if isinstance(z, ExtendedReal) else mpc(z)
        denom = zv * (1 - zv)
        if denom == 0:
            raise DomainError("g_value has poles at z = 0 and z = 1")
        w = 1 / denom
        if abs(w.imag) <= mpf(10) ** (-(precision - 2)) * max(abs(w.real), mpf(1)):
            return ExtendedReal(w.real, precision)
        return w


def _x_values(zeros: ZeroTable, K: int):
    quarter = mpf(1) / 4
    return [1 / (quarter + g.value * g.value) for g in zeros.ordinates[:K]]


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
    on the remaining factors.
    """
    if n not in (1, 2, 3):
        raise DomainError("gn_multisum supports n in {1, 2, 3}")
    if K < 1 or K > len(zeros):
        raise DomainError(f"K={K} outside 1..{len(zeros)}")
    with workdps(precision + _GUARD):
        xs = _x_values(zeros, K)
        T = zeros.ordinates[K - 1].value
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
        bound += mpf(10) ** (-(precision - 2)) * max(1, abs(total))
        return SeriesResult(
            ExtendedReal(total, precision),
            K,
            ExtendedReal(bound, precision),
            f"gn_multisum[{n}]",
            positive_terms=(n == 1),
        )


# ---------------------------------------------------------------------------
# Identity verifier

def _const_route(label: str, value: ExtendedReal, precision: int) -> SeriesResult:
    slack = ExtendedReal.of(mpf(10) ** (-(precision - 2)), precision)
    return SeriesResult(value, 0, slack, label)


_TARGET = ("gamma - ln(4 pi) + 2",
           lambda p: _const_route("constant", target_constant(p), p))

# identity id -> (label_a, route_a(N, p), label_b, route_b(p), default N).
# Each route looks its function up by name when it runs, so that a module
# global replaced at run time (as a tracer does) is the one called.
_IDENTITIES = {
    "itog": ("main_series", lambda N, p: main_series(N, precision=p),
             *_TARGET, 1_000_000),
    "p01": ("p01_integral", lambda N, p: p01_integral(N, precision=p),
            *_TARGET, 1_000),
    "p12": ("p12_series", lambda N, p: p12_series(N, precision=p),
            *_TARGET, 10_000),
    "pochti": ("combined_pochti", lambda N, p: combined_pochti(N, precision=p),
               "gamma - ln pi + ln 2",
               lambda p: _const_route("constant", euler_gamma(p) - ln_pi(p) + ln2(p), p),
               100_000),
    "log2": ("log2_series", lambda N, p: log2_series(N, precision=p),
             "3/4 - ln 2",
             lambda p: _const_route("constant", ExtendedReal.of(0.75, p) - ln2(p), p),
             100_000),
    "addison": ("gamma_addison", lambda N, p: gamma_addison(N, precision=p),
                "stieltjes(0)", lambda p: stieltjes(StieltjesRequest(0), p),
                100_000),
    "vacca_dual": ("log4pi_paired", lambda N, p: log4pi_paired(N, precision=p),
                   "ln(4/pi)", lambda p: _const_route("constant", 2 * ln2(p) - ln_pi(p), p),
                   100_000),
    "dual_addison": ("log2pi_dual", lambda N, p: log2pi_dual(N, precision=p),
                     "ln(2/pi)", lambda p: _const_route("constant", ln2(p) - ln_pi(p), p),
                     100_000),
    "pochtipochti": ("pochtipochti_series",
                     lambda N, p: pochtipochti_series(N, precision=p),
                     "gamma - ln pi - 2 ln 2 + 9/4",
                     lambda p: _const_route(
                         "constant",
                         euler_gamma(p) - ln_pi(p) - 2 * ln2(p)
                         + ExtendedReal.of(mpf(9) / 4, p), p),
                     100_000),
}

IDENTITY_IDS = tuple(sorted(_IDENTITIES)) + ("p0_zeros",)


def verify_identity(
    identity_id: str,
    terms: Optional[int] = None,
    zeros: Optional[ZeroTable] = None,
    with_tail_correction: bool = True,
    precision: int = DEFAULT_PRECISION,
) -> IdentityReport:
    """Evaluate both routes of a named identity and compare.

    The tolerance is the sum of the two routes' tail bounds plus rounding
    slack; the verdict is pass iff the discrepancy stays within it.
    """
    p = precision
    with workdps(p + _GUARD):
        if identity_id == "p0_zeros":
            if zeros is None or len(zeros) == 0:
                raise DomainError("p0_zeros needs a nonempty zero table")
            a = ("zero_sum_p0", zero_sum_p0(zeros, with_tail_correction, p))
            label_b, route_b = _TARGET
        elif identity_id in _IDENTITIES:
            label_a, route_a, label_b, route_b, default = _IDENTITIES[identity_id]
            a = (label_a, route_a(terms if terms is not None else default, p))
        else:
            raise DomainError(f"unknown identity {identity_id!r}; "
                              f"known: {', '.join(IDENTITY_IDS)}")
        b = (label_b, route_b(p))
        va = a[1].value(p)
        vb = b[1].value(p)
        discrepancy = abs(va - vb)
        tolerance = a[1].tail_bound + b[1].tail_bound + \
            ExtendedReal.of(mpf(10) ** (-(p - 2)), p)
        verdict = "pass" if discrepancy.value <= tolerance.value else "fail"
        return IdentityReport(identity_id, a, b, discrepancy, tolerance, verdict)
