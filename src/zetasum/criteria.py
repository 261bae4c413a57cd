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
    SeriesResult,
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
    """
    if len(zeros) == 0:
        raise DomainError("zero_sum_p0 requires a nonempty zero table")
    with workdps(precision + _GUARD):
        quarter = mpf(1) / 4
        acc = mp.zero
        for g in zeros.ordinates:
            acc += 1 / (quarter + g.value * g.value)
        acc *= 2
        T = zeros.max_ordinate()
        fluct = _fluctuation_bound(T)
        if with_tail_correction:
            acc += 2 * _density_tail(T)
            bound = fluct
        else:
            bound = 2 * _density_tail(T) + fluct
        bound += mpf(10) ** (-(precision - 2))
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

    For large ordinates the paired term behaves like n/(1/4 + gamma^2), so
    the density tail correction is n times the zero_sum_p0 one (halved);
    its remainder bound scales the fluctuation slack by n and adds an
    n^2/T^2 term from the next order of the expansion.
    """
    if n < 1:
        raise DomainError("li_lambda requires n >= 1")
    if n > MAX_LI_INDEX:
        raise DomainError(
            f"li_lambda index {n} > {MAX_LI_INDEX}: (1 - 1/rho)^n would lose "
            "all working precision")
    if len(zeros) == 0:
        raise DomainError("li_lambda requires a nonempty zero table")
    with workdps(precision + _GUARD):
        half = mpf(1) / 2
        acc = mp.zero
        for g in zeros.ordinates:
            rho = mpc(half, g.value)
            base = 1 - 1 / rho
            if n > 50:
                # exponential-of-log keeps the error additive in n
                pw = mp.exp(n * mp.log(base))
            else:
                pw = base ** n
            acc += 2 * (1 - pw).real
        T = zeros.max_ordinate()
        fluct = n * _fluctuation_bound(T) + mpf(n) * n / (T * T)
        if with_tail_correction:
            acc += n * _density_tail(T)
            bound = fluct
        else:
            bound = n * _density_tail(T) + fluct
        bound += mpf(10) ** (-(precision - 2))
        return SeriesResult(
            ExtendedReal(acc, precision),
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

    On-line zeros make every x_j real and positive.  n=1 is exactly half of
    the uncorrected zero_sum_p0.  n=2 collapses via power sums to
    2(p1 p3 - p2^2); n=3 runs over ordered triples j<k<l times 3! since the
    squared-difference factors kill every diagonal.  Tail bounds come from
    the density tail of sum x_j scaled by crude sup bounds on the remaining
    factors.
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
        p1 = mp.fsum(xs)
        if n == 1:
            total = p1
            bound = tail1
        elif n == 2:
            p2 = mp.fsum(x * x for x in xs)
            p3 = mp.fsum(x ** 3 for x in xs)
            total = 2 * (p1 * p3 - p2 * p2)
            # a new index j > K contributes sum_k 2 x_j x_k (x_j-x_k)^2
            bound = 4 * x_max ** 2 * (p1 + tail1) * tail1
        else:
            total = mp.zero
            for j in range(K):
                for k in range(j + 1, K):
                    djk = (xs[j] - xs[k]) ** 2
                    base = xs[j] * xs[k] * djk
                    for l in range(k + 1, K):
                        total += base * xs[l] * (xs[j] - xs[l]) ** 2 * (xs[k] - xs[l]) ** 2
            total *= 6
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
