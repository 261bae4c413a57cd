import inspect
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workdps

from zetasum import digit_series
from zetasum.digit_series import (
    DigitCounts,
    SeriesResult,
    combined_pochti,
    digit_counts,
    gamma_addison,
    gamma_paired,
    gamma_vacca_alternating,
    log2_series,
    log2pi_dual,
    log4pi_alternating,
    log4pi_paired,
    main_series,
    pochtipochti_series,
)
from zetasum.numerics import (
    DomainError, ExtendedReal, euler_gamma, ln2, ln_pi, target_constant)


def test_digit_counts_small():
    assert digit_counts(1) == DigitCounts(n0=0, n1=1)
    assert digit_counts(2) == DigitCounts(n0=1, n1=1)
    assert digit_counts(5) == DigitCounts(n0=1, n1=2)  # 101
    assert digit_counts(7).total == 3
    assert digit_counts(8).difference == -2  # 1000


def test_digit_counts_domain():
    with pytest.raises(DomainError):
        digit_counts(0)


# -- frozen exact partial sums (independent Fraction arithmetic) ------------

def test_exact_partial_sums():
    assert main_series(3).partial_sum == Fraction(1, 48)
    assert main_series(4).partial_sum == Fraction(1, 36)
    assert log4pi_paired(3).partial_sum == Fraction(3, 14)
    assert gamma_paired(3).partial_sum == Fraction(11, 35)
    assert combined_pochti(3).partial_sum == Fraction(47, 420)
    assert log2_series(3).partial_sum == Fraction(89, 1680)
    assert pochtipochti_series(3).partial_sum == Fraction(13, 48)
    assert gamma_addison(3).partial_sum == Fraction(79, 140)
    assert log2pi_dual(3).partial_sum == Fraction(-19, 42)


def test_vacca_frozen_value():
    r = gamma_vacca_alternating(100)
    assert r.is_exact_rational()
    assert abs(float(r.partial_sum) - 0.5992328278445979) < 1e-15


def test_exact_limit_switch():
    exact = main_series(50, exact_limit=100)
    approx = main_series(50, exact_limit=10)
    assert exact.is_exact_rational()
    assert not approx.is_exact_rational()
    with workdps(60):
        diff = abs(approx.value().value -
                   mpf(exact.partial_sum.numerator) / exact.partial_sum.denominator)
        assert diff < mpf(10) ** -45


def _exact(x: mpf) -> Fraction:
    man, exp = x.man_exp  # man is the absolute mantissa
    return int(mp.sign(x)) * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("fn", [main_series, gamma_addison, log2pi_dual])
@pytest.mark.parametrize("N,exact_limit", [(5000, 1000), (20000, 3)])
def test_fixed_point_continuation_encloses_exact_sum(fn, N, exact_limit):
    cont = fn(N, exact_limit=exact_limit)
    exact = fn(N, exact_limit=N)
    assert exact.is_exact_rational() and not cont.is_exact_rational()
    # a point enclosure of the exact partial sum, converted at twice the
    # precision so that its own rounding cannot reach the continuation's ends
    point = replace(exact, tail_bound=ExtendedReal.of(0, 2 * exact.tail_bound.precision))
    inner, outer = point.enclosure(), cont.enclosure()
    assert outer.lower.value <= inner.lower.value
    assert inner.upper.value <= outer.upper.value
    # the floors and the downward conversion keep the value a lower end
    assert _exact(cont.value().value) <= exact.partial_sum
    widening = cont.tail_bound.value - exact.tail_bound.value
    assert 0 < widening <= mpf("1e-55")


def test_paired_equals_alternating_exactly():
    for N in (1, 2, 3, 10, 64, 100):
        assert gamma_paired(N).partial_sum == \
            gamma_vacca_alternating(2 * N + 1).partial_sum
        assert log4pi_paired(N).partial_sum == \
            log4pi_alternating(2 * N + 1).partial_sum


# -- convergence: enclosure contains the limit ------------------------------

def _limit(name):
    p = 40
    g = euler_gamma(p)
    l2 = ln2(p)
    lpi = ln_pi(p)
    return {
        "gamma_vacca_alternating": g,
        "log4pi_alternating": 2 * l2 - lpi,
        "gamma_paired": g,
        "log4pi_paired": 2 * l2 - lpi,
        "gamma_addison": g,
        "log2pi_dual": l2 - lpi,
        "combined_pochti": g - lpi + l2,
        "log2_series": 0.75 - l2,
        "pochtipochti_series": g - lpi - 2 * l2 + 2.25,
        "main_series": target_constant(p),
    }[name]


@pytest.mark.parametrize("fn", [
    gamma_vacca_alternating, log4pi_alternating, gamma_paired, log4pi_paired,
    gamma_addison, log2pi_dual, combined_pochti, log2_series,
    pochtipochti_series, main_series,
])
def test_series_enclosure_contains_limit(fn):
    r = fn(50_000)
    limit = _limit(fn.__name__)
    assert r.enclosure().contains(limit.value)


@pytest.mark.parametrize("fn,minimum", [
    (gamma_vacca_alternating, 2), (log4pi_alternating, 2), (gamma_paired, 1),
    (log4pi_paired, 1), (gamma_addison, 1), (log2pi_dual, 1),
    (combined_pochti, 1), (log2_series, 1), (pochtipochti_series, 1),
    (main_series, 3),
])
def test_domain_errors(fn, minimum):
    with pytest.raises(DomainError):
        fn(minimum - 1)


def test_positive_flags():
    assert main_series(100).positive_terms
    assert combined_pochti(100).positive_terms
    assert log2_series(100).positive_terms
    assert gamma_addison(100).positive_terms
    assert gamma_paired(100).positive_terms
    assert not gamma_vacca_alternating(100).positive_terms


def test_exact_decomposition():
    # main_series(N) = combined_pochti(N) + 3*log2_series(N) minus the
    # first two cubic-denominator terms (n=1 gives 5/24, n=2 gives 1/24)
    head = Fraction(5, 24) + Fraction(1, 24)
    for N in (3, 4, 10, 100):
        lhs = main_series(N).partial_sum
        rhs = combined_pochti(N).partial_sum + 3 * log2_series(N).partial_sum - head
        assert lhs == rhs


def test_monotone_convergence_positive_series():
    for fn in (gamma_paired, gamma_addison, combined_pochti, log2_series,
               pochtipochti_series, main_series):
        values = [fn(N).value().value for N in (5, 10, 20, 40)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_series_result_tail_bound_nonnegative():
    from zetasum.numerics import ExtendedReal
    with pytest.raises(DomainError):
        SeriesResult(ExtendedReal.of(1, 20), 1,
                     ExtendedReal.of(-1, 20), "bad")


# every generated series function with its first index
SERIES_FIRST = [
    ("gamma_vacca_alternating", 2), ("log4pi_alternating", 2), ("gamma_paired", 1),
    ("log4pi_paired", 1), ("gamma_addison", 1), ("log2pi_dual", 1),
    ("combined_pochti", 1), ("log2_series", 1), ("pochtipochti_series", 1),
    ("main_series", 3),
]


@pytest.mark.parametrize("name,first", SERIES_FIRST)
def test_generated_series_function(name, first):
    fn = getattr(digit_series, name)
    assert fn.__name__ == name
    assert fn.__doc__.strip()
    params = inspect.signature(fn).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        ("N", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("exact_limit", inspect.Parameter.POSITIONAL_OR_KEYWORD, 100_000),
        ("precision", inspect.Parameter.POSITIONAL_OR_KEYWORD, 50),
    ]
    assert fn(first).series_id == name
    with pytest.raises(DomainError, match=f"^{name} requires N >= {first}$"):
        fn(first - 1)


@pytest.mark.parametrize("name,first", SERIES_FIRST)
def test_exact_limit_below_one_rejected(name, first):
    fn = getattr(digit_series, name)
    N = first + 20
    for bad in (0, -3):
        with pytest.raises(DomainError):
            fn(N, exact_limit=bad)
    # one exact term, the rest in fixed point: still encloses the exact sum
    cont, exact = fn(N, exact_limit=1), fn(N, exact_limit=N)
    assert exact.is_exact_rational() and not cont.is_exact_rational()
    enclosure = cont.enclosure()
    assert _exact(enclosure.lower.value) <= exact.partial_sum <= _exact(enclosure.upper.value)
