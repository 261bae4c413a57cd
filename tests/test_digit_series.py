import inspect
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import prod

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
from zetasum.numerics import DomainError, ExtendedReal
from tests.conftest import exact_value as _exact

SPECS = {spec.name: spec for spec in digit_series._SPECS}


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


@pytest.mark.parametrize("fn", [main_series, gamma_addison, log2pi_dual])
@pytest.mark.parametrize("N,exact_limit", [(5000, 1000), (20000, 3)])
def test_fixed_point_continuation_encloses_exact_sum(fn, N, exact_limit):
    cont = fn(N, exact_limit=exact_limit)
    exact = fn(N, exact_limit=N)
    assert exact.is_exact_rational() and not cont.is_exact_rational()
    # a point enclosure of the exact partial sum, converted at twice the
    # precision so that its own rounding cannot reach the continuation's ends
    point = replace(exact, tail_bound=ExtendedReal(0, 2 * exact.tail_bound.precision))
    (inner_lo, inner_hi), (outer_lo, outer_hi) = point.enclosure(), cont.enclosure()
    assert outer_lo <= inner_lo
    assert inner_hi <= outer_hi
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
    with workdps(p + 10):
        g, l2, lpi = +mp.euler, mp.ln(2), mp.ln(mp.pi)
        return ExtendedReal({
            "gamma_vacca_alternating": g,
            "log4pi_alternating": 2 * l2 - lpi,
            "gamma_paired": g,
            "log4pi_paired": 2 * l2 - lpi,
            "gamma_addison": g,
            "log2pi_dual": l2 - lpi,
            "combined_pochti": g - lpi + l2,
            "log2_series": mpf(3) / 4 - l2,
            "pochtipochti_series": g - lpi - 2 * l2 + mpf(9) / 4,
            "main_series": g - mp.ln(4 * mp.pi) + 2,
        }[name], p)


@pytest.mark.parametrize("fn", [
    gamma_vacca_alternating, log4pi_alternating, gamma_paired, log4pi_paired,
    gamma_addison, log2pi_dual, combined_pochti, log2_series,
    pochtipochti_series, main_series,
])
def test_series_enclosure_contains_limit(fn):
    lo, hi = fn(50_000).enclosure()
    limit = _limit(fn.__name__)
    assert lo <= limit.value <= hi


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


@pytest.mark.parametrize("positive", [True, False])
def test_enclosure_ends_at_lower_precision(positive):
    # a 40-digit value with a 20-digit bound: each end is computed once at
    # the bound's precision (plus guard digits), rounded outward
    third = Fraction(1, 3)
    r = SeriesResult(ExtendedReal(third, 40).value, 1, ExtendedReal(third / 100, 20),
                     "mixed", positive_terms=positive)
    lo, hi = r.enclosure()
    v, t = r.value().value, r.tail_bound.value
    with workdps(30):
        assert hi == mp.fadd(v, t, rounding="c")
        assert lo == (v if positive else mp.fsub(v, t, rounding="f"))


def test_enclosure_rounds_outward():
    # 1 -+ 10^-70 needs 71 digits; at 50 + guard digits to nearest both
    # ends would be 1, outward they still enclose it
    lo, hi = SeriesResult(mpf(1), 1, ExtendedReal(mpf("1e-70"), 50), "t").enclosure()
    tiny = Fraction(1, 10 ** 70)
    assert _exact(lo) <= 1 - tiny and 1 + tiny <= _exact(hi)


def test_series_result_tail_bound_nonnegative():
    with pytest.raises(DomainError):
        SeriesResult(mpf(1), 1,
                     ExtendedReal(-1, 20), "bad")


def test_series_result_tail_bound_not_nan():
    with pytest.raises(DomainError):
        SeriesResult(mpf(1), 1, ExtendedReal(mpf("nan"), 20), "x")


@pytest.mark.parametrize("value", ["nan", "+inf", "-inf"])
def test_series_result_partial_sum_finite(value):
    # an enclosure of (nan, nan) or (inf, inf) encloses nothing
    with pytest.raises(DomainError, match="partial_sum"):
        SeriesResult(mpf(value), 1, ExtendedReal(mpf(1), 20), "x")


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
    # the least limit sums every term in fixed point: still encloses the
    # exact sum
    cont, exact = fn(N, exact_limit=1), fn(N, exact_limit=N)
    assert exact.is_exact_rational() and not cont.is_exact_rational()
    lo, hi = cont.enclosure()
    assert _exact(lo) <= exact.partial_sum <= _exact(hi)


@pytest.mark.parametrize("name,first", SERIES_FIRST)
def test_no_exact_prefix_above_the_limit(name, first, monkeypatch):
    def no_exact_sum(*args):
        raise AssertionError("exact sum built above exact_limit")

    monkeypatch.setattr(digit_series, "_tree_sum", no_exact_sum)
    fn = getattr(digit_series, name)
    for N, limit in ((first + 1, 1), (first + 5000, 1000), (first + 5001, 1000),
                     (10 ** 6, 10 ** 5)):
        assert not fn(N, exact_limit=limit).is_exact_rational()


def _limit_cases():
    for name, first in SERIES_FIRST:
        # both parities of N for the alternating rows, down to N = first,
        # where no pair is left to fold
        for limit in (1, 2, 1000, 1001) if SPECS[name].alternating else (1000,):
            yield name, first, limit


def _term(spec, n: int) -> Fraction:
    """The row's term at n from its weights: w(n)/prod_{t<=k} (2n + t), or
    w(floor(n/2)) (-1)^n / n for an alternating row."""
    c, b, e = spec.weights
    m = n >> 1 if spec.alternating else n
    w = c * m.bit_count() + b * m.bit_length() + e
    if spec.alternating:
        return Fraction(-w if n & 1 else w, n)
    return Fraction(w, prod(2 * n + t for t in range(len(spec.den))))


@pytest.mark.parametrize("name,first,limit", list(_limit_cases()))
def test_exact_limit_boundary(name, first, limit):
    fn = getattr(digit_series, name)
    spec = SPECS[name]
    # limit terms: the exact sum, against left-to-right Fraction addition
    at = fn(first + limit - 1, exact_limit=limit)
    assert at.is_exact_rational() and at.terms_used == limit
    assert at.partial_sum == \
        sum(_term(spec, n) for n in range(first, first + limit)) + spec.offset
    # one term more: fixed point, enclosing the exact sum
    N = first + limit
    above = fn(N, exact_limit=limit)
    assert not above.is_exact_rational()
    lo, hi = above.enclosure()
    exact = fn(N, exact_limit=N).partial_sum
    assert _exact(lo) <= exact <= _exact(hi)
    # above the limit the limit itself no longer matters
    for N in (first + limit, first + limit + 1):
        lowest, highest = fn(N, exact_limit=1), fn(N, exact_limit=N - first)
        assert lowest.partial_sum == highest.partial_sum
        assert lowest.tail_bound == highest.tail_bound


# -- block continuation ------------------------------------------------------

@lru_cache(maxsize=None)
def _exact_sum(name: str, N: int) -> Fraction:
    return getattr(digit_series, name)(N, exact_limit=N).partial_sum


def _continuation_cases():
    for name, spec in SPECS.items():
        parities = (0, 1) if spec.alternating else (0,)
        for dN in parities:
            for limit in (3, 1000):
                for dl in parities:
                    for precision in (30, 80):
                        yield name, 20_000 + dN, limit + dl, precision


@pytest.mark.parametrize("name,N,exact_limit,precision", list(_continuation_cases()))
def test_block_continuation_encloses_exact_sum(name, N, exact_limit, precision):
    r = getattr(digit_series, name)(N, exact_limit=exact_limit, precision=precision)
    assert not r.is_exact_rational()
    exact = _exact_sum(name, N)
    value = _exact(r.value().value)
    lo, hi = r.enclosure()
    assert _exact(lo) <= exact <= _exact(hi)
    # blocks, single terms and the conversion all round down
    assert value <= exact
    with workdps(precision + 20):
        width = r.tail_bound.value - SPECS[name].bound(N)
        assert exact - value <= _exact(width) < Fraction(1, 10 ** (precision + 5))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_partial_fractions_match_denominator(name):
    # sum_t A_t/(2n + t) = 1/prod(2n + t), and the kernel's denominator is
    # that product
    spec = SPECS[name]
    kernel = digit_series._kernel(spec)
    for n in (1, 2, 7, 1000, 2 ** 40 + 3):
        shifts = range(len(spec.den))
        assert sum(A / (2 * n + t) for t, A in zip(shifts, spec.den)) == \
            Fraction(1, prod(2 * n + t for t in shifts))
        assert kernel(n)[1] == prod(2 * n + t for t in shifts)


def test_moments_match_direct_sums():
    # one cache throughout: levels built out of order, degrees raised later
    cache = []
    for j, degree in ((0, 12), (1, 12), (5, 12), (9, 12), (3, 12), (9, 20),
                      (11, 4), (11, 16)):
        S = digit_series._moments(j, degree, cache)
        assert len(S) > degree
        # rho = 2r - (2^j - 1) and 2 s(r) - j over the block
        pairs = [(2 * r - 2 ** j + 1, 2 * r.bit_count() - j) for r in range(2 ** j)]
        for d in range(degree + 1):
            plain = sum(rho ** d for rho, _ in pairs)
            signed = sum(u * rho ** d for rho, u in pairs)
            # the table holds one parity of each sum; the other vanishes
            assert (S[d], 0) == ((signed, plain) if d % 2 else (plain, signed))


def _tile(lo, hi, k, prec):
    """The pieces of lo..hi, checked to tile it: (blocks, runs of singles)."""
    n, blocks, runs = lo, [], []
    for x, y, j in digit_series._pieces(lo, hi, k, prec):
        assert x == n <= y
        if j:
            assert y - x + 1 == 2 ** j and x % 2 ** j == 0 and 16 * 2 ** j <= x
            assert j >= digit_series._least_level(k, x.bit_length(), prec)
            blocks.append((x, j))
        else:
            runs.append((x, y))
        n = y + 1
    assert n == hi + 1
    return blocks, runs


@pytest.mark.parametrize("lo,hi", [
    (1, 1), (3, 600), (100_003, 10 ** 6), (2 ** 40 - 5, 2 ** 41 + 77)])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("prec", [120, 300])
def test_pieces_tile_the_range(lo, hi, k, prec):
    blocks, runs = _tile(lo, hi, k, prec)
    # O(log hi) pieces: at most 16 blocks per octave plus the ramps at both
    # ends, and a run of single indices only between blocks
    assert len(blocks) <= 16 * (hi.bit_length() - lo.bit_length() + 1) + 2 * hi.bit_length()
    assert len(runs) <= len(blocks) + 1
    if hi > 2 ** 20:
        assert blocks


def test_pieces_take_single_terms_where_blocks_do_not_pay():
    # at ~1000 digits the moment table of a block below 2^20 would cost
    # more than its terms one by one
    assert _tile(100_003, 10 ** 6, 2, 3350) == ([], [(100_003, 10 ** 6)])
    blocks, runs = _tile(100_003, 10 ** 9, 2, 3350)
    assert blocks and min(x for x, _ in blocks) >= 2 ** 20
    # the least level only falls as the precision falls
    for L in range(6, 42):
        levels = [digit_series._least_level(2, L, prec) for prec in (3350, 1000, 300, 120)]
        assert levels == sorted(levels, reverse=True)


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("x,j", [(512, 5), (2 ** 16, 12), (37 * 2 ** 9, 9)])
def test_block_sum_brackets_exact_block(name, x, j):
    # the block's value in units of 2^-B is at most its exact sum and less
    # than len(den) + 2 units below it
    spec = SPECS[name]
    kernel = digit_series._kernel(spec)
    exact = sum(Fraction(*kernel(n)) for n in range(x, x + 2 ** j))
    for B in (120, 300, 1100):
        got = digit_series._block_sum(spec, x, j, B, [])
        scaled = exact * 2 ** B
        assert got <= scaled < got + len(spec.den) + 2


def test_main_series_far_continuation():
    r = main_series(10 ** 12)
    assert r.terms_used == 10 ** 12 - 2
    with workdps(80):
        target = +mp.euler - mp.log(4 * mp.pi) + 2
        v = r.value().value
        assert v <= target <= v + r.tail_bound.value
    assert r.tail_bound.value < mpf("6e-24")


def test_gamma_addison_far_continuation():
    r = gamma_addison(10 ** 9)
    with workdps(80):
        v = r.value().value
        assert v <= +mp.euler <= v + r.tail_bound.value


@pytest.mark.parametrize("fn,constant", [
    (main_series, lambda: mp.euler - mp.log(4 * mp.pi) + 2),
    (log2pi_dual, lambda: mp.log(2 / mp.pi)),
])
def test_high_degree_blocks_enclose_constant(fn, constant):
    # 110 digits over 10^30 terms: blocks of Taylor degree up to ~70 and
    # moment tables to level ~95, against the constant at 130 digits
    r = fn(10 ** 30, precision=110)
    assert r.tail_bound.value < mpf("1e-58")
    lo, hi = r.enclosure()
    with workdps(130):
        assert lo <= constant() <= hi
