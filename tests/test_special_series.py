import time
from itertools import islice

import pytest
from mpmath import mp, mpf, workdps, workprec

from zetasum.numerics import DomainError, target_constant
from zetasum.special_series import (
    StieltjesRequest,
    _em_remainder_bound,
    _log_power_derivative_coeffs,
    _log_table,
    p01_integral,
    p01_term,
    p12_closed_form,
    p12_series,
    p12_term,
    stieltjes,
)
from tests.conftest import p01_integrand, quadrature

# independently computed reference values (40-digit Euler-Maclaurin /
# quadrature oracles, frozen)
GAMMA_0 = "0.5772156649015328606065120900824024310422"
GAMMA_1 = "-0.07281584548367672486058637587490131913774"
P01_TERM_1 = "0.03768207245178092743921900599382743150351"
P01_TERM_2 = "0.00558184494858393936063721401927519200907"
P12_TERM_1 = "0.1159315156584124488107200313757741370333"
P12_TERM_2 = "0.01731922699030275741547479445324843238585"


def test_stieltjes_request_validation():
    with pytest.raises(DomainError):
        StieltjesRequest(-1)
    with pytest.raises(DomainError):
        StieltjesRequest(9)
    with pytest.raises(DomainError):
        StieltjesRequest(0, n_terms=5)
    for order in (3, 0, -2):
        with pytest.raises(DomainError):
            StieltjesRequest(0, correction_order=order)
    assert StieltjesRequest(0, correction_order=40).correction_order == 40


def test_stieltjes_gamma0():
    r = stieltjes(StieltjesRequest(0, 10_000), 30)
    with workdps(45):
        assert abs(r.value().value - mpf(GAMMA_0)) < mpf(10) ** -14
        assert abs(r.value().value - mpf(GAMMA_0)) < r.tail_bound.value


def test_stieltjes_gamma1():
    r = stieltjes(StieltjesRequest(1, 10_000, correction_order=6), 30)
    with workdps(45):
        assert abs(r.value().value - mpf(GAMMA_1)) < mpf(10) ** -12


def test_stieltjes_tail_bound_sound(stieltjes_reference):
    # the reference is the default certified request, whose own bound is
    # checked as well
    for m in (0, 1, 2):
        small = stieltjes(StieltjesRequest(m, 1000), 30)
        ref = stieltjes(StieltjesRequest(m), 30)
        assert ref.tail_bound.value < mpf(10) ** -25
        diff = abs(small.value().value - ref.value().value)
        assert diff <= small.tail_bound.value
    # at P = 30 those bounds are mostly the rounding floor; at 20 terms and
    # order 2 the remainder is the bound (~1e-7, error/bound 0.50 for m = 0
    # and 0.11 for m = 1), so a remainder bound 10x too small shows here
    for m in (0, 1):
        r = stieltjes(StieltjesRequest(m, 20, correction_order=2), 60)
        assert r.tail_bound.value > mpf(10) ** -8
        assert _encloses(r, stieltjes_reference[m])


@pytest.fixture(scope="module")
def stieltjes_reference():
    with workdps(100):
        return [mp.stieltjes(m) for m in range(9)]


def _encloses(r, ref):
    with workdps(110):
        return abs(r.value().value - ref) <= r.tail_bound.value


@pytest.mark.parametrize("m, N", [(5, 1000), (8, 100)])
def test_stieltjes_bound_holds_past_sign_changes(m, N, stieltjes_reference):
    # at order 4, f^(6) changes sign beyond N here, and the error exceeds
    # the first omitted correction (6.7017e-19 against 6.7016e-19 at
    # (5, 1000), 1.00631e-11 against 1.00621e-11 at (8, 100))
    r = stieltjes(StieltjesRequest(m, N, correction_order=4))
    assert _encloses(r, stieltjes_reference[m])


@pytest.mark.parametrize("p", [30, 50, 80])
def test_stieltjes_defaults_certified(p, stieltjes_reference):
    for m in range(9):
        r = stieltjes(StieltjesRequest(m), p)
        assert r.terms_used == 4 * p
        assert _encloses(r, stieltjes_reference[m])
        assert r.tail_bound.value < mpf(10) ** -(p - 3)


def test_stieltjes_explicit_request_honoured():
    for req in (StieltjesRequest(3, 137), StieltjesRequest(3, 137, 6),
                StieltjesRequest(8, 2000, 40)):
        assert stieltjes(req, 30).terms_used == req.n_terms
    # the order is used as given: order 2 at N = 10 is far coarser
    assert stieltjes(StieltjesRequest(0, 10, 2), 30).tail_bound.value > mpf(10) ** -8


# the automatic correction order for m = 0..8 at each (P, N), N = None
# standing for the default 4P; the orders of the mpf implementation
# before fixed point, pinned
_AUTO_ORDERS = {
    (15, None): [8, 8, 8, 8, 10, 10, 10, 12, 12],
    (15, 20): [12, 12, 12, 14, 14, 16, 16, 16, 18],
    (15, 137): [6, 6, 6, 8, 8, 8, 8, 8, 10],
    (15, 1000): [4, 4, 4, 4, 6, 6, 6, 6, 6],
    (30, None): [14, 14, 16, 16, 16, 16, 18, 18, 18],
    (30, 20): [30, 32, 32, 34, 36, 38, 38, 40, 42],
    (30, 137): [14, 14, 14, 16, 16, 16, 16, 18, 18],
    (30, 1000): [10, 10, 10, 10, 10, 10, 12, 12, 12],
    (50, None): [24, 24, 24, 26, 26, 26, 26, 28, 28],
    (50, 20): [88, 96, 104, 124, 124, 124, 124, 124, 124],
    (50, 137): [26, 26, 28, 28, 28, 30, 30, 30, 32],
    (50, 1000): [16, 16, 18, 18, 18, 18, 18, 20, 20],
    (80, None): [38, 38, 38, 38, 40, 40, 40, 42, 42],
    (80, 20): [124, 124, 124, 124, 124, 124, 124, 124, 124],
    (80, 137): [48, 48, 50, 50, 52, 52, 52, 54, 54],
    (80, 1000): [28, 30, 30, 30, 30, 32, 32, 32, 32],
}


@pytest.mark.parametrize("p, N", list(_AUTO_ORDERS))
def test_stieltjes_auto_order_pinned(p, N, stieltjes_reference):
    # the automatic request equals the explicit one at the pinned order,
    # value and bound (an order 2 apart would take another majorant), and
    # encloses gamma_m; at N = 20 the bound stops decreasing near
    # p ~ 2 pi N before 10^-(P+2)
    for m, order in enumerate(_AUTO_ORDERS[p, N]):
        auto = stieltjes(StieltjesRequest(m, N), p)
        pinned = stieltjes(StieltjesRequest(m, N, order), p)
        assert (auto.partial_sum, auto.tail_bound) == (pinned.partial_sum, pinned.tail_bound)
        assert auto.terms_used == (N or 4 * p)
        assert _encloses(auto, stieltjes_reference[m])


def test_stieltjes_defaults_certified_at_150_digits():
    for m in (0, 4, 8):
        r = stieltjes(StieltjesRequest(m), 150)
        with workdps(170):
            assert abs(r.value().value - mp.stieltjes(m)) <= r.tail_bound.value
        assert r.tail_bound.value < mpf(10) ** -147


@pytest.mark.parametrize("F", [53, 200])
def test_log_table_within_its_stated_error(F):
    # each entry lies below 2^F ln n by less than twice n's bit length
    table = _log_table(20_000, F)
    assert len(table) == 20_001
    with workprec(2 * F):
        for n in range(1, 20_001):
            exact = mp.ldexp(mp.ln(n), F)
            assert table[n] <= exact < table[n] + 2 * n.bit_length(), n


@pytest.mark.parametrize("m, N, p", [(0, 10, 4), (0, 200, 42), (2, 50, 6),
                                     (5, 1000, 6), (8, 100, 6), (8, 12, 10)])
def test_em_remainder_majorant(m, N, p):
    # the majorant is at least the DLMF 2.10.1 bound 2|B_p|/p! times
    # int_N^inf |f^(p)| = N^-p/p int_0^inf |P(ln N + v/p)| e^-v dv, with
    # P(u) = sum_a c_a u^a, taken by quadrature split where P changes sign;
    # for m = 0 the two are equal, twice the first omitted correction
    # |B_p| N^-p / p
    with workdps(40):
        c = list(islice(_log_power_derivative_coeffs(m), p + 1))[p]
        ln_N = mp.ln(N)
        bound = mp.ldexp(_em_remainder_bound(c, p, N, int(mp.ceil(mp.ldexp(ln_N, 512))), 512),
                         -512)
        poly = [c.get(a, 0) for a in range(max(c), -1, -1)]
        roots = mp.polyroots(poly, maxsteps=200, extraprec=200) if m else []
        cuts = sorted(p * (mp.re(r) - ln_N) for r in roots
                      if abs(mp.im(r)) < mpf(10) ** -20 and mp.re(r) > ln_N)
        integrand = lambda v: abs(mp.polyval(poly, ln_N + v / p)) * mp.exp(-v)
        dlmf = 2 * abs(mp.bernoulli(p)) / mp.factorial(p) / (p * mpf(N) ** p) * \
            mp.quad(integrand, [0] + cuts + [mp.inf])
        assert dlmf <= bound * (1 + mpf(10) ** -30)
        if m == 0:
            assert abs(bound - dlmf) <= bound * mpf(10) ** -30
            assert abs(bound - 2 * abs(mp.bernoulli(p)) / (p * mpf(N) ** p)) \
                <= bound * mpf(10) ** -30


def test_p01_term_frozen():
    with workdps(45):
        assert abs(p01_term(1, 35).value - mpf(P01_TERM_1)) < mpf(10) ** -33
        assert abs(p01_term(2, 35).value - mpf(P01_TERM_2)) < mpf(10) ** -33


def test_p01_term_positive():
    for n in (1, 2, 3, 10, 100, 10_000):
        assert p01_term(n).value > 0


def test_p01_term_matches_quadrature():
    for n in (1, 3, 17):
        lo, hi = quadrature(p01_integrand, n, n + 1, target_error=1e-25, precision=35)
        assert lo <= p01_term(n, 35).value <= hi


def test_p01_integral_converges_to_target():
    r = p01_integral(1000, 30)
    assert r.positive_terms
    lo, hi = r.enclosure()
    assert lo <= target_constant(30).value <= hi


def test_p01_integral_bound_covers_rounding():
    # at 20 digits the sum is lowered by its rounding term r, and the bound
    # widened by 2r: the 60-digit sum lies between the two ends
    N = 300
    low, high = p01_integral(N, 20), p01_integral(N, 60)
    with workdps(80):
        r = (low.tail_bound.value - mpf(1) / (6 * (N + 1) ** 3)) / 2
        assert 0 < r < mpf(10) ** -20
        v = low.value().value
        assert v <= high.value().value <= v + 2 * r


def _p01_rounding(r, N):
    # the returned sum is lowered by its rounding term and the bound widened
    # by twice that term
    return (r.tail_bound.value - mpf(1) / (6 * (N + 1) ** 3)) / 2


@pytest.mark.parametrize("Ns", [range(1, 41), [1000]], ids=["1..40", "1000"])
def test_p01_integral_closed_form_matches_term_sum(Ns):
    # the closed form against the per-term oracle summed at 60 digits: the
    # sum lies between the returned value and value + 2r
    for N in Ns:
        r = p01_integral(N, 30)
        with workdps(80):
            terms = mp.fsum(p01_term(n, 60).value for n in range(1, N + 1))
            rounding = _p01_rounding(r, N)
            v = r.value().value
            assert 0 < rounding < mpf(10) ** -40
            assert v <= terms <= v + 2 * rounding, N


def test_p01_integral_encloses_quadrature_reference():
    # the whole integral by an 80-digit quadrature, independent of the
    # closed form: over all unit intervals the partial fractions of
    # 1/(q^2 (q+1)^2) at q = n + u sum to
    # 2 psi'(1+u) - 1/(1+u)^2 - 2/(1+u)
    with workdps(80):
        reference = mp.quad(lambda u: (1 - u * u) / 2 * (
            2 * mp.psi(1, 1 + u) - 1 / (1 + u) ** 2 - 2 / (1 + u)), [0, 1])
        assert abs(reference - target_constant(70).value) < mpf(10) ** -70
    for N in (1, 2, 3, 1000):
        lo, hi = p01_integral(N, 50).enclosure()
        assert lo <= reference <= hi, N


def test_p01_integral_closed_form_is_fast():
    # one log-gamma and N integer divisions, not N terms of logarithms
    t = time.perf_counter()
    r = p01_integral(10 ** 5)
    assert time.perf_counter() - t < 1.0
    with workdps(80):
        assert 0 < _p01_rounding(r, 10 ** 5) < mpf(10) ** -55


def test_p01_domain():
    with pytest.raises(DomainError):
        p01_term(0)
    with pytest.raises(DomainError):
        p01_integral(0)


def test_p12_term_frozen():
    with workdps(45):
        assert abs(p12_term(1, 35).value - mpf(P12_TERM_1)) < mpf(10) ** -33
        assert abs(p12_term(2, 35).value - mpf(P12_TERM_2)) < mpf(10) ** -33


def test_p12_term_positive():
    for n in (1, 2, 3, 10, 1000, 100_000):
        assert p12_term(n).value > 0


def test_p12_series_raw_within_bound():
    r = p12_series(500, accelerate=False, precision=30)
    assert r.positive_terms
    limit = p12_closed_form(30)
    assert abs(r.value().value - limit.value) <= r.tail_bound.value


def test_p12_series_accelerated():
    r = p12_series(1000, accelerate=True, precision=40)
    limit = p12_closed_form(40)
    with workdps(50):
        err = abs(r.value().value - limit.value)
        assert err < mpf(10) ** -13
        assert err <= r.tail_bound.value


@pytest.mark.parametrize("precision", [30, 50])
def test_p12_series_telescoped_matches_term_sum(precision):
    for N in (1, 2, 3, 10, 200):
        raw = p12_series(N, accelerate=False, precision=precision)
        accelerated = p12_series(N, accelerate=True, precision=precision)
        with workdps(precision + 20):
            terms = mp.fsum(p12_term(n, precision).value for n in range(1, N + 1))
            assert abs(raw.value().value - terms) <= mpf(10) ** -(precision - 2)
            # the closed-form tail -sum_{n>N} (psi''(n)/24 + psi''''(n)/1920)
            x = mpf(N + 1)
            tail = (2 * mp.psi(1, x) + N * mp.psi(2, x)) / 24 + \
                (4 * mp.psi(3, x) + N * mp.psi(4, x)) / 1920
            gap = accelerated.value().value - raw.value().value - tail
            assert abs(gap) <= mpf(10) ** -(precision + 8)


def test_p12_limit_is_not_the_main_constant():
    # the midpoint series telescopes to (1 - ln 2)/2, which differs from
    # gamma - ln(4 pi) + 2 in the second decimal
    with workdps(40):
        gap = abs(p12_closed_form(30).value - target_constant(30).value)
        assert gap > mpf("0.1")


def test_cross_identity_stieltjes_vs_p01():
    # stieltjes(0) - ln(4 pi) + 2 and the integral route agree within the
    # sum of their tail bounds
    s = stieltjes(StieltjesRequest(0, 20_000), 30)
    p = p01_integral(2000, 30)
    with workdps(40):
        a = s.value().value - mp.ln(4 * mp.pi) + 2
        assert abs(a - p.value().value) <= \
            s.tail_bound.value + p.tail_bound.value


def test_p12_domain():
    with pytest.raises(DomainError):
        p12_term(0)
    with pytest.raises(DomainError):
        p12_series(0)
