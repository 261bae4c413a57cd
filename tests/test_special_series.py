from itertools import islice

import pytest
from mpmath import mp, mpf, workdps

from zetasum.numerics import DomainError, quadrature, target_constant
from zetasum.special_series import (
    StieltjesRequest,
    _em_remainder_bound,
    _log_power_derivative_coeffs,
    p01_integral,
    p01_integrand,
    p01_term,
    p12_closed_form,
    p12_series,
    p12_term,
    stieltjes,
)

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


def test_stieltjes_tail_bound_sound():
    for m in (0, 1, 2):
        small = stieltjes(StieltjesRequest(m, 1000), 30)
        big = stieltjes(StieltjesRequest(m, 50_000), 30)
        diff = abs(small.value().value - big.value().value)
        assert diff <= small.tail_bound.value


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
        bound = _em_remainder_bound(c, p, N, ln_N)
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
        enc = quadrature(p01_integrand, n, n + 1, target_error=1e-25, precision=35)
        assert enc.contains(p01_term(n, 35).value)


def test_p01_integral_converges_to_target():
    r = p01_integral(1000, 30)
    assert r.positive_terms
    assert r.enclosure().contains(target_constant(30).value)


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
