import random

import pytest
from mpmath import mp, mpc, mpf, workdps

from zetasum import criteria
from zetasum.criteria import (
    IdentityReport,
    TailCorrection,
    g_value,
    gn_multisum,
    li_lambda,
    tail_correction_p0,
    verify_identity,
    zero_sum_p0,
)
from zetasum.numerics import DomainError, ExtendedReal, target_constant
from zetasum.zeta_zeros import ZeroTable

# frozen direct-arithmetic oracles from the 20-digit first ordinate
GAMMA_1 = "14.13472514173469379"
P0_SINGLE = "0.009997977667446279483"  # 2/(1/4 + gamma_1^2)
LI1_SINGLE = "0.0049989888337231397415"  # 2 Re(1/rho_1) = 1/(1/4 + gamma_1^2)


def _single_zero_table():
    return ZeroTable((ExtendedReal.of(GAMMA_1, 30),), "ingested",
                     ExtendedReal.of(1e-18, 30))


def test_zero_sum_single_zero():
    r = zero_sum_p0(_single_zero_table(), with_tail_correction=False, precision=30)
    with workdps(40):
        assert abs(r.value().value - mpf(P0_SINGLE)) < mpf(10) ** -18


def test_zero_sum_empty_table_error():
    empty = ZeroTable((), "computed", ExtendedReal.of(1e-9, 20))
    with pytest.raises(DomainError):
        zero_sum_p0(empty)


def test_zero_sum_monotone_without_correction(zeros_table):
    prev = mpf(0)
    for k in (10, 50, 100, 500, 1000):
        v = zero_sum_p0(zeros_table.truncated(k), False).value().value
        assert v > prev
        prev = v


def test_zero_sum_corrected_hits_target(zeros_table):
    r = zero_sum_p0(zeros_table, True, 30)
    with workdps(40):
        err = abs(r.value().value - target_constant(30).value)
        assert err < 1e-5
        assert err < r.tail_bound.value


def test_zero_sum_bound_carries_claimed_accuracy(zeros_table):
    # the bound grows by 4 delta sum g^-3, rounded up: by at least the
    # rigorous 4 delta sum (g - delta)^-3, which exceeds it by about
    # 3 delta/g1 relative, and by no more than that
    delta = zeros_table.claimed_accuracy.value
    for table, corrected in ((zeros_table, True), (zeros_table.truncated(100), False)):
        exact = ZeroTable(table.ordinates, table.source, ExtendedReal.of(0, 50))
        grew = zero_sum_p0(table, corrected).tail_bound.value - \
            zero_sum_p0(exact, corrected).tail_bound.value
        with workdps(100):
            amount = 4 * delta * mp.fsum(g.value ** -3 for g in table.ordinates)
            rigorous = 4 * delta * mp.fsum((g.value - delta) ** -3 for g in table.ordinates)
            assert amount < rigorous <= grew <= amount * (1 + mpf("1e-10"))


def test_tail_correction_record(zeros_table):
    tc = tail_correction_p0(zeros_table.truncated(100))
    assert isinstance(tc, TailCorrection)
    assert tc.correction.value > 0
    assert tc.bound_on_remainder.value > 0


def test_li_lambda_single_zero():
    r = li_lambda(1, _single_zero_table(), with_tail_correction=False, precision=30)
    with workdps(40):
        assert abs(r.value().value - mpf(LI1_SINGLE)) < mpf(10) ** -18


def test_li_lambda_one_is_half_p0(zeros_table):
    sub = zeros_table.truncated(2000)
    a = li_lambda(1, sub, with_tail_correction=False).value().value
    b = zero_sum_p0(sub, with_tail_correction=False).value().value
    with workdps(50):
        assert abs(a - b / 2) < mpf(10) ** -40


def test_li_lambda_pairing_reality():
    # summing rho and its conjugate explicitly must equal the 2 Re fold
    with workdps(40):
        rho = mpc(mpf(1) / 2, mpf(GAMMA_1))
        for n in (1, 3, 7):
            explicit = (1 - (1 - 1 / rho) ** n) + (1 - (1 - 1 / rho.conjugate()) ** n)
            assert abs(explicit.imag) < mpf(10) ** -35
            fold = li_lambda(n, _single_zero_table(), False, 30).value().value
            assert abs(explicit.real - fold) < mpf(10) ** -25


def test_li_lambda_validation(zeros_table):
    with pytest.raises(DomainError):
        li_lambda(0, zeros_table)
    with pytest.raises(DomainError):
        li_lambda(1001, zeros_table)
    with pytest.raises(DomainError):
        li_lambda(1, ZeroTable((), "computed", ExtendedReal.of(1e-9, 20)))


def test_li_lambda_neighbouring_large_n_same_scale(zeros_table):
    # two neighbouring large n over 100 zeros: both sums positive, and
    # lambda_51 above lambda_50 by less than a factor of two
    sub = zeros_table.truncated(100)
    a = li_lambda(50, sub, False).value().value
    b = li_lambda(51, sub, False).value().value
    assert 0 < a < b < 2 * a


# lambda_n from mpmath at 40 digits,
# diff(lambda s: s**(n-1) * ln xi(s), 1, n, singular=True) / (n-1)!
LI_REFERENCE = {2: "0.092345735228", 3: "0.207638920554",
                5: "0.575542714461", 10: "2.27933936319"}


@pytest.mark.parametrize("n", sorted(LI_REFERENCE))
def test_li_lambda_tail_scales_as_n_squared(n, zeros_table):
    # the omitted zeros contribute about n^2 times lambda_1's tail: the
    # corrected value must be within its bound of lambda_n, and the raw sum
    # below lambda_n by no more than its bound
    with workdps(60):
        ref = mpf(LI_REFERENCE[n])
        cor = li_lambda(n, zeros_table, with_tail_correction=True)
        assert abs(cor.value().value - ref) <= cor.tail_bound.value
        raw = li_lambda(n, zeros_table, with_tail_correction=False)
        assert raw.value().value < ref <= raw.value().value + raw.tail_bound.value


def _li_oracle(gamma: mpf, n: int) -> mpf:
    with workdps(60):
        rho = mpc(mpf(1) / 2, gamma)
        return 2 * (1 - (1 - 1 / rho) ** n).real


@pytest.mark.parametrize("gamma", ["14.134725141734693", "1000", "9877.78"])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 51, 64, 1000])
def test_li_lambda_ladder_matches_complex_power(gamma, n):
    # the fixed-point ladder against 2 Re(1 - (1 - 1/rho)^n) in mpc; the
    # difference must stay within the rounding width: c n^2 K units of 2^-B
    # (under 2^-(prec + 8)) plus one ulp of the conversion
    table = ZeroTable((ExtendedReal.of(gamma, 30),), "ingested", ExtendedReal.of(1e-18, 30))
    r = li_lambda(n, table, with_tail_correction=False, precision=30)
    with workdps(40):
        prec = mp.prec
    with workdps(60):
        v = r.value().value
        width = mp.ldexp(1, -(prec + 8)) + abs(v) * mp.ldexp(1, 1 - prec)
        assert abs(v - _li_oracle(table.ordinates[0].value, n)) <= width


def test_li_lambda_encloses_complex_power_sum(zeros_table):
    sub = zeros_table.truncated(200)
    for n in range(1, 13):
        r = li_lambda(n, sub, with_tail_correction=False, precision=30)
        with workdps(60):
            oracle = mp.fsum(_li_oracle(g.value, n) for g in sub.ordinates)
            v, b = r.value().value, r.tail_bound.value
            assert v - b <= oracle <= v + b


def test_gn3_matches_ordered_triple_loop(zeros_table):
    # Heine's identity against the ordered sum over j < k < l, times 3!
    K = 30
    r = gn_multisum(3, zeros_table, K)
    with workdps(60):
        q = mpf(1) / 4
        xs = [1 / (q + g.value ** 2) for g in zeros_table.ordinates[:K]]
        total = mp.zero
        for j in range(K):
            for k in range(j + 1, K):
                base = xs[j] * xs[k] * (xs[j] - xs[k]) ** 2
                for l in range(k + 1, K):
                    total += base * xs[l] * (xs[j] - xs[l]) ** 2 * (xs[k] - xs[l]) ** 2
        total *= 6
        assert abs(r.value().value - total) <= mpf(10) ** -35 * total


def test_g_value_half():
    assert float(g_value(mpf(1) / 2)) == 4.0


def test_g_value_on_line_is_real():
    z = complex(0.5, float(mpf(GAMMA_1)))
    v = g_value(z, 30)
    assert isinstance(v, ExtendedReal)
    with workdps(40):
        assert abs(v.value - mpf(LI1_SINGLE)) < mpf(10) ** -12


def test_g_value_poles():
    for z in (0, 1):
        with pytest.raises(DomainError):
            g_value(z)


def test_g_value_off_line_complex():
    v = g_value(complex(0.3, 2.0), 30)
    assert not isinstance(v, ExtendedReal)


def test_gn_reduction(zeros_table):
    for K in (10, 100, 1000):
        g1 = gn_multisum(1, zeros_table, K).value().value
        p0 = zero_sum_p0(zeros_table.truncated(K), False).value().value
        with workdps(50):
            assert abs(g1 - p0 / 2) < mpf(10) ** -40


def test_gn2_hand_expansion(zeros_table):
    r = gn_multisum(2, zeros_table, 2, 30)
    with workdps(40):
        q = mpf(1) / 4
        x1 = 1 / (q + zeros_table.ordinates[0].value ** 2)
        x2 = 1 / (q + zeros_table.ordinates[1].value ** 2)
        assert abs(r.value().value - 2 * x1 * x2 * (x1 - x2) ** 2) < mpf(10) ** -25


def test_gn2_matches_naive(zeros_table):
    K = 12
    r = gn_multisum(2, zeros_table, K, 30)
    with workdps(40):
        q = mpf(1) / 4
        xs = [1 / (q + g.value ** 2) for g in zeros_table.ordinates[:K]]
        naive = mp.fsum(xs[j] * xs[k] * (xs[j] - xs[k]) ** 2
                        for j in range(K) for k in range(K))
        assert abs(r.value().value - naive) < mpf(10) ** -30


def test_gn3_matches_naive(zeros_table):
    K = 6
    r = gn_multisum(3, zeros_table, K, 30)
    with workdps(40):
        q = mpf(1) / 4
        xs = [1 / (q + g.value ** 2) for g in zeros_table.ordinates[:K]]
        naive = mp.fsum(
            xs[a] * xs[b] * xs[c]
            * (xs[a] - xs[b]) ** 2 * (xs[a] - xs[c]) ** 2 * (xs[b] - xs[c]) ** 2
            for a in range(K) for b in range(K) for c in range(K))
        assert abs(r.value().value - naive) < mpf(10) ** -35


def test_gn2_positive(zeros_table):
    r = gn_multisum(2, zeros_table, 200, 30)
    assert r.value().value > 0


def test_g2_diagonal_and_symmetry():
    # G_2(z, z) = 0 and G_2(z1, z2) = G_2(z2, z1) on random on-line points
    rng = random.Random(20250825)
    with workdps(40):
        def g2(x, y):
            return x * y * (x - y) ** 2
        for _ in range(20):
            g_a = mpf(rng.uniform(14, 500))
            g_b = mpf(rng.uniform(14, 500))
            xa = 1 / (mpf(1) / 4 + g_a ** 2)
            xb = 1 / (mpf(1) / 4 + g_b ** 2)
            assert g2(xa, xa) == 0
            assert abs(g2(xa, xb) - g2(xb, xa)) < mpf(10) ** -38


def test_gn_validation(zeros_table):
    with pytest.raises(DomainError):
        gn_multisum(4, zeros_table, 10)
    with pytest.raises(DomainError):
        gn_multisum(1, zeros_table, len(zeros_table) + 1)
    with pytest.raises(DomainError):
        gn_multisum(1, zeros_table, 0)


# -- verifier ---------------------------------------------------------------

@pytest.mark.parametrize("identity", [
    "log2", "pochti", "addison", "vacca_dual", "dual_addison", "pochtipochti",
])
def test_verify_digit_identities_pass(identity):
    rep = verify_identity(identity, terms=20_000, precision=30)
    assert rep.passed
    assert rep.discrepancy.value <= rep.tolerance.value


def test_verify_itog_small():
    rep = verify_identity("itog", terms=50_000, precision=30)
    assert rep.passed


def test_verify_p01():
    rep = verify_identity("p01", terms=500, precision=30)
    assert rep.passed


def test_verify_p12_fails_honestly():
    # the digamma midpoint series provably sums to (1 - ln 2)/2, not to
    # gamma - ln(4 pi) + 2; the verifier must report that, not hide it
    rep = verify_identity("p12", terms=2000, precision=30)
    assert rep.verdict == "fail"
    with workdps(40):
        assert abs(rep.discrepancy.value -
                   abs((1 - mp.ln(2)) / 2 - target_constant(30).value)) < 1e-6


def test_verify_p0_zeros(zeros_table):
    rep = verify_identity("p0_zeros", zeros=zeros_table, precision=30)
    assert rep.passed
    assert rep.discrepancy.value < 1e-4


def test_verify_unknown_identity():
    with pytest.raises(DomainError):
        verify_identity("nope")


def test_verify_requires_zeros_for_p0():
    with pytest.raises(DomainError):
        verify_identity("p0_zeros")


def test_verdict_stable_under_doubling():
    for identity, terms in (("log2", 10_000), ("pochti", 10_000), ("p01", 400)):
        assert verify_identity(identity, terms=terms, precision=30).passed
        assert verify_identity(identity, terms=2 * terms, precision=30).passed


def test_report_verdict_consistency():
    rep = verify_identity("log2", terms=5000, precision=30)
    with pytest.raises(DomainError):
        IdentityReport(rep.identity_id, rep.route_a, rep.route_b,
                       rep.discrepancy, rep.tolerance,
                       "fail" if rep.verdict == "pass" else "pass")


@pytest.mark.parametrize("identity", ["log2", "p01"])
def test_verify_zero_terms_rejected(identity):
    # terms=0 is the route's own domain error, not a silent default run
    with pytest.raises(DomainError):
        verify_identity(identity, terms=0, precision=30)


@pytest.mark.parametrize("identity,route", [
    ("itog", "main_series"), ("p01", "p01_integral"), ("p12", "p12_series"),
    ("pochti", "combined_pochti"), ("log2", "log2_series"),
    ("addison", "gamma_addison"), ("addison", "stieltjes"),
    ("vacca_dual", "log4pi_paired"), ("dual_addison", "log2pi_dual"),
    ("pochtipochti", "pochtipochti_series"), ("p0_zeros", "zero_sum_p0"),
])
def test_verify_identity_looks_routes_up_by_name(identity, route, monkeypatch, zeros_table):
    # a route replaced in the module namespace (as a span tracer does) must
    # be the one verify_identity runs
    real = getattr(criteria, route)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(criteria, route, spy)
    verify_identity(identity, terms=200, zeros=zeros_table, precision=30)
    assert len(calls) == 1
