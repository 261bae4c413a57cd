import random

import pytest
from mpmath import mp, mpc, mpf, workdps

from zetasum import criteria, digit_series
from zetasum.cli import EXIT_PASS, main
from zetasum.criteria import (
    gn_multisum,
    li_lambda,
    verify_identity,
    zero_sum_p0,
)
from zetasum.numerics import DomainError, target_constant
from tests.conftest import ZEROS_FILE, exact_value
from zetasum.zeta_zeros import ZeroTable, load_zero_table

# frozen direct-arithmetic oracles from the 20-digit first ordinate
GAMMA_1 = "14.13472514173469379"
P0_SINGLE = "0.009997977667446279483"  # 2/(1/4 + gamma_1^2)
LI1_SINGLE = "0.0049989888337231397415"  # 2 Re(1/rho_1) = 1/(1/4 + gamma_1^2)


def _single_zero_table():
    with workdps(40):
        return ZeroTable((mpf(GAMMA_1),), "ingested", mpf(1e-18))


def test_zero_sum_single_zero():
    r = zero_sum_p0(_single_zero_table(), with_tail_correction=False, precision=30)
    with workdps(40):
        assert abs(r.value().value - mpf(P0_SINGLE)) < mpf(10) ** -18


def test_zero_sum_empty_table_error():
    empty = ZeroTable((), "computed", mpf(1e-9))
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
    delta = zeros_table.claimed_accuracy
    for table, corrected in ((zeros_table, True), (zeros_table.truncated(100), False)):
        exact = ZeroTable(table.ordinates, table.source, mpf(0))
        grew = zero_sum_p0(table, corrected).tail_bound.value - \
            zero_sum_p0(exact, corrected).tail_bound.value
        with workdps(100):
            amount = 4 * delta * mp.fsum(g ** -3 for g in table.ordinates)
            rigorous = 4 * delta * mp.fsum((g - delta) ** -3 for g in table.ordinates)
            assert amount < rigorous <= grew <= amount * (1 + mpf("1e-10"))


def test_li_lambda_bound_carries_claimed_accuracy(zeros_table):
    # moving every ordinate by +delta or by -delta moves each lambda_n by
    # less than its bound grows from claimed accuracy 0 to delta; for this
    # table sin(2nt) > 0 at every zero, so -delta moves every term the
    # same way and the growth is nearly used up
    delta = zeros_table.claimed_accuracy
    exact = ZeroTable(zeros_table.ordinates, zeros_table.source, mpf(0))
    with workdps(40):
        moved = [ZeroTable(tuple(g + s * delta for g in zeros_table.ordinates),
                           zeros_table.source, exact.claimed_accuracy)
                 for s in (1, -1)]
    for n in range(1, 11):
        base = li_lambda(n, exact, False, 30)[-1]
        grew = li_lambda(n, zeros_table, False, 30)[-1].tail_bound.value - base.tail_bound.value
        changes = [abs(li_lambda(n, table, False, 30)[-1].value().value - base.value().value)
                   for table in moved]
        assert max(changes) <= grew
        assert changes[1] > grew * mpf("0.9")


def test_sums_run_on_a_table_loaded_past_double_range(zeros_table):
    # at 320 digits a parsed ordinate's mantissa has ~1100 bits, past what
    # a double holds; both sums must still run and agree with the 50-digit
    # table within their bounds
    deep = load_zero_table(ZEROS_FILE, claimed_accuracy=5e-12, precision=320)
    # the claimed accuracy adds the same to lambda_1's bound at either
    # precision: sum g^-3 is summed from each g's top 53 bits
    grew = []
    for table, precision in ((deep, 300), (zeros_table, 50)):
        exact = ZeroTable(table.ordinates, table.source, mpf(0))
        bounds = [li_lambda(1, t, precision=precision)[0].tail_bound.value
                  for t in (table, exact)]
        with workdps(80):
            grew.append(bounds[0] - bounds[1])
    with workdps(80):
        assert abs(grew[0] - grew[1]) <= grew[1] * mpf(2) ** -45
    for n in (1, 10):
        a, b = li_lambda(n, deep, precision=300)[-1], li_lambda(n, zeros_table)[-1]
        with workdps(60):
            assert abs(a.value().value - b.value().value) <= \
                a.tail_bound.value + b.tail_bound.value
    a, b = zero_sum_p0(deep, precision=300), zero_sum_p0(zeros_table)
    with workdps(60):
        assert abs(a.value().value - b.value().value) <= a.tail_bound.value + b.tail_bound.value


def test_sums_run_on_tables_outside_double_range(tmp_path):
    # sum g^-3 in doubles, unscaled, divides by zero when g^3 underflows
    # (a first row 1e-200) and overflows on an ordinate of 1e400
    path = tmp_path / "tiny.txt"
    with open(ZEROS_FILE, encoding="utf-8") as fh:
        path.write_text("1e-200\n" + fh.read(), encoding="utf-8")
    tiny = load_zero_table(path, claimed_accuracy=0)
    huge = ZeroTable((mpf(14.134725), mpf("1e400")), "ingested", mpf("1e-10"))
    for table in (tiny, huge):
        for r in (*li_lambda(3, table), zero_sum_p0(table)):
            assert mp.isfinite(r.tail_bound.value)
    # the first term alone is 1e600: it is in the bound, not lost to a cap
    g1, delta = mpf(1e-200), mpf(1e-210)
    table = ZeroTable((g1, mpf(14)), "ingested", delta)
    assert li_lambda(1, table)[0].tail_bound.value >= 2 * delta * g1 ** -3


def test_li_lambda_single_zero():
    (r,) = li_lambda(1, _single_zero_table(), with_tail_correction=False, precision=30)
    with workdps(40):
        assert abs(r.value().value - mpf(LI1_SINGLE)) < mpf(10) ** -18


def test_zero_sum_matches_fsum_oracle(zeros_table):
    # 2 sum 1/(1/4 + g^2) over the first 2,000 rows, by mp.fsum at 80 digits
    sub = zeros_table.truncated(2000)
    r = zero_sum_p0(sub, with_tail_correction=False)
    with workdps(80):
        oracle = 2 * mp.fsum(1 / (mpf(1) / 4 + g * g) for g in sub.ordinates)
        assert abs(r.value().value - oracle) < mpf(10) ** -45


def test_zero_sum_is_twice_li_lambda_one(zeros_table):
    # sum 1/(rho(1-rho)) = 2 lambda_1 term for term: value and bound double
    for table in (zeros_table, zeros_table.truncated(100)):
        for corrected in (True, False):
            p0, (lam,) = zero_sum_p0(table, corrected), li_lambda(1, table, corrected)
            with workdps(200):
                assert p0.value().value == 2 * lam.value().value
                assert p0.tail_bound.value == 2 * lam.tail_bound.value
            assert (p0.terms_used, p0.series_id, p0.positive_terms) == \
                (len(table), "zero_sum_p0", not corrected)


def test_li_lambda_pairing_reality():
    # summing rho and its conjugate explicitly must equal the 2 Re fold
    with workdps(40):
        rho = mpc(mpf(1) / 2, mpf(GAMMA_1))
        for n in (1, 3, 7):
            explicit = (1 - (1 - 1 / rho) ** n) + (1 - (1 - 1 / rho.conjugate()) ** n)
            assert abs(explicit.imag) < mpf(10) ** -35
            fold = li_lambda(n, _single_zero_table(), False, 30)[-1].value().value
            assert abs(explicit.real - fold) < mpf(10) ** -25


def test_li_lambda_validation(zeros_table):
    with pytest.raises(DomainError):
        li_lambda(0, zeros_table)
    with pytest.raises(DomainError):
        li_lambda(1001, zeros_table)
    with pytest.raises(DomainError):
        li_lambda(1, ZeroTable((), "computed", mpf(1e-9)))


def test_li_lambda_neighbouring_large_n_same_scale(zeros_table):
    # two neighbouring large n over 100 zeros: both sums positive, and
    # lambda_51 above lambda_50 by less than a factor of two
    sub = zeros_table.truncated(100)
    a = li_lambda(50, sub, False)[-1].value().value
    b = li_lambda(51, sub, False)[-1].value().value
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
        cor = li_lambda(n, zeros_table, with_tail_correction=True)[-1]
        assert abs(cor.value().value - ref) <= cor.tail_bound.value
        raw = li_lambda(n, zeros_table, with_tail_correction=False)[-1]
        assert raw.value().value < ref <= raw.value().value + raw.tail_bound.value


def _li_oracle(gamma: mpf, n: int) -> mpf:
    with workdps(60):
        rho = mpc(mpf(1) / 2, gamma)
        return 2 * (1 - (1 - 1 / rho) ** n).real


@pytest.mark.parametrize("gamma", ["14.134725141734693", "1000", "9877.78"])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 51, 64, 1000])
def test_li_lambda_ladder_matches_complex_power(gamma, n):
    # the fixed-point recurrence against 2 Re(1 - (1 - 1/rho)^n) in mpc; the
    # difference must stay within the rounding width: c n^2 K units of 2^-B
    # (under 2^-(prec + 8)) plus one ulp of the conversion
    with workdps(40):
        table = ZeroTable((mpf(gamma),), "ingested", mpf(1e-18))
    r = li_lambda(n, table, with_tail_correction=False, precision=30)[-1]
    with workdps(40):
        prec = mp.prec
    with workdps(60):
        v = r.value().value
        width = mp.ldexp(1, -(prec + 8)) + abs(v) * mp.ldexp(1, 1 - prec)
        assert abs(v - _li_oracle(table.ordinates[0], n)) <= width


def test_li_lambda_encloses_complex_power_sum(zeros_table):
    sub = zeros_table.truncated(200)
    for n in range(1, 13):
        r = li_lambda(n, sub, with_tail_correction=False, precision=30)[-1]
        with workdps(60):
            oracle = mp.fsum(_li_oracle(g, n) for g in sub.ordinates)
            v, b = r.value().value, r.tail_bound.value
            assert v - b <= oracle <= v + b


def test_li_lambda_one_pass_matches_sine_oracle(zeros_table):
    # lambda_1..lambda_12 from one fixed-point pass over the first 2,000
    # rows against a 90-digit fsum of the paired term 4 sin^2(n atan(1/(2g)))
    sub = zeros_table.truncated(2000)
    with workdps(90):
        ts = [mp.atan(1 / (2 * g)) for g in sub.ordinates]
        oracle = [mp.fsum(4 * mp.sin(n * t) ** 2 for t in ts) for n in range(1, 13)]
    for P in (15, 30, 50):
        lams = li_lambda(12, sub, False, P)
        with workdps(90):
            for lam, ref in zip(lams, oracle):
                assert abs(lam.value().value - ref) < mpf(10) ** -(P - 2)


def test_li_lambda_returns_lambda_1_to_n(zeros_table):
    sub = zeros_table.truncated(300)
    lams = li_lambda(7, sub, precision=30)
    assert len(lams) == 7
    assert [r.series_id for r in lams] == [f"li_lambda[{k}]" for k in range(1, 8)]
    assert all(r.terms_used == 300 for r in lams)


@pytest.mark.parametrize("P", [15, 50])
def test_li_lambda_longer_pass_agrees(P, zeros_table):
    # lambda_k from a pass to n = 40, whose fixed-point width is taken for
    # n, agrees with lambda_k from its own pass to P digits, value and bound
    sub = zeros_table.truncated(500)
    long = li_lambda(40, sub, True, P)
    for k in (1, 2, 7, 39, 40):
        own = li_lambda(k, sub, True, P)[k - 1]
        with workdps(P + 20):
            a, b = long[k - 1], own
            assert abs(a.value().value - b.value().value) <= \
                mpf(10) ** -P * max(1, abs(b.value().value))
            assert abs(a.tail_bound.value - b.tail_bound.value) <= \
                mpf(10) ** -P * b.tail_bound.value


def test_gn3_matches_ordered_triple_loop(zeros_table):
    # Heine's identity against the ordered sum over j < k < l, times 3!
    K = 30
    r = gn_multisum(3, zeros_table, K)
    with workdps(60):
        q = mpf(1) / 4
        xs = [1 / (q + g ** 2) for g in zeros_table.ordinates[:K]]
        total = mp.zero
        for j in range(K):
            for k in range(j + 1, K):
                base = xs[j] * xs[k] * (xs[j] - xs[k]) ** 2
                for l in range(k + 1, K):
                    total += base * xs[l] * (xs[j] - xs[l]) ** 2 * (xs[k] - xs[l]) ** 2
        total *= 6
        assert abs(r.value().value - total) <= mpf(10) ** -35 * total


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
        x1 = 1 / (q + zeros_table.ordinates[0] ** 2)
        x2 = 1 / (q + zeros_table.ordinates[1] ** 2)
        assert abs(r.value().value - 2 * x1 * x2 * (x1 - x2) ** 2) < mpf(10) ** -25


def test_gn2_matches_naive(zeros_table):
    K = 12
    r = gn_multisum(2, zeros_table, K, 30)
    with workdps(40):
        q = mpf(1) / 4
        xs = [1 / (q + g ** 2) for g in zeros_table.ordinates[:K]]
        naive = mp.fsum(xs[j] * xs[k] * (xs[j] - xs[k]) ** 2
                        for j in range(K) for k in range(K))
        assert abs(r.value().value - naive) < mpf(10) ** -30


def test_gn3_matches_naive(zeros_table):
    K = 6
    r = gn_multisum(3, zeros_table, K, 30)
    with workdps(40):
        q = mpf(1) / 4
        xs = [1 / (q + g ** 2) for g in zeros_table.ordinates[:K]]
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


@pytest.mark.parametrize("identity,inputs,unread", [
    ("log2", dict(terms=100, zeros="table", with_tail_correction=False), "zeros"),
    ("log2", dict(terms=100, with_tail_correction=True), "with_tail_correction"),
    ("itog", dict(with_tail_correction=False), "with_tail_correction"),
    ("p0_zeros", dict(terms=5, zeros="table"), "terms"),
])
def test_verify_identity_rejects_unread_input(identity, inputs, unread, zeros_table):
    # an identity takes only the inputs it reads, never ignoring one given
    inputs = {k: zeros_table if v == "table" else v for k, v in inputs.items()}
    with pytest.raises(DomainError, match=f"does not read {unread}"):
        verify_identity(identity, precision=30, **inputs)


# identity -> its digit-series route
DIGIT_ROUTES = {
    "itog": "main_series", "pochti": "combined_pochti", "log2": "log2_series",
    "addison": "gamma_addison", "vacca_dual": "log4pi_paired",
    "dual_addison": "log2pi_dual", "pochtipochti": "pochtipochti_series",
}


def test_verifier_never_sums_exactly(monkeypatch, capsys):
    # the verifier and the constants command read only p digits of each
    # digit route, so they sum in fixed point at every N, default N included
    def no_exact_sum(*args):
        raise AssertionError("exact sum built for a route read at p digits")

    monkeypatch.setattr(digit_series, "_tree_sum", no_exact_sum)
    for identity in DIGIT_ROUTES:
        assert verify_identity(identity).passed, identity
    assert main(["constants"]) == EXIT_PASS
    assert "main_series" in capsys.readouterr().out


@pytest.mark.parametrize("identity", DIGIT_ROUTES)
def test_verifier_route_encloses_exact_sum(identity):
    N = 20_000
    route = verify_identity(identity, terms=N, precision=30).route_a[1]
    exact = getattr(digit_series, DIGIT_ROUTES[identity])(N, exact_limit=N)
    assert exact.is_exact_rational() and not route.is_exact_rational()
    lo, hi = route.enclosure()
    assert exact_value(lo) <= exact.partial_sum <= exact_value(hi)


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
    inputs = dict(zeros=zeros_table) if identity == "p0_zeros" else dict(terms=200)
    verify_identity(identity, precision=30, **inputs)
    assert len(calls) == 1


def test_constants_looks_routes_up_by_name(monkeypatch):
    # as for verify_identity: every route of the constants table must call
    # the function the module namespace holds when it runs
    calls = []
    routes = ("gamma_addison", "stieltjes", "log4pi_paired", "log2_series",
              "main_series", "p01_integral")
    for route in routes:
        real = getattr(criteria, route)

        def spy(*args, route=route, real=real, **kwargs):
            calls.append(route)
            return real(*args, **kwargs)

        monkeypatch.setattr(criteria, route, spy)
    assert main(["constants", "--terms", "200"]) == EXIT_PASS
    assert set(calls) == set(routes)


def test_constants_runs_each_route_once(monkeypatch):
    # one log4pi_paired sum serves both the ln(4/pi) and the ln pi rows
    calls = []
    routes = ("gamma_addison", "stieltjes", "log4pi_paired", "log2_series",
              "main_series", "p01_integral")
    for route in routes:
        real = getattr(criteria, route)

        def spy(*args, route=route, real=real, **kwargs):
            calls.append(route)
            return real(*args, **kwargs)

        monkeypatch.setattr(criteria, route, spy)
    assert main(["constants", "--terms", "200"]) == EXIT_PASS
    assert sorted(calls) == sorted(routes)
