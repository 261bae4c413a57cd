import math
import os
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf, workdps, workprec
from mpmath.libmp import from_rational, round_nearest

from zetasum import zeta_zeros
from zetasum.numerics import DEFAULT_PRECISION, DomainError, _GUARD
from tests.conftest import ZEROS_FILE
from zetasum.zeta_zeros import (
    REFINE_MAX_EVALS,
    SUPPORTED_HEIGHT,
    MissedZeroError,
    ZeroTable,
    ZeroTableError,
    find_zeros,
    hardy_z,
    load_zero_table,
    write_zero_table,
    zero_count_check,
    _refine,
)

# frozen 35-digit reference values for the Hardy Z function (independent
# Riemann-Siegel oracle)
Z_REFERENCE = {
    "14.0": "-0.10562626777988261013891075576194792",
    "17.5": "2.3018457553350568832805023487622089",
    "25.3": "0.4090079101713284124141956233847073",
    "100.7": "1.8403142179906240864867258961969757",
    "981.3": "-0.030940428202483609081200342294079198",
}

# first ordinates, 20-digit oracle
GAMMA_1 = "14.13472514173469379"
GAMMA_2 = "21.022039638771554993"
GAMMA_29 = "98.831194218193692233"


@pytest.mark.parametrize("t,ref", sorted(Z_REFERENCE.items()))
def test_hardy_z_reference_values(t, ref):
    z = hardy_z(t, precision=30)  # string converts at working precision
    with workdps(40):
        assert abs(z.value - mpf(ref)) < mpf(10) ** -28


def test_hardy_z_caches_keyed_by_binary_precision():
    # 60 and 61 bits both read as dps 17: caches keyed by dps would hand
    # 60-bit logarithms to a 61-bit evaluation (its last bit moved at 100)
    def z_61_bits(warm_at_60_bits):
        zeta_zeros._prime_rows.cache_clear()
        zeta_zeros._em_coefficient.cache_clear()
        if warm_at_60_bits:
            with workprec(60):
                zeta_zeros._hardy_z_raw(mpf(100))
        with workprec(61):
            return zeta_zeros._hardy_z_raw(mpf(100))

    assert z_61_bits(False) == z_61_bits(True)


@pytest.mark.parametrize("precision", [30, 50, 300])
@pytest.mark.parametrize("t", ["1", "14.0", "100.7", "150", "981.3", "5000", "9999"])
def test_hardy_z_matches_siegelz(t, precision):
    # mp.siegelz is Riemann-Siegel, an independent method; at 300 digits
    # the precision term of the cutoff sets N for t below ~500, and at
    # t = 150 it needs the (pi/2) t in it; near the supported height t's
    # fixed-point form has 14 integer bits, and the Euler-Maclaurin head
    # and the steps e and u are at their largest
    z = hardy_z(t, precision)
    with workdps(precision + _GUARD):
        assert abs(z.value - mp.siegelz(mpf(t))) < mpf(10) ** (2 - precision)


def _float_grid():
    """Seeded heights over [g_-1, SUPPORTED_HEIGHT], with g_-1, 9.67, 9999
    and more of them low, where the Stirling series is truncated most."""
    rng = random.Random(20261027)
    with workdps(17):
        g_1 = float(next(zeta_zeros._gram_points())[1])
    return ([g_1, 9.67, 9999.0, SUPPORTED_HEIGHT]
            + [rng.uniform(g_1, 50) for _ in range(20)]
            + [rng.uniform(g_1, SUPPORTED_HEIGHT) for _ in range(30)])


def test_float_coefficients_match_zeta_values():
    # an independent route to the same doubles: B_2k/(2k)! =
    # (-1)^(k+1) 2 zeta(2k)/(2 pi)^(2k) at 40 digits, rounded to a double
    stirling, bernoulli = zeta_zeros._float_coefficients()
    with workdps(40):
        b = [(-1) ** (k + 1) * 2 * mp.zeta(2 * k) / (2 * mp.pi) ** (2 * k) for k in range(1, 43)]
        assert bernoulli == tuple(map(float, b))
        assert stirling == tuple(float((1 - mpf(2) ** (1 - 2 * k)) * abs(b[k - 1])
                                       * math.factorial(2 * k) / (4 * k * (2 * k - 1)))
                                 for k in range(1, 7))


def test_theta_float_within_stated_bound():
    with workdps(30):
        for t in _float_grid():
            exact = zeta_zeros._theta_raw(mpf(t))
            bound = 1e-13 + 1e-15 * abs(float(exact))
            assert abs(zeta_zeros._theta_float(t) - exact) <= bound, t


def test_hardy_z_float_within_stated_bound():
    with workdps(30):
        for t in _float_grid():
            exact = zeta_zeros._hardy_z_raw(mpf(t))
            assert abs(zeta_zeros._hardy_z_float(t) - exact) <= 1e-13 + 5e-15 * t, t


def test_fixed_truncates_toward_zero_like_ldexp():
    # exponents on both sides of -B, mantissas wider than B, both signs and 0
    rng = random.Random(20261020)
    B = 70
    with workprec(4 * B):
        xs = [mpf(0), mpf(1), mpf(-1), mpf(2) ** -B, -mpf(2) ** -(B + 1)]
        for _ in range(2000):
            bits = rng.choice([1, 5, 53, B - 1, B, B + 1, 3 * B])
            man = rng.getrandbits(bits) | 1
            exp = -B + rng.randint(-2 * bits - 5, B)
            xs.append(mp.ldexp(mpf(rng.choice([man, -man])), exp))
        assert max(x._mpf_[3] for x in xs) > B
        for x in xs:
            assert zeta_zeros._fixed(x._mpf_, B) == int(mp.ldexp(x, B)), x


_OMEGA = {1: 0, 2: 1, 12: 3, 97: 1, 256: 8, 360: 6}  # prime factors, with multiplicity


@pytest.mark.parametrize("N", sorted(_OMEGA))
@pytest.mark.parametrize("t", ["14.0", "981.3"])
def test_main_sum_matches_direct_sum(t, N):
    B = 70
    t = mpf(t)
    with workprec(B + int(float(t) * math.log(N)).bit_length() + 4):
        (sr, si), (nr, ni) = zeta_zeros._main_sum(t, N, B)
    with workprec(2 * B + 40):
        s = mpc(mpf(1) / 2, t)
        direct = sum(mp.power(n, -s) for n in range(1, N + 1))
        got = mpc(mp.ldexp(sr, -B), mp.ldexp(si, -B))
        # the bounds in _main_sum's docstring: the sum, and the term of N,
        # within 5 Omega(N) 2^-B (Omega(1) = 0: the term 2^B is exact)
        assert abs(got - direct) <= 5 * N * math.log2(N) * mpf(2) ** -B
        term = mpc(mp.ldexp(nr, -B), mp.ldexp(ni, -B))
        assert abs(term - mp.power(N, -s)) <= 5 * _OMEGA[N] * mpf(2) ** -B


def _zeta_half_termwise(t):
    """zeta(1/2 + it) by the Euler-Maclaurin evaluation that the fixed-point
    kernel replaced: one mpc cos_sin per term and the raw B_2k/(2k)!, at the
    current precision, with the same cutoff and stopping rule."""
    s = mpc(mpf(1) / 2, t)
    tf = float(t)
    N = max(12,
            int(tf / (2 * math.pi) * 3) + 8,
            int((mp.dps * 2.4 + math.pi / 2 * tf) / (2 * math.pi)) + 4)
    total = mpc(0, 0)
    for n in range(1, N + 1):
        c, si = mp.cos_sin(t * mp.ln(n))
        total += mpc(c, -si) / mp.sqrt(n)
    n_pow_minus_s = mp.exp(-s * mp.ln(N))
    total += N * n_pow_minus_s / (s - 1) - n_pow_minus_s / 2
    eps = mpf(10) ** (-(mp.dps - 2))
    poch, power, prev = s, n_pow_minus_s / N, None
    for k in range(1, 200):
        term = mp.bernoulli(2 * k) / mp.factorial(2 * k) * poch * power
        total += term
        mag = abs(term)
        if mag < eps * abs(total):
            break
        if prev is not None and mag > prev:
            total -= term
            break
        prev = mag
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        power /= N * N
    return total


def test_hardy_z_at_scan_precision_no_worse_than_termwise():
    ts = [10 + 145 * mpf(i) / 39 for i in range(40)] + [mpf("981.3"), mpf(5000)]
    worst_new = worst_old = 0
    with workdps(17):
        for t in ts:
            new = zeta_zeros._hardy_z_raw(t)
            c, si = mp.cos_sin(zeta_zeros._theta_raw(t))
            old = (mpc(c, si) * _zeta_half_termwise(t)).real
            with workdps(40):
                ref = mp.siegelz(t)
                worst_new = max(worst_new, abs(new - ref))
                worst_old = max(worst_old, abs(old - ref))
    assert worst_new <= worst_old


def test_hardy_z_domain():
    with pytest.raises(DomainError):
        hardy_z(0)
    with pytest.raises(DomainError):
        hardy_z(-5)
    with pytest.raises(DomainError):
        hardy_z(SUPPORTED_HEIGHT + 1)


def test_hardy_z_nan_is_domain_error():
    for t in (float("nan"), "nan"):
        with pytest.raises(DomainError):
            hardy_z(t)


@pytest.mark.parametrize("prec", [60, 61, 200])
def test_prime_table_rows(prec):
    # the N run down and back up past powers of two, so a cut of a larger
    # memoised table and a fresh one are both read; sympy is the primes'
    # oracle only, and not a dependency
    sympy = pytest.importorskip("sympy")
    zeta_zeros._prime_rows.cache_clear()
    with workprec(prec):
        for N in (4097, 1, 2, 12, 100, 4096, 8193):
            rows = zeta_zeros._prime_table(N)
            assert [p for p, _, _ in rows] == list(sympy.primerange(2, N + 1))
            for p, ln_p, rsqrt in rows:
                assert ln_p == mp.ln(p)._mpf_
                assert rsqrt == math.isqrt((1 << 2 * prec) // p)


@pytest.mark.parametrize("B", [64, 80, 200])
def test_em_coefficients_match_bernoulli(B):
    # 2 zeta(2j) = |B_2j| (2 pi)^(2j) / (2j)!, the Bernoulli number exact
    for j in range(1, 41):
        with workprec(B + 400):
            p, q = mp.bernfrac(2 * j)
            ref = int(mp.floor(abs(mpf(p) / q) * (2 * mp.pi) ** (2 * j)
                               / mp.factorial(2 * j) * mpf(2) ** B))
        assert abs(zeta_zeros._em_coefficient(j, B) - ref) <= 1


def test_find_zeros_100(computed_table_100):
    table = computed_table_100
    assert len(table) == 29
    assert table.source == "computed"
    with workdps(30):
        assert abs(table.ordinates[0] - mpf(GAMMA_1)) < 2e-9
        assert abs(table.ordinates[1] - mpf(GAMMA_2)) < 2e-9
        assert abs(table.ordinates[-1] - mpf(GAMMA_29)) < 2e-9


def test_find_zeros_height_limit():
    with pytest.raises(DomainError):
        find_zeros(SUPPORTED_HEIGHT + 1)
    for t_max in (0, -3, float("nan")):
        with pytest.raises(DomainError):
            find_zeros(t_max)


def test_computed_ordinates_bracket_a_sign_change(computed_table_100):
    with workdps(40):
        half = mpf("5e-10")
        for g in computed_table_100.ordinates:
            below = hardy_z(g - half, precision=30).value
            above = hardy_z(g + half, precision=30).value
            assert (below < 0) != (above < 0), g


def _count_calls(monkeypatch, name):
    """Replace zeta_zeros.<name> by a wrapper that records its calls."""
    calls = []
    fn = getattr(zeta_zeros, name)
    monkeypatch.setattr(zeta_zeros, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_find_zeros_100_evaluation_budget(monkeypatch):
    # the finder looks _hardy_z_raw up by name, so the wrapper sees every call
    z_calls = _count_calls(monkeypatch, "_hardy_z_raw")
    assert len(find_zeros(100)) == 29
    assert 0 < len(z_calls) <= 95


def _assert_matches_table(table, zeros_table, count):
    values = table.ordinates
    assert len(values) == count
    assert all(a < b for a, b in zip(values, values[1:]))
    tol = 1e-9 + 1e-12  # refine_tol + rows below 1000, rounded to 5e-13
    for a, b in zip(zeros_table.ordinates[:count], values):
        assert abs(a - b) < tol


def test_find_zeros_150_no_rescan(monkeypatch, zeros_table):
    checks = _count_calls(monkeypatch, "zero_count_check")
    z_calls = _count_calls(monkeypatch, "_hardy_z_raw")
    table = find_zeros(150)
    # one Gram-point scan; the count check runs once, as a cross-check
    assert len(checks) == 1
    assert len(z_calls) <= 165
    _assert_matches_table(table, zeros_table, 52)


@pytest.mark.parametrize("float_z", [
    lambda z: (lambda t: z(t + 1e-6)),  # every prediction 1e-6 off its zero
    lambda z: (lambda t: z(t - 1e-3)),
    lambda z: (lambda t: math.nan),  # no prediction inside the bracket
], ids=["off-1e-6", "off-1e-3", "nan"])
def test_find_zeros_survives_missed_predictions(monkeypatch, zeros_table, float_z):
    # a missed prediction leaves _refine a bracket wider than REFINE_TOL;
    # the zeros and their accuracy must not depend on the predictor
    monkeypatch.setattr(zeta_zeros, "_hardy_z_float", float_z(zeta_zeros._hardy_z_float))
    widths = []
    refine = zeta_zeros._refine
    monkeypatch.setattr(zeta_zeros, "_refine", lambda z, lo, hi, *a: (
        widths.append(hi - lo) or refine(z, lo, hi, *a)))
    z_calls = _count_calls(monkeypatch, "_hardy_z_raw")
    table = find_zeros(100)
    assert len(widths) == 29 and min(widths) > zeta_zeros.REFINE_TOL
    assert len(z_calls) <= 220
    _assert_matches_table(table, zeros_table, 29)


def test_find_zeros_300_gram_law_failures(zeros_table):
    # Gram's law fails at g_126 ~ 282.45 and g_134 ~ 295.58: each Gram
    # block there hides a pair of zeros that the block search must find
    _assert_matches_table(find_zeros(300), zeros_table, 138)


@pytest.mark.parametrize("t_max, count", [
    (1, 0), (9, 0), (10, 0), (14.1, 0), (14.2, 1), (21.1, 2)])
def test_find_zeros_small_heights(t_max, count, zeros_table):
    # g_-1 ~ 9.667, g_0 ~ 17.846, g_1 ~ 23.170: t_max below the first Gram
    # point and between Gram points, on either side of the zeros at 14.13
    # and 21.02
    _assert_matches_table(find_zeros(t_max), zeros_table, count)


def test_find_zeros_hidden_pair(monkeypatch, zeros_table):
    # Z folded to |Z| around gamma_2 ~ 21.02 and gamma_3 ~ 25.01 loses both
    # sign changes, and g_1 ~ 23.17 breaks Gram's law
    lo = zeros_table.ordinates[1] - mpf("0.5")
    hi = zeros_table.ordinates[2] + mpf("0.5")
    z = zeta_zeros._hardy_z_raw
    monkeypatch.setattr(zeta_zeros, "_hardy_z_raw",
                        lambda t: abs(z(t)) if lo < t < hi else z(t))
    # two zeros short, a table up to 31 would still pass the count check
    ords = zeros_table.ordinates
    two_short = ZeroTable(ords[:1] + ords[3:4], "ingested", zeros_table.claimed_accuracy)
    assert zero_count_check(two_short, 31)
    with pytest.raises(MissedZeroError):
        find_zeros(31)


def test_refine_anderson_bjorck():
    calls = []

    def z(t):
        calls.append(t)
        return mp.exp(20 * t) - 2

    # plain regula falsi keeps the right end here and creeps up from the
    # left by about tol/4 a step, so it would run into the evaluation cap;
    # Illinois halving took 33 evaluations
    with workdps(17):
        g = _refine(z, 0.0, 1.0, z(mpf(0)), z(mpf(1)), 1e-9)
        assert abs(g - mp.ln(2) / 20) <= mpf("5e-10")
    assert len(calls) <= 11


def test_predict_zero_anderson_bjorck_in_doubles(monkeypatch):
    # the same loop as _refine, driven in doubles with no clamp: it stops
    # once two secant estimates agree to 1e-11, well before the cap
    calls = []

    def z(t):
        calls.append(t)
        return math.exp(20 * t) - 2

    monkeypatch.setattr(zeta_zeros, "_hardy_z_float", z)
    x = zeta_zeros._predict_zero(0.0, 1.0, z(0.0), z(1.0))
    assert isinstance(x, float) and abs(x - math.log(2) / 20) <= 1e-11
    assert len(calls) <= 2 + 10


def test_secant_point_on_a_zero(monkeypatch):
    # z(0) = -3/32 and z(1) = 3/32 put the first secant point exactly on
    # the zero 1/2.  In doubles the next estimate is 1/2 again, so the
    # predictor stops there after one evaluation.  In mpf _refine clamps the
    # next point tol/4 below 1/2, where z > 0 again: b is replaced twice
    # running from a value of 0, then by values larger than the one they
    # replace (g <= 0), and the value at a is halved each time until the
    # bracket closes on the zero at 1/4
    calls = []

    def z(t):
        calls.append(t)
        return (t - 0.25) * (t - 0.5) * (t - 0.75)

    monkeypatch.setattr(zeta_zeros, "_hardy_z_float", z)
    assert zeta_zeros._predict_zero(0.0, 1.0, z(0.0), z(1.0)) == 0.5
    assert calls[2:] == [0.5]
    calls.clear()
    with workdps(17):
        g = _refine(z, 0.0, 1.0, z(mpf(0)), z(mpf(1)), 1e-9)
    assert calls[2] == 0.5 and abs(g - 0.25) <= 5e-10
    assert len(calls) <= 2 + 30


def test_refine_raises_when_width_unreachable():
    calls = []

    def z(t):
        calls.append(t)
        return t - mpf(1) / 3

    # at 15 digits no bracket around 1/3 is 1e-40 wide
    with workdps(15):
        with pytest.raises(ArithmeticError):
            _refine(z, 0.0, 1.0, z(mpf(0)), z(mpf(1)), 1e-40)
    assert len(calls) == 2 + REFINE_MAX_EVALS


def test_zero_count_check(computed_table_100):
    for T in (15, 30, 50, 75, 100):
        assert zero_count_check(computed_table_100, T)


def test_zero_count_check_edge_cases(computed_table_100):
    # an empty table is consistent below the first ordinate
    empty = ZeroTable((), "computed", mpf(1e-9))
    assert zero_count_check(empty, 10)
    # a single zero up to T=100 is a gross mismatch
    single = computed_table_100.truncated(1)
    assert not zero_count_check(single, 100)


def test_zero_count_check_matches_80_digit_comparison(zeros_table):
    # the estimate in doubles gives the verdict an 80-digit one gives, at
    # seeded heights, at every integer height and just above the table
    rng = random.Random(25)
    heights = [rng.uniform(1, 1000) for _ in range(20_000)] + list(range(1, 1001))
    heights.append(float(zeros_table.max_ordinate() + mpf(1) / 1000))
    with workdps(80):
        for T in heights:
            x = mpf(T) / (2 * mp.pi)
            est = x * mp.ln(x) - x + mpf(7) / 8
            expected = abs(zeros_table.count_below(T) - est) < 2
            assert zero_count_check(zeros_table, T) is expected, T


@pytest.mark.parametrize("T", [0, 0.0, -1, -1e-300, mpf(0), mpf(-5), math.nan])
def test_zero_count_check_requires_positive_height(T):
    table = ZeroTable((mpf(14),), "ingested", mpf(0))
    with pytest.raises(DomainError):
        zero_count_check(table, T)


def test_table_invariants():
    good = (mpf(14.1), mpf(21.0))
    acc = mpf(1e-9)
    t = ZeroTable(good, "computed", acc)
    assert len(t) == 2
    assert t.count_below(15) == 1
    assert len(t.truncated(1)) == 1
    with pytest.raises(DomainError):
        ZeroTable(tuple(reversed(good)), "computed", acc)
    with pytest.raises(DomainError):
        ZeroTable(good, "guessed", acc)
    with pytest.raises(DomainError):
        ZeroTable((), "computed", acc).max_ordinate()
    # an accuracy must be a nonnegative width below the first ordinate
    for bad in (-1e-9, 14.1, 20.0):
        with pytest.raises(DomainError):
            ZeroTable(good, "computed", mpf(bad))


@pytest.mark.parametrize("rows, index", [
    (("0", "14"), 0),
    (("-0.0", "14"), 0),
    (("-14", "21"), 0),
    (("-inf", "14"), 0),
    (("14", "14"), 1),
    (("21", "14"), 1),
    (("14", "nan", "21"), 1),
    (("14", "inf"), 1),
], ids=["zero", "minus_zero", "negative", "minus_inf", "equal", "decrease", "nan", "inf"])
def test_table_rejects_each_bad_ordinate(rows, index):
    # zero, negatives, equal neighbours, a decrease, NaN and +-inf, each at
    # its own index; +inf above a finite ordinate is rejected too
    with pytest.raises(ZeroTableError) as exc:
        ZeroTable(tuple(mpf(r) for r in rows), "ingested", mpf(0))
    assert exc.value.index == index
    prev = mpf(rows[index - 1]) if index else 0
    assert str(exc.value) == f"ordinate {mpf(rows[index])} not above {prev}"


def test_table_orders_ordinates_of_mixed_precision():
    # ordinates made at 17 and at 60 digits that differ only beyond 2^-60
    # differ in mantissa width and exponent; the integer check orders them
    # as mpf comparison does
    with workdps(17):
        a = mpf("14.1347251417347")
    with workdps(60):
        above, below = a + mpf(2) ** -70, a - mpf(2) ** -70
        equal = +a
    acc = mpf(0)
    assert len(ZeroTable((a, above), "ingested", acc)) == 2
    assert len(ZeroTable((below, a, above), "ingested", acc)) == 3
    for bad in ((above, a), (a, below), (a, equal)):
        with pytest.raises(ZeroTableError) as exc:
            ZeroTable(bad, "ingested", acc)
        assert exc.value.index == 1


def test_table_order_verdict_matches_mpf_comparison(zeros_table):
    # 50 seeded perturbations of the shipped ordinates, most of them at or
    # within an ulp of a neighbour at a random precision: the constructor
    # rejects at the first ordinate that is not finite and above the one
    # before by mpf comparison, and accepts the others
    rng = random.Random(24)
    ords = zeros_table.ordinates
    verdicts = set()
    with workdps(DEFAULT_PRECISION + _GUARD):
        for _ in range(50):
            rows = list(ords)
            i = rng.randrange(1, len(rows))
            kind = rng.choice(["ulp", "ulp", "ulp", "swap", "round", "special"])
            if kind == "ulp":  # a neighbour's value at p bits, moved by -1, 0 or 1 ulp
                p = rng.randrange(20, 250)
                with workprec(p):
                    near = +rows[i - 1]
                rows[i] = near + rng.choice([-1, 0, 1]) * mp.ldexp(1, mp.mag(near) - p)
            elif kind == "swap":
                rows[i - 1], rows[i] = rows[i], rows[i - 1]
            elif kind == "round":  # a run of ordinates at a random precision
                for j in range(i, min(i + 50, len(rows))):
                    with workprec(rng.randrange(20, 250)):
                        rows[j] = +rows[j]
            else:
                rows[i] = rng.choice([mpf(0), -rows[i], mp.nan, mp.inf])
            expected, prev = None, 0
            for j, g in enumerate(rows):
                if not (mp.isfinite(g) and g > prev):
                    expected = j
                    break
                prev = g
            try:
                ZeroTable(tuple(rows), "ingested", zeros_table.claimed_accuracy)
                got = None
            except ZeroTableError as exc:
                got = exc.index
            assert got == expected, (kind, i)
            verdicts.add(got is None)
    assert verdicts == {True, False}


def test_count_below_matches_linear_count(zeros_table):
    ords = zeros_table.ordinates
    # the precision the table was read at, so that v +- ulp stay distinct
    with workdps(DEFAULT_PRECISION + _GUARD):
        heights = [ords[0] / 2, ords[-1] + 1]
        for g in ords[::97]:
            ulp = mp.ldexp(1, mp.mag(g) - mp.prec)
            heights += [g - ulp, g, g + ulp]
        for t in heights:
            assert zeros_table.count_below(t) == sum(1 for g in ords if g <= t)


def test_round_trip(tmp_path, computed_table_100):
    path = tmp_path / "zeros.txt"
    write_zero_table(computed_table_100, path)
    loaded = load_zero_table(path)
    assert loaded.claimed_accuracy >= computed_table_100.claimed_accuracy
    assert loaded.source == "ingested"
    assert len(loaded) == len(computed_table_100)
    for a, b in zip(loaded.ordinates, computed_table_100.ordinates):
        assert abs(a - b) < 1e-13


def test_export_round_trip_keeps_accuracy(tmp_path, computed_table_100):
    # the header states the table's accuracy plus its rows' rounding, and a
    # load takes it from there, so writing and exporting never lose any; an
    # explicit accuracy wins, and the shipped table's prose header is no
    # such line
    found, exported = tmp_path / "found.txt", tmp_path / "exported.txt"
    write_zero_table(computed_table_100, found)
    write_zero_table(load_zero_table(found), exported)
    with workdps(30):
        rounded = computed_table_100.claimed_accuracy + mpf("5e-14")  # rows near 98.8
    assert rounded <= load_zero_table(found).claimed_accuracy \
        <= load_zero_table(exported).claimed_accuracy
    assert load_zero_table(exported, claimed_accuracy=1e-12).claimed_accuracy == mpf(1e-12)
    assert load_zero_table(ZEROS_FILE).claimed_accuracy == mpf(1e-10)


def test_export_of_export_is_byte_identical(tmp_path, computed_table_100):
    # a found table's header adds its rows' rounding once; rows read back as
    # the loaded ordinates and a header read back as the loaded accuracy are
    # written unchanged, so exporting an export changes no byte
    found, g, h = tmp_path / "found.txt", tmp_path / "g.txt", tmp_path / "h.txt"
    write_zero_table(computed_table_100, found)
    assert found.read_text().splitlines()[0].endswith("accuracy 1.01e-09")
    write_zero_table(load_zero_table(found), g)
    write_zero_table(load_zero_table(g), h)
    assert g.read_bytes() == h.read_bytes()
    assert g.read_text().splitlines()[1:] == found.read_text().splitlines()[1:]
    # the shipped table's rows carry TABLE_DIGITS digits and its default
    # accuracy is 1e-10: an export states that and copies every row
    shipped = tmp_path / "shipped.txt"
    write_zero_table(load_zero_table(ZEROS_FILE), shipped)
    lines = shipped.read_text().splitlines()
    assert lines[0] == "# 10000 zeta-zero ordinates (ingested), accuracy 1.00e-10"
    with open(ZEROS_FILE, encoding="utf-8") as fh:
        assert lines[1:] == [l.strip() for l in fh if not l.startswith("#")]


@pytest.mark.parametrize("claimed", [1e-10, "1.01e-09", "1.0100000001e-9", 2.0 ** -33, "0",
                                     "4.995e-12"])
def test_header_states_at_least_the_claimed_accuracy(tmp_path, claimed):
    # the header's three digits are the accuracy's own when they read back
    # as it at its mantissa's precision, else rounded up: reading the header
    # back never gives less than the table claimed
    with workdps(DEFAULT_PRECISION + _GUARD):
        acc = mpf(claimed)
        table = ZeroTable((mpf("14.1347251417347"), mpf("21.0220396387716")), "ingested", acc)
    path = tmp_path / "z.txt"
    write_zero_table(table, path)
    stated = path.read_text().splitlines()[0].split("accuracy ")[1]
    with workprec(max(53, acc.man_exp[0].bit_length())):
        assert mpf(stated) >= acc
    # read at more bits, it can fall short only by reading's own rounding
    loaded = load_zero_table(path).claimed_accuracy
    with workdps(DEFAULT_PRECISION + _GUARD):
        assert loaded >= acc * (1 - mpf(2) ** -52)


def _exact_decimal(a: int, j: int) -> str:
    """a / 2^j as its exact decimal, j >= 1 fraction digits."""
    digits = str(Decimal(a * 5 ** j)).rjust(j + 1, "0")  # str(int) stops at 4300 digits
    return digits[:-j] + "." + digits[-j:]


@pytest.mark.parametrize("dps", [17, 32, 52, 82, 322])
def test_load_rounds_rows_as_mpf_does(dps, tmp_path):
    # rows of digits and a point are parsed as integers; every shipped row,
    # dyadic ties either side of even, near ties, and rows that take mpf's
    # own parser give mpf(text)'s mantissa and exponent bit for bit.  Rows
    # are also checked against the quotient m/10^k rounded once by mpmath's
    # mpf_div, since past 400 fraction digits mpf(text) rounds twice (at 322
    # digits it takes the tie 1 + 3 2^-prec to an odd mantissa)
    precision = dps - _GUARD
    with open(ZEROS_FILE, encoding="utf-8") as fh:
        rows = [l.strip() for l in fh if not l.startswith("#")]
    table = load_zero_table(ZEROS_FILE, precision=precision)
    with workdps(dps):
        assert [g.man_exp for g in table.ordinates] == [mpf(r).man_exp for r in rows]
        prec = mp.prec
    # 1 + 2^-prec and 1 + 3 2^-prec are ties, half an ulp above 1 and above
    # 1 + 2^(1-prec); 1 + 3 2^-(prec+1) lies a quarter ulp from a tie;
    # 14.5 + 2^(3-prec) is a tie at 14.5
    edge = [_exact_decimal(2 ** prec + 1, prec), _exact_decimal(2 ** prec + 3, prec),
            _exact_decimal(2 ** (prec + 1) + 3, prec + 1),
            _exact_decimal(29 * 2 ** (prec - 4) + 1, prec - 3)]
    for text in edge + ["14.", ".5", "1.4e1", "+14.5", "1_4.5", "\u0661\u0664.\u0665"]:
        path = tmp_path / "row.txt"
        path.write_text(text + "\n", encoding="utf-8")
        (g,) = load_zero_table(path, precision=precision).ordinates
        with workdps(dps):
            if text in edge:
                q = Fraction(text)
                once = from_rational(q.numerator, q.denominator, prec, round_nearest)
                assert g._mpf_ == once, text
            if text not in edge or len(text.split(".")[1]) <= 400:
                assert g.man_exp == mpf(text).man_exp, text


@pytest.mark.parametrize("dps", [17, 32, 52, 82, 322])
def test_parse_leading_zero_rows_as_mpf_does(dps):
    # rows with a zero integer part, a leading zero or the value zero
    with workdps(dps):
        for text in ("0.5", "014.5", "0.0"):
            assert zeta_zeros._parse_ordinate(text, {})._mpf_ == mpf(text)._mpf_, text


@pytest.mark.parametrize("dps", [17, 32, 52, 82, 322])
def test_rows_round_once_in_every_form(dps, tmp_path):
    # a row in exponent or signed form is m 10^d rounded once, at any
    # length: the tie 1 + 3 2^-prec written out in full with e0 appended
    # (which mpf(text) rounds twice at 322 digits), and the edge rows of
    # test_load_rounds_rows_as_mpf_does with a sign, with the point moved
    # against an exponent, and without a point.  One more edge row lies
    # 10^-(prec+1) above the tie 1 + 2^-prec, too close for the quotient's
    # bits to see without the sticky bit, and must round up
    with workdps(dps):
        prec = mp.prec
    tie = _exact_decimal(2 ** prec + 3, prec)
    edge = [tie, _exact_decimal(2 ** prec + 1, prec),
            _exact_decimal(2 ** (prec + 1) + 3, prec + 1),
            _exact_decimal(29 * 2 ** (prec - 4) + 1, prec - 3),
            _exact_decimal(2 ** prec + 1, prec) + "1"]
    rows = []
    for text in edge:
        whole, frac = text.split(".")
        rows += [text, text + "e0", "+" + text, "-" + text, f"{whole}{frac}e-{len(frac)}",
                 f"0.{whole}{frac}E+{len(whole)}", f"{whole}{frac[:3]}.{frac[3:]}e-3"]
    rows += ["1.41347251417347e1", "+14.1347251417347", "141347251417347E-13", ".5e1", "5.e-1"]
    with workdps(dps):
        for text in rows:
            q = Fraction(text)
            once = from_rational(q.numerator, q.denominator, prec, round_nearest)
            assert zeta_zeros._parse_ordinate(text, {})._mpf_ == once, text
    path = tmp_path / "tie.txt"
    path.write_text(tie + "e0\n", encoding="utf-8")
    (g,) = load_zero_table(path, precision=dps - _GUARD).ordinates
    q = Fraction(tie)
    assert g._mpf_ == from_rational(q.numerator, q.denominator, prec, round_nearest)


@pytest.mark.parametrize("dps", [17, 60, 322, 1300])
def test_rows_past_the_int_digit_limit_round_once(dps, tmp_path):
    # int() converts at most 4300 digits; decimal.Decimal reads a longer
    # row exactly, at any precision: at 1300 digits the first prec + 1
    # fraction digits alone are past int()'s limit.  The tie 1 + 2^-prec
    # followed by 5000 zeros rounds to even, and with a 1 after the zeros
    # rounds up
    rng = random.Random(dps)
    with workdps(dps):
        prec = mp.prec
        tie = _exact_decimal(2 ** prec + 1, prec)
        rows = ["14." + "1" * 4400,
                "14." + "".join(rng.choice("0123456789") for _ in range(10_000)),
                tie + "0" * 5000, tie + "0" * 5000 + "1"]
        once = [from_rational(*Decimal(text).as_integer_ratio(), prec, round_nearest)
                for text in rows]  # Fraction(text) is past int()'s limit too
        for text, value in zip(rows, once):
            assert zeta_zeros._parse_ordinate(text, {})._mpf_ == value, text[:20]
        assert zeta_zeros._parse_ordinate(rows[2], {}) == 1
        assert zeta_zeros._parse_ordinate(rows[3], {}) == 1 + mpf(2) ** (1 - prec)
    path = tmp_path / "long.txt"
    path.write_text(rows[0] + "\n21.0220396387716\n", encoding="utf-8")
    table = load_zero_table(path, precision=dps - _GUARD)
    with workdps(dps):
        assert table.ordinates[0]._mpf_ == once[0]


@pytest.mark.parametrize("dps", [30, 1500])
def test_plain_rows_past_the_exponent_cap_round_once(dps):
    # 15,001 fraction digits put a plain row's Decimal exponent past
    # _EXACT_EXPONENT, which caps exponent-form rows only: the row is still
    # its exact ratio rounded once, below 1 and above it
    with workdps(dps):
        for text in ("0." + "1" * 15_001, "14." + "1" * 15_001):
            once = from_rational(*Decimal(text).as_integer_ratio(), mp.prec, round_nearest)
            assert zeta_zeros._parse_ordinate(text, {})._mpf_ == once, text[:20]


def test_long_row_below_one_is_named_clipped(tmp_path):
    # a row below 1 past int()'s limit is read exactly and rounded once,
    # as a row above 1 is; a row of over 5000 characters that does not
    # parse is named by its line, with no more than 60 characters shown
    path = tmp_path / "small.txt"
    small = "0." + "3" * 5000
    path.write_text(small + "\n", encoding="utf-8")
    (g,) = load_zero_table(path).ordinates
    with workdps(DEFAULT_PRECISION + _GUARD):
        once = from_rational(*Decimal(small).as_integer_ratio(), mp.prec, round_nearest)
    assert g._mpf_ == once
    path.write_text(small[:-1] + "x\n", encoding="utf-8")
    with pytest.raises(ZeroTableError) as exc:
        load_zero_table(path)
    assert exc.value.line_number == 1
    assert "cannot parse ordinate '0.333" in str(exc.value)
    assert len(str(exc.value)) < 100


def _row_corpus(n: int, seed: int) -> list:
    """Seeded rows of every form: signs, points with digits on one side or
    both, exponents up to and past the exact cap, underscores, non-ASCII
    digits, nan and inf, and junk."""
    rng = random.Random(seed)

    def digits(k):
        return "".join(rng.choice("0123456789") for _ in range(k))

    special = ["nan", "inf", "-inf", "+inf", "Infinity", "NaN", "-nan", "sNaN", "1/2",
               "0x10", "abc", "1e", "e5", "--1", "1..2", "1.2.3", ".", "", "1 2", "1e+-3",
               "\u0661\u0664.\u0665", "\uff11\uff14.5", "1_4.5", "14.5_1e0"]
    rows = []
    for _ in range(n):
        u = rng.random()
        if u < 0.03:
            rows.append(rng.choice(special))
            continue
        text = rng.choice(["", "", "+", "-"]) + digits(rng.choice([0, 1, 2, 5, 20]))
        if rng.random() < 0.8:
            text += "." + digits(rng.choice([0, 1, 3, 15, 40]))
        if rng.random() < 0.5:
            E = rng.choices([rng.randint(0, 30), rng.randint(0, 500), rng.randint(9_950, 10_050),
                             rng.randint(14_950, 15_050), rng.randint(10 ** 5, 10 ** 6)],
                            weights=[12, 6, 1, 1, 1])[0]
            text += rng.choice("eE") + rng.choice(["", "+", "-"]) + str(E)
        if u > 0.97 and text:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(["_", "\u0663", "x", " "]) + text[i:]
        rows.append(text)
    return rows


_CORPUS = _row_corpus(20_000, 2025)


@pytest.mark.parametrize("dps", [17, 60, 322])
def test_row_corpus_reads_exactly_or_as_mpf(dps):
    # a row that is ASCII, has no underscore and is a finite Decimal of
    # exponent within the cap is read as its exact value rounded once;
    # every other row gives mpf(text)'s value or its exception
    exact = 0
    with workdps(dps):
        prec = mp.prec
        for text in _CORPUS:
            try:
                d = Decimal(text) if text.isascii() and "_" not in text else None
            except ArithmeticError:
                d = None
            if d is not None and d.is_finite() and \
                    abs(d.as_tuple().exponent) <= zeta_zeros._EXACT_EXPONENT:
                exact += 1
                q = Fraction(text)
                once = from_rational(q.numerator, q.denominator, prec, round_nearest)
                assert zeta_zeros._parse_ordinate(text, {})._mpf_ == once, text
                continue
            try:
                expected = mpf(text)._mpf_
            except Exception as exc:
                with pytest.raises(type(exc)):
                    zeta_zeros._parse_ordinate(text, {})
            else:
                assert zeta_zeros._parse_ordinate(text, {})._mpf_ == expected, text
    assert len(_CORPUS) // 2 < exact < len(_CORPUS)


def test_export_limit(tmp_path, computed_table_100):
    path = tmp_path / "two.txt"
    write_zero_table(computed_table_100.truncated(2), path)
    lines = [l for l in path.read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    assert len(lines) == 2
    assert lines[0].startswith("14.134725")


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("14.13\nnot-a-number\n")
    with pytest.raises(ZeroTableError) as exc:
        load_zero_table(path)
    assert exc.value.line_number == 2


def test_load_rejects_non_monotonic(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# comment\n14.13\n21.02\n20.0\n")
    with pytest.raises(ZeroTableError) as exc:
        load_zero_table(path)
    assert exc.value.line_number == 4


def test_load_rejects_nan(tmp_path):
    # NaN compares false both ways: only "not above the last" catches it
    path = tmp_path / "nan.txt"
    path.write_text("14.13\nnan\n21.02\n")
    with pytest.raises(ZeroTableError) as exc:
        load_zero_table(path)
    assert exc.value.line_number == 2


def test_load_names_a_row_not_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    for data, line in ((b"14.1347251417347\n21.02\xff\n", 2), (b"# \xe9\n14.13\n", 1)):
        path.write_bytes(data)
        with pytest.raises(ZeroTableError) as exc:
            load_zero_table(path)
        assert exc.value.line_number == line
    assert str(exc.value) == "line 1: cannot decode row as UTF-8: byte 0xe9 at column 3"


def test_load_names_a_row_beyond_the_double_range(tmp_path):
    # such a row is finite and above the row before: the count check would
    # reject the table in doubles, as 2 ordinates up to inf, not by its line
    path = tmp_path / "huge.txt"
    for rows, line in ((["14.1347251417347", "1e99999"], 2),
                       (["# c", "14.1347251417347", "1.8e308", "1e309"], 3)):
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ZeroTableError) as exc:
            load_zero_table(path)
        assert exc.value.line_number == line
    assert str(exc.value) == "line 3: ordinate 1.8e308 beyond the double range"
    # the largest double itself is in range: that table fails the count
    path.write_text("14.1347251417347\n1.7976931348623157e308\n", encoding="utf-8")
    with pytest.raises(ZeroTableError, match="^count check failed") as exc:
        load_zero_table(path)
    assert exc.value.line_number is None


def test_load_skips_a_byte_order_mark(tmp_path):
    # the shipped table and a copy behind a UTF-8 BOM read to the same
    # mpfs and accuracy, and a first-line header behind one is read
    path = tmp_path / "bom.txt"
    with open(ZEROS_FILE, "rb") as fh:
        path.write_bytes(b"\xef\xbb\xbf" + fh.read())
    plain, bom = load_zero_table(ZEROS_FILE), load_zero_table(path)
    assert [g._mpf_ for g in bom.ordinates] == [g._mpf_ for g in plain.ordinates]
    assert bom.claimed_accuracy == plain.claimed_accuracy
    header = "# 2 zeta-zero ordinates (ingested), accuracy 3.00e-12\n"
    path.write_bytes(("\ufeff" + header + TWO_ROWS).encode("utf-8"))
    assert float(load_zero_table(path).claimed_accuracy) == 3e-12
    path.write_bytes(("\ufeff" + TWO_ROWS.replace("21", "2x")).encode("utf-8"))
    with pytest.raises(ZeroTableError, match="^line 2: "):
        load_zero_table(path)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_load_names_the_line_whatever_the_line_ends(tmp_path, eol):
    path = tmp_path / "bad.txt"
    path.write_bytes(eol.join(["# comment", "14.13", "not-a-number", "21.02", ""]).encode())
    with pytest.raises(ZeroTableError) as exc:
        load_zero_table(path)
    assert exc.value.line_number == 3
    path.write_bytes(eol.join(["# comment", "", "14.13", "21.02", "20.0"]).encode())
    with pytest.raises(ZeroTableError) as exc:
        load_zero_table(path)
    assert exc.value.line_number == 5


TWO_ROWS = "14.1347251417347\n21.0220396387716\n"


def test_load_memoised_on_content(tmp_path):
    from pathlib import Path
    assert load_zero_table(ZEROS_FILE) is load_zero_table(Path(ZEROS_FILE))
    copy = tmp_path / "copy.txt"
    copy.write_bytes(Path(ZEROS_FILE).read_bytes())
    assert load_zero_table(copy) is load_zero_table(ZEROS_FILE)


def test_load_sees_a_file_rewritten_in_place(tmp_path):
    # same size and mtime, one digit changed: the content is the key
    path = tmp_path / "z.txt"
    path.write_text(TWO_ROWS)
    first = load_zero_table(path)
    before = path.stat()
    path.write_text(TWO_ROWS.replace("716", "717"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    second = load_zero_table(path)
    with workdps(DEFAULT_PRECISION + _GUARD):
        assert second.ordinates[1] == mpf("21.0220396387717") > first.ordinates[1]


def test_load_memo_keyed_by_precision_and_accuracy(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text(TWO_ROWS)
    base = load_zero_table(path)
    low = load_zero_table(path, precision=30)
    assert low is load_zero_table(path, precision=30) is not base
    assert low.ordinates[0] != base.ordinates[0]
    assert low.ordinates[0].man_exp[0].bit_length() < base.ordinates[0].man_exp[0].bit_length()
    stated = load_zero_table(path, claimed_accuracy=1e-12)
    assert stated.claimed_accuracy == mpf(1e-12)
    assert base.claimed_accuracy == mpf(1e-10)
    assert load_zero_table(path) is base


def test_load_errors_not_memoised(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("14.13\n21.02\n20.0\n")
    messages = []
    for _ in range(2):
        with pytest.raises(ZeroTableError) as exc:
            load_zero_table(path)
        messages.append(str(exc.value))
    assert messages == [messages[0]] * 2 and messages[0].startswith("line 3: ")
    path.write_text("14.13\n21.02\n")
    assert len(load_zero_table(path)) == 2


def test_load_memo_evicts_least_recently_used(tmp_path):
    held = zeta_zeros._TABLES_HELD
    paths = [tmp_path / f"z{i}.txt" for i in range(held + 1)]
    for i, path in enumerate(paths):
        path.write_text(f"# table {i}\n" + TWO_ROWS)
    tables = [load_zero_table(path) for path in paths]
    assert zeta_zeros._ingest.cache_info().currsize == held
    assert load_zero_table(paths[1]) is tables[1]
    again = load_zero_table(paths[0])
    assert again is not tables[0] and again == tables[0]


def test_load_count_check_catches_gap(tmp_path, computed_table_100):
    # drop three interior zeros: the count falls outside the slack of 2
    path = tmp_path / "gap.txt"
    kept = [g for i, g in enumerate(computed_table_100.ordinates)
            if i not in (5, 6, 7)]
    path.write_text("".join(f"{float(g):.12f}\n" for g in kept))
    with pytest.raises(ZeroTableError):
        load_zero_table(path)


def test_ingested_matches_computed(zeros_table, computed_table_100):
    overlap = zeros_table.count_below(100)
    assert overlap == len(computed_table_100)
    tol = 1e-9 + 1e-12  # refine_tol + rows below 1000, rounded to 5e-13
    for a, b in zip(zeros_table.ordinates[:overlap], computed_table_100.ordinates):
        assert abs(a - b) < tol
