"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each criterion records its verdict line; conftest replays the full
scorecard in the terminal summary so it always appears in the run log.
"""

import time
from functools import lru_cache

from mpmath import mp, mpf, workdps

from zetasum.criteria import gn_multisum, li_lambda, zero_sum_p0
from zetasum.digit_series import (
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
from zetasum.numerics import target_constant
from zetasum.special_series import (
    StieltjesRequest,
    p01_integral,
    p01_term,
    p12_closed_form,
    p12_series,
    p12_term,
    stieltjes,
)
from zetasum.zeta_zeros import zero_count_check
from tests import conftest

GAMMA_1 = "14.13472514173469379"
GAMMA_2 = "21.022039638771554993"
STIELTJES_1 = "-0.0728158454836767249"


def _report(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.record_acceptance_line(line)
    print(line)


@lru_cache(maxsize=None)
def _main_series_million():
    t0 = time.time()
    r = main_series(1_000_000)
    return r, time.time() - t0


def test_criterion_01_main_identity():
    r, elapsed = _main_series_million()
    v = r.value()
    err = abs(v.value - target_constant().value)
    digits_ok = v.to_decimal_string(8).startswith("0.0461914")
    ok = digits_ok and err < mpf(10) ** -9 and elapsed < 60
    _report(1, ok, f"main_series(10^6) = {v.to_decimal_string(10)}, "
                   f"err {float(err):.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_four_route_agreement():
    # Four independent routes to gamma - ln(4 pi) + 2. Two near choices are
    # excluded on purpose: pochtipochti_series equals main_series + 1/4 term
    # for term, so it is not independent; zero_sum_p0 promises only ~7.5e-7
    # (partly heuristic), wider than 1e-8, and criterion 03 covers it.
    shift = -mp.ln(4 * mp.pi) + 2
    results = {
        "main_series": (_main_series_million()[0], 0),
        "p01_integral": (p01_integral(1000), 0),
        "gamma_addison": (gamma_addison(100_000), shift),
        "stieltjes": (stieltjes(StieltjesRequest(0)), shift),
    }
    routes = {k: r.value().value + s for k, (r, s) in results.items()}
    tol = mpf(10) ** -8
    bad = [f"{k} tail bound {float(r.tail_bound.value):.2e}"
           for k, (r, _) in results.items()
           if not r.tail_bound.value < 5 * mpf(10) ** -9]
    names = sorted(routes)
    gaps = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            gaps[a, b] = abs(routes[a] - routes[b])
            if gaps[a, b] > tol:
                bad.append(f"{a} vs {b} ({float(gaps[a, b]):.2e})")
    # The digamma midpoint series is not a route: its limit is (1 - ln 2)/2
    # (see README). Check it against that limit and keep it apart.
    p12 = p12_series(10_000, accelerate=True)
    p12_value = p12.value().value
    p12_gap = abs(p12_value - p12_closed_form().value)
    if not p12_gap <= p12.tail_bound.value:
        bad.append(f"p12_series off (1 - ln 2)/2 by {float(p12_gap):.2e}")
    for k in names:
        if not abs(p12_value - routes[k]) > mpf("0.1"):
            bad.append(f"p12_series within 0.1 of {k}")
    p12_off = abs(p12_value - target_constant().value)
    ok = not bad
    _report(2, ok, f"four routes agree within 1e-8 (largest gap "
                   f"{float(max(gaps.values())):.2e}); p12_series at "
                   f"(1 - ln 2)/2, {float(p12_off):.4f} from the target"
            if ok else "violations: " + "; ".join(bad))
    assert ok


def test_criterion_03_zero_sum_route(zeros_table):
    assert len(zeros_table) >= 10_000
    tgt = target_constant().value
    corrected = zero_sum_p0(zeros_table, True).value().value
    err_c = abs(corrected - tgt)
    raw_vals = [zero_sum_p0(zeros_table.truncated(k), False).value().value
                for k in (2000, 5000, 10_000)]
    err_r = abs(raw_vals[-1] - tgt)
    monotone = raw_vals[0] < raw_vals[1] < raw_vals[2] < tgt
    ok = err_c < 1e-4 and err_r < 5e-4 and monotone
    _report(3, ok, f"corrected err {float(err_c):.2e}, raw err "
                   f"{float(err_r):.2e}, monotone from below: {monotone}")
    assert ok


def test_criterion_04_positivity_suite():
    bad = []
    indices = list(range(1, 10_001)) + [10 ** 6 + 7, 10 ** 9 + 123]
    for n in indices:
        c = digit_counts(n)
        if not (2 * c.n1 + 3 > 0 and 2 * c.n1 > 0 and c.total > 0):
            bad.append(f"digit numerator at {n}")
            break
    # log2_series terms are 1/(2n(2n+1)(2n+2)): positive by construction,
    # checked through strictly increasing partial sums
    s = [log2_series(k).value().value for k in (10, 11, 12)]
    if not s[0] < s[1] < s[2]:
        bad.append("log2_series partial sums")
    for n in (1, 2, 3, 17, 100, 5000, 123_456):
        if not p01_term(n).value > 0:
            bad.append(f"p01_term({n})")
        if not p12_term(n).value > 0:
            bad.append(f"p12_term({n})")
    for fn in (main_series, combined_pochti, gamma_addison, log2_series):
        r = fn(100)
        if not r.positive_terms:
            bad.append(f"{fn.__name__} positive flag")
    ok = not bad
    _report(4, ok, "all inspected terms strictly positive" if ok
            else "violations: " + "; ".join(bad))
    assert ok


def test_criterion_05_digit_identities():
    bit_ok = all(digit_counts(n >> 1).total == n.bit_length() - 1
                 for n in range(2, 1_000_001))
    pair_ok = True
    for N in range(1, 1001):
        if gamma_paired(N).partial_sum != \
                gamma_vacca_alternating(2 * N + 1).partial_sum:
            pair_ok = False
            break
    ok = bit_ok and pair_ok
    _report(5, ok, f"bit identity to 10^6: {bit_ok}; exact rational pairing "
                   f"to N=10^3: {pair_ok}")
    assert ok


def test_criterion_06_constants():
    s0 = stieltjes(StieltjesRequest(0)).value().value
    addison = gamma_addison(300_000).value().value
    agree = abs(s0 - addison)
    digits_ok = mp.nstr(s0, 8).startswith("0.577215")
    s1 = stieltjes(StieltjesRequest(1)).value().value
    with workdps(40):
        err1 = abs(s1 - mpf(STIELTJES_1))
    ok = digits_ok and agree < mpf(10) ** -10 and err1 < mpf(10) ** -8
    _report(6, ok, f"gamma agreement {float(agree):.2e}, stieltjes(1) err "
                   f"{float(err1):.2e}")
    assert ok


def test_criterion_07_li_coefficients(zeros_table):
    lam1 = li_lambda(1, zeros_table, with_tail_correction=True)[0].value().value
    half_target = target_constant().value / 2
    err = abs(lam1 - half_target)
    positives = all(lam.value().value > 0
                    for lam in li_lambda(10, zeros_table, precision=30))
    ok = err < 1e-4 and positives
    _report(7, ok, f"lambda_1 err {float(err):.2e}; lambda_1..10 all "
                   f"positive: {positives}")
    assert ok


def test_criterion_08_gn_reduction(zeros_table):
    bad = []
    for K in (10, 100, 1000):
        g1 = gn_multisum(1, zeros_table, K).value().value
        p0 = zero_sum_p0(zeros_table.truncated(K), False).value().value
        with workdps(60):
            if abs(g1 - p0 / 2) > mpf(10) ** -40:
                bad.append(f"reduction at K={K}")
    g2 = gn_multisum(2, zeros_table, 200, 30).value().value
    if not g2 > 0:
        bad.append("G_2 multisum not positive")
    import random
    rng = random.Random(7)
    with workdps(40):
        for _ in range(10):
            xa = 1 / (mpf(1) / 4 + mpf(rng.uniform(14, 900)) ** 2)
            xb = 1 / (mpf(1) / 4 + mpf(rng.uniform(14, 900)) ** 2)
            if xa * xa * (xa - xa) ** 2 != 0:
                bad.append("diagonal not vanishing")
            if abs(xa * xb * (xa - xb) ** 2 - xb * xa * (xb - xa) ** 2) > mpf(10) ** -38:
                bad.append("symmetry broken")
    ok = not bad
    _report(8, ok, "reduction, positivity, diagonal and symmetry hold" if ok
            else "; ".join(bad))
    assert ok


def test_criterion_09_tail_bound_soundness(zeros_table):
    series_ops = [
        gamma_vacca_alternating, log4pi_alternating, gamma_paired,
        log4pi_paired, gamma_addison, log2pi_dual, combined_pochti,
        log2_series, pochtipochti_series, main_series,
        lambda N, **kw: p01_integral(N),
        lambda N, **kw: p12_series(N, accelerate=False),
    ]
    names = [getattr(f, "__name__", "lambda") for f in series_ops]
    names[-2:] = ["p01_integral", "p12_series"]
    bad = []
    for fn, name in zip(series_ops, names):
        for N in (100, 1000, 10_000):
            try:
                small = fn(N, exact_limit=10_000)
                big = fn(10 * N, exact_limit=10_000)
            except TypeError:
                small = fn(N)
                big = fn(10 * N)
            diff = abs(small.value().value - big.value().value)
            if diff > small.tail_bound.value:
                bad.append(f"{name} at N={N}")
    for m in (0, 1):
        with workdps(80):  # an independent reference, far inside any bound
            ref = mp.stieltjes(m)
        for N in (100, 1000, 10_000):
            small = stieltjes(StieltjesRequest(m, N))
            with workdps(80):
                if abs(small.value().value - ref) > small.tail_bound.value:
                    bad.append(f"stieltjes[{m}] at N={N}")
    for K in (100, 1000):
        small = zero_sum_p0(zeros_table.truncated(K), False)
        big = zero_sum_p0(zeros_table.truncated(10 * K), False)
        if abs(small.value().value - big.value().value) > small.tail_bound.value:
            bad.append(f"zero_sum_p0 at K={K}")
        (small,) = li_lambda(1, zeros_table.truncated(K), False)
        (big,) = li_lambda(1, zeros_table.truncated(10 * K), False)
        if abs(small.value().value - big.value().value) > small.tail_bound.value:
            bad.append(f"li_lambda at K={K}")
    ok = not bad
    _report(9, ok, "partial-sum gaps within reported bounds everywhere" if ok
            else "violations: " + "; ".join(bad))
    assert ok


def test_criterion_10_zero_finder(zeros_table, computed_table_100):
    table = computed_table_100
    count_ok = len(table) == 29
    with workdps(30):
        tol = mpf("2e-9")  # refine_tol plus slack on the bracket midpoint
        first_ok = abs(table.ordinates[0] - mpf(GAMMA_1)) < tol
        second_ok = abs(table.ordinates[1] - mpf(GAMMA_2)) < tol
    counts_ok = all(zero_count_check(zeros_table, T) for T in range(1, 1001))
    overlap = zeros_table.count_below(100)
    combined_tol = 1e-9 + 1e-12
    overlap_ok = overlap == len(table) and all(
        abs(a - b) < combined_tol
        for a, b in zip(zeros_table.ordinates[:overlap], table.ordinates))
    ok = count_ok and first_ok and second_ok and counts_ok and overlap_ok
    _report(10, ok, f"29 zeros below 100: {count_ok}; first ordinates match: "
                    f"{first_ok and second_ok}; count checks to 10^3: "
                    f"{counts_ok}; ingested/computed overlap: {overlap_ok}")
    assert ok
