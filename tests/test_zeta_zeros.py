import pytest
from mpmath import mp, mpf, workdps

from zetasum import zeta_zeros
from zetasum.numerics import DomainError, ExtendedReal, _GUARD
from zetasum.zeta_zeros import (
    REFINE_MAX_EVALS,
    SUPPORTED_HEIGHT,
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


def test_hardy_z_domain():
    with pytest.raises(DomainError):
        hardy_z(0)
    with pytest.raises(DomainError):
        hardy_z(-5)
    with pytest.raises(DomainError):
        hardy_z(SUPPORTED_HEIGHT + 1)


def test_find_zeros_100(computed_table_100):
    table = computed_table_100
    assert len(table) == 29
    assert table.source == "computed"
    with workdps(30):
        assert abs(table.ordinates[0].value - mpf(GAMMA_1)) < 2e-9
        assert abs(table.ordinates[1].value - mpf(GAMMA_2)) < 2e-9
        assert abs(table.ordinates[-1].value - mpf(GAMMA_29)) < 2e-9


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
            below = hardy_z(g.value - half, precision=30).value
            above = hardy_z(g.value + half, precision=30).value
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
    assert 0 < len(z_calls) <= 400


def test_find_zeros_150_rescan(monkeypatch, zeros_table):
    checks = _count_calls(monkeypatch, "zero_count_check")
    z_calls = _count_calls(monkeypatch, "_hardy_z_raw")
    table = find_zeros(150)
    # the first pass misses a zero below 150; the quarter-step rescan finds it
    assert len(checks) == 2
    # reusing the first pass's ordinates keeps the rescan from re-refining them
    assert len(z_calls) <= 1300
    values = [g.value for g in table.ordinates]
    assert len(values) == 52
    assert all(a < b for a, b in zip(values, values[1:]))
    tol = 1e-9 + 1e-12  # refine_tol + ingested claimed accuracy
    for a, b in zip(zeros_table.ordinates[:52], values):
        assert abs(a.value - b) < tol


def test_refine_illinois():
    def z(t):
        return mp.exp(20 * t) - 2

    # plain regula falsi keeps the right end here and creeps up from the
    # left by about tol/4 a step, so it would run into the evaluation cap
    with workdps(17):
        g = _refine(z, 0.0, 1.0, z(mpf(0)), z(mpf(1)), 1e-9)
        assert abs(g - mp.ln(2) / 20) <= mpf("5e-10")


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
    empty = ZeroTable((), "computed", ExtendedReal.of(1e-9, 20))
    assert zero_count_check(empty, 10)
    # a single zero up to T=100 is a gross mismatch
    single = computed_table_100.truncated(1)
    assert not zero_count_check(single, 100)


def test_table_invariants():
    good = (ExtendedReal.of(14.1, 20), ExtendedReal.of(21.0, 20))
    acc = ExtendedReal.of(1e-9, 20)
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
            ZeroTable(good, "computed", ExtendedReal.of(bad, 20))


def test_count_below_matches_linear_count(zeros_table):
    ords = zeros_table.ordinates
    # the precision the table was read at, so that v +- ulp stay distinct
    with workdps(ords[0].precision + _GUARD):
        heights = [ords[0].value / 2, ords[-1].value + 1]
        for g in ords[::97]:
            ulp = mp.ldexp(1, mp.mag(g.value) - mp.prec)
            heights += [g.value - ulp, g.value, g.value + ulp]
        for t in heights:
            assert zeros_table.count_below(t) == sum(1 for g in ords if g.value <= t)


def test_round_trip(tmp_path, computed_table_100):
    path = tmp_path / "zeros.txt"
    write_zero_table(computed_table_100, path)
    loaded = load_zero_table(path, claimed_accuracy=1e-9)
    assert loaded.source == "ingested"
    assert len(loaded) == len(computed_table_100)
    for a, b in zip(loaded.ordinates, computed_table_100.ordinates):
        assert abs(a.value - b.value) < 1e-13


def test_export_limit(tmp_path, computed_table_100):
    path = tmp_path / "two.txt"
    write_zero_table(computed_table_100, path, limit=2)
    lines = [l for l in path.read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    assert len(lines) == 2
    assert lines[0].startswith("14.134725")


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("14.13\nnot-a-number\n")
    with pytest.raises(ZeroTableError) as exc:
        load_zero_table(path, count_check=False)
    assert exc.value.line_number == 2


def test_load_rejects_non_monotonic(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# comment\n14.13\n21.02\n20.0\n")
    with pytest.raises(ZeroTableError) as exc:
        load_zero_table(path, count_check=False)
    assert exc.value.line_number == 4


def test_load_count_check_catches_gap(tmp_path, computed_table_100):
    # drop three interior zeros: the count falls outside the slack of 2
    path = tmp_path / "gap.txt"
    kept = [g for i, g in enumerate(computed_table_100.ordinates)
            if i not in (5, 6, 7)]
    path.write_text("".join(f"{float(g.value):.12f}\n" for g in kept))
    with pytest.raises(ZeroTableError):
        load_zero_table(path, count_check=True)
    # with the check disabled the same file loads fine
    assert len(load_zero_table(path, count_check=False)) == len(kept)


def test_ingested_matches_computed(zeros_table, computed_table_100):
    overlap = zeros_table.count_below(100)
    assert overlap == len(computed_table_100)
    tol = 1e-9 + 1e-12  # refine_tol + ingested claimed accuracy
    for a, b in zip(zeros_table.ordinates[:overlap], computed_table_100.ordinates):
        assert abs(a.value - b.value) < tol
