import mpmath
import pytest
from mpmath import mp, mpf, workdps

from zetasum.numerics import (
    DEFAULT_PRECISION,
    DomainError,
    ExtendedReal,
    digamma,
    ln_gamma,
    polygamma,
    target_constant,
)
from tests.conftest import QuadratureError, quadrature


def test_default_precision():
    x = ExtendedReal(2)
    assert x.precision == DEFAULT_PRECISION == 50


def test_precision_floor():
    with pytest.raises(DomainError):
        ExtendedReal(1, precision=10)


def test_of_takes_requested_precision():
    x = ExtendedReal(3, 40)
    y = ExtendedReal(x, 20)
    assert y.precision == 20
    assert y.value == x.value


def test_constants_against_mpmath():
    with workdps(40):
        tgt = mp.euler - mp.ln(4 * mp.pi) + 2
        assert abs(target_constant(30).value - tgt) < mpf(10) ** -28
    # first digits of the headline constant
    assert target_constant(30).to_decimal_string(10).startswith("0.046191417")


@pytest.mark.parametrize("x", [0.5, 1.0, 2.5, 7.0, 41.25, 1234.5])
def test_ln_gamma_matches_mpmath(x):
    with workdps(45):
        ref = mpmath.loggamma(mpf(x))
        assert abs(ln_gamma(x, 35).value - ref) < mpf(10) ** -33


@pytest.mark.parametrize("t", ["14.134725", "100", "1000", "9999"])
def test_theta_matches_siegeltheta(t):
    # theta is the only complex log-gamma use; mp.siegeltheta also rests on
    # mpmath's loggamma, so this pins the argument 1/4 + it/2, the branch
    # and the (t/2) ln pi term
    from zetasum.zeta_zeros import _theta_raw
    with workdps(45):
        assert abs(_theta_raw(mpf(t)) - mpmath.siegeltheta(mpf(t))) < mpf(10) ** -40


@pytest.mark.parametrize("call", [
    lambda x, p: ln_gamma(x, p),
    lambda x, p: digamma(x, p),
    lambda x, p: polygamma(2, x, p),
], ids=["ln_gamma", "digamma", "polygamma"])
def test_gamma_family_precision_overrides_argument(call):
    assert call(ExtendedReal(3, 40), 20).precision == 20
    assert call(ExtendedReal(3, 40), None).precision == 40


@pytest.mark.parametrize("x", [0.5, 1.0, 3.0, 10.25, 500.0])
def test_digamma_matches_mpmath(x):
    with workdps(45):
        ref = mpmath.digamma(mpf(x))
        assert abs(digamma(x, 35).value - ref) < mpf(10) ** -33


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("x", [0.5, 2.0, 11.5])
def test_polygamma_matches_mpmath(order, x):
    with workdps(45):
        ref = mpmath.polygamma(order, mpf(x))
        assert abs(polygamma(order, x, 35).value - ref) < mpf(10) ** -30 * max(1, abs(ref))


def test_gamma_family_domain_errors():
    with pytest.raises(DomainError):
        digamma(0)
    with pytest.raises(DomainError):
        digamma(-3)
    with pytest.raises(DomainError):
        polygamma(0, 2.0)
    with pytest.raises(DomainError):
        polygamma(7, 2.0)


def test_quadrature_polynomial():
    lo, hi = quadrature(lambda q: q * q, 0, 1, target_error=1e-20, precision=30)
    with workdps(40):
        third = mpf(1) / 3
        assert lo <= third <= hi
        assert hi - lo < mpf(10) ** -18


def test_quadrature_log():
    lo, hi = quadrature(lambda q: 1 / q, 1, 2, target_error=1e-18, precision=30)
    with workdps(40):
        assert lo <= mp.ln(2) <= hi


def test_quadrature_target_error_unreached():
    # a kink inside the interval keeps the error estimate far above target
    with pytest.raises(QuadratureError):
        quadrature(lambda q: abs(q - mpf(1) / 3), 0, 1, target_error=1e-20,
                   precision=30)


def test_exact_rational_round_trip():
    import random
    from fractions import Fraction
    rng = random.Random(11)
    for _ in range(50):
        r1 = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        r2 = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (r1 + r2) - r2 == r1
        if r2 != 0:
            assert (r1 * r2) / r2 == r1


def test_precision_monotonicity():
    import random
    rng = random.Random(13)
    for _ in range(10):
        x = rng.uniform(0.1, 50)
        lo = digamma(x, 30)
        hi = digamma(x, 40)
        assert abs(lo.value - hi.value) < mpf(10) ** -28


def test_digamma_functional_equation():
    import random
    rng = random.Random(17)
    with workdps(40):
        for _ in range(20):
            x = mpf(rng.uniform(0.01, 100))
            lhs = digamma(x + 1, 30).value - digamma(x, 30).value - 1 / x
            assert abs(lhs) < mpf(10) ** -28


def test_ln_gamma_recurrence():
    import random
    rng = random.Random(19)
    with workdps(40):
        for _ in range(20):
            x = mpf(rng.uniform(0.01, 100))
            lhs = ln_gamma(x + 1, 30).value - ln_gamma(x, 30).value - mp.ln(x)
            assert abs(lhs) < mpf(10) ** -28

