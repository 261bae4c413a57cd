import os
from fractions import Fraction
from typing import Callable

import pytest
from mpmath import mp, mpf, workdps

from zetasum.numerics import (
    DEFAULT_PRECISION,
    DomainError,
    Number,
    _GUARD,
    _to_mpf,
)
from zetasum.zeta_zeros import ZeroTable, find_zeros, load_zero_table

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
ZEROS_FILE = os.path.join(DATA_DIR, "zeros_10k.txt")

# scorecard lines recorded by the acceptance tests, replayed after the run
# (capture would otherwise swallow lines from passing tests)
SCORECARD_FILE = os.path.join(os.path.dirname(__file__), ".acceptance_lines")


def exact_value(x: mpf) -> Fraction:
    """The mpf x as the exact rational it is."""
    man, exp = x.man_exp  # man is the absolute mantissa
    return int(mp.sign(x)) * Fraction(man) * Fraction(2) ** exp


class QuadratureError(RuntimeError):
    """Quadrature's error estimate exceeds the target error."""


def quadrature(
    f: Callable[[mpf], mpf],
    a: Number,
    b: Number,
    target_error: Number,
    precision: int = DEFAULT_PRECISION,
) -> tuple:
    """Integrate a smooth f over the finite interval [a, b] with mpmath's
    quad (tanh-sinh), in mpf at precision plus guard digits.

    Returns the ends (lower, upper) around quad's value, as mpfs, whose
    half-width is quad's error estimate, or 10^-(precision-2) if that is larger.  The width is an
    estimate, not a proof.  Raises QuadratureError if the estimate exceeds
    target_error.
    """
    with workdps(precision + _GUARD):
        a, b, tgt = _to_mpf(a), _to_mpf(b), _to_mpf(target_error)
        if not a < b:
            raise DomainError("quadrature requires a < b")
        if tgt <= 0:
            raise DomainError("target_error must be positive")
        total, err = mp.quad(f, [a, b], error=True)
        if err > tgt:
            raise QuadratureError(
                f"quadrature error estimate {mp.nstr(err, 3)} exceeds target {mp.nstr(tgt, 3)}")
        err = max(err, mpf(10) ** (-(precision - 2)))
        return total - err, total + err


def p01_integrand(q: mpf) -> mpf:
    """(1 - {q}^2) / (2 q^2 (q+1)^2), the positive integrand behind
    p01_term; exposed for quadrature cross-checks, evaluated at the
    caller's working precision."""
    u = q - mp.floor(q)
    return (1 - u * u) / (2 * q * q * (q + 1) ** 2)


def record_acceptance_line(line: str):
    with open(SCORECARD_FILE, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def pytest_sessionstart(session):
    if os.path.exists(SCORECARD_FILE):
        os.remove(SCORECARD_FILE)


def pytest_terminal_summary(terminalreporter):
    if os.path.exists(SCORECARD_FILE):
        terminalreporter.section("acceptance criteria")
        with open(SCORECARD_FILE, encoding="utf-8") as fh:
            for line in fh:
                terminalreporter.write_line(line.rstrip("\n"))


@pytest.fixture(scope="session")
def zeros_table() -> ZeroTable:
    """The ingested 10^4-zero table shipped under data/."""
    return load_zero_table(ZEROS_FILE, claimed_accuracy=5e-12)


@pytest.fixture(scope="session")
def computed_table_100() -> ZeroTable:
    """Zeros below t=100 found by the package's own scanner."""
    return find_zeros(100)
