import os
from fractions import Fraction

import pytest
from mpmath import mp, mpf

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
    return load_zero_table(ZEROS_FILE, claimed_accuracy=1e-12)


@pytest.fixture(scope="session")
def computed_table_100() -> ZeroTable:
    """Zeros below t=100 found by the package's own scanner."""
    return find_zeros(100)
