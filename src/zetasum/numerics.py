"""Extended-precision value types.

Provides ExtendedReal, the record of an mpf and its precision, the target
constant, and precision-carrying wrappers around mpmath's log-gamma,
digamma and polygamma.  Exact rationals are plain Fractions.

ExtendedReal does no arithmetic.  Every computation here and in the routes
runs in mpf under workdps(precision + _GUARD).  A route hands its plain
mpf (or Fraction) partial sum to SeriesResult, whose value() is the one
place that wraps it, at the precision of its tail bound; enclosure() gives
plain mpf ends.  Everything here is a pure function of its inputs; all
types are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Union

from mpmath import mp, mpf, workdps

DEFAULT_PRECISION = 50
MIN_PRECISION = 15

# Guard digits used inside every computation so that the 10^(2-P) relative
# error contract holds with room to spare.
_GUARD = 10


def _rounding_slack(precision: int) -> mpf:
    """10^-(precision-2): the slack a result at `precision` digits adds to
    its bound for its own rounding, the 10^(2-P) contract above taken as an
    absolute error (callers scale it where a value may exceed one).  It is
    evaluated at the caller's working precision."""
    return mpf(10) ** (-(precision - 2))


@cache
def _bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n as an exact Fraction, from mp.bernfrac,
    memoised by index: a pure table, independent of the precision."""
    return Fraction(*mp.bernfrac(n))


Number = Union[int, float, Fraction, "ExtendedReal"]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


def _to_mpf(x) -> mpf:
    if isinstance(x, mpf):
        return x  # never re-round an exact mpf at ambient precision
    if isinstance(x, ExtendedReal):
        return x.value
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


@dataclass(frozen=True)
class ExtendedReal:
    """A result record: an mpf value and the precision in decimal digits
    it was computed at, with relative error below 10^(2-P).  Two records
    are equal when both value and precision are.  A value given as an int,
    float or Fraction is converted at P + _GUARD digits; an ExtendedReal
    keeps its value unrounded and takes the precision P asked for.
    """

    value: mpf
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.precision < MIN_PRECISION:
            raise DomainError(f"precision must be >= {MIN_PRECISION}, got {self.precision}")
        if not isinstance(self.value, mpf):
            with workdps(self.precision + _GUARD):
                object.__setattr__(self, "value", _to_mpf(self.value))

    def to_decimal_string(self, digits: int | None = None) -> str:
        return mp.nstr(self.value, digits or self.precision, strip_zeros=False)


# ---------------------------------------------------------------------------
# Constants


def target_constant(precision: int = DEFAULT_PRECISION) -> ExtendedReal:
    """gamma - ln(4*pi) + 2, the constant every route here converges to."""
    with workdps(precision + _GUARD):
        return ExtendedReal(mp.euler - mp.ln(4 * mp.pi) + 2, precision)


# ---------------------------------------------------------------------------
# Log-gamma / digamma / polygamma


def _gamma_family(name: str, fn, x: Number, precision: int | None) -> ExtendedReal:
    """fn(x) for x > 0, at `precision` if given, else at x's own precision."""
    if precision is None:
        precision = x.precision if isinstance(x, ExtendedReal) else DEFAULT_PRECISION
    x = ExtendedReal(x, precision)
    if x.value <= 0:
        raise DomainError(f"{name} requires x > 0")
    with workdps(x.precision + _GUARD):
        return ExtendedReal(fn(x.value), x.precision)


def ln_gamma(x: Number, precision: int | None = None) -> ExtendedReal:
    """ln Gamma(x) for x > 0."""
    return _gamma_family("ln_gamma", mp.loggamma, x, precision)


def digamma(x: Number, precision: int | None = None) -> ExtendedReal:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    return _gamma_family("digamma", mp.digamma, x, precision)


def polygamma(order: int, x: Number, precision: int | None = None) -> ExtendedReal:
    """psi^(order)(x) for x > 0, orders 1..6.  No route calls it:
    p12_series' tail acceleration calls mp.polygamma directly."""
    if not 1 <= order <= 6:
        raise DomainError("polygamma supports orders 1..6 only")
    return _gamma_family("polygamma", lambda v: mp.polygamma(order, v), x, precision)

