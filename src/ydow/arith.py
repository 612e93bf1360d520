"""Integer primitives shared by every year-share method.

All functions are pure and operate on plain ints.  The central quantity is
the *year share* of a two-digit year y: floor(5y/4) reduced mod 7, the number
of weekdays the date advances between the century year and year y (one day
per common year, two per leap year).

Every floor and remainder in ydow is Python's `//`, `%` or `divmod`, which
round toward negative infinity.  `floor_div` is the checked form of `//`
for a divisor that arrives as data, a trace step's operand, and `mod7`
names `% 7`; both stay public.

A method's output, `ShareResult`, is an immutable `typing.NamedTuple`:
fields are read by name, assignment raises AttributeError, and a result
compares equal to a plain tuple holding the same four values.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from ._record import check_int, echo

if TYPE_CHECKING:
    from .trace import StepTrace


def floor_div(p: int, q: int) -> int:
    """Integer quotient of p by q, rounded toward negative infinity.

    This is Python's `//`, the one floor division in ydow, checked for a
    divisor that arrives as data: replaying a `div_split` step reads its
    divisor from the step's operands, and a divisor <= 0 raises ValueError.
    Code whose divisor is a constant writes `//` itself.  A port must not
    replace it with a truncating division (C's `/`, `int(p / q)`): the
    congruences the year-share formulas rely on break under truncation for
    negative dividends.

    >>> floor_div(7, 2)
    3
    >>> floor_div(-8, 4)
    -2
    >>> floor_div(-1, 4)
    -1
    """
    if q <= 0:
        raise ValueError(f"divisor must be positive, got {echo(q)}")
    return p // q


def mod7(n: int) -> int:
    """Residue of n modulo 7, always in [0, 6], including for negative n.

    >>> mod7(13)
    6
    >>> mod7(-3)
    4
    """
    return n % 7


def check_year2(y: int) -> int:
    """Validate a two-digit year value.  Out-of-range input is an error,
    never silently wrapped mod 100."""
    if y.__class__ is not int:  # an exact int skips the call: every method body checks its year
        check_int("two-digit year", y)
    if not 0 <= y <= 99:
        raise ValueError(f"two-digit year must be in [0, 99], got {echo(y)}")
    return y


def year_share(y: int) -> int:
    """The year share of y: 5*y // 4 % 7, identically (y + y // 4) % 7.

    This is the reference value every method in the package must be
    congruent to; the test suite uses it as the brute-force oracle.
    """
    check_year2(y)
    return 5 * y // 4 % 7


class SignConvention(Enum):
    """Whether a method's raw output represents the year share itself or its
    negative (some day-of-week schemes subtract the share, so methods that
    produce the negated value save a step)."""

    POSITIVE = "pos"
    NEGATIVE = "neg"


# Module constants for the members: a class attribute of an Enum is read
# through EnumType's Python-level __getattr__ hook, a global is not.
POSITIVE, NEGATIVE = SignConvention


class ShareResult(NamedTuple):
    """A method's output: the unreduced raw value, its sign convention, the
    implied positive residue in [0, 6], and the trace of steps taken.

    raw is kept unreduced on purpose: any value in the right mod-7 class is
    usable, and reduction can be deferred to a later stage of a day-of-week
    calculation.
    """

    raw: int
    convention: SignConvention
    residue: int
    trace: "StepTrace | None" = None

    @property
    def negative_residue(self) -> int:
        """Residue of the negated share, mod7(-positive)."""
        return -self.residue % 7


def normalize(raw: int, convention: SignConvention, trace: "StepTrace | None" = None) -> ShareResult:
    """Wrap a raw method output with its normalized positive residue.

    The result is built with `tuple.__new__`, as `ShareResult._make` does,
    which skips the NamedTuple's Python-level `__new__`.
    """
    residue = raw % 7 if convention is POSITIVE else -raw % 7
    return tuple.__new__(ShareResult, (raw, convention, residue, trace))
