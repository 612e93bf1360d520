"""Civil dates, ISO parsing, and the day-count weekday oracle.

Proleptic Gregorian throughout, years 1 to 9999 as in `datetime`.  The
oracle never touches weekday formulas: it counts exact days from 0001-01-01,
a Monday, so it can sit in judgment over every formula-based pipeline in
the package.

`CivilDate` is an immutable record (see `_record`): it compares equal only
to its own class, hashes by its fields, and copies through `_replace`.
"""

from __future__ import annotations

import re
from enum import IntEnum

from ._record import Record, check_int, echo


class DateParseError(ValueError):
    """Text does not have the form YYYY-MM-DD; .position is the bad index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DateValidationError(ValueError):
    """Well-formed text, but no such calendar date."""


class Weekday(IntEnum):
    SUNDAY = 0
    MONDAY = 1
    TUESDAY = 2
    WEDNESDAY = 3
    THURSDAY = 4
    FRIDAY = 5
    SATURDAY = 6

    @property
    def display_name(self) -> str:
        return self.name.capitalize()


def is_leap(year: int) -> bool:
    """Gregorian leap rule.

    >>> [is_leap(y) for y in (2000, 1900, 1996, 1997)]
    [True, False, True, False]
    """
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
# days before month m in a common year, cumulative
_DAYS_BEFORE = tuple(sum(_MONTH_DAYS[:m]) for m in range(12))


def month_length(year: int, month: int) -> int:
    if month == 2 and is_leap(year):
        return 29
    return _MONTH_DAYS[month - 1]


MAXYEAR = 9999  # datetime.MAXYEAR: the last year that str() writes in four digits


class CivilDate(Record):
    __slots__ = _fields = ("year", "month", "day")

    def __init__(self, year: int, month: int, day: int):
        # Exact ints skip the three calls: one CivilDate is built per parsed date.
        if year.__class__ is not int or month.__class__ is not int or day.__class__ is not int:
            check_int("year", year, DateValidationError)
            check_int("month", month, DateValidationError)
            check_int("day", day, DateValidationError)
        if not 1 <= year <= MAXYEAR:
            bound = ">= 1" if year < 1 else f"<= {MAXYEAR}"
            raise DateValidationError(f"year must be {bound}, got {echo(year)}")
        if not 1 <= month <= 12:
            raise DateValidationError(f"month must be in [1, 12], got {echo(month)}")
        if not 1 <= day <= 28:  # every month has days 1-28, so only a later day needs its month's length
            limit = month_length(year, month)
            if not 1 <= day <= limit:
                raise DateValidationError(f"day must be in [1, {limit}] for {year:04d}-{month:02d}, got {echo(day)}")
        # Not Record.__init__: one CivilDate is built per parsed date.
        _set_year(self, year)
        _set_month(self, month)
        _set_day(self, day)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"

    def to_ordinal(self) -> int:
        """Day number with 0001-01-01 = 1 (proleptic Gregorian).

        >>> CivilDate(1, 1, 1).to_ordinal()
        1
        >>> CivilDate(2000, 1, 1).to_ordinal()
        730120
        """
        y = self.year - 1
        days = 365 * y + y // 4 - y // 100 + y // 400
        days += _DAYS_BEFORE[self.month - 1]
        if self.month > 2 and is_leap(self.year):
            days += 1
        return days + self.day


# The slots' C-level setters; a record's own __setattr__ raises.
_set_year = CivilDate.year.__set__
_set_month = CivilDate.month.__set__
_set_day = CivilDate.day.__set__


# [0-9], not \d: \d also takes other scripts' decimal digits (full-width,
# Arabic-Indic, ...), which int() would then quietly accept.
_ISO_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})")


def parse_date(text: str) -> CivilDate:
    """Parse exactly YYYY-MM-DD, with ASCII digits 0-9 only.

    Structural problems raise DateParseError with the offending character
    position, and a value that is not a str raises it at position 0;
    impossible dates (like a Feb 29 in a common year) raise
    DateValidationError.
    """
    if not isinstance(text, str):
        raise DateParseError(f"expected YYYY-MM-DD text, got {echo(text)}", 0)
    m = _ISO_RE.fullmatch(text)
    if m is None:
        template = "dddd-dd-dd"
        for i, want in enumerate(template):
            if i >= len(text):
                raise DateParseError(f"expected YYYY-MM-DD, input too short: {echo(text)}", i)
            ch = text[i]
            if want == "d" and ch not in "0123456789":
                raise DateParseError(f"expected a digit, got {ch!r}", i)
            if want == "-" and ch != "-":
                raise DateParseError(f"expected '-', got {ch!r}", i)
        raise DateParseError(f"expected YYYY-MM-DD, trailing input: {echo(text)}", len(template))
    year, month, day = m.groups()
    return CivilDate(int(year), int(month), int(day))


_WEEKDAYS = tuple(Weekday)  # weekday number -> Weekday, without the enum call


def daycount_weekday(date: CivilDate) -> Weekday:
    """Weekday by pure day counting; no weekday formulas.

    Day 1 is 0001-01-01, a Monday, so the day number mod 7 is the weekday
    number with Sunday = 0.
    """
    return _WEEKDAYS[date.to_ordinal() % 7]
