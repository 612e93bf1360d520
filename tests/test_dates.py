import calendar
import datetime
import doctest

import pytest
from conftest import python_frames
from hypothesis import given
from hypothesis import strategies as st

import ydow.dates as dates
from ydow.dates import (
    CivilDate,
    DateParseError,
    DateValidationError,
    Weekday,
    daycount_weekday,
    is_leap,
    month_length,
    parse_date,
)


def test_doctests():
    failures, _ = doctest.testmod(dates)
    assert failures == 0


def test_leap_rule():
    assert is_leap(2000)
    assert is_leap(2400)
    assert not is_leap(1900)
    assert not is_leap(2100)
    assert is_leap(1996)
    assert not is_leap(1997)


def test_month_length():
    assert month_length(2023, 2) == 28
    assert month_length(2024, 2) == 29
    assert month_length(2023, 1) == 31
    assert month_length(2023, 4) == 30


def test_weekday_numbering():
    assert Weekday.SUNDAY == 0
    assert Weekday.SATURDAY == 6
    assert Weekday(3).display_name == "Wednesday"


def test_parse_valid():
    assert parse_date("2000-01-01") == CivilDate(2000, 1, 1)
    assert parse_date("2000-02-29") == CivilDate(2000, 2, 29)
    assert parse_date("1583-12-31") == CivilDate(1583, 12, 31)


def test_parse_rejects_impossible_dates():
    with pytest.raises(DateValidationError):
        parse_date("1900-02-29")  # century rule: not a leap year
    with pytest.raises(DateValidationError):
        parse_date("2023-02-29")
    with pytest.raises(DateValidationError):
        parse_date("2023-13-01")
    with pytest.raises(DateValidationError):
        parse_date("2023-04-31")
    with pytest.raises(DateValidationError):
        parse_date("0000-01-01")


def test_parse_errors_carry_positions():
    with pytest.raises(DateParseError) as e:
        parse_date("2000/01/01")
    assert e.value.position == 4
    with pytest.raises(DateParseError) as e:
        parse_date("2000-1-01")
    assert e.value.position == 6
    with pytest.raises(DateParseError) as e:
        parse_date("2000-01-001")
    assert e.value.position == 10
    with pytest.raises(DateParseError) as e:
        parse_date("2000-01")
    assert e.value.position == 7
    with pytest.raises(DateParseError) as e:
        parse_date("")
    assert e.value.position == 0


def test_parse_round_trips_with_formatting():
    for text in ("2000-01-01", "1583-10-15", "2599-12-31", "0044-03-15"):
        assert str(parse_date(text)) == text


@st.composite
def civil_dates(draw):
    y = draw(st.integers(1, 9999))
    m = draw(st.integers(1, 12))
    d = draw(st.integers(1, month_length(y, m)))
    return CivilDate(y, m, d)


@given(civil_dates())
def test_ordinal_matches_datetime(cd):
    assert cd.to_ordinal() == datetime.date(cd.year, cd.month, cd.day).toordinal()


@given(civil_dates())
def test_daycount_matches_datetime(cd):
    # datetime: Monday=0 ... Sunday=6; ours: Sunday=0 ... Saturday=6
    expected = (datetime.date(cd.year, cd.month, cd.day).weekday() + 1) % 7
    assert daycount_weekday(cd) == expected


def test_anchor_datum():
    assert daycount_weekday(CivilDate(2000, 1, 1)) is Weekday.SATURDAY
    assert daycount_weekday(CivilDate(2000, 1, 2)) is Weekday.SUNDAY
    assert daycount_weekday(CivilDate(1970, 1, 1)) is Weekday.THURSDAY


def test_civil_date_validation():
    with pytest.raises(DateValidationError):
        CivilDate(2023, 2, 29)
    with pytest.raises(DateValidationError):
        CivilDate(2023, 0, 1)
    with pytest.raises(DateValidationError):
        CivilDate(0, 1, 1)
    CivilDate(2024, 2, 29)  # fine


@pytest.mark.parametrize("year", [2023, 2024, 1900, 2000], ids=["common", "leap", "century", "quad-century"])
def test_civil_date_accepts_exactly_what_datetime_accepts(year):
    # every month 0-13 and day -1..32 of one year of each leap class: the
    # check of days 1-28 skips the month's length, so this covers every
    # order in which the checks can meet a bad field
    for month in range(14):
        for day in range(-1, 33):
            try:
                datetime.date(year, month, day)
            except ValueError:
                if not 1 <= month <= 12:
                    want = f"month must be in [1, 12], got {month}"
                else:
                    limit = calendar.monthrange(year, month)[1]
                    want = f"day must be in [1, {limit}] for {year:04d}-{month:02d}, got {day}"
                with pytest.raises(DateValidationError) as exc:
                    CivilDate(year, month, day)
                assert str(exc.value) == want
            else:
                cd = CivilDate(year, month, day)
                assert (cd.year, cd.month, cd.day) == (year, month, day)


def test_parsing_a_day_up_to_28_runs_two_python_frames():
    # a day in 1-28 is valid in every month, so its month's length is never read
    assert python_frames(parse_date, "2024-02-28") == ["parse_date", "__init__"]
    assert python_frames(parse_date, "2023-12-01") == ["parse_date", "__init__"]
    assert python_frames(parse_date, "2024-02-29") == ["parse_date", "__init__", "month_length", "is_leap"]


def test_the_oracle_runs_three_python_frames():
    # one day count, of the date itself; a date after February reads its year's leap flag
    assert python_frames(daycount_weekday, CivilDate(1987, 6, 15)) == ["daycount_weekday", "to_ordinal", "is_leap"]


def test_years_stop_at_9999():
    # str() writes four digits, which is all parse_date and datetime take
    assert str(CivilDate(9999, 12, 31)) == "9999-12-31"
    with pytest.raises(DateValidationError, match=r"^year must be <= 9999, got 10000$"):
        CivilDate(10000, 1, 1)
    with pytest.raises(DateValidationError, match=r"^year must be >= 1, got 0$"):
        CivilDate(0, 1, 1)
    with pytest.raises(DateValidationError, match=r"got 999\d+\.\.\.$"):
        CivilDate(10**4000 - 1, 1, 1)  # echoed cut
    with pytest.raises(DateValidationError, match=r"got <int too large to show>$"):
        CivilDate(10**5000, 1, 1)  # past str()'s digit limit


@pytest.mark.parametrize(
    "fields, message",
    [
        ((2000.5, 1, 1), "year must be an integer, got 2000.5"),
        ((True, 1, 1), "year must be an integer, got True"),
        (("2000", 1, 1), "year must be an integer, got '2000'"),
        ((2000, 1.0, 1), "month must be an integer, got 1.0"),
        ((2000, 1, None), "day must be an integer, got None"),
    ],
    ids=["float-year", "bool-year", "str-year", "float-month", "none-day"],
)
def test_civil_date_fields_must_be_ints(fields, message):
    with pytest.raises(DateValidationError) as exc:
        CivilDate(*fields)
    assert str(exc.value) == message


@pytest.mark.parametrize("value, shown", [(None, "None"), (b"2000-01-01", "b'2000-01-01'"), (["x"], "['x']")])
def test_parse_refuses_what_is_not_text(value, shown):
    with pytest.raises(DateParseError) as exc:
        parse_date(value)
    assert str(exc.value) == f"expected YYYY-MM-DD text, got {shown} (at position 0)"
    assert exc.value.position == 0


@pytest.mark.parametrize("text", ["２０００-01-01", "²000-01-01", "٢٠٠٠-01-01"])
def test_parse_rejects_non_ascii_digits(text):
    with pytest.raises(DateParseError, match="expected a digit") as e:
        parse_date(text)
    assert e.value.position == 0


def test_parse_rejects_a_non_ascii_digit_anywhere():
    with pytest.raises(DateParseError) as e:
        parse_date("2000-01-0１")
    assert e.value.position == 9


@given(st.text())
def test_parse_arbitrary_text_raises_only_date_errors(text):
    try:
        parse_date(text)
    except (DateParseError, DateValidationError):
        pass


@given(st.text(alphabet="0123456789-２²", max_size=12))
def test_parse_near_iso_text_raises_only_date_errors(text):
    try:
        cd = parse_date(text)
    except (DateParseError, DateValidationError):
        return
    assert str(cd) == text


@given(st.dates())
def test_parse_round_trips_every_iso_date(d):
    cd = parse_date(d.isoformat())
    assert (cd.year, cd.month, cd.day) == (d.year, d.month, d.day)
    assert str(cd) == d.isoformat()


@given(st.integers(-2, 12_000), st.integers(-1, 14), st.integers(-1, 33))
def test_every_accepted_date_round_trips_through_its_text(y, m, d):
    valid = 1 <= y <= 9999 and 1 <= m <= 12 and 1 <= d <= month_length(y, m)
    try:
        cd = CivilDate(y, m, d)
    except DateValidationError:
        assert not valid
        return
    assert valid
    assert parse_date(str(cd)) == cd
