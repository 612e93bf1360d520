import datetime
from functools import partial

import pytest
from conftest import python_frames

from ydow import pipeline, registry
from ydow._record import ECHO_LIMIT
from ydow.arith import SignConvention, normalize
from ydow.dates import CivilDate, Weekday, daycount_weekday, is_leap, month_length
from ydow.pipeline import (
    CalendarPolicyError,
    DowResult,
    PipelineId,
    century_anchor,
    dow,
    month_anchor_date,
)
from ydow.registry import METHODS, UnknownMethodError, method_ids
from ydow.trace import StepKind

POS, NEG = SignConvention.POSITIVE, SignConvention.NEGATIVE

SAMPLE_DATES = [
    CivilDate(1583, 1, 1),
    CivilDate(1600, 2, 29),
    CivilDate(1700, 3, 1),
    CivilDate(1752, 9, 14),
    CivilDate(1899, 12, 31),
    CivilDate(1900, 2, 28),
    CivilDate(1969, 7, 20),
    CivilDate(2000, 1, 1),
    CivilDate(2000, 2, 29),
    CivilDate(2023, 6, 15),
    CivilDate(2100, 2, 28),
    CivilDate(2400, 2, 29),
    CivilDate(2599, 12, 31),
]


def test_century_anchor_cycle():
    # repeats every four centuries
    assert century_anchor(20) == 2
    assert century_anchor(19) == 3
    assert century_anchor(18) == 5
    assert century_anchor(17) == 0
    assert century_anchor(16) == century_anchor(20)


def test_month_anchor_dates_share_a_weekday():
    # within one year, every month's anchor date falls on the same weekday
    for year in (1999, 2000, 2023, 2024):
        weekdays = {
            daycount_weekday(CivilDate(year, m, month_anchor_date(m, is_leap(year))))
            for m in range(1, 13)
        }
        assert len(weekdays) == 1, year


def test_doomsday_agrees_with_oracle_on_samples():
    for cd in SAMPLE_DATES:
        want = daycount_weekday(cd)
        for mid in method_ids():
            got = dow(cd, mid, PipelineId.DOOMSDAY).weekday
            assert got == want, (cd, mid)


def test_first_sunday_agrees_with_oracle_on_samples():
    for cd in SAMPLE_DATES:
        want = daycount_weekday(cd)
        for mid in method_ids():
            got = dow(cd, mid, PipelineId.FIRST_SUNDAY).weekday
            assert got == want, (cd, mid)


def first_sunday_of(year, month):
    for day in range(1, 8):
        if daycount_weekday(CivilDate(year, month, day)) is Weekday.SUNDAY:
            return day
    raise AssertionError("no Sunday in the first week")


def test_first_sunday_step_names_the_real_first_sunday():
    # the intermediate "first Sunday falls on day f" must be literally true
    for year in (1999, 2000, 2024, 2100):
        for month in range(1, 13):
            day = month_length(year, month)
            res = dow(CivilDate(year, month, day), "parity3", PipelineId.FIRST_SUNDAY)
            f_steps = [s for s in res.trace.steps if "first Sunday" in s.description and s.kind.value == "set"]
            assert len(f_steps) == 1
            assert f_steps[0].result == first_sunday_of(year, month), (year, month)


def test_dow_trace_replays_to_the_weekday():
    for cd in SAMPLE_DATES:
        for pl in PipelineId:
            res = dow(cd, "fong", pl)
            assert res.trace.replay() == int(res.weekday), (cd, pl)


def _ends_in_weekday(trace, w: int, want: int) -> bool:
    # w is the weekday number `_build_trace` returns beside the trace, which `dow` reports
    last = trace.steps[-1]
    return w == want and trace.replay() == want and last.kind is StepKind.MOD7_REDUCE and last.result == want


def test_traced_weekday_is_the_value_path_weekday():
    """Every traced assembly replays and ends in the value path's weekday.

    `_build_trace` reads the share only in its prologue, which reduces
    (raw, convention) to r, the share in the sign the pipeline consumes.
    After that it reads only r, the century anchor, the month's anchor date
    and the day.  Part one runs the prologue for every (raw, convention)
    pair the methods produce; part two runs the rest over every r, century
    anchor, (month, leap) anchor date and valid day.  Each trace must end in
    `(doomsday + day - anchor date) % 7`, the value path's formula, which is
    proven against the day-count oracle over a full 400-year cycle.  `dow`
    reads the anchors and the share from the value path's tables, so this
    covers the traced `dow` for every Gregorian date.
    """
    date, anchor, dd = CivilDate(2001, 1, 1), pipeline._CENTURY_ANCHORS[0], month_anchor_date(1, False)
    shares = {}
    for desc in METHODS.values():
        for y in range(100):
            res = desc.func(y)
            shares.setdefault((res.raw, res.convention), res)
    assert len(shares) == 127
    for (raw, convention), share in shares.items():
        for pl in PipelineId:
            doomsday = pl is PipelineId.DOOMSDAY
            trace, w = pipeline._build_trace(date, share, doomsday, anchor, dd)
            r = share.residue if doomsday else share.negative_residue
            reduced = next(s for s in trace.steps[len(share.trace):] if s.kind is StepKind.MOD7_REDUCE)
            assert reduced.result == r, (raw, convention, pl)
            assert _ends_in_weekday(trace, w, (anchor + share.residue + date.day - dd) % 7), (raw, convention, pl)

    days = [CivilDate(2000 if leap else 2001, m, day) for leap in (False, True) for m in range(1, 13)
            for day in range(1, month_length(2000 if leap else 2001, m) + 1)]
    assert len(days) == 365 + 366
    count = 0
    for cd in days:
        dd = month_anchor_date(cd.month, is_leap(cd.year))
        for anchor in pipeline._CENTURY_ANCHORS:
            for r in range(7):
                for pl in PipelineId:
                    doomsday = pl is PipelineId.DOOMSDAY
                    share = normalize(r, POS if doomsday else NEG)
                    trace, w = pipeline._build_trace(cd, share, doomsday, anchor, dd)
                    want = (anchor + share.residue + cd.day - dd) % 7
                    assert _ends_in_weekday(trace, w, want), (cd, anchor, r, pl)
                    count += 1
    assert count == 731 * 4 * 7 * 2


def test_dow_without_trace():
    # the value path builds its result without DowResult's own __new__:
    # it must still be exactly a DowResult, with the NamedTuple's fields
    for pl in PipelineId:
        res = dow(CivilDate(2023, 6, 15), "odd11", pl, with_trace=False)
        assert type(res) is DowResult
        assert res._fields == ("date", "weekday", "method_id", "pipeline", "trace")
        assert res.trace is None
        assert res.weekday is daycount_weekday(CivilDate(2023, 6, 15))
        assert res == DowResult(CivilDate(2023, 6, 15), res.weekday, "odd11", pl)


def test_a_warm_value_path_call_runs_one_python_frame():
    # the method lookup, the weekday row and the result are all C-level on a
    # hit: no get_method, no memo helper, no NamedTuple __new__
    cd = CivilDate(2024, 12, 27)
    for mid in method_ids():
        for pl in PipelineId:
            dow(cd, mid, pl, with_trace=False)  # fills the memo's row for 2024
            assert python_frames(dow, cd, mid, pl, with_trace=False) == ["dow"], (mid, pl)


def test_a_warm_traced_call_runs_six_python_frames():
    # the method's result comes from the memo, so no method body runs; the
    # assembly reads the leap rule, copies the method's steps and builds the trace
    cd = CivilDate(2024, 12, 27)
    want = ["dow", "_cached_eval", "is_leap", "_build_trace", "steps", "__init__"]
    for mid in method_ids():
        for pl in PipelineId:
            dow(cd, mid, pl)
            assert python_frames(dow, cd, mid, pl) == want, (mid, pl)


def test_pipeline_accepts_string_ids():
    a = dow(CivilDate(2023, 6, 15), "wang", "first-sunday")
    b = dow(CivilDate(2023, 6, 15), "wang", PipelineId.FIRST_SUNDAY)
    assert a.weekday == b.weekday


def test_result_fields():
    res = dow(CivilDate(2000, 1, 1), "odd11", PipelineId.DOOMSDAY)
    assert isinstance(res, DowResult)
    assert res.method_id == "odd11"
    assert res.pipeline is PipelineId.DOOMSDAY
    assert res.weekday is Weekday.SATURDAY


def test_gregorian_policy():
    early = CivilDate(1582, 10, 4)
    with pytest.raises(CalendarPolicyError):
        dow(early, "odd11")
    res = dow(early, "odd11", proleptic=True)
    assert res.weekday == daycount_weekday(early)


def test_unknown_method_rejected():
    with pytest.raises(UnknownMethodError):
        dow(CivilDate(2023, 6, 15), "zeller")


def test_all_methods_agree_everywhere_in_one_year():
    for month in range(1, 13):
        for day in (1, 15, month_length(2024, month)):
            cd = CivilDate(2024, month, day)
            answers = {
                dow(cd, mid, pl, with_trace=False).weekday
                for mid in method_ids()
                for pl in PipelineId
            }
            assert len(answers) == 1, cd


def test_dow_result_is_immutable():
    res = dow(CivilDate(2000, 1, 1), "odd11", PipelineId.DOOMSDAY, with_trace=False)
    with pytest.raises(AttributeError):
        res.weekday = Weekday.SUNDAY
    with pytest.raises(TypeError):
        res[1] = Weekday.SUNDAY


def test_unknown_pipeline_rejected():
    with pytest.raises(ValueError):
        dow(CivilDate(2023, 6, 15), "odd11", "bogus")


@pytest.fixture(scope="module")
def gregorian_cycle():
    """Every date of 2000-01-01..2399-12-31 with its stdlib weekday (0=Sunday)."""
    start = datetime.date(2000, 1, 1)
    days = [start + datetime.timedelta(days=i) for i in range(146097)]
    assert days[-1] == datetime.date(2399, 12, 31)
    return [(CivilDate(d.year, d.month, d.day), d.isoweekday() % 7) for d in days]


def test_daycount_oracle_over_a_full_400_year_cycle(gregorian_cycle):
    for cd, want in gregorian_cycle:
        assert daycount_weekday(cd) == want, cd


def test_dow_over_a_full_400_year_cycle(gregorian_cycle):
    """An exhaustive proof for every method, pipeline and Gregorian date.

    Gregorian weekdays repeat every 400 years (146,097 days, exactly 20,871
    weeks), and the assembly reads the year only through year mod 400: the
    value path indexes its weekday rows by it.  A method enters the value
    path only through the residue that picks its weekday row, by the
    year's doomsday `(century anchor + residue) % 7`, and acceptance
    criterion 1 proves `residue == year_share(y)` for every method and
    year.  So one method of each sign convention over one full cycle covers
    every method x pipeline for all Gregorian dates.
    """
    for mid in ("odd11", "fong"):
        for pl in PipelineId:
            for cd, want in gregorian_cycle:
                assert dow(cd, mid, pl, with_trace=False).weekday == want, (cd, mid, pl)


def _off_by_one_at(func, bad_y, y):
    """func's share, except one more than it (mod 7) for y == bad_y."""
    share = func(y)
    if y != bad_y:
        return share
    return normalize(share.raw + 1, share.convention, share.trace)


def test_swapped_method_gets_its_own_weekday_rows(monkeypatch):
    # one Jan 1 per year of a full cycle, answered before, during and after
    # a registry entry with a wrong residue for y = 37 only is installed
    dates = [CivilDate(year, 1, 1) for year in range(2000, 2400)]
    desc = METHODS["div11"]

    def answers():
        return [dow(cd, "div11", pl, with_trace=False).weekday for cd in dates for pl in PipelineId]

    before = answers()
    with monkeypatch.context() as m:
        m.setitem(METHODS, "div11", desc._replace(func=partial(_off_by_one_at, desc.func, 37)))
        during = answers()
    after = answers()

    assert after == before
    for i, (was, now) in enumerate(zip(before, during)):
        cd = dates[i // len(PipelineId)]
        if cd.year % 100 == 37:
            assert now == (was + 1) % 7, cd
        else:
            assert now == was, cd


def test_weekday_rows_stay_bounded(monkeypatch):
    bound = registry._MAX_MEMOS
    desc = METHODS["odd11"]
    cd = CivilDate(2023, 6, 15)
    want = daycount_weekday(cd)
    for _ in range(bound + 5):
        # a new function object each time, as a caller swapping entries makes
        monkeypatch.setitem(METHODS, "odd11", desc._replace(func=partial(desc.func)))
        assert dow(cd, "odd11", with_trace=False).weekday is want
        assert len(registry._MEMOS) <= bound
    monkeypatch.undo()
    for mid in method_ids():
        assert dow(cd, mid, with_trace=False).weekday is want


@pytest.mark.parametrize(
    "method_id, pipeline_id, message",
    [("x" * 100_000, PipelineId.DOOMSDAY, "unknown method 'xxx"), ("odd11", "y" * 100_000, "'yyy")],
    ids=["method", "pipeline"],
)
def test_unknown_ids_are_echoed_capped(method_id, pipeline_id, message):
    with pytest.raises(ValueError) as e:
        dow(CivilDate(2000, 1, 1), method_id, pipeline_id)
    text = str(e.value)
    assert text.startswith(message)
    assert "\n" not in text and len(text) <= 3 * ECHO_LIMIT, len(text)
