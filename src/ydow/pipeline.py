"""End-to-end day-of-week computation with a pluggable year-share method.

Two assemblies are provided.  The Doomsday-style one adds the positive year
share to a century anchor and compares against the month's memorable anchor
date.  The First-Sunday-style one locates the first Sunday of the month and
consumes the *negative* year share directly -- methods that produce a
negative share plug in without a sign flip, which is the whole point of
that convention.

Both must agree with the day-count oracle for every valid date.  The test
suite checks every date of one full 400-year Gregorian cycle; the assembly
depends on the year only through its value mod 400, so that is a proof for
every Gregorian date.

`dow(..., with_trace=False)` is the value path.  It looks the method up in
`METHODS` itself, calling `get_method` only to raise for an unknown id, and
reads the year's weekday row from the second entry of the method
function's memo (`registry`'s one memo per function), indexed by
`year % 400`.  A row is one of fourteen shared tables, chosen by the year's
leap flag and doomsday, `(century anchor + residue) % 7`, that hold every
weekday of the year by month and day mod 7: row[month][day % 7] is
`(doomsday + day - anchor date) % 7`, the one weekday formula, for both
pipelines.  The First-Sunday assembly
`day - ((anchor date - doomsday) % 7 or 7)` is congruent to it mod 7,
because `s or 7` is congruent to `s`, so the pipeline matters only to the
trace.  A row is filled on first use from the residue of one evaluation of
the method at `year % 100`, which is not kept: the memo holds a result only
for the callers that hand one out (see `registry`).  So the method still
enters the value path only through `residue`, and a warm call runs no
Python frame but `dow`'s own.  The traced call finds its inputs by
`year % 400` too: the century anchor, the month's anchor date and the
method's memoised result at `year % 400 % 100`, which is `year % 100`, whose
trace formats the method's text once for every later answer.  It runs no
separate weekday formula: it emits the assembly's steps and takes the
weekday from the last step's result.  `DowResult` is an immutable NamedTuple.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ._record import member
from .arith import NEGATIVE, POSITIVE
from .dates import _WEEKDAYS, CivilDate, Weekday, is_leap
from .registry import _MEMOS, METHODS, _cached_eval, _memo, get_method
from .trace import ADD_CONST, MOD7_REDUCE, SET, SIGN_FLIP, SUB_CONST, StepTrace


class CalendarPolicyError(ValueError):
    """Date outside the supported Gregorian range (pre-1583 without opt-in)."""


class PipelineId(str, Enum):
    DOOMSDAY = "doomsday"
    FIRST_SUNDAY = "first-sunday"


GREGORIAN_START_YEAR = 1583

# The one month table: each month's anchor date, the day of the month that
# falls on the year's doomsday, indexed [leap][month] with index 0 unused.
# The rows differ only in January and February, a day later in leap years.
_MONTH_ANCHORS = ((0, 3, 28, 14, 4, 9, 6, 11, 8, 5, 10, 7, 12),
                  (0, 4, 29, 14, 4, 9, 6, 11, 8, 5, 10, 7, 12))


def month_anchor_date(month: int, leap: bool) -> int:
    return _MONTH_ANCHORS[leap][month]


def century_anchor(century: int) -> int:
    """Weekday number of the century's reference day (the 400-year cycle)."""
    return (5 * (century % 4) + 2) % 7


# Tables built once from the above.  The century anchor repeats every four
# centuries.  A weekday row, _WEEKDAY_ROWS[7 * leap + doomsday], holds each
# month's weekdays by day % 7, (doomsday + day - anchor date) % 7, and
# k % 7 is the doomsday; its entries are the seven rotations of _WEEKDAYS,
# shared, so the fourteen rows cost 14 small tuples.
_CENTURY_ANCHORS = tuple(century_anchor(c) for c in range(4))
_ROTATIONS = tuple(_WEEKDAYS[s:] + _WEEKDAYS[:s] for s in range(7))
_WEEKDAY_ROWS = tuple(tuple(_ROTATIONS[(k - dd) % 7] for dd in _MONTH_ANCHORS[k // 7]) for k in range(14))
_WEEKDAY_NAMES = tuple(day.display_name for day in _WEEKDAYS)

# The memo map's lookup, bound once.  CPython 3.11 compiles a method call on
# an imported name, `_MEMOS.get(func)`, as an attribute load that builds a
# bound method on every call; that made the value path about 10 % slower.
_memo_get = _MEMOS.get


class DowResult(NamedTuple):
    date: CivilDate
    weekday: Weekday
    method_id: str
    pipeline: PipelineId
    trace: StepTrace | None = None


# DowResult is built by tuple.__new__, what DowResult._make does
# underneath, skipping the NamedTuple's Python-level __new__.  It is called
# through this binding, not through a partial, which would add a call layer.
_tuple_new = tuple.__new__


def dow(
    date: CivilDate,
    method_id: str = "odd11",
    pipeline: PipelineId = PipelineId.DOOMSDAY,
    *,
    proleptic: bool = False,
    with_trace: bool = True,
) -> DowResult:
    """Day of the week of a civil date via the chosen method and assembly.

    with_trace=False skips building the step-by-step explanation, which
    matters when sweeping millions of dates; the weekday is identical.
    With a trace, the weekday is the result of the trace's last step, so
    the answer and its explanation cannot disagree.
    """
    try:  # fail fast on unknown ids; get_method raises their error
        func = METHODS[method_id].func
    except (KeyError, TypeError):  # TypeError: an unhashable id
        func = get_method(method_id).func
    if pipeline.__class__ is not PipelineId:
        pipeline = member(PipelineId, pipeline)
    year = date.year
    if year < GREGORIAN_START_YEAR and not proleptic:
        raise CalendarPolicyError(
            f"{date} precedes the Gregorian calendar ({GREGORIAN_START_YEAR}); "
            "pass proleptic=True (--proleptic) to compute anyway"
        )
    y4 = year % 400
    if with_trace:
        share = _cached_eval(func, y4 % 100)
        dd = _MONTH_ANCHORS[is_leap(y4)][date.month]
        trace, w = _build_trace(date, share, pipeline is PipelineId.DOOMSDAY, _CENTURY_ANCHORS[y4 // 100], dd)
        return _tuple_new(DowResult, (date, _WEEKDAYS[w], method_id, pipeline, trace))

    rows = (_memo_get(func) or _memo(func))[1]
    row = rows[y4]
    if row is None:
        doomsday = (_CENTURY_ANCHORS[y4 // 100] + func(y4 % 100).residue) % 7
        row = rows[y4] = _WEEKDAY_ROWS[7 * is_leap(y4) + doomsday]
    return _tuple_new(DowResult, (date, row[date.month][date.day % 7], method_id, pipeline, None))


def _build_trace(date: CivilDate, share, doomsday: bool, anchor: int, dd: int) -> tuple[StepTrace, int]:
    """The method's steps, then the assembly's, and the weekday number, the last step's result.

    Both assemblies open by reducing the share in the sign they consume
    (positive for Doomsday, negative for First-Sunday) and close with one
    mod-7 reduction to the weekday number.  Only the steps between differ.

    The steps record their templates with values, not as lone templates
    (see `trace`): a traced dow is built to be shown, and a lone template
    saves a tuple when recorded but costs more than that when formatted.
    """
    # The method's formatted steps: its memoised trace formats them once for every later read.
    steps = list(share.trace.steps) if share.trace is not None else []
    if doomsday:
        wanted, sign, share_name = POSITIVE, "positive", "year share"
    else:
        wanted, sign, share_name = NEGATIVE, "negative", "negative year share"
    raw = share.raw
    if share.convention is not wanted:
        steps.append((SIGN_FLIP, ("{} share is the negation: {}", sign, -raw), (raw,), -raw))
        raw = -raw
    r = raw % 7
    steps.append((MOD7_REDUCE, ("reduce mod 7: {} {}", share_name, r), (raw,), r))

    day = date.day
    if doomsday:
        a1 = r + anchor
        a2 = a1 + day
        last = a2 - dd
        steps += (
            (ADD_CONST, ("add the century anchor {1}: {0} + {1} = {2}", r, anchor, a1), (r, anchor), a1),
            (ADD_CONST, ("add the day of the month: {} + {} = {}", a1, day, a2), (a1, day), a2),
            (SUB_CONST, ("subtract the month's anchor date {1}: {0} - {1} = {2}", a2, dd, last), (a2, dd), last),
        )
    else:
        cterm = -anchor % 7
        a1 = r + cterm
        a2 = a1 + dd
        s = a2 % 7
        f = s or 7
        last = day - f
        steps += (
            (ADD_CONST, ("add the century term {1}: {0} + {1} = {2}", r, cterm, a1), (r, cterm), a1),
            (ADD_CONST, ("add the month's anchor date {1}: {0} + {1} = {2}", a1, dd, a2), (a1, dd), a2),
            (MOD7_REDUCE, ("reduce mod 7: {}", s), (a2,), s),
            (SET, ("first Sunday of the month falls on day {}", f), (f,), f),
            (SUB_CONST, ("day {} minus the first Sunday {}: {}", day, f, last), (day, f), last),
        )

    w = last % 7
    steps.append((MOD7_REDUCE, ("reduce mod 7: weekday {} ({})", w, _WEEKDAY_NAMES[w]), (last,), w))
    return StepTrace(tuple(steps)), w
