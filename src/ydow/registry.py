"""Uniform interface over all fourteen year-share methods.

The registry, `METHODS`, is a plain dict built at import time.  Nothing in
the package changes it, but it is not immutable: a caller (or a test
installing a corrupted method) may replace an entry, and every lookup sees
the change.  Everything downstream (CLI, verification, cost reports, the
day-of-week pipeline) finds methods through it, so a method is fully
described by one descriptor plus one function returning a ShareResult.

What ydow computes of a method function is kept in one memo per function,
in one bounded map keyed on the function object: the results `evaluate`
and a traced `dow` hand out, the weekday row of each year mod 400 that
`pipeline.dow` reads on its value path, the `VerificationReport` and the
`CostReportRow` of the last model priced.  Each part is filled on first
use.  The value path and the two reports keep no `ShareResult`: they
evaluate the function and keep only what they build, a weekday row or a
record, since no sweep or report reads a result again.  A repeated report
is one lookup per method that builds no record, a swapped registry entry
never shares an answer of the function it replaced, and
`_cached_eval.cache_clear()` empties the map.

The descriptor and the report rows (`VerificationFailure`,
`VerificationReport`, `CostReportRow`) are immutable records (see
`_record`): each compares equal only to its own class, hashes by its fields
and copies through `_replace`.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import Callable

from . import digits, divisor, special
from ._record import Record, echo
from .arith import ShareResult, SignConvention, check_year2, year_share
from .trace import DEFAULT_COST_MODEL, CostModel


class UnknownMethodError(ValueError):
    """Raised when a method id is not in the registry."""


class MethodCategory(str, Enum):
    SPECIAL = "special"
    DIVISOR = "divisor"
    DIGIT = "digit"


class MethodDescriptor(Record):
    __slots__ = _fields = ("id", "display_name", "category", "convention", "citation", "func")


def _build_registry() -> dict[str, MethodDescriptor]:
    neg = SignConvention.NEGATIVE
    pos = SignConvention.POSITIVE
    # Each partial is built once here, so the memo map keys on a stable object.
    spec = divisor.BUILTIN_DIVISOR_SPECS
    run = divisor.eval_divisor
    rows = [
        ("odd11", "Odd + 11", MethodCategory.SPECIAL, neg,
         "odd+11 rule of Fong and Walters", special.odd11),
        ("parity3", "Parity flag, subtract 3", MethodCategory.SPECIAL, neg,
         "parity-flag variant of the odd+11 rule", special.parity3),
        ("div4", "Halved multiple of four", MethodCategory.DIVISOR, neg,
         "leap-cycle split: half of 4q, minus the remainder", divisor.div4),
        ("div5", "Division by 5", MethodCategory.DIVISOR, neg,
         "derived divisor formula, d=5", partial(run, spec[5])),
        ("div11", "Division by 11", MethodCategory.DIVISOR, pos,
         "derived divisor formula, d=11", partial(run, spec[11])),
        ("div12", "Dozens", MethodCategory.DIVISOR, pos,
         "dozens + remainder + fours-in-remainder rule", divisor.div12),
        ("div16", "Division by 16", MethodCategory.DIVISOR, pos,
         "derived divisor formula, d=16", partial(run, spec[16])),
        ("div17", "Division by 17", MethodCategory.DIVISOR, pos,
         "derived divisor formula, d=17", partial(run, spec[17])),
        ("eisele", "Eisele digit rule", MethodCategory.DIGIT, pos,
         "Martin Eisele's multiple-of-four digit rule", digits.eisele),
        ("harringer", "Harringer digit rule", MethodCategory.DIGIT, pos,
         "Alexander Harringer's variant of the Eisele rule", digits.harringer),
        ("digits-aa", "Digit pair, variant a", MethodCategory.DIGIT, neg,
         "digit-pair rule, variant a", digits.digits_aa),
        ("fong", "Fong digit rule", MethodCategory.DIGIT, pos,
         "Chamberlain Fong's digit formula, also credited to YingKing Yu", digits.fong),
        ("wang", "Wang digit rule", MethodCategory.DIGIT, pos,
         "Xiang-Sheng Wang's digit formula", digits.wang),
        ("digits-ab", "Digit pair, variant b", MethodCategory.DIGIT, neg,
         "digit-pair rule, variant b", digits.digits_ab),
    ]
    # no duplicate check: the ids are literals, and tests/test_registry.py pins them
    return {row[0]: MethodDescriptor(*row) for row in rows}


METHODS: dict[str, MethodDescriptor] = _build_registry()


def method_ids() -> list[str]:
    return list(METHODS)


def get_method(method_id: str) -> MethodDescriptor:
    try:
        return METHODS[method_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        known = ", ".join(METHODS)
        # 60, not echo's 100: with the fourteen known ids the message stays within 200 characters
        raise UnknownMethodError(f"unknown method {echo(method_id, 60)} (known: {known})") from None


# The one memo map: method function -> [results by y that `evaluate` or a
# traced `dow` handed out, weekday rows (each one of `pipeline`'s fourteen
# shared rows) by year % 400, VerificationReport, ((method_id, model),
# CostReportRow) of the last model priced], each None until first used.
# Keyed on the function object itself, so a registry entry swapped out (e.g.
# by a test installing a corrupted variant) never gets a stale answer of the
# function it replaced.
# Callers look a memo up with `_MEMOS.get(func) or _memo(func)`, so a hit
# makes no Python-level call.  Past _MAX_MEMOS functions the oldest memo is
# dropped, so functions swapped in and out cannot grow it.
_MAX_MEMOS = 64
_MEMOS: dict = {}


def _memo(func: Callable[[int], ShareResult]) -> list:
    """A fresh memo for func, in place of the oldest once the map is full."""
    if len(_MEMOS) >= _MAX_MEMOS:
        del _MEMOS[next(iter(_MEMOS))]
    memo = _MEMOS[func] = [[None] * 100, [None] * 400, None, None]
    return memo


def _cached_eval(func: Callable[[int], ShareResult], y: int) -> ShareResult:
    # y indexes a list, so it must already be in [0, 99]: evaluate checks
    # it, and the traced dow makes it (year % 400 % 100).
    results = (_MEMOS.get(func) or _memo(func))[0]
    share = results[y]
    if share is None:
        share = results[y] = func(y)
    return share


_cached_eval.cache_clear = _MEMOS.clear


def evaluate(method_id: str, y: int) -> ShareResult:
    """Run one method on a two-digit year; results are immutable and cached."""
    desc = get_method(method_id)
    check_year2(y)
    return _cached_eval(desc.func, y)


class VerificationFailure(Record):
    __slots__ = _fields = ("y", "expected", "got")

    def to_json_dict(self) -> dict:
        return {"y": self.y, "expected": self.expected, "got": self.got}


class VerificationReport(Record):
    __slots__ = _fields = ("method_id", "total", "failures")

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "method": self.method_id,
            "total": self.total,
            "failures": [f.to_json_dict() for f in self.failures],
            "pass": self.passed,
        }


def verify_method(method_id: str) -> VerificationReport:
    """Check a method against the reference share for every y in [0, 99].

    Comparison is on normalized residues: any raw value in the right mod-7
    class passes.  Mismatches come back as data, never as exceptions.
    """
    func = get_method(method_id).func
    memo = _MEMOS.get(func) or _memo(func)
    report = memo[2]
    if report is None or report.method_id != method_id:
        failures = []
        for y in range(100):
            expected = year_share(y)
            got = func(y).residue
            if got != expected:
                failures.append(VerificationFailure(y, expected, got))
        report = memo[2] = VerificationReport(method_id, 100, tuple(failures))
    return report


def verify_all() -> list[VerificationReport]:
    return [verify_method(mid) for mid in METHODS]


class CostReportRow(Record):
    __slots__ = _fields = ("method_id", "min_cost", "max_cost", "mean_cost", "max_magnitude")

    def to_json_dict(self) -> dict:
        return {
            "method": self.method_id,
            "min_cost": self.min_cost,
            "max_cost": self.max_cost,
            "mean_cost": self.mean_cost,
            "max_magnitude": self.max_magnitude,
        }


def _cost_row(method_id: str, func: Callable[[int], ShareResult], model: CostModel) -> CostReportRow:
    """The method's cost row over the hundred years.

    The memo keeps the row of the last (method id, model) priced.  The
    tuple comparison tries identity first, so the same model object is
    never compared field by field; an equal model shares the row, one that
    merely hashes alike (CostModel hashes its name only) does not.  No
    exception is kept, so a mean too large for a float raises on every call.
    """
    memo = _MEMOS.get(func) or _memo(func)
    key = (method_id, model)
    priced = memo[3]
    if priced is not None and priced[0] == key:
        return priced[1]
    costs = []
    magnitude = 0
    for y in range(100):
        trace = func(y).trace
        costs.append(model.cost(trace))
        magnitude = max(magnitude, trace.max_magnitude())
    try:
        mean = sum(costs) / 100  # what statistics.fmean gives for ints
    except OverflowError:  # a weight of about 1e306 or more
        raise ValueError(f"mean cost of {method_id} under model {echo(model.name)} is too large for a float") from None
    row = CostReportRow(method_id, min(costs), max(costs), mean, magnitude)
    memo[3] = (key, row)
    return row


def cost_report(ids: list[str] | None = None, model: CostModel = DEFAULT_COST_MODEL) -> list[CostReportRow]:
    """Trace-cost statistics over all hundred years, per method.

    Costs depend on the model's weights; the max intermediate magnitude is
    model-independent (largest |operand or result| appearing in any step).
    A mean cost too large for a float raises ValueError, as do ids given
    as one str or as anything that is not iterable.
    """
    if ids is None:
        ids = method_ids()
    elif isinstance(ids, str) or not hasattr(ids, "__iter__"):
        raise ValueError(f"ids must be a list of method ids, got {echo(ids)}")
    return [_cost_row(mid, get_method(mid).func, model) for mid in ids]
