"""Uniform interface over all fourteen year-share methods.

The registry, `METHODS`, is a plain dict built at import time.  Nothing in
the package changes it, but it is not immutable: a caller (or a test
installing a corrupted method) may replace an entry, and every lookup sees
the change.  Everything downstream (CLI, verification, cost reports, the
day-of-week pipeline) finds methods through it and reads results through
one cache keyed on the method's function, so a method is fully described by
one descriptor plus one function returning a ShareResult.

`verify_method` and `cost_report` summarise all hundred years of a method.
Bounded memos hold the finished report records themselves, one per method
id and function (and, for costs, per equal cost model), keyed on the
function as the results are: a repeated report is one lookup per method
that builds no record, and a swapped registry entry never shares the
report of the function it replaced.

The descriptor and the report rows (`VerificationFailure`,
`VerificationReport`, `CostReportRow`) are immutable records (see
`_record`): each compares equal only to its own class, hashes by its fields
and copies through `_replace`.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache, partial
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
    __slots__ = ("id", "display_name", "category", "convention", "citation", "func")


def _build_registry() -> dict[str, MethodDescriptor]:
    neg = SignConvention.NEGATIVE
    pos = SignConvention.POSITIVE
    # Each partial is built once here, so _cached_eval keys on a stable object.
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
    table = {}
    for mid, name, cat, conv, cite, func in rows:
        if mid in table:
            raise ValueError(f"duplicate method id {mid!r}")
        table[mid] = MethodDescriptor(mid, name, cat, conv, cite, func)
    return table


METHODS: dict[str, MethodDescriptor] = _build_registry()


def method_ids() -> list[str]:
    return list(METHODS)


def get_method(method_id: str) -> MethodDescriptor:
    try:
        return METHODS[method_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        known = ", ".join(METHODS)
        raise UnknownMethodError(f"unknown method {echo(method_id)} (known: {known})") from None


@lru_cache(maxsize=8192)
def _cached_eval(func: Callable[[int], ShareResult], y: int) -> ShareResult:
    # Keyed on the function object itself, so a registry entry swapped out
    # (e.g. by a test installing a corrupted variant) can never be served a
    # stale result from the original function.
    return func(y)


def evaluate(method_id: str, y: int) -> ShareResult:
    """Run one method on a two-digit year; results are immutable and cached."""
    desc = get_method(method_id)
    check_year2(y)
    return _cached_eval(desc.func, y)


class VerificationFailure(Record):
    __slots__ = ("y", "expected", "got")

    def to_json_dict(self) -> dict:
        return {"y": self.y, "expected": self.expected, "got": self.got}


class VerificationReport(Record):
    __slots__ = ("method_id", "total", "failures")

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


# How many records each report memo keeps: every method under eighteen
# cost models.  Past it the least recently used record is dropped, so
# functions and models swapped in and out cannot grow the memos.
_MAX_SUMMARIES = 256


@lru_cache(maxsize=_MAX_SUMMARIES)
def _verification(method_id: str, func: Callable[[int], ShareResult]) -> VerificationReport:
    # Keyed on the function object, as _cached_eval is.
    failures = []
    for y in range(100):
        expected = year_share(y)
        got = _cached_eval(func, y).residue
        if got != expected:
            failures.append(VerificationFailure(y, expected, got))
    return VerificationReport(method_id, 100, tuple(failures))


def verify_method(method_id: str) -> VerificationReport:
    """Check a method against the reference share for every y in [0, 99].

    Comparison is on normalized residues: any raw value in the right mod-7
    class passes.  Mismatches come back as data, never as exceptions.
    """
    return _verification(method_id, get_method(method_id).func)


def verify_all() -> list[VerificationReport]:
    return [verify_method(mid) for mid in METHODS]


class CostReportRow(Record):
    __slots__ = ("method_id", "min_cost", "max_cost", "mean_cost", "max_magnitude")

    def to_json_dict(self) -> dict:
        return {
            "method": self.method_id,
            "min_cost": self.min_cost,
            "max_cost": self.max_cost,
            "mean_cost": self.mean_cost,
            "max_magnitude": self.max_magnitude,
        }


@lru_cache(maxsize=_MAX_SUMMARIES)
def _cost_row(method_id: str, func: Callable[[int], ShareResult], model: CostModel) -> CostReportRow:
    """The method's cost row over the hundred years.

    Models that compare equal share an entry; models that merely hash alike
    (CostModel hashes its name only) do not.  lru_cache stores no
    exception, so a mean too large for a float raises on every call.
    """
    costs = []
    magnitude = 0
    for y in range(100):
        trace = _cached_eval(func, y).trace
        costs.append(model.cost(trace))
        magnitude = max(magnitude, trace.max_magnitude())
    try:
        mean = sum(costs) / 100  # what statistics.fmean gives for ints
    except OverflowError:  # a weight of about 1e306 or more
        raise ValueError(f"mean cost of {method_id} under model {echo(model.name)} is too large for a float") from None
    return CostReportRow(method_id, min(costs), max(costs), mean, magnitude)


def cost_report(ids: list[str] | None = None, model: CostModel = DEFAULT_COST_MODEL) -> list[CostReportRow]:
    """Trace-cost statistics over all hundred years, per method.

    Costs depend on the model's weights; the max intermediate magnitude is
    model-independent (largest |operand or result| appearing in any step).
    A mean cost too large for a float raises ValueError.
    """
    if ids is None:
        ids = method_ids()
    return [_cost_row(mid, get_method(mid).func, model) for mid in ids]
