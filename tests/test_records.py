"""The eight record types behave as the frozen dataclasses they replace did.

Each case pins the constructor (fields in `_fields` order, by position or
by name), the dataclass repr, equality only within the class, the hash of
the field tuple, immutability, copy and pickle, and `_replace`.  The last
test keeps the modules the records let `import ydow` skip out of it.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ydow
from ydow import special
from ydow._record import FrozenInstanceError, Record
from ydow.arith import SignConvention
from ydow.dates import CivilDate, DateValidationError
from ydow.divisor import DivisorSpec, eval_divisor
from ydow.registry import (
    METHODS,
    CostReportRow,
    MethodCategory,
    MethodDescriptor,
    VerificationFailure,
    VerificationReport,
)
from ydow.trace import CostModel, Step, StepKind, StepTrace

NEG = SignConvention.NEGATIVE
STEP = Step(StepKind.SET, "y = 1", (1,), 1)

# (constructor, expected repr, a _replace change)
CASES = [
    (lambda: CivilDate(2000, 1, 1), "CivilDate(year=2000, month=1, day=1)", {"day": 2}),
    (
        lambda: StepTrace((STEP,)),
        "StepTrace(steps=(Step(kind=<StepKind.SET: 'set'>, description='y = 1', operands=(1,), result=1),))",
        {"steps": ()},
    ),
    (
        lambda: CostModel("flat", {StepKind.HALVE: 1}),
        "CostModel(name='flat', weights=mappingproxy({<StepKind.HALVE: 'halve'>: 1}))",
        {"weights": {StepKind.HALVE: 2}},
    ),
    (
        lambda: DivisorSpec(5, NEG, 1, -1, -1, 1, 1),
        "DivisorSpec(d=5, convention=<SignConvention.NEGATIVE: 'neg'>, coef_q=1, coef_r=-1, coef_floor=-1,"
        " inner_q=1, inner_r=1)",
        {"coef_floor": 0},
    ),
    (
        lambda: MethodDescriptor("odd11", "Odd + 11", MethodCategory.SPECIAL, NEG, "cite", special.odd11),
        "MethodDescriptor(id='odd11', display_name='Odd + 11', category=<MethodCategory.SPECIAL: 'special'>,"
        f" convention=<SignConvention.NEGATIVE: 'neg'>, citation='cite', func={special.odd11!r})",
        {"func": special.parity3},
    ),
    (lambda: VerificationFailure(3, 4, 5), "VerificationFailure(y=3, expected=4, got=5)", {"got": 4}),
    (
        lambda: VerificationReport("odd11", 100, (VerificationFailure(3, 4, 5),)),
        "VerificationReport(method_id='odd11', total=100, failures=(VerificationFailure(y=3, expected=4, got=5),))",
        {"failures": ()},
    ),
    (
        lambda: CostReportRow("odd11", 2, 4, 3.5, 12),
        "CostReportRow(method_id='odd11', min_cost=2, max_cost=4, mean_cost=3.5, max_magnitude=12)",
        {"mean_cost": 3.25},
    ),
]
IDS = [text.split("(", 1)[0] for _, text, _ in CASES]


def fields_of(rec):
    return tuple(getattr(rec, name) for name in rec._fields)


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_fields_by_position_or_by_name(make, text, change):
    rec = make()
    cls, names, values = type(rec), rec._fields, fields_of(rec)
    for k in range(len(names) + 1):  # the first k fields by position, the rest by name
        assert cls(*values[:k], **dict(zip(names[k:], values[k:]))) == rec


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_missing_extra_unknown_or_repeated_fields_raise(make, text, change):
    rec = make()
    cls, names, values = type(rec), rec._fields, fields_of(rec)
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError, match="no_such_field"):
        cls(*values, no_such_field=1)
    for i, name in enumerate(names):
        with pytest.raises(TypeError, match=f"'{name}'"):
            cls(*values, **{name: values[i]})
        rest = {n: v for n, v in zip(names, values) if n != name}
        if cls in (StepTrace, CostModel):  # every field of these has a default
            assert getattr(cls(**rest), name) == getattr(cls(), name)
        else:
            with pytest.raises(TypeError, match=f"'{name}'"):
                cls(**rest)


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(make, text, change):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_equal_only_within_the_class(make, text, change):
    rec = make()
    assert rec == make() and not rec != make()
    assert rec != fields_of(rec) and not rec == fields_of(rec)
    # another class with the same fields and values
    twin = object.__new__(type("Twin", (Record,), {"__slots__": rec._fields, "_fields": rec._fields}))
    for name, value in zip(rec._fields, fields_of(rec)):
        object.__setattr__(twin, name, value)
    assert rec != twin and not rec == twin
    assert rec != rec._replace(**change)


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_hash_is_the_field_tuple_hash(make, text, change):
    rec = make()
    if isinstance(rec, CostModel):
        assert hash(rec) == hash((rec.name,)) == hash(CostModel(rec.name, {StepKind.SET: 7}))
    else:
        assert hash(rec) == hash(fields_of(rec))
    assert hash(rec) == hash(make())


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_assignment_and_deletion_raise(make, text, change):
    rec = make()
    before = fields_of(rec)
    for name in (*rec._fields, "extra"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert issubclass(FrozenInstanceError, AttributeError)
    assert not hasattr(rec, "__dict__")
    assert fields_of(rec) == before


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(make, text, change):
    rec = make()
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is type(rec)
        assert twin == rec and repr(twin) == text and hash(twin) == hash(rec)


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_replace(make, text, change):
    rec = make()
    new = rec._replace(**change)
    assert type(new) is type(rec)
    for name in rec._fields:
        want = change.get(name, getattr(rec, name))
        if isinstance(rec, CostModel) and name == "weights":
            assert dict(new.weights) == want
        else:
            assert getattr(new, name) == want
    assert repr(rec) == text  # the original is untouched
    assert rec._replace() == rec
    with pytest.raises(TypeError):
        rec._replace(no_such_field=1)


def test_replace_runs_the_checks_again():
    with pytest.raises(DateValidationError):
        CivilDate(2023, 1, 31)._replace(month=2)
    with pytest.raises(ValueError, match="negative weight"):
        CostModel()._replace(weights={StepKind.HALVE: -1})


def test_the_shipped_records_pickle():
    for desc in METHODS.values():
        back = pickle.loads(pickle.dumps(desc))
        assert back._replace(func=desc.func) == desc
        assert back.func(37) == desc.func(37)
    assert pickle.loads(pickle.dumps(ydow.DEFAULT_COST_MODEL)) == ydow.DEFAULT_COST_MODEL


def test_a_divisor_plan_stays_out_of_the_record():
    # DivisorSpec keeps its kernel and plan params in a private slot, set on
    # its first evaluation, which no record behaviour reads; every copy
    # rebuilds through __init__ and sets its own on its first evaluation
    spec = DivisorSpec(5, NEG, 1, -1, -1, 1, 1)
    eval_divisor(spec, 37)
    assert "_run" not in spec._fields and spec._run
    assert repr(spec) == CASES[IDS.index("DivisorSpec")][1]
    assert spec.__reduce__() == (DivisorSpec, fields_of(spec))
    stale = DivisorSpec(5, NEG, 1, -1, -1, 1, 1)
    object.__setattr__(stale, "_run", ())
    assert stale == spec and hash(stale) == hash(spec) == hash(fields_of(spec))
    for twin in (copy.copy(stale), copy.deepcopy(stale), pickle.loads(pickle.dumps(stale)), stale._replace()):
        assert twin == spec and not hasattr(twin, "_run")
        eval_divisor(twin, 37)
        assert twin._run == spec._run
    changed = spec._replace(coef_floor=0, coef_r=3)
    assert eval_divisor(changed, 37) == eval_divisor(DivisorSpec(5, NEG, 1, 3, 0, 1, 1), 37)
    assert changed._run[1] != spec._run[1]


# Each record's fields, in order, as the repr strings above name them.
FIELDS = {
    CivilDate: ("year", "month", "day"),
    StepTrace: ("steps",),
    CostModel: ("name", "weights"),
    DivisorSpec: ("d", "convention", "coef_q", "coef_r", "coef_floor", "inner_q", "inner_r"),
    MethodDescriptor: ("id", "display_name", "category", "convention", "citation", "func"),
    VerificationFailure: ("y", "expected", "got"),
    VerificationReport: ("method_id", "total", "failures"),
    CostReportRow: ("method_id", "min_cost", "max_cost", "mean_cost", "max_magnitude"),
}


@pytest.mark.parametrize("cls, fields", FIELDS.items(), ids=[cls.__name__ for cls in FIELDS])
def test_each_record_declares_its_fields_once(cls, fields):
    assert cls._fields == fields and fields
    assert cls.__bases__ == (Record,)
    # the slotted fields lead __slots__, and every other slot is private
    slotted = tuple(name for name in fields if name in cls.__slots__)
    assert cls.__slots__[: len(slotted)] == slotted
    assert all(name.startswith("_") for name in cls.__slots__[len(slotted) :])
    # a field without a slot is a property over the private slots: StepTrace.steps
    assert all(isinstance(cls.__dict__[name], property) for name in fields if name not in slotted)


def test_every_record_is_pinned():
    assert {cls for cls in Record.__subclasses__() if cls.__module__.startswith("ydow.")} == set(FIELDS)


def test_repr_survives_a_field_whose_repr_raises():
    model = CostModel("x", {"halve": 10**5000})
    assert repr(model) == "CostModel(name='x', weights=<mappingproxy too large to show>)"
    # DivisorSpec bounds its divisor, so a record without range checks carries the int
    failure = VerificationFailure(10**5000, 0, 1)
    assert repr(failure) == "VerificationFailure(y=<int too large to show>, expected=0, got=1)"
    long = CostModel("n" * 500)
    assert repr(long).startswith(f"CostModel(name='{'n' * 500}', ")  # a field's repr is not cut


def test_civil_date_is_not_a_tuple():
    assert CivilDate(2000, 1, 1) != (2000, 1, 1)
    assert CivilDate(2000, 1, 1) == CivilDate(2000, 1, 1)
    assert len({CivilDate(2000, 1, 1), CivilDate(2000, 1, 1), CivilDate(2000, 1, 2)}) == 2


# What the frozen dataclasses and statistics.fmean pulled into `import ydow`
# (inspect and json with dataclasses, fractions and decimal with statistics).
HEAVY = ("dataclasses", "statistics", "fractions", "decimal", "inspect", "json")


def test_import_ydow_leaves_out_the_heavy_modules():
    src = Path(ydow.__file__).resolve().parent.parent
    code = f"import sys, ydow; print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    # -S: no site hooks, so only what ydow itself imports is seen
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == []
