"""Step traces: a record of the elementary mental operations a method performs.

Every year-share method (and the day-of-week assembly on top of them) emits a
trace alongside its numeric result.  A trace can be rendered as a worked
example, replayed to re-derive the result, and priced under a cost model.

A `Step` is an immutable `typing.NamedTuple`, so it is cheap to build and
walk.  Like any tuple it compares equal to a plain tuple holding the same
four fields.  The kinds are module constants too (`SET`, `ADD_CONST`, ...):
an attribute of an Enum class is read through EnumType's Python-level
`__getattr__` hook, a global is not.

A body builds no `Step` and formats no text.  It records each step as a plain
4-tuple, `(HALVE, ("halve: {} / 2 = {}", ys, ys // 2), (ys,), ys // 2)`: the
kind, a template with the values it needs, the operands and the result.  An
exact tuple is the cheapest record to build, and CPython unpacks
`for kind, text, operands, result in ...` on a fast path only for an exact
tuple, so `replay`, `cost`, `max_magnitude` and `to_jsonable` walk the
recorded steps faster than they would walk `Step`s.  The first read of
`StepTrace.steps` builds each `Step` once, through
`new_step = partial(tuple.__new__, Step)` (the tuple made in C, skipping the
NamedTuple's Python-level `__new__`), formats each template with
`str.format`, passes any other description through, and keeps the `Step`s;
`to_jsonable` formats each text as it writes it, building no `Step`.

`StepTrace` is an immutable record (see `_record`) wrapping a tuple of
steps: its length and iteration are the steps', which a tuple base would
conflict with, and it compares equal only to another `StepTrace`.
`CostModel` is a record too.  `json` is imported by `load_cost_model`, the
one place that reads it.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from ._record import Record, check_int, echo, member
from .arith import floor_div


class StepKind(str, Enum):
    SET = "set"
    PARITY_TEST = "parity_test"
    ADD_CONST = "add_const"
    SUB_CONST = "sub_const"
    HALVE = "halve"
    QUARTER_FLOOR = "quarter_floor"
    DIV_SPLIT = "div_split"
    MUL_SMALL = "mul_small"
    MOD7_REDUCE = "mod7_reduce"
    SIGN_FLIP = "sign_flip"


class Step(NamedTuple):
    kind: StepKind
    description: str
    operands: tuple[int, ...]
    result: int


new_step = partial(tuple.__new__, Step)
SET, PARITY_TEST, ADD_CONST, SUB_CONST, HALVE, QUARTER_FLOOR, DIV_SPLIT, MUL_SMALL, MOD7_REDUCE, SIGN_FLIP = StepKind


class TraceReplayError(ValueError):
    """A recorded step does not match its recomputed arithmetic."""


# How replay recomputes each kind from its operand snapshot; one rule per
# StepKind.  Floors go through floor_div, so a division step with a divisor
# <= 0 raises ValueError.
_RULES = {
    StepKind.SET: itemgetter(0),
    StepKind.PARITY_TEST: lambda ops: ops[0] % 2,
    StepKind.ADD_CONST: lambda ops: ops[0] + ops[1],
    StepKind.SUB_CONST: lambda ops: ops[0] - ops[1],
    StepKind.HALVE: lambda ops: ops[0] // 2,
    StepKind.QUARTER_FLOOR: lambda ops: floor_div(ops[0], 4),
    StepKind.DIV_SPLIT: lambda ops: floor_div(ops[0], ops[1]),
    StepKind.MUL_SMALL: lambda ops: ops[0] * ops[1],
    StepKind.MOD7_REDUCE: lambda ops: ops[0] % 7,
    StepKind.SIGN_FLIP: lambda ops: -ops[0],
}


class _Recorded(Record):
    # Holds a trace's steps as recorded, descriptions still templates.
    # Record reads a record's fields from the __slots__ of its own class, so
    # a slot declared here stays out of repr, ==, hash, pickle, copy and
    # _replace, which read the formatted `steps`.
    __slots__ = ("_recorded",)


class StepTrace(_Recorded):
    """The steps of one evaluation, each a `Step` or a recorded 4-tuple.

    A step is `(kind, description, operands, result)`; its description is
    text or a template `(template, *values)`, which the first read of
    `.steps` formats.  `steps` is kept as given when it is a tuple; any other
    iterable is copied into a tuple once, here, and anything else raises
    ValueError.  The elements are not checked: that would charge every body
    for every step, so a malformed element is the caller's to avoid, and it
    raises when a walker or the first read of `.steps` meets it.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[tuple] = ()):
        if steps.__class__ is not tuple:
            try:
                steps = tuple(steps)
            except TypeError:
                raise ValueError(f"steps must be an iterable of steps, got {echo(steps)}") from None
        _set_recorded(self, steps)

    def __len__(self) -> int:
        return len(self._recorded)

    def __iter__(self):
        return iter(self.steps)

    def replay(self) -> int:
        """Re-execute every step from its operand snapshots.

        Raises TraceReplayError if any recorded result disagrees with the
        recomputation.  Returns the result of the last value-producing step,
        which for a method trace is the method's raw output.
        """
        final = None
        for i, (kind, _, operands, result) in enumerate(self._recorded):
            if kind.__class__ is not StepKind:
                raise TraceReplayError(f"unknown step kind {echo(kind)}")
            got = _RULES[kind](operands)
            if got != result:
                raise TraceReplayError(
                    f"step {i + 1} ({kind.value}): recorded {result}, recomputed {got}"
                )
            # PARITY_TEST inspects a value without producing a new working
            # value; every other kind yields a number later steps may build on
            if kind is not PARITY_TEST:
                final = got
        if final is None:
            raise TraceReplayError("trace has no value-producing step")
        return final

    def max_magnitude(self) -> int:
        """Largest absolute value appearing anywhere in the trace."""
        hi = lo = 0
        for _, _, operands, result in self._recorded:
            for v in operands:
                if v > hi:
                    hi = v
                elif v < lo:
                    lo = v
            if result > hi:
                hi = result
            elif result < lo:
                lo = result
        return hi if hi >= -lo else -lo

    def to_jsonable(self) -> list[dict]:
        # From the recorded steps: a trace is written once, so its formatted steps are not kept.
        return [
            {
                "kind": kind._value_,  # a plain attribute; Enum's .value is a Python-level property
                "description": _format(*text) if text.__class__ is tuple else text,
                "operands": list(operands),
                "result": result,
            }
            for kind, text, operands, result in self._recorded
        ]


# `steps` is a slot; the property below takes its name and reads and writes
# the slot through its C-level descriptor, so a formatted trace is read
# without a Python-level __getattr__ hook on the class.
_get_steps = StepTrace.steps.__get__
_set_steps = StepTrace.steps.__set__
_set_recorded = _Recorded._recorded.__set__
_format = str.format


def _steps(trace: StepTrace) -> tuple[Step, ...]:
    try:
        return _get_steps(trace)
    except AttributeError:  # the first read
        pass
    steps = []
    for step in trace._recorded:  # a recorded tuple or a Step; only a Step with its text is kept as it is
        if step.__class__ is not Step or step[1].__class__ is tuple:
            kind, text, operands, result = step
            step = new_step((kind, _format(*text) if text.__class__ is tuple else text, operands, result))
        steps.append(step)
    steps = tuple(steps)
    _set_steps(trace, steps)
    _set_recorded(trace, steps)  # so a trace never holds both
    return steps


StepTrace.steps = property(_steps, doc="The steps, their descriptions formatted on the first read.")


# Defaults reflect rough mental effort: free to load a number, cheap to test
# parity or add a small constant, more work to halve or take quarters.  They
# are configuration, not calibrated measurements.
DEFAULT_WEIGHTS: Mapping[StepKind, int] = MappingProxyType({
    StepKind.SET: 0,
    StepKind.PARITY_TEST: 1,
    StepKind.ADD_CONST: 1,
    StepKind.SUB_CONST: 1,
    StepKind.HALVE: 2,
    StepKind.QUARTER_FLOOR: 3,
    StepKind.DIV_SPLIT: 3,
    StepKind.MUL_SMALL: 2,
    StepKind.MOD7_REDUCE: 2,
    StepKind.SIGN_FLIP: 1,
})


class CostModel(Record):
    """Weights one unit of mental effort per step kind.

    The name must be a str, the weights a mapping, every key must name a
    StepKind (a member or its value) and every weight must be a nonnegative
    int (a bool is not); anything else raises ValueError.  The model keeps a
    read-only copy of the weights, keyed on StepKind, so no caller can
    reprice a shared model after the fact.  Equal models hash equal; the hash reads the name only.
    """

    __slots__ = ("name", "weights")

    def __init__(self, name: str = "default", weights: Mapping[StepKind, int] = DEFAULT_WEIGHTS):
        if not isinstance(name, str):
            raise ValueError(f"cost model name must be a string, got {echo(name)}")
        if not isinstance(weights, Mapping):
            raise ValueError(f"cost model weights must be a mapping, got {echo(weights)}")
        checked = {}
        for key, w in weights.items():
            kind = member(StepKind, key)
            check_int(f"weight for {kind.value!r}", w)
            if w < 0:
                raise ValueError(f"negative weight for {kind.value}: {echo(w)}")
            checked[kind] = w
        super().__init__(name, MappingProxyType(checked))

    def __hash__(self) -> int:
        return hash((self.name,))

    def __reduce__(self):
        # A mappingproxy does not pickle; the dict it wraps does.
        return CostModel, (self.name, dict(self.weights))

    def cost(self, trace: StepTrace) -> int:
        get = self.weights.get
        total = 0
        for step in trace._recorded:
            total += get(step[0], 0)
        return total


DEFAULT_COST_MODEL = CostModel()


def load_cost_model(path: str) -> CostModel:
    """Read a cost model from a JSON file: {"name": ..., "weights": {kind: int}}.

    Every way the file can be wrong (unreadable, not JSON, nested too deeply
    to decode, not an object, unknown kind, a weight that is not a
    nonnegative int) raises ValueError.
    Kinds and weights are checked by CostModel; its message gains the path.
    """
    import json  # here, not at the top: nothing else in `import ydow` reads JSON

    shown = echo(path)
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ValueError(f"cannot read cost model {shown}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"cost model {shown} is not valid JSON: {exc}") from None
    except RecursionError:  # json's decoder recurses once per nesting level
        raise ValueError(f"cost model {shown}: JSON nested too deeply to read") from None
    if not isinstance(data, dict):
        raise ValueError(f"cost model {shown} must be a JSON object, got {type(data).__name__}")
    given = data.get("weights", {})
    if not isinstance(given, dict):
        raise ValueError(f"cost model {shown}: weights must be an object, got {type(given).__name__}")
    try:
        return CostModel(name=str(data.get("name", path)), weights={**DEFAULT_WEIGHTS, **given})
    except ValueError as exc:
        raise ValueError(f"cost model {shown}: {exc}") from None
