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
4-tuple, `(HALVE, ("halve: {0} / 2 = {1}",), (ys,), ys // 2)`: the kind, a
description, the operands and the result.  A description takes one of three
forms:

- a lone template, a 1-tuple `(template,)`, whose fields number the step's
  operands and then its result, read as `template.format(*operands, result)`.
  A step whose text shows only its own numbers records its template this
  way, as a constant, so each number is recorded once;
- a template with the values it needs, `(template, *values)`, read as
  `template.format(*values)`, for a text that shows a number or word the
  step does not hold, such as the units digit beside a split's quotient;
- anything else, such as text, which passes through as it is.

An exact tuple is the cheapest record to build, and CPython unpacks
`for kind, text, operands, result in ...` on a fast path only for an exact
tuple, so `replay`, `cost`, `max_magnitude` and `to_jsonable` walk the
recorded steps faster than they would walk `Step`s.  The first read of
`StepTrace.steps` builds each `Step` once, through
`new_step = partial(tuple.__new__, Step)` (the tuple made in C, skipping the
NamedTuple's Python-level `__new__`), formats each description and keeps
the `Step`s beside the recorded steps, which it never replaces, so the
walkers read the recorded steps before and after it; `to_jsonable` formats
each text as it writes it, building no `Step`.

A body ends with `traced(raw, convention, steps)`, the one constructor of a
traced result: it wraps the exact tuple of steps in a new `StepTrace`
without calling the class, and hands it to `arith.normalize`, which keeps
the residue rule.  `StepTrace(steps)` stays the public constructor.

`StepTrace` is an immutable record (see `_record`) wrapping a tuple of
steps: its length and iteration are the steps', which a tuple base would
conflict with, and it compares equal only to another `StepTrace`.  Its one
field, `steps`, is a property over its two private slots, the recorded
steps and, once read, the formatted ones.
`CostModel` is a record too.  `json` is imported by `load_cost_model`, the
one place that reads it.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from operator import add, mul, neg, pos, sub
from os import PathLike
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from ._record import Record, check_int, echo, member
from .arith import ShareResult, SignConvention, floor_div, normalize


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


# How replay recomputes each kind from its operands, as `rule(*operands)`;
# one rule per StepKind.  Each is a C-level callable, so a replayed step
# costs no Python frame, except DIV_SPLIT's floor_div: its divisor is an
# operand, and a divisor <= 0 raises ValueError.  A step with the wrong
# number of operands raises TypeError; an operand that a bound int method
# does not take, such as a float, makes it return NotImplemented, a mismatch.
_RULES = {
    StepKind.SET: pos,
    StepKind.PARITY_TEST: (2).__rmod__,
    StepKind.ADD_CONST: add,
    StepKind.SUB_CONST: sub,
    StepKind.HALVE: (2).__rfloordiv__,
    StepKind.QUARTER_FLOOR: (4).__rfloordiv__,
    StepKind.DIV_SPLIT: floor_div,
    StepKind.MUL_SMALL: mul,
    StepKind.MOD7_REDUCE: (7).__rmod__,
    StepKind.SIGN_FLIP: neg,
}


class StepTrace(Record):
    """The steps of one evaluation, each a `Step` or a recorded 4-tuple.

    A step is `(kind, description, operands, result)`; its description is
    text, a lone template `(template,)` read as
    `template.format(*operands, result)`, or a template with its values
    `(template, *values)` read as `template.format(*values)`.  The first read
    of `.steps` formats it.  A method body builds its trace through `traced`;
    this is the public constructor.  `steps` is kept as given when it is a
    tuple; any other iterable is copied into a tuple once, here, and anything
    else raises ValueError.  The elements are not checked: that would charge every body
    for every step, so a malformed element is the caller's to avoid, and it
    raises when a walker or the first read of `.steps` meets it.
    """

    _fields = ("steps",)
    # `_recorded` holds the steps as given, descriptions still templates, and
    # is never replaced: the walkers read it.  The first read of `steps`
    # keeps the formatted `Step`s in `_formatted`, beside it.
    __slots__ = ("_recorded", "_formatted")

    def __init__(self, steps: Iterable[tuple] = ()):
        if steps.__class__ is not tuple:
            try:
                steps = tuple(steps)
            except TypeError:
                raise ValueError(f"steps must be an iterable of steps, got {echo(steps)}") from None
        _set_recorded(self, steps)

    @property
    def steps(self) -> tuple[Step, ...]:
        """The steps, their descriptions formatted on the first read."""
        try:
            return self._formatted
        except AttributeError:  # the first read
            pass
        # A lone template reads the operands, then the result; `to_jsonable` formats alike.
        steps = tuple([
            new_step((kind, text if text.__class__ is not tuple
                      else text[0].format(*operands, result) if len(text) == 1 else _format(*text), operands, result))
            for kind, text, operands, result in self._recorded
        ])
        _set_formatted(self, steps)
        return steps

    def __len__(self) -> int:
        return len(self._recorded)

    def __iter__(self):
        return iter(self.steps)

    def replay(self) -> int:
        """Re-execute every step from its operand snapshots.

        Raises TraceReplayError if any recorded result disagrees with the
        recomputation.  Returns the result of the last value-producing step,
        which for a method trace is the method's raw output.  A malformed
        step is not checked for: one with the wrong number of operands
        raises TypeError, and an operand a kind's int rule does not take,
        such as a float to halve, reads as a mismatch that recomputed
        NotImplemented.  A mismatch names the first failing step; the walk
        counts no steps, and the failing step's number is found only then.
        """
        recorded = self._recorded
        final = None
        for step in recorded:
            kind, _, operands, result = step
            if kind.__class__ is not StepKind:
                raise TraceReplayError(f"unknown step kind {echo(kind)}")
            got = _RULES[kind](*operands)
            if got != result:
                # by identity: an equal step earlier on may hold a 5 where this one holds a 5.0
                number = next(i for i, other in enumerate(recorded, 1) if other is step)
                raise TraceReplayError(f"step {number} ({kind.value}): recorded {result}, recomputed {got}")
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
        # The description is formatted as `steps` formats it, inline: a call per step would cost a frame.
        return [
            {
                "kind": kind._value_,  # a plain attribute; Enum's .value is a Python-level property
                "description": text if text.__class__ is not tuple
                else text[0].format(*operands, result) if len(text) == 1 else _format(*text),
                "operands": list(operands),
                "result": result,
            }
            for kind, text, operands, result in self._recorded
        ]


# The private slots' C-level setters; a record's own __setattr__ raises.
_set_recorded = StepTrace._recorded.__set__
_set_formatted = StepTrace._formatted.__set__
_format = str.format
_blank_trace = partial(object.__new__, StepTrace)


def traced(raw: int, convention: SignConvention, steps: tuple) -> ShareResult:
    """A method's result, `raw` under `convention`, with the exact tuple `steps` as its trace.

    The one constructor every method body ends with.  It fills the new
    trace's slot without calling the class, whose `__init__` would check
    that `steps` is a tuple, which a body's literal always is, and leaves
    the residue to `normalize`.
    """
    trace = _blank_trace()
    _set_recorded(trace, steps)
    return normalize(raw, convention, trace)


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
    reprice a shared model after the fact; a kind it does not weigh costs 0.
    Equal models hash equal; the hash reads the name only.
    """

    _fields = ("name", "weights")
    # `_get` is the `get` of the plain dict that the read-only `weights`
    # wraps: `cost` calls it once per step, and a dict's `get` is about
    # twice as fast as a mappingproxy's.
    __slots__ = (*_fields, "_get")

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
        object.__setattr__(self, "_get", checked.get)

    def __hash__(self) -> int:
        return hash((self.name,))

    def __reduce__(self):
        # A mappingproxy does not pickle; the dict it wraps does.
        return CostModel, (self.name, dict(self.weights))

    def cost(self, trace: StepTrace) -> int:
        get = self._get
        total = 0
        for step in trace._recorded:
            total += get(step[0], 0)
        return total


DEFAULT_COST_MODEL = CostModel()


def load_cost_model(path: str | PathLike) -> CostModel:
    """Read a cost model from a JSON file: {"name": ..., "weights": {kind: int}}.

    The path must be a str or an os.PathLike; anything else, an int above
    all, which `open` would take for a file descriptor, raises ValueError
    before anything is opened.  At most 1 MiB and one byte is read, so an
    endless file such as /dev/zero cannot exhaust memory.  Every way the
    file can be wrong (unreadable, larger than 1 MiB, not UTF-8, not JSON,
    nested too deeply to decode, not an object, unknown kind, a weight that
    is not a nonnegative int, a name that is not a string) raises
    ValueError.  A file without a name names the model after its
    path.  The name, kinds and weights are checked by CostModel, as the file
    gives them; its message gains the path.
    """
    import json  # here, not at the top: nothing else in `import ydow` reads JSON

    shown = echo(path)
    if not isinstance(path, (str, PathLike)):
        raise ValueError(f"cost model path must be a str or os.PathLike, got {shown}")
    limit = 1 << 20
    try:
        with open(path, "rb") as f:
            raw = f.read(limit + 1)
    except OSError as exc:
        raise ValueError(f"cannot read cost model {shown}: {exc.strerror or exc}") from None
    if len(raw) > limit:
        raise ValueError(f"cost model {shown} is larger than 1 MiB")
    try:
        data = json.loads(raw.decode("utf-8"))
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
        return CostModel(name=data.get("name", str(path)), weights={**DEFAULT_WEIGHTS, **given})
    except ValueError as exc:
        raise ValueError(f"cost model {shown}: {exc}") from None
