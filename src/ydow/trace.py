"""Step traces: a record of the elementary mental operations a method performs.

Every year-share method (and the day-of-week assembly on top of them) emits a
trace alongside its numeric result.  A trace can be rendered as a worked
example, replayed to re-derive the result, and priced under a cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
import json

from .arith import floor_div, mod7


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


# PARITY_TEST inspects a value without producing a new working value; every
# other kind yields a number that later steps may build on.
_NON_VALUE_KINDS = frozenset({StepKind.PARITY_TEST})


@dataclass(frozen=True)
class Step:
    kind: StepKind
    description: str
    operands: tuple[int, ...]
    result: int


class TraceReplayError(ValueError):
    """A recorded step does not match its recomputed arithmetic."""


def _recompute(step: Step) -> int:
    k, ops = step.kind, step.operands
    if k is StepKind.SET:
        return ops[0]
    if k is StepKind.PARITY_TEST:
        return ops[0] % 2
    if k is StepKind.ADD_CONST:
        return ops[0] + ops[1]
    if k is StepKind.SUB_CONST:
        return ops[0] - ops[1]
    if k is StepKind.HALVE:
        return ops[0] // 2
    if k is StepKind.QUARTER_FLOOR:
        return floor_div(ops[0], 4)
    if k is StepKind.DIV_SPLIT:
        return floor_div(ops[0], ops[1])
    if k is StepKind.MUL_SMALL:
        return ops[0] * ops[1]
    if k is StepKind.MOD7_REDUCE:
        return mod7(ops[0])
    if k is StepKind.SIGN_FLIP:
        return -ops[0]
    raise TraceReplayError(f"unknown step kind {k!r}")


@dataclass(frozen=True)
class StepTrace:
    steps: tuple[Step, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def replay(self) -> int:
        """Re-execute every step from its operand snapshots.

        Raises TraceReplayError if any recorded result disagrees with the
        recomputation.  Returns the result of the last value-producing step,
        which for a method trace is the method's raw output.
        """
        final = None
        for i, step in enumerate(self.steps):
            got = _recompute(step)
            if got != step.result:
                raise TraceReplayError(
                    f"step {i + 1} ({step.kind.value}): recorded "
                    f"{step.result}, recomputed {got}"
                )
            if step.kind not in _NON_VALUE_KINDS:
                final = got
        if final is None:
            raise TraceReplayError("trace has no value-producing step")
        return final

    def max_magnitude(self) -> int:
        """Largest absolute value appearing anywhere in the trace."""
        m = 0
        for step in self.steps:
            for v in step.operands:
                m = max(m, abs(v))
            m = max(m, abs(step.result))
        return m

    def to_jsonable(self) -> list[dict]:
        return [
            {
                "kind": s.kind.value,
                "description": s.description,
                "operands": list(s.operands),
                "result": s.result,
            }
            for s in self.steps
        ]


# Defaults reflect rough mental effort: free to load a number, cheap to test
# parity or add a small constant, more work to halve or take quarters.  They
# are configuration, not calibrated measurements.
DEFAULT_WEIGHTS = {
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
}


@dataclass(frozen=True)
class CostModel:
    """Weights one unit of mental effort per step kind."""

    name: str = "default"
    weights: dict[StepKind, int] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def __post_init__(self):
        for kind, w in self.weights.items():
            if w < 0:
                raise ValueError(f"negative weight for {kind.value}: {w}")

    def cost(self, trace: StepTrace) -> int:
        return sum(self.weights.get(s.kind, 0) for s in trace.steps)


DEFAULT_COST_MODEL = CostModel()


def load_cost_model(path: str) -> CostModel:
    """Read a cost model from a JSON file: {"name": ..., "weights": {kind: int}}.

    Every way the file can be wrong (unreadable, not JSON, not an object,
    unknown kind, a weight that is not a nonnegative int) raises ValueError.
    """
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ValueError(f"cannot read cost model {path!r}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"cost model {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"cost model {path!r} must be a JSON object, got {type(data).__name__}")
    given = data.get("weights", {})
    if not isinstance(given, dict):
        raise ValueError(f"cost model {path!r}: weights must be an object, got {type(given).__name__}")
    weights = dict(DEFAULT_WEIGHTS)
    for key, value in given.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"cost model {path!r}: weight for {key!r} must be an integer, got {value!r}")
        weights[StepKind(key)] = value
    return CostModel(name=str(data.get("name", path)), weights=weights)
