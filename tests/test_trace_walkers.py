"""The trace records and walkers against naive references.

`Step` and `ShareResult` are NamedTuples, and `StepTrace.replay`,
`StepTrace.max_magnitude` and `CostModel.cost` each walk the steps in one
pass.  The references below are the straightforward versions of the same
three walkers (an if-chain per kind, `max`/`abs` per operand, a `sum` over
weight lookups).  Every method and every derivable divisor formula must
agree with them on every year, and so must the day-of-week traces of a
sample of dates, mismatching traces included.
"""

import re

import pytest

from ydow import registry
from ydow.arith import ShareResult, SignConvention, floor_div, mod7, normalize
from ydow.dates import CivilDate
from ydow.divisor import NotRepresentableError, derive_divisor_formula, eval_divisor
from ydow.pipeline import PipelineId, dow
from ydow.registry import METHODS, cost_report
from ydow.trace import (
    DEFAULT_COST_MODEL,
    DEFAULT_WEIGHTS,
    CostModel,
    Step,
    StepKind,
    StepTrace,
    TraceReplayError,
    load_cost_model,
)


def naive_recompute(step):
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


def naive_replay(trace):
    final = None
    for i, step in enumerate(trace.steps):
        got = naive_recompute(step)
        if got != step.result:
            raise TraceReplayError(
                f"step {i + 1} ({step.kind.value}): recorded "
                f"{step.result}, recomputed {got}"
            )
        if step.kind is not StepKind.PARITY_TEST:
            final = got
    if final is None:
        raise TraceReplayError("trace has no value-producing step")
    return final


def naive_max_magnitude(trace):
    m = 0
    for step in trace.steps:
        for v in step.operands:
            m = max(m, abs(v))
        m = max(m, abs(step.result))
    return m


def naive_cost(weights, trace):
    return sum(weights.get(s.kind, 0) for s in trace.steps)


def replay_outcome(replay, trace):
    try:
        return replay(trace)
    except TraceReplayError as exc:
        return ("TraceReplayError", str(exc))


def corrupted(trace, index):
    steps = list(trace.steps)
    steps[index] = steps[index]._replace(result=steps[index].result + 1)
    return StepTrace(tuple(steps))


def all_traces():
    for desc in METHODS.values():
        for y in range(100):
            yield desc.id, y, desc.func(y).trace
    for d in range(2, 29):
        for sign in SignConvention:
            try:
                spec = derive_divisor_formula(d, sign)
            except NotRepresentableError:
                continue
            for y in range(100):
                yield f"d={d},{sign.value}", y, eval_divisor(spec, y).trace
    # full-date traces add the MOD7_REDUCE and SIGN_FLIP steps of assembly
    for k in range(40):
        date = CivilDate(1583 + 37 * k, 1 + k % 12, 1 + 3 * k % 28)
        for mid in METHODS:
            for pipeline in PipelineId:
                yield f"{date} {mid} {pipeline.value}", None, dow(date, mid, pipeline).trace


FLAT = CostModel("flat", {k: 1 for k in StepKind})
PARTIAL = CostModel("partial", {StepKind.HALVE: 5, StepKind.QUARTER_FLOOR: 7})


def test_walkers_equal_the_naive_references():
    seen = 0
    for label, y, trace in all_traces():
        where = f"{label} y={y}"
        assert trace.replay() == naive_replay(trace), where
        assert trace.max_magnitude() == naive_max_magnitude(trace), where
        for model in (DEFAULT_COST_MODEL, FLAT, PARTIAL):
            assert model.cost(trace) == naive_cost(model.weights, trace), where
        for i in range(len(trace)):
            bad = corrupted(trace, i)
            assert replay_outcome(StepTrace.replay, bad) == replay_outcome(naive_replay, bad), where
        seen += 1
    # 14 methods and 40 derivable (d, sign) pairs, 100 years each, and
    # 40 dates x 14 methods x 2 pipelines
    assert seen == (14 + 40) * 100 + 40 * 14 * 2


def test_max_magnitude_on_signs_and_empty_traces():
    cases = [
        (),
        ((StepKind.SET, (0,), 0),),
        ((StepKind.SIGN_FLIP, (110,), -110),),
        ((StepKind.SIGN_FLIP, (3,), -3), (StepKind.SUB_CONST, (-3, 1), -4)),
        ((StepKind.ADD_CONST, (-3, 1), -2),),
        ((StepKind.SUB_CONST, (-3, 4), -7), (StepKind.SIGN_FLIP, (-7,), 7)),
        ((StepKind.ADD_CONST, (-9, 5), -4), (StepKind.MOD7_REDUCE, (-4,), 3)),
    ]
    for rows in cases:
        trace = StepTrace(tuple(Step(k, "x", ops, r) for k, ops, r in rows))
        assert trace.max_magnitude() == naive_max_magnitude(trace)


# `ydow cost --all --format csv` at the time the walkers were rewritten:
# (method, min_cost, max_cost, mean_cost, max_magnitude).
GOLDEN_COST_REPORT = [
    ("odd11", 4, 4, 4.0, 110),
    ("parity3", 4, 4, 4.0, 99),
    ("div4", 6, 6, 6.0, 99),
    ("div5", 9, 9, 9.0, 99),
    ("div11", 9, 9, 9.0, 99),
    ("div12", 8, 8, 8.0, 99),
    ("div16", 9, 9, 9.0, 99),
    ("div17", 8, 8, 8.0, 99),
    ("eisele", 12, 12, 12.0, 99),
    ("harringer", 12, 12, 12.0, 99),
    ("digits-aa", 11, 11, 11.0, 99),
    ("fong", 11, 13, 12.0, 99),
    ("wang", 11, 11, 11.0, 99),
    ("digits-ab", 12, 12, 12.0, 99),
]


def test_cost_report_matches_the_golden_table():
    rows = [(r.method_id, r.min_cost, r.max_cost, r.mean_cost, r.max_magnitude) for r in cost_report()]
    assert rows == GOLDEN_COST_REPORT


def test_step_and_share_result_are_immutable():
    step = Step(StepKind.SET, "x", (1,), 1)
    res = normalize(17, SignConvention.POSITIVE)
    for obj, name in ((step, "result"), (step, "kind"), (res, "residue"), (res, "trace")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)


def test_records_are_tuples_with_the_same_fields():
    step = Step(StepKind.HALVE, "halve", (70,), 35)
    assert step == (StepKind.HALVE, "halve", (70,), 35)
    assert Step._fields == ("kind", "description", "operands", "result")
    assert ShareResult._fields == ("raw", "convention", "residue", "trace")
    res = ShareResult(-10, SignConvention.NEGATIVE, 3)
    assert res.trace is None
    assert res.negative_residue == 4


def test_replayed_div_split_with_nonpositive_divisor_raises_value_error():
    for divisor in (0, -3):
        trace = StepTrace((Step(StepKind.DIV_SPLIT, "split", (59, divisor), 0),))
        with pytest.raises(ValueError, match="divisor must be positive"):
            trace.replay()


def test_replay_rejects_unknown_kinds_with_the_same_message():
    # "set" equals StepKind.SET as a string, but is not a StepKind
    for kind in ("telepathy", "set", None):
        trace = StepTrace((Step(kind, "x", (1,), 1),))
        with pytest.raises(TraceReplayError, match=f"^{re.escape(f'unknown step kind {kind!r}')}$"):
            trace.replay()


def test_replay_mismatch_message():
    trace = StepTrace((Step(StepKind.SET, "x", (4,), 4), Step(StepKind.HALVE, "h", (4,), 3)))
    with pytest.raises(TraceReplayError, match=r"^step 2 \(halve\): recorded 3, recomputed 2$"):
        trace.replay()


def test_cost_model_weights_are_read_only():
    with pytest.raises(TypeError):
        DEFAULT_COST_MODEL.weights[StepKind.HALVE] = 50
    with pytest.raises(TypeError):
        DEFAULT_WEIGHTS[StepKind.HALVE] = 50
    assert {r.method_id: r.max_cost for r in cost_report(["odd11"])} == {"odd11": 4}


@pytest.mark.parametrize("heavy_first", [True, False], ids=["heavy-first", "default-first"])
def test_equal_named_models_do_not_share_a_summary(monkeypatch, heavy_first):
    # the cost memo is keyed on the model; these two collide by hash only
    heavy = CostModel("default", {**DEFAULT_WEIGHTS, StepKind.HALVE: 50})
    assert hash(heavy) == hash(DEFAULT_COST_MODEL) and heavy != DEFAULT_COST_MODEL
    runs = [(heavy, 52), (DEFAULT_COST_MODEL, 4)]
    if not heavy_first:
        runs.reverse()
    registry._MEMOS.clear()
    for model, want in runs:
        assert [r.max_cost for r in cost_report(["odd11"], model)] == [want]
    assert [r._astuple() for r in cost_report()] == GOLDEN_COST_REPORT

    priced = []
    real_cost = CostModel.cost

    def counting_cost(self, trace):
        priced.append(trace)
        return real_cost(self, trace)

    monkeypatch.setattr(CostModel, "cost", counting_cost)
    assert [r._astuple() for r in cost_report()] == GOLDEN_COST_REPORT
    assert priced == []  # the second report was served from the memo


@pytest.mark.parametrize("weights", [None, 5, [("halve", 1)], "halve"], ids=["None", "int", "list", "str"])
def test_cost_model_weights_must_be_a_mapping(weights):
    with pytest.raises(ValueError, match=r"^cost model weights must be a mapping, got "):
        CostModel("w", weights)


def test_cost_model_copies_the_weights_it_is_given():
    weights = dict(DEFAULT_WEIGHTS)
    model = CostModel("copy", weights)
    weights[StepKind.HALVE] = 50
    assert model.weights[StepKind.HALVE] == DEFAULT_WEIGHTS[StepKind.HALVE]


def test_cost_model_is_hashable_and_equal_models_hash_equal(tmp_path):
    assert hash(CostModel()) == hash(CostModel())
    assert CostModel() == CostModel("default", dict(DEFAULT_WEIGHTS))
    assert CostModel() != FLAT
    path = tmp_path / "model.json"
    path.write_text('{"name": "default"}')
    loaded = load_cost_model(path)
    assert loaded == DEFAULT_COST_MODEL
    assert hash(loaded) == hash(DEFAULT_COST_MODEL)
    assert len({CostModel(), loaded, FLAT}) == 2
