import ast
import json
import os
import pickle
import re
from pathlib import Path

import pytest

import ydow
from ydow.arith import SignConvention
from ydow.dates import CivilDate
from ydow.divisor import BUILTIN_DIVISOR_SPECS, NotRepresentableError, derive_divisor_formula, eval_divisor
from ydow.pipeline import PipelineId, dow
from ydow.registry import METHODS, cost_report, verify_all
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


def make_trace():
    # 59 -> +11 -> halve -> +11, the odd11 shape
    return StepTrace(
        (
            Step(StepKind.SET, "start at 59", (59,), 59),
            Step(StepKind.ADD_CONST, "add 11", (59, 11), 70),
            Step(StepKind.HALVE, "halve", (70,), 35),
            Step(StepKind.PARITY_TEST, "35 is odd", (35,), 1),
            Step(StepKind.ADD_CONST, "add 11", (35, 11), 46),
        )
    )


def test_replay_returns_last_value_step():
    assert make_trace().replay() == 46


def test_replay_ignores_parity_tests_for_the_result():
    t = StepTrace(
        (
            Step(StepKind.SET, "start", (8,), 8),
            Step(StepKind.PARITY_TEST, "even", (8,), 0),
        )
    )
    assert t.replay() == 8


def test_replay_detects_wrong_result():
    t = StepTrace((Step(StepKind.ADD_CONST, "bad add", (2, 2), 5),))
    with pytest.raises(TraceReplayError):
        t.replay()


def test_replay_detects_wrong_parity():
    t = StepTrace((Step(StepKind.PARITY_TEST, "claims odd", (8,), 1),))
    with pytest.raises(TraceReplayError):
        t.replay()


def test_replay_requires_a_value_step():
    t = StepTrace((Step(StepKind.PARITY_TEST, "odd", (3,), 1),))
    with pytest.raises(TraceReplayError):
        t.replay()


def test_replay_each_kind():
    cases = [
        (StepKind.SET, (42,), 42),
        (StepKind.ADD_CONST, (5, 7), 12),
        (StepKind.SUB_CONST, (5, 7), -2),
        (StepKind.HALVE, (70,), 35),
        (StepKind.QUARTER_FLOOR, (-13,), -4),
        (StepKind.DIV_SPLIT, (59, 12), 4),
        (StepKind.MUL_SMALL, (3, 9), 27),
        (StepKind.MOD7_REDUCE, (-3,), 4),
        (StepKind.SIGN_FLIP, (-4,), 4),
    ]
    for kind, ops, result in cases:
        assert StepTrace((Step(kind, "x", ops, result),)).replay() == result


def test_max_magnitude():
    assert make_trace().max_magnitude() == 70
    neg = StepTrace((Step(StepKind.SIGN_FLIP, "flip", (-110,), 110),))
    assert neg.max_magnitude() == 110


def test_to_jsonable_round_trips_through_json():
    data = json.loads(json.dumps(make_trace().to_jsonable()))
    assert data[0]["kind"] == "set"
    assert data[1] == {"kind": "add_const", "description": "add 11", "operands": [59, 11], "result": 70}


def test_default_weights_cover_every_kind():
    assert set(DEFAULT_WEIGHTS) == set(StepKind)
    assert all(w >= 0 for w in DEFAULT_WEIGHTS.values())
    assert DEFAULT_WEIGHTS[StepKind.SET] == 0


def test_cost_model_cost():
    t = make_trace()
    # set(0) + add(1) + halve(2) + parity(1) + add(1)
    assert DEFAULT_COST_MODEL.cost(t) == 5


def test_cost_model_rejects_negative_weights():
    weights = dict(DEFAULT_WEIGHTS)
    weights[StepKind.HALVE] = -1
    with pytest.raises(ValueError):
        CostModel("bad", weights)


def test_load_cost_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "cheap-halving", "weights": {"halve": 0}}))
    model = load_cost_model(path)
    assert model.name == "cheap-halving"
    assert model.weights[StepKind.HALVE] == 0
    # unmentioned kinds keep their defaults
    assert model.weights[StepKind.QUARTER_FLOOR] == DEFAULT_WEIGHTS[StepKind.QUARTER_FLOOR]


@pytest.mark.parametrize("path", [0, 1, True, None, 3.5], ids=repr)
def test_load_cost_model_takes_only_a_path(path):
    # an int would be read as a file descriptor, and closed: 1 (or True) is stdout
    with pytest.raises(ValueError, match=re.escape(f"cost model path must be a str or os.PathLike, got {path!r}")):
        load_cost_model(path)


def test_load_cost_model_leaves_a_descriptor_open(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "m"}))
    fd = os.open(path, os.O_RDONLY)
    try:
        with pytest.raises(ValueError, match="must be a str or os.PathLike, got"):
            load_cost_model(fd)
        os.fstat(fd)  # still open
        assert os.lseek(fd, 0, os.SEEK_CUR) == 0  # and unread
    finally:
        os.close(fd)


def test_load_cost_model_rejects_unknown_kind(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"weights": {"telepathy": 1}}))
    with pytest.raises(ValueError):
        load_cost_model(path)


@pytest.mark.parametrize(
    "name, weights, message",
    [
        ("bad", {StepKind.HALVE: 1.5}, "weight for 'halve' must be an integer, got 1.5"),
        ("bad", {StepKind.HALVE: True}, "weight for 'halve' must be an integer, got True"),
        ("bad", {StepKind.HALVE: "2"}, "weight for 'halve' must be an integer, got '2'"),
        ("bad", {"telepathy": 1}, "'telepathy' is not a valid StepKind"),
        (["n"], DEFAULT_WEIGHTS, "cost model name must be a string, got ['n']"),
    ],
    ids=["float", "bool", "string", "unknown-kind", "list-name"],
)
def test_cost_model_rejects_bad_weights(name, weights, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CostModel(name, weights)


def test_cost_model_keys_weights_on_step_kind():
    model = CostModel("by-value", {"halve": 5})
    assert dict(model.weights) == {StepKind.HALVE: 5}
    assert all(kind.__class__ is StepKind for kind in model.weights)


@pytest.mark.parametrize(
    "weights, message",
    [({"halve": -1}, "negative weight for halve: -1"), ({"telepathy": 1}, "'telepathy' is not a valid StepKind")],
    ids=["negative", "unknown-kind"],
)
def test_load_cost_model_names_the_file_in_model_errors(tmp_path, weights, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"weights": weights}))
    with pytest.raises(ValueError) as exc:
        load_cost_model(str(path))
    assert str(exc.value) == f"cost model {str(path)!r}: {message}"


@pytest.mark.parametrize("name", [None, 5, True, ["x"], {}], ids=repr)
def test_load_cost_model_refuses_a_name_that_is_not_text(tmp_path, name):
    # the file's name goes to CostModel as it is, whose check names it; it is not turned into text
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": name}))
    with pytest.raises(ValueError) as exc:
        load_cost_model(str(path))
    assert str(exc.value) == f"cost model {str(path)!r}: cost model name must be a string, got {name!r}"


def test_a_loaded_model_without_a_name_is_named_after_its_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"weights": {"halve": 0}}))
    assert load_cost_model(path).name == str(path) == load_cost_model(str(path)).name


def every_body():
    """One call per method x year and per derivable or built-in spec x year, each making a fresh result."""
    specs = list(BUILTIN_DIVISOR_SPECS.values())
    for d in range(2, 29):
        for convention in SignConvention:
            try:
                specs.append(derive_divisor_formula(d, convention))
            except NotRepresentableError:
                pass
    calls = [(desc.func, y) for desc in METHODS.values() for y in range(100)]
    calls += [(lambda y, spec=spec: eval_divisor(spec, y), y) for spec in specs for y in range(100)]
    assert len(calls) == 1400 + 4600
    return calls


def unformatted(trace) -> bool:
    """The trace holds its steps as a body records them: exact tuples, each description still a template.

    A body builds no Step; the first read of .steps builds each one, once.
    """
    return all(step.__class__ is tuple and step[1].__class__ is tuple for step in trace._recorded)


def test_a_recorded_trace_reads_as_its_formatted_steps():
    def equal_both_ways(t, ref):  # and the first read keeps what was recorded, and what it formats
        recorded = t._recorded
        return t == ref and ref == t and t._recorded is recorded and t.steps is t.steps

    # each check gets a fresh trace, so it is the first read and does the formatting
    checks = [
        equal_both_ways,
        lambda t, ref: hash(t) == hash(ref),
        lambda t, ref: repr(t) == repr(ref),
        lambda t, ref: t.to_jsonable() == ref.to_jsonable(),
        lambda t, ref: pickle.loads(pickle.dumps(t)) == ref,
        lambda t, ref: t._replace() == ref and t._replace(steps=()) == StepTrace(),
        lambda t, ref: list(t) == list(ref) and len(t) == len(ref),
    ]
    for body, y in every_body():
        steps = body(y).trace.steps
        assert all(step.__class__ is Step and step.description.__class__ is str for step in steps)
        assert all(step == tuple(step) for step in steps)
        ref = StepTrace(steps)
        for check in checks:
            fresh = body(y).trace
            assert unformatted(fresh)
            assert check(fresh, ref), (body, y)


def jsonable(steps) -> list[dict]:
    """What to_jsonable writes for these formatted steps."""
    return [
        {"kind": step.kind.value, "description": step.description, "operands": list(step.operands),
         "result": step.result}
        for step in steps
    ]


# Dates across the 400-year cycle, leap days, and both ends of the range.
SAMPLE_DATES = [CivilDate(1583, 1, 1), CivilDate(2000, 2, 29), CivilDate(9999, 12, 31)] + [
    CivilDate(1583 + 97 * i, 1 + i % 12, 1 + 3 * i % 28) for i in range(30)
]


def test_a_traced_dow_reads_as_its_formatted_steps():
    # a traced dow records the method's formatted Steps, then the assembly's plain tuples
    for date in SAMPLE_DATES:
        for method_id in METHODS:
            for pipeline in PipelineId:
                trace = dow(date, method_id, pipeline).trace
                assert {step.__class__ for step in trace._recorded} == {Step, tuple}
                written = trace.to_jsonable()
                steps = trace.steps
                assert all(step.__class__ is Step and step.description.__class__ is str for step in steps)
                assert written == jsonable(steps) == trace.to_jsonable(), (date, method_id, pipeline)
                assert dow(date, method_id, pipeline).trace == StepTrace(steps)


def test_walkers_and_reports_leave_a_trace_unformatted(monkeypatch):
    # they read the recorded steps; to_jsonable formats the texts it writes but keeps none
    for body, y in every_body():
        trace = body(y).trace
        trace.replay(), DEFAULT_COST_MODEL.cost(trace), trace.max_magnitude(), len(trace), trace.to_jsonable()
        assert unformatted(trace), (body, y)
    # the reports keep no result, so each method is wrapped to record the traces they evaluate
    traces = []

    def recording(func):
        def body(y):
            share = func(y)
            traces.append(share.trace)
            return share
        return body

    for mid, desc in METHODS.items():
        monkeypatch.setitem(METHODS, mid, desc._replace(func=recording(desc.func)))
    verify_all(), cost_report()
    assert len(traces) == 2800 and all(map(unformatted, traces))


def test_reading_a_trace_never_replaces_its_recorded_steps():
    # the first read of .steps keeps its Steps beside the recorded tuples, which the walkers go on reading
    reads = [lambda t: t.steps, StepTrace.to_jsonable, lambda t: t == t._replace(), hash, repr]
    for body, y in every_body():
        trace = body(y).trace
        recorded = trace._recorded
        for read in reads:
            read(trace)
            assert trace._recorded is recorded and unformatted(trace), (body, y, read)


def test_no_step_text_is_formatted_eagerly():
    # A step's text is a template and its values, formatted on first read; an
    # f-string inside a step record would format it while the body runs.  A
    # step record is a 4-tuple literal opening with a step kind: a StepKind
    # constant, or the kind a divisor plan's op names (`pre`, `comb`).
    kinds = {kind.name for kind in StepKind} | {"pre", "comb"}
    sites, eager = 0, []
    for path in sorted(Path(ydow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Tuple) and len(node.elts) == 4 and isinstance(node.elts[0], ast.Name)
                    and node.elts[0].id in kinds):
                sites += 1
                eager += [f"{path.name}:{n.lineno}" for n in ast.walk(node) if isinstance(n, ast.JoinedStr)]
    assert sites > 50 and eager == []


def test_a_trace_takes_a_tuple_as_it_is_and_copies_any_other_iterable():
    step = Step(StepKind.SET, "load 1", (1,), 1)
    steps = (step,)
    assert StepTrace(steps)._recorded is steps
    for given in ([step], iter(steps), {step: None}):
        trace = StepTrace(given)
        assert trace._recorded.__class__ is tuple and trace == StepTrace(steps)
        assert hash(trace) == hash(StepTrace(steps))
    for bad in (5, None, 1.5, 10**5000):
        with pytest.raises(ValueError, match="^steps must be an iterable of steps, got ") as exc:
            StepTrace(bad)
        assert len(str(exc.value)) <= 200


def test_only_a_template_description_is_formatted():
    # StepTrace checks nothing it is given: a description that is not a tuple,
    # a str subclass among them, passes through both readers unchanged
    class Text(str):
        pass

    for text in (Text("abc"), "abc", None, 7):
        trace = StepTrace((Step(StepKind.SET, text, (1,), 1),))
        assert trace.to_jsonable()[0]["description"] is text
        assert trace.steps[0].description is text
        # a plain tuple is read as a Step all the same
        step = StepTrace(((StepKind.SET, text, (1,), 1),)).steps[0]
        assert step.__class__ is Step and step.description is text
    trace = StepTrace((Step(StepKind.SET, ("load {}", Text("x")), (1,), 1),))
    assert trace.to_jsonable()[0]["description"] == "load x" == trace.steps[0].description
    # a template with its values reads the values only, whatever the step holds
    trace = StepTrace(((StepKind.ADD_CONST, ("{} and {}", "a", 9), (2, 3), 5),))
    assert trace.to_jsonable()[0]["description"] == "a and 9" == trace.steps[0].description


@pytest.mark.parametrize("template, text", [
    ("{0} + {1} = {2}", "2 + 3 = 5"),
    ("{2} is {0} plus {1}", "5 is 2 plus 3"),
    ("{} + {} = {}", "2 + 3 = 5"),
    ("sum of {0} and {1}", "sum of 2 and 3"),
    ("no fields", "no fields"),
], ids=["in-order", "result-first", "auto", "operands-only", "no-fields"])
def test_a_lone_template_reads_the_operands_then_the_result(template, text):
    # a 1-tuple names no values: its fields number the step's operands, then its result
    step = (StepKind.ADD_CONST, (template,), (2, 3), 5)
    assert StepTrace((step,)).to_jsonable()[0]["description"] == text
    assert StepTrace((step,)).steps[0] == (StepKind.ADD_CONST, text, (2, 3), 5)
    assert StepTrace((Step(*step),)).steps[0].description == text
    # one operand, and a field past the result, which a lone template cannot name
    assert StepTrace(((StepKind.HALVE, ("{0} / 2 = {1}",), (7,), 3),)).steps[0].description == "7 / 2 = 3"
    with pytest.raises(IndexError):
        StepTrace(((StepKind.HALVE, ("{2}",), (7,), 3),)).steps


def own_number_templates(traces) -> list[str]:
    """The templates recorded with values that, wherever the template is met, are only its step's own numbers.

    Such a step shows nothing its operands and result do not hold, so it
    should record a lone template instead.  A value may coincide with an
    operand in some years (a units digit equal to the tens digit), so a
    template is reported only when every step recording it holds nothing else.
    """
    own_only = {}
    for trace in traces:
        for kind, text, operands, result in trace._recorded:
            if text.__class__ is tuple and len(text) > 1:
                own = {*operands, result}
                alone = all(v.__class__ is int and v in own for v in text[1:])
                own_only[text[0]] = own_only.get(text[0], True) and alone
    return sorted(template for template, alone in own_only.items() if alone)


def test_no_recorded_values_are_only_the_steps_own_numbers():
    # every body and derivable spec in every year; a traced dow's assembly
    # records values on purpose (see `pipeline._build_trace`)
    traces = [body(y).trace for body, y in every_body()]
    assert own_number_templates(traces) == []
    # the guard sees a template that records only its step's own numbers
    halve = (StepKind.HALVE, ("halve: {} / 2 = {}", 70, 35), (70,), 35)
    assert own_number_templates(traces + [StepTrace((halve,))]) == ["halve: {} / 2 = {}"]
