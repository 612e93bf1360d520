import ast
import copy
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import python_frames

import ydow
from ydow import divisor
from ydow._record import ECHO_LIMIT
from ydow.arith import SignConvention, check_year2, mod7, normalize, year_share
from ydow.divisor import (
    BUILTIN_DIVISOR_SPECS,
    DivisorSpec,
    NotRepresentableError,
    derive_divisor_formula,
    div4,
    div12,
    eval_divisor,
)
from ydow.trace import (
    ADD_CONST, DIV_SPLIT, MUL_SMALL, QUARTER_FLOOR, SET, SIGN_FLIP, SUB_CONST, StepKind, StepTrace,
)

POS = SignConvention.POSITIVE
NEG = SignConvention.NEGATIVE


def spec_residue(spec, y):
    v = spec.value(y)
    return mod7(v) if spec.convention is POS else mod7(-v)


def test_builtin_table_shape():
    assert sorted(BUILTIN_DIVISOR_SPECS) == [4, 5, 11, 12, 16, 17]
    for d, spec in BUILTIN_DIVISOR_SPECS.items():
        assert spec.d == d


def test_builtin_specs_exhaustive():
    for d, spec in BUILTIN_DIVISOR_SPECS.items():
        for y in range(100):
            assert spec_residue(spec, y) == year_share(y), (d, y)


def test_dozens_rule_is_a_positive_share():
    # q + r + floor(r/4) lands in the same class as the share itself, not
    # its negative; y=1 settles it (value 1, share 1)
    spec = BUILTIN_DIVISOR_SPECS[12]
    assert spec.convention is POS
    assert spec.value(1) == 1 and year_share(1) == 1


def test_formula_text():
    assert BUILTIN_DIVISOR_SPECS[4].formula() == "2q - r"
    assert BUILTIN_DIVISOR_SPECS[5].formula() == "q - r - floor((q + r)/4)"
    assert BUILTIN_DIVISOR_SPECS[11].formula() == "r + floor((-q + r)/4)"
    assert BUILTIN_DIVISOR_SPECS[12].formula() == "q + r + floor(r/4)"
    assert BUILTIN_DIVISOR_SPECS[16].formula() == "-q + r + floor(r/4)"
    assert BUILTIN_DIVISOR_SPECS[17].formula() == "r + floor((q + r)/4)"


def test_formula_is_the_text_its_trace_names():
    # every spec of the grid; the floor term and the last running sum of
    # the trace are written exactly as formula() writes them
    grid = range(-2, 3)
    for cq, cr, iq, ir, cf in itertools.product(grid, grid, grid, grid, (-1, 1)):
        spec = DivisorSpec(7, POS, cq, cr, cf, iq, ir)
        text = spec.formula()
        steps = eval_divisor(spec, 37).trace.steps
        (floor_step,) = [s for s in steps if s.kind is StepKind.QUARTER_FLOOR]
        assert floor_step.description.split(" = ")[0] in text, (spec, text)
        if steps[-1].kind in (StepKind.ADD_CONST, StepKind.SUB_CONST):
            assert steps[-1].description.startswith(f"{text}: "), (spec, text)
    degenerate = DivisorSpec(7, POS, 1, 1, 1, 0, 0)
    assert degenerate.formula() == "q + r + floor(0/4)"
    assert eval_divisor(degenerate, 37).trace.steps[1].description == "floor(0/4) = floor(0/4) = 0"
    assert DivisorSpec(7, POS, 0, 0, 0, 0, 0).formula() == "0"


def test_to_json_dict_keys():
    data = BUILTIN_DIVISOR_SPECS[12].to_json_dict()
    assert data == {
        "d": 12,
        "sign": "pos",
        "alpha": 1,
        "beta": 1,
        "gamma": 1,
        "delta_q": 0,
        "delta_r": 1,
    }


def test_a_spec_value_runs_two_python_frames():
    for spec in BUILTIN_DIVISOR_SPECS.values():
        for y in (0, 59, 99):
            assert python_frames(spec.value, y) == ["value", "check_year2"], (spec, y)


@pytest.mark.parametrize("y", [-1, 100, 3.5, "12", None, True])
def test_div4_div12_and_a_spec_value_refuse_a_bad_year_as_check_year2_does(y):
    with pytest.raises(ValueError) as want:
        check_year2(y)
    for func in (div4, div12, BUILTIN_DIVISOR_SPECS[5].value, BUILTIN_DIVISOR_SPECS[12].value):
        with pytest.raises(ValueError) as got:
            func(y)
        assert str(got.value) == str(want.value), func


def test_eval_divisor_traces_replay():
    for spec in BUILTIN_DIVISOR_SPECS.values():
        for y in range(100):
            res = eval_divisor(spec, y)
            assert res.raw == spec.value(y)
            assert res.trace.replay() == res.raw


def test_eval_divisor_negative_inner_quantity():
    # d=11 at y=95: q=8, r=7, inner -q + r = -1, floored quarter is -1
    res = eval_divisor(BUILTIN_DIVISOR_SPECS[11], 95)
    assert res.raw == 6
    assert any(s.result == -1 and s.kind.value == "quarter_floor" for s in res.trace.steps)


def test_div4_wrapper():
    for y in range(100):
        res = div4(y)
        assert res.raw == BUILTIN_DIVISOR_SPECS[4].value(y)
        assert res.convention is NEG
        assert res.trace.replay() == res.raw
    assert len(div4(87).trace.steps) == 3


def test_div12_wrapper():
    for y in range(100):
        res = div12(y)
        assert res.raw == BUILTIN_DIVISOR_SPECS[12].value(y)
        assert res.convention is POS
        assert res.trace.replay() == res.raw
    # 61 = 5*12 + 1: 5 + 1 + 0
    assert div12(61).raw == 6


def test_derive_reproduces_builtin_table():
    for d, spec in BUILTIN_DIVISOR_SPECS.items():
        assert derive_divisor_formula(d, spec.convention) == spec, d


def test_derive_both_signs_are_termwise_negations():
    for d in (3, 4, 5, 11, 12, 16, 17, 25, 28):
        pos = derive_divisor_formula(d, POS)
        neg = derive_divisor_formula(d, NEG)
        assert (neg.coef_q, neg.coef_r, neg.coef_floor) == (
            -pos.coef_q,
            -pos.coef_r,
            -pos.coef_floor,
        )
        assert (neg.inner_q, neg.inner_r) == (pos.inner_q, pos.inner_r)


def test_derived_specs_verify_exhaustively():
    for d in range(2, 29):
        for conv in (POS, NEG):
            try:
                spec = derive_divisor_formula(d, conv)
            except NotRepresentableError:
                continue
            for y in range(100):
                assert spec_residue(spec, y) == year_share(y), (d, conv, y)


def search_divisor_formula(d, convention):
    """The search the closed form replaced: every a in -9..9 and b in -1..1 with
    4a + b = 5d (mod 28), the smallest max(|a|, |b|) first, then the smallest |a|."""
    target = (5 * d) % 28
    candidates = sorted(
        (max(abs(a), abs(b)), abs(a), a, b) for b in (-1, 0, 1) for a in range(-9, 10) if (4 * a + b) % 28 == target
    )
    if not candidates:
        raise NotRepresentableError(
            f"divisor {d}: no formula with inner q-coefficient in -1..1 "
            f"(5*{d} is 2 mod 4, so the inner coefficient would need magnitude 2)"
        )
    _, _, a, b = candidates[0]
    sign = 1 if convention is POS else -1
    if b == 0 and d <= 4:
        return DivisorSpec(d, convention, sign * a, sign, 0, 0, 0)
    return DivisorSpec(d, convention, sign * a, sign, sign, b, 1)


def outcome(derive, d, convention):
    try:
        return derive(d, convention)
    except NotRepresentableError as exc:
        return str(exc)


def test_the_closed_form_derivation_equals_the_search():
    inputs = [(d, conv) for d in range(2, 29) for conv in (POS, NEG)]
    assert len(inputs) == 54
    for d, conv in inputs:
        assert outcome(derive_divisor_formula, d, conv) == outcome(search_divisor_formula, d, conv), (d, conv)
    assert sum(isinstance(outcome(derive_divisor_formula, d, conv), str) for d, conv in inputs) == 14


def test_not_representable_divisors():
    # 5d = 2 mod 4 exactly when d = 2 mod 4; no inner coefficient in
    # {-1,0,1} can make up a parity-2 defect
    for d in range(2, 29):
        if d % 4 == 2:
            with pytest.raises(NotRepresentableError):
                derive_divisor_formula(d, POS)
        else:
            derive_divisor_formula(d, POS)


def test_derive_rejects_out_of_range_divisor():
    with pytest.raises(ValueError):
        derive_divisor_formula(1, POS)
    with pytest.raises(ValueError):
        derive_divisor_formula(29, POS)
    # not an int: refused before the range check, the value echoed
    for d, shown in [(5.0, "5.0"), (1.0, "1.0"), (True, "True"), ("7", "'7'"), (None, "None")]:
        with pytest.raises(ValueError) as exc:
            derive_divisor_formula(d, "pos")
        assert str(exc.value) == f"divisor must be an integer, got {shown}"


def test_spec_validation():
    with pytest.raises(ValueError):
        DivisorSpec(1, POS, 1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        DivisorSpec(5, POS, 1, 1, 2, 0, 1)
    # d and the five coefficients must be ints, not bools, checked before any range
    fields = [5, NEG, 1, -1, -1, 1, 1]
    names = ["divisor", None, "coef_q", "coef_r", "coef_floor", "inner_q", "inner_r"]
    for i in (0, 2, 3, 4, 5, 6):
        for bad, shown in [(5.5, "5.5"), (1.0, "1.0"), (True, "True"), (False, "False"), ("7", "'7'"), (None, "None")]:
            args = fields[:i] + [bad] + fields[i + 1:]
            with pytest.raises(ValueError) as exc:
                DivisorSpec(*args)
            assert str(exc.value) == f"{names[i]} must be an integer, got {shown}"


@pytest.mark.parametrize("field", [2, 3, 5, 6], ids=["coef_q", "coef_r", "inner_q", "inner_r"])
def test_spec_coefficients_are_bounded(field):
    names = {2: "coef_q", 3: "coef_r", 5: "inner_q", 6: "inner_r"}
    fields = [5, POS, 1, 1, 1, 1, 1]
    for value in (99, -99):
        DivisorSpec(*fields[:field], value, *fields[field + 1:])  # fine
    for value, shown in [(100, "100"), (-100, "-100"), (10**5000, "<int too large to show>")]:
        with pytest.raises(ValueError) as exc:
            DivisorSpec(*fields[:field], value, *fields[field + 1:])
        assert str(exc.value) == f"{names[field]} must be in [-99, 99], got {shown}"


def test_spec_divisor_is_bounded():
    # every y is below 100, so a divisor past 100 would split every year as 100 does
    for d in (99, 100):
        spec = DivisorSpec(d, POS, 1, 1, 1, 1, 1)
        for y in range(100):
            res = eval_divisor(spec, y)
            assert res.raw == spec.value(y) == res.trace.replay()
            if d == 100:
                assert spec.value(y) == y + y // 4  # q = 0, r = y
    for d, shown in [(1, "1"), (101, "101"), (10**5000, "<int too large to show>")]:
        with pytest.raises(ValueError) as exc:
            DivisorSpec(d, POS, 1, 1, 1, 1, 1)
        assert str(exc.value) == f"divisor must be in [2, 100], got {shown}"


def test_sign_convention_given_as_text():
    # "pos" and "neg" mean the members they name, once converted
    for conv in (POS, NEG):
        spec = derive_divisor_formula(11, conv.value)
        assert spec == derive_divisor_formula(11, conv) and spec.convention is conv
    assert derive_divisor_formula(11, "pos").formula() == "r + floor((-q + r)/4)"
    spec = DivisorSpec(11, "pos", 0, 1, 1, -1, 1)
    assert spec == BUILTIN_DIVISOR_SPECS[11] and spec.convention is POS
    assert [eval_divisor(spec, y).residue for y in range(100)] == [year_share(y) for y in range(100)]
    assert spec._replace(convention="neg").convention is NEG


@pytest.mark.parametrize(
    "value", ["x", "POS", "positive", 1, None, ["pos"], "p" * 5000],
    ids=["x", "POS", "positive", "int", "None", "list", "long"],
)
def test_unknown_sign_convention_is_rejected(value):
    with pytest.raises(ValueError, match="is not a valid SignConvention") as exc:
        derive_divisor_formula(11, value)
    assert len(str(exc.value)) < 2 * ECHO_LIMIT
    with pytest.raises(ValueError, match="is not a valid SignConvention"):
        DivisorSpec(11, value, 0, 1, 1, -1, 1)


def reference_eval(spec, y):
    """An op-by-op interpreter of the spec's seven fields; it reads nothing of the compiled plan.

    After the split it records each sum, the inner one under the floor and
    then the outer one, left to right over its non-zero terms.  A leading
    term starts the sum as coef*value: as it is for 1, by a SIGN_FLIP for
    -1, else by a MUL_SMALL.  A later term is taken |coef| times (a
    MUL_SMALL unless |coef| is 1) and added or subtracted by its sign.  The
    inner sum, parenthesised when it has two terms, is floored by four in a
    QUARTER_FLOOR step.  Each template is a lone template naming the sum's
    text so far, as the trace shows it.
    """
    d = spec.d
    q, r = y // d, y % d
    steps = [(DIV_SPLIT, ("split {0} = {1}*{2} + {3} (q={2}, r={3})", y, d, q, r), (y, d), q)]

    def fold(terms):
        text, acc = "", 0
        for coef, val, sym in terms:
            if coef == 0:
                continue
            mag = abs(coef)
            term = sym if mag == 1 else f"{mag}{sym}"
            if not text:
                acc = coef * val
                if coef == -1:
                    steps.append((SIGN_FLIP, (f"-{sym} = {{1}}",), (val,), acc))
                elif coef != 1:
                    steps.append((MUL_SMALL, (f"{coef}*{sym} = {{2}}",), (coef, val), acc))
                text = term if coef > 0 else f"-{term}"
                continue
            operand = mag * val
            if mag != 1:
                steps.append((MUL_SMALL, (f"{mag}*{sym} = {{2}}",), (mag, val), operand))
            if coef > 0:
                text, new = f"{text} + {term}", acc + operand
                steps.append((ADD_CONST, (f"{text}: {{0}} + {{1}} = {{2}}",), (acc, operand), new))
            else:
                text, new = f"{text} - {term}", acc - operand
                steps.append((SUB_CONST, (f"{text}: {{0}} - {{1}} = {{2}}",), (acc, operand), new))
            acc = new
        return text or "0", acc

    terms = [(spec.coef_q, q, "q"), (spec.coef_r, r, "r")]
    if spec.coef_floor != 0:
        inner_text, inner = fold([(spec.inner_q, q, "q"), (spec.inner_r, r, "r")])
        if spec.inner_q and spec.inner_r:
            inner_text = f"({inner_text})"
        f = inner // 4
        steps.append((QUARTER_FLOOR, (f"floor({inner_text}/4) = floor({{0}}/4) = {{1}}",), (inner,), f))
        terms.append((spec.coef_floor, f, f"floor({inner_text}/4)"))
    _, acc = fold(terms)
    if steps[-1][3] != acc:
        # degenerate single-term formula; pin the final value explicitly
        steps.append((SET, ("value is {0}",), (acc,), acc))
    return normalize(acc, spec.convention, StepTrace(tuple(steps)))


def derivable_specs():
    specs = []
    for d in range(2, 29):
        for conv in (POS, NEG):
            try:
                specs.append(derive_divisor_formula(d, conv))
            except NotRepresentableError:
                pass
    return specs


# Every coefficient class (zero, 1, -1, another positive, another negative)
# for each of the four outer and inner coefficients, and every floor
# coefficient: every shape a spec can have.
GRID = [(cq, cr, cf, iq, ir) for cq, cr, iq, ir in itertools.product(range(-2, 3), repeat=4) for cf in (-1, 0, 1)]

# The names a kernel's source may use: its own locals, one per op datum,
# product and sum (six ops at most), and the globals it is given.
KERNEL_NAMES = (
    {"y", "params", "d", "conv", "q", "r", "f", "steps"}
    | {f"{prefix}{i}" for prefix in "tmcps" for i in range(6)}
    | {"int", "check_year2", "traced", "SPLIT", "PIN"}
    | {kind.name for kind in StepKind}
)


def recorded_alike(got, want):
    return got.trace._recorded == want.trace._recorded and got[:3] == want[:3]


def test_kernels_equal_the_reference_and_compile_once_per_shape(monkeypatch):
    # one fresh cache, and every source a kernel is compiled from
    sources = []
    real_source = divisor._kernel_source

    def kept_source(shape):
        sources.append(real_source(shape))
        return sources[-1]

    monkeypatch.setattr(divisor, "_KERNELS", {})
    monkeypatch.setattr(divisor, "_kernel_source", kept_source)
    specs = [DivisorSpec(7, POS, *coefs) for coefs in GRID]
    specs += [DivisorSpec(7, NEG, *coefs) for coefs in GRID[::25]]
    specs += derivable_specs() + [spec._replace() for spec in BUILTIN_DIVISOR_SPECS.values()]
    plans = {spec: divisor._compile_plan(spec) for spec in specs}
    # the recorded tuples, read before `.steps`, decide the formatted steps;
    # comparing whole results, which formats them, is kept to the specs users
    # meet.  Specs with equal plans (those with no floor term differ only in
    # their unused inner coefficients) give the kernel equal input; one of
    # each runs.
    ran = {plan: spec for spec, plan in plans.items()}.values()
    assert [
        (spec, y) for spec in ran for y in range(100)
        if not recorded_alike(eval_divisor(spec, y), reference_eval(spec, y))
    ] == []
    for spec in specs[-46:]:
        assert [eval_divisor(spec, y) for y in range(100)] == [reference_eval(spec, y) for y in range(100)], spec
    shapes = {shape for shape, _, _ in plans.values()}
    assert len(shapes) == 741
    assert set(divisor._KERNELS) == shapes and len(sources) == len(shapes)
    # every spec that ran holds its shape's one kernel and its plan's params
    for spec in ran:
        shape, params, _ = plans[spec]
        assert spec._run[0] is divisor._KERNELS[shape] and spec._run[1] == params
    for source in sources:
        nodes = list(ast.walk(ast.parse(source)))
        assert {type(n.value) for n in nodes if isinstance(n, ast.Constant)} <= {int, type(None)}, source
        assert {n.id for n in nodes if isinstance(n, ast.Name)} <= KERNEL_NAMES, source
        assert not any(isinstance(n, ast.JoinedStr) for n in nodes), source
    # a spec of a shape already seen compiles nothing, whatever its divisor and coefficients
    other = DivisorSpec(23, NEG, 9, -5, 1, 3, -1)
    assert eval_divisor(other, 99) == reference_eval(other, 99)
    assert len(sources) == len(shapes)


def test_the_builtin_and_derived_specs_use_24_shapes():
    specs = derivable_specs() + list(BUILTIN_DIVISOR_SPECS.values())
    assert len(specs) == 46 and len({divisor._compile_plan(spec)[0] for spec in specs}) == 24


def test_a_new_spec_takes_its_shapes_kernel_when_it_is_compiled(monkeypatch):
    monkeypatch.setattr(divisor, "_KERNELS", {})
    first = DivisorSpec(19, POS, 3, -2, 1, 1, -1)
    assert not hasattr(first, "_run")  # no kernel of its shape yet
    eval_divisor(first, 57)
    kernel = first._run[0]
    assert list(divisor._KERNELS.values()) == [kernel]
    # a spec of the same shape, built afterwards, and each copy of it take it on their first evaluation
    second = DivisorSpec(23, NEG, 5, -4, 1, 1, -1)
    assert divisor._compile_plan(second)[0] == divisor._compile_plan(first)[0]
    for spec in (second, second._replace(), pickle.loads(pickle.dumps(second))):
        assert not hasattr(spec, "_run")
        assert eval_divisor(spec, 57) == reference_eval(spec, 57)
        assert spec._run == (kernel, divisor._compile_plan(spec)[1])
    assert len(divisor._KERNELS) == 1
    # a spec of another shape waits for its first evaluation
    other = DivisorSpec(23, NEG, 5, -4, 0, 0, 0)
    assert not hasattr(other, "_run")


def test_a_spec_holds_one_private_slot_that_only_eval_divisor_writes():
    assert DivisorSpec.__slots__ == (*DivisorSpec._fields, "_run")
    tree = ast.parse(Path(divisor.__file__).read_text(encoding="utf-8"))
    users = {
        func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func) if isinstance(node, ast.Constant) and node.value == "_run"
    }
    assert users == {"eval_divisor"}


def test_a_spec_compiles_nothing_until_its_first_evaluation(monkeypatch):
    compiled = []
    real_plan = divisor._compile_plan

    def counted_plan(spec):
        compiled.append(spec)
        return real_plan(spec)

    monkeypatch.setattr(divisor, "_KERNELS", {})
    monkeypatch.setattr(divisor, "_compile_plan", counted_plan)
    spec = derive_divisor_formula(19, "neg")
    built = [
        spec, DivisorSpec(19, NEG, 1, -1, -1, 1, 1), spec._replace(), spec._replace(coef_q=3),
        copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec)),
    ]
    assert compiled == []
    assert spec.formula() == "-3q - r - floor((-q + r)/4)" and spec.to_json_dict()["alpha"] == -3
    assert compiled == [spec]  # formula() compiles the plan for its text and keeps nothing
    for each in built:
        assert not hasattr(each, "_run"), each
    assert divisor._KERNELS == {}
    # an evaluated spec's copies start without its state
    eval_divisor(spec, 37)
    assert len(divisor._KERNELS) == 1
    for each in (spec._replace(), copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert each == spec and not hasattr(each, "_run")


def test_import_ydow_compiles_no_kernel():
    src = Path(ydow.__file__).resolve().parent.parent
    code = (
        "import ydow, ydow.divisor as dv; "
        "print(len(dv._KERNELS), sum(hasattr(s, '_run') for s in dv.BUILTIN_DIVISOR_SPECS.values()))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == ["0", "0"]  # no kernel, and no built-in spec has run
