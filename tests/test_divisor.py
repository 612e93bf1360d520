import itertools

import pytest

from ydow._record import ECHO_LIMIT
from ydow.arith import SignConvention, mod7, year_share
from ydow.divisor import (
    BUILTIN_DIVISOR_SPECS,
    DivisorSpec,
    NotRepresentableError,
    derive_divisor_formula,
    div4,
    div12,
    divmod_split,
    eval_divisor,
)
from ydow.trace import StepKind

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


def test_divmod_split():
    assert divmod_split(59, 12) == (4, 11)
    assert divmod_split(3, 4) == (0, 3)
    with pytest.raises(ValueError):
        divmod_split(10, 1)
    with pytest.raises(ValueError):
        divmod_split(100, 4)


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
