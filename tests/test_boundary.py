"""Every value-taking entry point answers, or refuses in one short ValueError.

Each argument is drawn from ints of any size, floats, bools, str, bytes,
None and nested lists, mixed with values the entry point accepts, so that
both answers and refusals are reached.  A call must either answer, with a
repr that succeeds, or raise a ValueError subclass whose message is at most
MESSAGE_LIMIT characters.  Wrong arity is out of scope: every call passes
the arguments its signature names.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ydow.arith import SignConvention, check_year2, year_share
from ydow.dates import CivilDate, parse_date
from ydow.divisor import BUILTIN_DIVISOR_SPECS, DivisorSpec, NotRepresentableError, derive_divisor_formula, eval_divisor
from ydow.pipeline import PipelineId, dow
from ydow.registry import METHODS, cost_report, evaluate
from ydow.trace import CostModel, StepKind, StepTrace

MESSAGE_LIMIT = 200

ANY = st.recursive(
    st.one_of(
        st.integers(),
        st.integers(-(10**5000), 10**5000),
        st.floats(),
        st.booleans(),
        st.text(),
        st.binary(),
        st.none(),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


def mixed(*valid):
    """A value from ANY, or one of the valid values."""
    return st.one_of(ANY, st.sampled_from(valid))


SMALL = st.integers(-30, 3000)


def derivable(d, sign):
    try:
        return derive_divisor_formula(d, sign)
    except NotRepresentableError:
        return None


SPEC = st.sampled_from(
    [*BUILTIN_DIVISOR_SPECS.values()]
    + [spec for d in range(2, 29) for sign in SignConvention if (spec := derivable(d, sign))]
)
YEAR = st.one_of(ANY, SMALL)
METHOD_ID = mixed(*METHODS)
SIGN = mixed("pos", "neg")
KIND = st.one_of(st.sampled_from([k.value for k in StepKind]), st.text(), st.integers(), st.none())
WEIGHTS = st.one_of(ANY, st.dictionaries(KIND, st.one_of(ANY, st.integers(0, 10**5000)), max_size=3))

ENTRY_POINTS = {
    "CivilDate": (CivilDate, [st.one_of(ANY, SMALL)] * 3),
    "parse_date": (parse_date, [st.one_of(ANY, st.dates().map(str))]),
    "DivisorSpec": (DivisorSpec, [st.one_of(ANY, SMALL), SIGN] + [st.one_of(ANY, st.integers(-120, 120))] * 5),
    "derive_divisor_formula": (derive_divisor_formula, [st.one_of(ANY, SMALL), SIGN]),
    "eval_divisor": (eval_divisor, [SPEC, YEAR]),
    "CostModel": (CostModel, [st.one_of(ANY, st.text()), WEIGHTS]),
    "evaluate": (evaluate, [METHOD_ID, st.one_of(ANY, SMALL)]),
    "year_share": (year_share, [st.one_of(ANY, SMALL)]),
    "cost_report": (cost_report, [st.one_of(ANY, st.lists(METHOD_ID, max_size=3))]),
    # construction only: a trace's elements are not checked (see the StepTrace docstring)
    "StepTrace": (lambda steps: len(StepTrace(steps)), [ANY]),
    "dow": (
        lambda method_id, pipeline: dow(CivilDate(2000, 2, 29), method_id, pipeline),
        [METHOD_ID, mixed(*PipelineId, *[p.value for p in PipelineId])],
    ),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
@settings(deadline=None)
@given(data=st.data())
def test_any_value_is_answered_or_refused_in_one_short_message(name, data):
    func, strategies = ENTRY_POINTS[name]
    args = [data.draw(s, label=f"argument {i}") for i, s in enumerate(strategies)]
    try:
        answer = func(*args)
    except ValueError as exc:
        message = str(exc)
        assert len(message) <= MESSAGE_LIMIT, message
        return
    repr(answer)


@settings(deadline=None)
@given(spec=SPEC, y=YEAR)
def test_a_divisor_kernel_refuses_a_bad_year_as_check_year2_does(spec, y):
    try:
        check_year2(y)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            eval_divisor(spec, y)
        assert refused.type is ValueError and str(refused.value) == str(exc) and "\n" not in str(exc)
    else:
        assert eval_divisor(spec, y).raw == spec.value(y)


@pytest.mark.parametrize("y, message", [
    (100, "two-digit year must be in [0, 99], got 100"),
    (True, "two-digit year must be an integer, got True"),
    (5.0, "two-digit year must be an integer, got 5.0"),
    (10**5000, "two-digit year must be in [0, 99], got <int too large to show>"),
], ids=["100", "True", "5.0", "10**5000"])
def test_a_divisor_kernel_names_the_bad_year(y, message):
    for spec in BUILTIN_DIVISOR_SPECS.values():
        with pytest.raises(ValueError) as exc:
            eval_divisor(spec, y)
        assert str(exc.value) == message
