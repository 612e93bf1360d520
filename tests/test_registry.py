import re
from functools import partial

import pytest
from conftest import python_frames

from ydow import registry
from ydow._record import Record
from ydow.arith import SignConvention, mod7, normalize, year_share
from ydow.dates import CivilDate, daycount_weekday
from ydow.pipeline import dow
from ydow.registry import (
    METHODS,
    CostReportRow,
    MethodCategory,
    MethodDescriptor,
    UnknownMethodError,
    VerificationFailure,
    cost_report,
    evaluate,
    get_method,
    method_ids,
    verify_all,
    verify_method,
)
from ydow.trace import DEFAULT_COST_MODEL, CostModel, Step, StepKind, StepTrace

EXPECTED_IDS = [
    "odd11",
    "parity3",
    "div4",
    "div5",
    "div11",
    "div12",
    "div16",
    "div17",
    "eisele",
    "harringer",
    "digits-aa",
    "fong",
    "wang",
    "digits-ab",
]


def test_registry_is_closed_and_total():
    assert method_ids() == EXPECTED_IDS
    assert len(METHODS) == 14
    for mid, desc in METHODS.items():
        assert desc.id == mid
        assert callable(desc.func)
        assert desc.display_name and desc.citation


def test_categories():
    cats = {mid: METHODS[mid].category for mid in METHODS}
    assert cats["odd11"] is MethodCategory.SPECIAL
    assert cats["parity3"] is MethodCategory.SPECIAL
    for mid in ("div4", "div5", "div11", "div12", "div16", "div17"):
        assert cats[mid] is MethodCategory.DIVISOR
    for mid in ("eisele", "harringer", "digits-aa", "fong", "wang", "digits-ab"):
        assert cats[mid] is MethodCategory.DIGIT


def test_descriptor_convention_matches_function_output():
    for desc in METHODS.values():
        assert desc.func(17).convention is desc.convention, desc.id


def test_get_method_unknown():
    with pytest.raises(UnknownMethodError):
        get_method("zeller")


@pytest.mark.parametrize(
    "call",
    [
        get_method,
        lambda mid: evaluate(mid, 5),
        lambda mid: dow(CivilDate(2000, 1, 1), mid),
        verify_method,
        lambda mid: cost_report([mid]),
    ],
    ids=["get_method", "evaluate", "dow", "verify_method", "cost_report"],
)
def test_unhashable_ids_are_unknown_methods(call):
    with pytest.raises(UnknownMethodError, match="^" + re.escape("unknown method ['x'] (known: odd11, parity3,")):
        call(["x"])


def test_evaluate_dispatch_and_cache():
    a = evaluate("parity3", 37)
    b = evaluate("parity3", 37)
    assert a.raw == 17
    assert a is b  # cached, immutable


def test_evaluate_validates_year():
    with pytest.raises(ValueError):
        evaluate("odd11", 100)


def test_cross_method_consistency():
    for y in range(100):
        residues = {evaluate(mid, y).residue for mid in METHODS}
        assert residues == {year_share(y)}, y


def test_verify_method_passes_for_all_shipped_methods():
    for r in verify_all():
        assert r.total == 100
        assert r.passed, r.method_id
        assert r.failures == ()


def test_verify_report_json_shape():
    data = verify_method("wang").to_json_dict()
    assert data == {"method": "wang", "total": 100, "failures": [], "pass": True}


def corrupted_div11(y):
    # truncating division instead of flooring: wrong for negative inner sums
    q, r = divmod(y, 11)
    raw = r + int((r - q) / 4)
    return normalize(
        raw,
        SignConvention.POSITIVE,
        StepTrace((Step(StepKind.SET, f"bad value {raw}", (raw,), raw),)),
    )


def test_corrupted_method_is_caught(monkeypatch):
    bad = MethodDescriptor(
        "div11",
        "Division by 11 (broken)",
        MethodCategory.DIVISOR,
        SignConvention.POSITIVE,
        "negative control",
        corrupted_div11,
    )
    monkeypatch.setitem(METHODS, "div11", bad)
    report = verify_method("div11")
    assert not report.passed
    assert len(report.failures) == 31
    assert report.failures[0].y == 11
    for f in report.failures:
        assert f.expected == year_share(f.y)
        assert f.got == mod7(corrupted_div11(f.y).raw)


def test_corruption_does_not_leak_after_patch():
    # the cache is keyed on the function object, so the real div11 is intact
    assert verify_method("div11").passed


def test_cost_report_all_methods():
    rows = cost_report()
    assert [r.method_id for r in rows] == EXPECTED_IDS
    for r in rows:
        assert isinstance(r, CostReportRow)
        assert 0 < r.min_cost <= r.max_cost
        assert r.min_cost <= r.mean_cost <= r.max_cost
        assert r.max_magnitude > 0


def test_cost_report_empty_list():
    assert cost_report([]) == []


def test_cost_report_magnitudes():
    rows = {r.method_id: r for r in cost_report(["odd11", "parity3"])}
    assert rows["odd11"].max_magnitude == 110
    assert rows["parity3"].max_magnitude <= 99


def test_cost_report_is_deterministic():
    assert cost_report(["fong"]) == cost_report(["fong"])


def test_cost_report_respects_model():
    free = CostModel("free", {k: 0 for k in StepKind})
    rows = cost_report(["wang"], free)
    assert rows[0].min_cost == rows[0].max_cost == 0
    assert rows[0].mean_cost == 0.0


def _one_more_at(func, bad_y, y):
    """func's share, except one more for y == bad_y, with a step that adds it."""
    share = func(y)
    if y != bad_y:
        return share
    raw = share.raw + 1
    step = Step(StepKind.ADD_CONST, f"add one: {share.raw} + 1 = {raw}", (share.raw, 1), raw)
    return normalize(raw, share.convention, StepTrace(share.trace.steps + (step,)))


def test_swapped_method_gets_fresh_reports(monkeypatch):
    desc = METHODS["div11"]

    def reports():
        return verify_method("div11"), cost_report(["div11"])

    before = reports()
    with monkeypatch.context() as m:
        m.setitem(METHODS, "div11", desc._replace(func=partial(_one_more_at, desc.func, 37)))
        report, rows = reports()
    assert reports() == before

    want = year_share(37)
    assert report.failures == (VerificationFailure(37, want, (want + 1) % 7),)
    assert rows == [CostReportRow("div11", 9, 10, 9.01, 99)]
    assert before[1] == [CostReportRow("div11", 9, 9, 9.0, 99)]


def test_report_memos_stay_bounded(monkeypatch):
    bound = registry._MAX_MEMOS
    desc = METHODS["odd11"]
    for _ in range(bound + 5):
        # a new function object each time, as a caller swapping entries makes
        monkeypatch.setitem(METHODS, "odd11", desc._replace(func=partial(desc.func)))
        assert verify_method("odd11").passed
        assert cost_report(["odd11"]) == [CostReportRow("odd11", 4, 4, 4.0, 110)]
        assert len(registry._MEMOS) <= bound
    monkeypatch.undo()
    assert all(r.passed for r in verify_all())
    assert cost_report(["odd11"]) == [CostReportRow("odd11", 4, 4, 4.0, 110)]


def test_warm_reports_build_no_record(monkeypatch):
    cold = verify_all(), cost_report()
    built = []
    real_init = Record.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self.__class__.__name__)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Record, "__init__", counting_init)
    warm = verify_all(), cost_report()
    monkeypatch.undo()
    assert built == []  # the memos hold the records themselves
    assert warm == cold


def test_one_memo_per_function(monkeypatch):
    registry._cached_eval.cache_clear()  # so the three new memos evict none
    swapped = {"div11": 37, "fong": 5, "wang": 99}  # positive shares: one more raw is one more residue
    for mid, bad_y in swapped.items():
        desc = METHODS[mid]
        func = partial(_one_more_at, desc.func, bad_y)
        monkeypatch.setitem(METHODS, mid, desc._replace(func=func))
        want = year_share(bad_y)
        assert evaluate(mid, bad_y).residue == (want + 1) % 7
        cd = CivilDate(2000 + bad_y, 3, 1)
        assert dow(cd, mid, with_trace=False).weekday == (daycount_weekday(cd) + 1) % 7
        assert verify_method(mid).failures == (VerificationFailure(bad_y, want, (want + 1) % 7),)
        costs = [DEFAULT_COST_MODEL.cost(func(y).trace) for y in range(100)]
        magnitude = max(func(y).trace.max_magnitude() for y in range(100))
        assert cost_report([mid]) == [CostReportRow(mid, min(costs), max(costs), sum(costs) / 100, magnitude)]
    assert set(registry._MEMOS) == {METHODS[mid].func for mid in swapped}

    reports = verify_all()
    registry._cached_eval.cache_clear()
    assert registry._MEMOS == {}
    again = verify_all()
    assert again == reports
    assert all(new is not old for new, old in zip(again, reports))  # built again, not kept


def test_reports_keep_their_records_and_no_result():
    # verify_all and cost_report evaluate each method over y = 0..99 and keep only the record they build
    registry._cached_eval.cache_clear()
    reports, rows = verify_all(), cost_report()
    assert set(registry._MEMOS) == {desc.func for desc in METHODS.values()}
    for desc, report, row in zip(METHODS.values(), reports, rows):
        memo = registry._MEMOS[desc.func]
        assert memo[0] == [None] * 100
        assert memo[2] is report and memo[3][1] is row
        assert memo[3][0] == (desc.id, DEFAULT_COST_MODEL)


def test_evaluate_and_a_traced_dow_keep_the_results_they_hand_out():
    # a traced dow shows its method's steps from the memoised result, which formats their text once
    registry._cached_eval.cache_clear()
    share = evaluate("wang", 37)
    trace = dow(CivilDate(1959, 6, 15), "wang").trace
    kept = registry._MEMOS[METHODS["wang"].func][0]
    assert kept[37] is share and kept.count(None) == 98
    assert trace.steps[:len(kept[59].trace)] == kept[59].trace.steps


def test_warm_cost_report_does_not_compare_the_same_model(monkeypatch):
    rows = cost_report()

    def no_eq(self, other):
        raise AssertionError("a warm report compared the model it was handed")

    monkeypatch.setattr(CostModel, "__eq__", no_eq)
    assert cost_report(model=DEFAULT_COST_MODEL) == rows


@pytest.mark.parametrize("ids", ["odd11", "", 5, 1.5, True], ids=["str", "empty-str", "int", "float", "bool"])
def test_cost_report_refuses_ids_that_are_not_a_list(ids):
    with pytest.raises(ValueError, match=r"^ids must be a list of method ids, got "):
        cost_report(ids)


def test_unknown_method_message_stays_short():
    with pytest.raises(UnknownMethodError) as exc:
        get_method("x" * 1000)
    assert str(exc.value).startswith("unknown method '" + "x" * 59 + "...")
    assert len(str(exc.value)) <= 200


DIGIT_SPLITTERS = {"digits-aa", "fong", "wang", "digits-ab"}


@pytest.mark.parametrize("mid", list(METHODS))
def test_a_method_body_runs_four_python_frames(mid):
    # its floors and splits are Python's `//`, `%` and `divmod`, so the body
    # calls only the year check, the trace constructor and the residue rule;
    # a derived spec's kernel calls the year check only on a bad year, and
    # the digit methods also call `_digit_split`
    func = METHODS[mid].func
    func(0)  # a derived spec takes its shape's kernel on its first evaluation
    if isinstance(func, partial):
        want = ["eval_divisor", "kernel", "traced", "normalize"]
    else:
        want = [func.__name__, "check_year2", "traced", "normalize"]
        if mid in DIGIT_SPLITTERS:
            want.insert(2, "_digit_split")
    for y in (0, 37, 59, 99):
        assert python_frames(func, y) == want, y
