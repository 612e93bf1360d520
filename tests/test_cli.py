import contextlib
import datetime
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ydow
from ydow._record import ECHO_LIMIT, echo
from ydow.arith import SignConvention, normalize
from ydow.cli import main
from ydow.dates import CivilDate
from ydow.divisor import NotRepresentableError, derive_divisor_formula
from ydow.pipeline import PipelineId, dow
from ydow.registry import (
    METHODS,
    MethodCategory,
    MethodDescriptor,
    cost_report,
    evaluate,
    verify_method,
)
from ydow.trace import DEFAULT_COST_MODEL, DEFAULT_WEIGHTS, CostModel, Step, StepKind, StepTrace


SRC = str(Path(ydow.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage: ydow" in out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_compute_text(capsys):
    code, out, _ = run(capsys, "compute", "--year", "59", "--method", "wang")
    assert code == 0
    assert "raw: 3" in out
    assert "sign: pos" in out
    assert "positive residue: 3" in out


def test_compute_json(capsys):
    code, data, _ = run_json(capsys, "compute", "--year", "87", "--method", "digits-ab", "--json")
    assert code == 0
    assert data == {
        "method": "digits-ab",
        "year": 87,
        "raw": 4,
        "sign": "neg",
        "residue": 3,
        "negative_residue": 4,
    }


def test_compute_unknown_method_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["compute", "--year", "59", "--method", "zeller"])
    assert e.value.code == 2


def test_compute_year_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--year", "100", "--method", "odd11")
    assert code == 2
    assert "error:" in err


def test_explain_text(capsys):
    code, out, _ = run(capsys, "explain", "--year", "99", "--method", "odd11")
    assert code == 0
    assert "1." in out and "4." in out
    assert "result: 66" in out
    assert "negative share" in out


def test_explain_json(capsys):
    code, data, _ = run_json(capsys, "explain", "--year", "37", "--method", "parity3", "--json")
    assert code == 0
    assert data["raw"] == 17
    assert len(data["steps"]) == 4
    assert all({"kind", "description", "operands", "result"} <= set(s) for s in data["steps"])


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 0
    assert out.count("pass (100/100)") == 14
    assert "all methods pass" in out


def test_verify_default_is_all(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.count("pass") >= 14


def test_verify_single_method_json(capsys):
    code, data, _ = run_json(capsys, "verify", "--method", "eisele", "--json")
    assert code == 0
    assert data == [{"method": "eisele", "total": 100, "failures": [], "pass": True}]


def _truncating_div11(y):
    q, r = divmod(y, 11)
    raw = r + int((r - q) / 4)
    return normalize(
        raw,
        SignConvention.POSITIVE,
        StepTrace((Step(StepKind.SET, f"value {raw}", (raw,), raw),)),
    )


def test_verify_corrupted_build_exits_1(capsys, monkeypatch):
    bad = MethodDescriptor(
        "div11",
        "Division by 11 (broken)",
        MethodCategory.DIVISOR,
        SignConvention.POSITIVE,
        "negative control",
        _truncating_div11,
    )
    monkeypatch.setitem(METHODS, "div11", bad)
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 1
    assert "div11: FAIL" in out
    assert "y=11" in out

    code, data, _ = run_json(capsys, "verify", "--method", "div11", "--json")
    assert code == 1
    assert data[0]["pass"] is False
    assert len(data[0]["failures"]) == 31
    assert data[0]["failures"][0] == {"y": 11, "expected": 6, "got": 0}


def test_derive_json_schema(capsys):
    code, data, _ = run_json(capsys, "derive", "--divisor", "12", "--sign", "pos", "--json")
    assert code == 0
    assert data == {
        "d": 12,
        "sign": "pos",
        "alpha": 1,
        "beta": 1,
        "gamma": 1,
        "delta_q": 0,
        "delta_r": 1,
    }


def test_derive_negative_sign(capsys):
    code, data, _ = run_json(capsys, "derive", "--divisor", "12", "--sign", "neg", "--json")
    assert code == 0
    assert (data["alpha"], data["beta"], data["gamma"]) == (-1, -1, -1)


def test_derive_text(capsys):
    code, out, _ = run(capsys, "derive", "--divisor", "4", "--sign", "neg")
    assert code == 0
    assert "2q - r" in out


def test_derive_not_representable_exits_1(capsys):
    code, out, _ = run(capsys, "derive", "--divisor", "6", "--sign", "pos")
    assert code == 1
    assert "not representable" in out

    code, data, _ = run_json(capsys, "derive", "--divisor", "2", "--sign", "pos", "--json")
    assert code == 1
    assert data["error"]


def test_derive_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "derive", "--divisor", "30", "--sign", "pos")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--year", "７", "--method", "odd11"),  # full-width 7
        ("compute", "--year", "1_0", "--method", "odd11"),
        ("derive", "--divisor", "١١", "--sign", "pos"),  # Arabic-Indic 11
        ("derive", "--divisor", "1" * 5000, "--sign", "pos"),  # past int()'s digit limit
    ],
    ids=["full-width", "underscore", "arabic-indic", "too-many-digits"],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(f"error: argument {argv[1]}: invalid int value: {echo(argv[2])}")


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--method", "div12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y,raw,residue"
    assert len(lines) == 101
    assert lines[62] == "61,6,6"  # 61 = 5 dozens + 1, no fours


def test_table_json(capsys):
    code, data, _ = run_json(capsys, "table", "--method", "odd11", "--format", "json")
    assert code == 0
    assert len(data) == 100
    assert data[99] == {"y": 99, "raw": 66, "residue": 4}


def test_table_requires_format(capsys):
    with pytest.raises(SystemExit) as e:
        main(["table", "--method", "odd11"])
    assert e.value.code == 2


def test_cost_csv_all(capsys):
    code, out, _ = run(capsys, "cost", "--all", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,min_cost,max_cost,mean_cost,max_magnitude"
    assert len(lines) == 15


def test_cost_single_json(capsys):
    code, data, _ = run_json(capsys, "cost", "--method", "parity3", "--format", "json")
    assert code == 0
    assert data["model"] == "default"
    (row,) = data["rows"]
    assert row["method"] == "parity3"
    assert row["max_magnitude"] <= 99


def test_cost_custom_model(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "flat", "weights": {k.value: 1 for k in StepKind}}))
    code, data, _ = run_json(capsys, "cost", "--method", "odd11", "--model", str(path), "--format", "json")
    assert code == 0
    assert data["model"] == "flat"
    # odd11 always takes four steps, each weighted 1
    assert data["rows"][0]["min_cost"] == data["rows"][0]["max_cost"] == 4


def _one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: ")
    return lines[0]


def test_cost_missing_model_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "cost", "--all", "--model", str(tmp_path / "absent.json"), "--format", "csv")
    assert code == 2
    assert out == ""
    assert "cannot read cost model" in _one_error_line(err)


def test_cost_empty_model_path_exits_2(capsys):
    # an empty path names no file; it does not fall back to the default model
    code, out, err = run(capsys, "cost", "--model", "", "--format", "csv")
    assert (code, out) == (2, "")
    assert _one_error_line(err) == "error: cannot read cost model '': No such file or directory"


def test_a_closed_stdout_exits_141_without_a_traceback():
    # the pipe has no reader from the start, as when `| head -1` has already exited
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ydow.cli", "table", "--method", "wang", "--format", "csv"],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize(
    "content, message",
    [
        ("[1, 2]", "must be a JSON object, got list"),
        ("{", "is not valid JSON"),
        ('{"weights": [["halve", 1]]}', "weights must be an object, got list"),
        ('{"weights": {"halve": 1.5}}', "weight for 'halve' must be an integer, got 1.5"),
        ('{"weights": {"halve": true}}', "weight for 'halve' must be an integer, got True"),
        ('{"weights": {"halve": "2"}}', "weight for 'halve' must be an integer, got '2'"),
        ('{"weights": {"halve": -1}}', "negative weight for halve"),
        ('{"weights": {"guess": 1}}', "'guess' is not a valid StepKind"),
        ("[" * 100_000, "': JSON nested too deeply to read"),
        ('{"weights": {"halve": 1' + "0" * 400 + "}}", "mean cost of odd11 under model"),
        *[(f'{{"name": {name}}}', f"cost model name must be a string, got {shown}")
          for name, shown in [("null", None), ("5", 5), ("true", True), ('["x"]', ["x"]), ("{}", {})]],
    ],
    ids=["list", "not-json", "weights-list", "float", "bool", "string", "negative", "unknown-kind", "deep", "huge",
         "null-name", "int-name", "bool-name", "list-name", "object-name"],
)
def test_cost_bad_model_exits_2(capsys, tmp_path, content, message):
    path = tmp_path / "model.json"
    path.write_text(content)
    code, out, err = run(capsys, "cost", "--all", "--model", str(path), "--format", "csv")
    assert code == 2
    assert out == ""
    assert message in _one_error_line(err)


# Every user value an error message repeats goes through ydow._record.echo,
# which cuts it after ECHO_LIMIT characters, so no error line grows with
# its input.
ERROR_LINE_CAP = 3 * ECHO_LIMIT


def _capped_error_line(code, out, err):
    assert code == 2
    assert out == ""
    line = _one_error_line(err)
    assert len(line) <= ERROR_LINE_CAP, len(line)
    return line


def test_trailing_date_input_is_capped(capsys):
    line = _capped_error_line(*run(capsys, "dow", "--date", "2000-01-01" + "x" * 2000))
    assert line.startswith("error: expected YYYY-MM-DD, trailing input: '2000-01-01xxx")
    assert line.endswith("xxx... (at position 10)")


def test_unknown_weight_key_is_capped(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"weights": {"k" * 5000: 1}}))
    line = _capped_error_line(*run(capsys, "cost", "--all", "--model", str(path), "--format", "csv"))
    assert line.endswith("kkk... is not a valid StepKind")


def test_deeply_nested_weight_is_capped(tmp_path):
    # A fresh process, as a user runs it: the list must be shallow enough for
    # json to decode it from a short stack, so the weight's repr is what fails.
    path = tmp_path / "model.json"
    path.write_text('{"weights": {"halve": ' + "[" * 950 + "]" * 950 + "}}")
    proc = subprocess.run(
        [sys.executable, "-m", "ydow.cli", "cost", "--all", "--model", str(path), "--format", "csv"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )
    line = _capped_error_line(proc.returncode, proc.stdout, proc.stderr)
    assert "weight for 'halve' must be an integer, got [[[[" in line


@pytest.mark.parametrize(
    "argv, message",
    [
        (("compute", "--year", "9" * 4000, "--method", "odd11"), "two-digit year must be in [0, 99], got 999"),
        (("derive", "--divisor", "9" * 4000, "--sign", "pos"), "divisor must be in [2, 28], got 999"),
    ],
    ids=["year", "divisor"],
)
def test_long_integer_options_are_capped(capsys, argv, message):
    assert message in _capped_error_line(*run(capsys, *argv))


def _answers_or_fails_in_one_capped_line(argv):
    """Run main(argv): it answers, or ydow fails in one capped `error:` line with exit 2.

    Argparse's own usage errors (and --help) raise SystemExit from
    parse_args, before ydow sees the input; they are out of scope here.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2)
            return
    if code == 2:
        _capped_error_line(code, out.getvalue(), err.getvalue())
    else:
        # exit 1 is a formula that cannot be derived (verify passes shipped)
        assert code == 0 or (code == 1 and argv[0] == "derive")
        assert err.getvalue() == ""


@given(st.text())
def test_any_date_text_answers_or_fails_in_one_capped_line(text):
    _answers_or_fails_in_one_capped_line(["dow", f"--date={text}"])


# Arbitrary text for option values and stray arguments.  None starts with
# "--m": argparse takes an abbreviation, and "--mo" would give `cost` a
# --model path of arbitrary text, which could name a file that never ends
# (json.load on /dev/zero does not return).  Model files come from
# MODEL_FILES instead, written under tmp_path.
ANY_TEXT = st.text().filter(lambda t: not t.startswith("--m"))
INTS = st.one_of(st.integers(-200, 200), st.integers(), st.integers(-(10**4000), 10**4000)).map(str)
METHOD = st.sampled_from(list(METHODS))
DATES = st.one_of(
    st.dates(datetime.date(1, 1, 1)).map(datetime.date.isoformat),
    st.from_regex(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", fullmatch=True),
)

# Each subcommand's options: a strategy for a value that argparse accepts
# (ydow may still refuse it), or None for a flag.
SUBCOMMAND_OPTIONS = {
    "compute": {"--year": INTS, "--method": METHOD, "--json": None},
    "explain": {"--year": INTS, "--method": METHOD, "--json": None},
    "verify": {"--method": METHOD, "--all": None, "--json": None},
    "derive": {"--divisor": INTS, "--sign": st.sampled_from(["pos", "neg"]), "--json": None},
    "table": {"--method": METHOD, "--format": st.sampled_from(["csv", "json"])},
    "cost": {"--method": METHOD, "--all": None, "--format": st.sampled_from(["csv", "json"])},
    "dow": {
        "--date": DATES,
        "--method": METHOD,
        "--pipeline": st.sampled_from([pl.value for pl in PipelineId]),
        "--proleptic": None,
        "--explain": None,
        "--json": None,
    },
}


OFTEN = st.sampled_from([True, True, True, False])


@st.composite
def subcommand_argv(draw, command):
    """The options in any order, each given 3 times in 4, its value arbitrary
    text 1 time in 4; 1 time in 4, a stray argument of arbitrary text."""
    pairs = []
    for flag, values in SUBCOMMAND_OPTIONS[command].items():
        if draw(OFTEN):
            pairs.append([flag] if values is None else [flag, draw(values if draw(OFTEN) else ANY_TEXT)])
    if ["--all"] in pairs and draw(OFTEN):  # --all and --method exclude each other
        pairs.remove(["--all"])
    if not draw(OFTEN):
        pairs.append([draw(ANY_TEXT)])
    return [command] + [token for pair in draw(st.permutations(pairs)) for token in pair]


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(st.lists(inner), st.dictionaries(st.text(), inner)),
    max_leaves=8,
)
MODEL_FILES = st.one_of(
    st.text(),
    JSON_VALUES.map(json.dumps),
    st.fixed_dictionaries(
        {},
        optional={
            "name": JSON_VALUES,
            "weights": st.dictionaries(
                st.one_of(st.sampled_from([k.value for k in StepKind]), st.text()),
                st.one_of(st.integers(0, 10**400), JSON_VALUES),
            ),
        },
    ).map(json.dumps),
)


@pytest.mark.parametrize("command", list(SUBCOMMAND_OPTIONS))
# tmp_path is shared by the examples of one run, which is what is wanted here
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_answers_or_fails_in_one_capped_line(command, tmp_path, data):
    argv = data.draw(subcommand_argv(command))
    if command == "cost" and data.draw(st.booleans()):
        path = tmp_path / "model.json"  # rewritten by every example that draws one
        path.write_text(data.draw(MODEL_FILES), encoding="utf-8")
        argv += ["--model", str(path)]
    _answers_or_fails_in_one_capped_line(argv)


def test_dow_text(capsys):
    code, out, _ = run(capsys, "dow", "--date", "2000-01-01")
    assert code == 0
    assert "2000-01-01 is a Saturday (weekday 6)" in out


def test_dow_json(capsys):
    code, data, _ = run_json(
        capsys, "dow", "--date", "1969-07-20", "--method", "eisele", "--pipeline", "first-sunday", "--json"
    )
    assert code == 0
    assert data == {
        "date": "1969-07-20",
        "weekday": 0,
        "weekday_name": "Sunday",
        "method": "eisele",
        "pipeline": "first-sunday",
    }


def test_dow_json_explain_steps_replay_to_the_weekday(capsys):
    for pl in ("doomsday", "first-sunday"):
        code, data, _ = run_json(
            capsys, "dow", "--date", "1969-07-20", "--method", "fong", "--pipeline", pl, "--json", "--explain"
        )
        assert code == 0
        steps = data.pop("steps")
        assert data == {
            "date": "1969-07-20",
            "weekday": 0,
            "weekday_name": "Sunday",
            "method": "fong",
            "pipeline": pl,
        }
        trace = StepTrace(
            tuple(Step(StepKind(s["kind"]), s["description"], tuple(s["operands"]), s["result"]) for s in steps)
        )
        assert trace.to_jsonable() == steps
        assert trace.replay() == data["weekday"]


def test_dow_explain(capsys):
    code, out, _ = run(capsys, "dow", "--date", "2000-01-01", "--method", "div4", "--explain")
    assert code == 0
    assert "1." in out
    assert "Saturday" in out


def test_dow_malformed_date_exits_2(capsys):
    code, _, err = run(capsys, "dow", "--date", "2000/01/01")
    assert code == 2
    assert "error:" in err


def test_dow_non_ascii_digits_exit_2(capsys):
    code, out, err = run(capsys, "dow", "--date", "２０００-01-01")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: expected a digit, got '２' (at position 0)"]


def test_dow_invalid_date_exits_2(capsys):
    code, _, err = run(capsys, "dow", "--date", "1900-02-29")
    assert code == 2
    assert "not" in err or "day must" in err


def test_dow_policy_and_proleptic(capsys):
    code, _, err = run(capsys, "dow", "--date", "1500-01-01")
    assert code == 2
    assert "proleptic" in err
    code, out, _ = run(capsys, "dow", "--date", "1500-01-01", "--proleptic")
    assert code == 0


def test_dow_methods_and_pipelines_agree(capsys):
    answers = set()
    for mid in ("odd11", "div12", "digits-ab"):
        for pl in ("doomsday", "first-sunday"):
            code, data, _ = run_json(
                capsys, "dow", "--date", "2026-08-23", "--method", mid, "--pipeline", pl, "--json"
            )
            assert code == 0
            answers.add(data["weekday"])
    assert answers == {0}


# --json output against the API, for generated inputs.  capsys is a
# function-scoped fixture, which Hypothesis rejects, so these capture stdout
# themselves.

METHOD_IDS = list(METHODS)


def cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


def share_payload(mid, y):
    res = evaluate(mid, y)
    return {
        "method": mid,
        "year": y,
        "raw": res.raw,
        "sign": res.convention.value,
        "residue": res.residue,
        "negative_residue": res.negative_residue,
    }


@given(st.sampled_from(METHOD_IDS), st.integers(0, 99))
def test_compute_and_explain_json_equal_the_api(mid, y):
    want = share_payload(mid, y)
    assert cli_json("compute", "--year", str(y), "--method", mid, "--json") == (0, want)
    want["steps"] = evaluate(mid, y).trace.to_jsonable()
    assert cli_json("explain", "--year", str(y), "--method", mid, "--json") == (0, want)


@given(st.sampled_from(METHOD_IDS))
def test_table_and_verify_json_equal_the_api(mid):
    rows = [{"y": y, "raw": evaluate(mid, y).raw, "residue": evaluate(mid, y).residue} for y in range(100)]
    assert cli_json("table", "--method", mid, "--format", "json") == (0, rows)
    assert cli_json("verify", "--method", mid, "--json") == (0, [verify_method(mid).to_json_dict()])


@given(
    st.dates(datetime.date(1, 1, 1), datetime.date(9999, 12, 31)),
    st.sampled_from(METHOD_IDS),
    st.sampled_from(list(PipelineId)),
    st.booleans(),
)
def test_dow_json_equals_the_api(day, mid, pl, explain):
    proleptic = ["--proleptic"] if day.year < 1583 else []
    argv = ["dow", "--date", day.isoformat(), "--method", mid, "--pipeline", pl.value, "--json", *proleptic]
    res = dow(CivilDate(day.year, day.month, day.day), mid, pl, proleptic=bool(proleptic), with_trace=explain)
    want = {
        "date": day.isoformat(),
        "weekday": int(res.weekday),
        "weekday_name": res.weekday.display_name,
        "method": mid,
        "pipeline": pl.value,
    }
    if explain:
        argv.append("--explain")
        want["steps"] = res.trace.to_jsonable()
    assert cli_json(*argv) == (0, want)


@given(
    st.one_of(st.none(), st.sampled_from(METHOD_IDS)),
    st.one_of(st.none(), st.dictionaries(st.sampled_from(list(StepKind)), st.integers(0, 9))),
    st.text(max_size=8),
)
def test_cost_json_equals_the_api(mid, weights, name):
    argv = ["cost", "--format", "json", *(["--method", mid] if mid else [])]
    model = DEFAULT_COST_MODEL
    if weights is not None:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"name": name, "weights": {k.value: w for k, w in weights.items()}}, f)
            got = cli_json(*argv, "--model", path)
        model = CostModel(name, {**DEFAULT_WEIGHTS, **weights})
    else:
        got = cli_json(*argv)
    rows = cost_report([mid] if mid else None, model)
    assert got == (0, {"model": model.name, "rows": [r.to_json_dict() for r in rows]})


@given(st.integers(2, 28), st.sampled_from(list(SignConvention)))
def test_derive_json_equals_the_api(d, sign):
    try:
        code, want = 0, derive_divisor_formula(d, sign).to_json_dict()
    except NotRepresentableError as exc:
        code, want = 1, {"d": d, "sign": sign.value, "error": str(exc)}
    assert cli_json("derive", "--divisor", str(d), "--sign", sign.value, "--json") == (code, want)
