"""The four benchmark workloads: seeded requests, the calls they make into
ydow, and the checks on every output.

Every check uses an oracle written here, not ydow: weekdays come from
`datetime`, year shares from (5*y // 4) % 7, and step traces are replayed by
`replay_steps` below.  Only public ydow names are used, so refactors behind
them are measured rather than broken.

Requests are plain lists of strings and ints, so identical requests can be
recognised by their JSON text (see worker.py).
"""

from __future__ import annotations

import datetime
import json
import os
import random
import re
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ContextManager, NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "ydow" / "__init__.py").is_file():
    raise SystemExit(f"bench: no ydow sources under {SRC}; run from the root of a ydow checkout")
sys.path.insert(0, str(SRC))

from ydow import (  # noqa: E402
    DEFAULT_COST_MODEL,
    METHODS,
    PipelineId,
    SignConvention,
    StepTrace,
    cost_report,
    daycount_weekday,
    derive_divisor_formula,
    dow,
    method_ids,
    parse_date,
    verify_all,
    year_share,
)
from ydow.divisor import eval_divisor  # noqa: E402

from spawner import Spawner  # noqa: E402

METHOD_IDS = tuple(method_ids())
PIPELINES = tuple(PipelineId)
ANSWERS_PER_DATE = len(METHOD_IDS) * len(PIPELINES) + 1  # every dow answer plus the day count
WEEKDAY_NAMES = ("Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday")
# derive_divisor_formula refuses d = 2 mod 4, so those pairs never appear in a request.
DERIVABLE = tuple((d, s) for d in range(2, 29) if d % 4 != 2 for s in ("pos", "neg"))

# ---------------------------------------------------------------------------
# Oracles, independent of ydow


def oracle_weekday(y: int, m: int, d: int) -> int:
    """0 = Sunday ... 6 = Saturday."""
    return datetime.date(y, m, d).isoweekday() % 7


def oracle_share(y: int) -> int:
    return (5 * y // 4) % 7


_RULES = {
    "set": lambda o: o[0],
    "parity_test": lambda o: o[0] % 2,
    "add_const": lambda o: o[0] + o[1],
    "sub_const": lambda o: o[0] - o[1],
    "halve": lambda o: o[0] // 2,
    "quarter_floor": lambda o: o[0] // 4,
    "div_split": lambda o: o[0] // o[1],
    "mul_small": lambda o: o[0] * o[1],
    "mod7_reduce": lambda o: o[0] % 7,
    "sign_flip": lambda o: -o[0],
}


def replay_steps(steps) -> int | None:
    """Replay (kind, operands, result) triples with Python's floor semantics.

    Returns the result of the last value-producing step, or None when a
    step's recorded result disagrees with its operands or its kind is unknown.
    """
    final = None
    for kind, operands, result in steps:
        rule = _RULES.get(kind)
        if rule is None or rule(operands) != result:
            return None
        if kind != "parity_test":
            final = result
    return final


def trace_steps(trace):
    return [(s.kind.value, s.operands, s.result) for s in trace.steps]


def json_steps(steps):
    return [(s["kind"], s["operands"], s["result"]) for s in steps]


# ---------------------------------------------------------------------------
# The calls the requests make into ydow.  A traced run rebinds these names to
# span-recording wrappers (see `instrument`); the untraced run calls ydow directly.

ENTRY_POINTS = {
    "parse_date": "dates.parse_date",
    "daycount_weekday": "dates.daycount_weekday",
    "dow": "pipeline.dow",
    "to_jsonable": "trace.to_jsonable",
    "price": "trace.cost",
    "replay": "trace.replay",
    "max_magnitude": "trace.max_magnitude",
    "year_share": "arith.year_share",
    "derive_divisor_formula": "divisor.derive_divisor_formula",
    "eval_divisor": "divisor.eval_divisor",
    "verify_all": "registry.verify_all",
    "cost_report": "registry.cost_report",
}
to_jsonable = StepTrace.to_jsonable
price = DEFAULT_COST_MODEL.cost
replay = StepTrace.replay
max_magnitude = StepTrace.max_magnitude
# Uncached method bodies are spanned per family: special.eval, divisor.eval, digits.eval.
FAMILY_MODULE = {"special": "special", "divisor": "divisor", "digit": "digits"}


def method_func(method_id: str):
    return METHODS[method_id].func


# ---------------------------------------------------------------------------
# sweep and explain: one request is one ISO date string


def random_date(rng: random.Random) -> tuple[int, int, int]:
    y = rng.randint(1583, 2599)
    m = rng.randint(1, 12)
    last = (datetime.date(y + m // 12, m % 12 + 1, 1) - datetime.timedelta(days=1)).day
    return y, m, rng.randint(1, last)


def date_requests(rng: random.Random, n: int) -> list:
    return [f"{y:04d}-{m:02d}-{d:02d}" for y, m, d in (random_date(rng) for _ in range(n))]


def run_sweep(text: str):
    date = parse_date(text)
    return date, daycount_weekday(date), [
        dow(date, mid, pl, with_trace=False) for mid in METHOD_IDS for pl in PIPELINES
    ]


def run_explain(text: str):
    date = parse_date(text)
    out = []
    for mid in METHOD_IDS:
        for pl in PIPELINES:
            res = dow(date, mid, pl, with_trace=True)
            out.append((res, to_jsonable(res.trace), price(res.trace)))
    return date, daycount_weekday(date), out


def _check_date(text: str, date, counted) -> tuple[int | None, int]:
    y, m, d = (int(part) for part in text.split("-"))
    if (date.year, date.month, date.day) != (y, m, d):
        return None, ANSWERS_PER_DATE
    want = oracle_weekday(y, m, d)
    return want, int(int(counted) != want)


def check_sweep(text: str, out) -> int:
    date, counted, results = out
    want, failed = _check_date(text, date, counted)
    if want is None:
        return failed
    return failed + sum(int(r.weekday) != want for r in results)


def check_explain(text: str, out) -> int:
    date, counted, results = out
    want, failed = _check_date(text, date, counted)
    if want is None:
        return failed
    for res, steps, cost in results:
        ok = int(res.weekday) == want and replay_steps(json_steps(steps)) == want
        failed += not (ok and isinstance(cost, int) and cost >= 0)
    return failed


# ---------------------------------------------------------------------------
# reports: one request is one method's 100-year block, one derived
# (divisor, sign) block, or the verify_all / cost_report that end each round


def report_round(rng: random.Random) -> list:
    blocks = [["method", mid] for mid in METHOD_IDS]
    blocks += [["derived", d, s] for d, s in rng.sample(DERIVABLE, len(METHOD_IDS))]
    rng.shuffle(blocks)
    return blocks + [["verify_all"], ["cost_report"]]


def report_ops(req) -> int:
    return 100 * len(METHOD_IDS) if req[0] in ("verify_all", "cost_report") else 100


def run_reports(req):
    kind = req[0]
    if kind == "method":
        func = method_func(req[1])
        out = []
        for y in range(100):
            res = func(y)
            trace = res.trace
            out.append((res, year_share(y) == res.residue, price(trace), replay(trace), max_magnitude(trace)))
        return out
    if kind == "derived":
        spec = derive_divisor_formula(req[1], SignConvention(req[2]))
        return spec, [eval_divisor(spec, y) for y in range(100)]
    if kind == "verify_all":
        return verify_all()
    return cost_report()


def _share_ok(res, y: int) -> bool:
    sign = 1 if res.convention is SignConvention.POSITIVE else -1
    return res.residue == oracle_share(y) == (sign * res.raw) % 7 and replay_steps(trace_steps(res.trace)) == res.raw


def _spec_value(spec, y: int) -> int:
    q, r = divmod(y, spec.d)
    return spec.coef_q * q + spec.coef_r * r + spec.coef_floor * ((spec.inner_q * q + spec.inner_r * r) // 4)


def check_reports(req, out) -> int:
    kind = req[0]
    if kind == "method":
        return sum(
            not (_share_ok(res, y) and agrees and replayed == res.raw and cost >= 0 and magnitude >= abs(res.raw))
            for y, (res, agrees, cost, replayed, magnitude) in enumerate(out)
        )
    if kind == "derived":
        spec, results = out
        if spec.convention.value != req[2]:
            return report_ops(req)
        return sum(not (_share_ok(res, y) and res.raw == _spec_value(spec, y)) for y, res in enumerate(results))
    if len(out) != len(METHOD_IDS):
        return report_ops(req)
    if kind == "verify_all":
        return sum(len(r.failures) if r.total == 100 else 100 for r in out)
    return sum(
        100 * (not 0 <= row.min_cost <= row.mean_cost <= row.max_cost or row.max_magnitude <= 0)
        for row in out
    )


# ---------------------------------------------------------------------------
# cli: one request is one fresh `python -m ydow.cli` process, started by a
# spawner.Spawner

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}")
_DOW_LINE = re.compile(r"(\d{4}-\d{2}-\d{2}) is a (\w+) \(weekday (\d)\)")


def cli_block(rng: random.Random) -> list:
    """Twenty requests of a fixed mix, with seeded arguments in seeded order:
    two each of dow, dow --json, dow --explain and explain --json; a plain and
    a JSON form each of compute, verify --all, derive, table and cost --all;
    and two malformed dates, which must exit 2."""

    def date():
        return "%04d-%02d-%02d" % random_date(rng)

    def method():
        return rng.choice(METHOD_IDS)

    def pipeline():
        return rng.choice(PIPELINES).value

    reqs = []
    for flag in ([], ["--json"], ["--explain"]):
        for _ in range(2):
            reqs.append(["dow", "--date", date(), "--method", method(), "--pipeline", pipeline()] + flag)
    for flag in ([], ["--json"]):
        reqs.append(["compute", "--year", str(rng.randrange(100)), "--method", method()] + flag)
        reqs.append(["explain", "--year", str(rng.randrange(100)), "--method", method(), "--json"])
        reqs.append(["verify", "--all"] + flag)
        d, s = rng.choice(DERIVABLE)
        reqs.append(["derive", "--divisor", str(d), "--sign", s] + flag)
    for fmt in ("csv", "json"):
        reqs.append(["table", "--method", method(), "--format", fmt])
        reqs.append(["cost", "--all", "--format", fmt])
    y, m, d = random_date(rng)
    bad = [f"{y:04d}-13-{d:02d}", f"{y:04d}-02-30", f"{y % 100:02d}-{m:02d}-{d:02d}", f"{y:04d}/{m:02d}/{d:02d}"]
    for text in rng.sample(bad, 2):
        reqs.append(["dow", "--date", text, "--method", method()])
    rng.shuffle(reqs)
    return reqs


def _arg(argv: list, name: str) -> str:
    return argv[argv.index(name) + 1]


def _date_weekday(text: str) -> int | None:
    """Weekday of a YYYY-MM-DD date, or None when the text is not one."""
    if not _ISO_DATE.fullmatch(text):
        return None
    try:
        return oracle_weekday(*(int(part) for part in text.split("-")))
    except ValueError:
        return None


def _dow_line_ok(line: str, text: str, want: int) -> bool:
    m = _DOW_LINE.fullmatch(line)
    return bool(m) and m.group(1) == text and int(m.group(3)) == want and m.group(2) == WEEKDAY_NAMES[want]


def _cli_output_ok(argv: list, code: int, out: str, err: str) -> bool:
    cmd, as_json = argv[0], "--json" in argv
    if cmd == "dow":
        text = _arg(argv, "--date")
        want = _date_weekday(text)
        if want is None:
            return code == 2 and out == "" and err.count("\n") == 1 and err.startswith("error: ")
        if code != 0 or err:
            return False
        if as_json:
            doc = json.loads(out)
            return doc["date"] == text and doc["weekday"] == want and doc["weekday_name"] == WEEKDAY_NAMES[want]
        lines = out.splitlines()
        steps = lines[1:]
        if "--explain" in argv and not steps:
            return False
        numbered = all(line.startswith(f"  {i}. ") for i, line in enumerate(steps, 1))
        return _dow_line_ok(lines[0], text, want) and numbered
    if code != 0 or err:
        return False
    if cmd in ("compute", "explain"):
        y = int(_arg(argv, "--year"))
        if as_json:
            doc = json.loads(out)
            raw, residue, sign = doc["raw"], doc["residue"], doc["sign"]
            if cmd == "explain" and replay_steps(json_steps(doc["steps"])) != raw:
                return False
        else:
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            raw, residue, sign = int(fields["raw"]), int(fields["positive residue"]), fields["sign"]
        return residue == oracle_share(y) == ((1 if sign == "pos" else -1) * raw) % 7
    if cmd == "table":
        if _arg(argv, "--format") == "json":
            rows = [(r["y"], r["residue"]) for r in json.loads(out)]
        else:
            lines = out.splitlines()
            if lines[0] != "y,raw,residue":
                return False
            rows = [tuple(int(v) for v in line.split(",")[::2]) for line in lines[1:]]
        return rows == [(y, oracle_share(y)) for y in range(100)]
    if cmd == "verify":
        if as_json:
            docs = json.loads(out)
            return len(docs) == len(METHOD_IDS) and all(d["pass"] and d["total"] == 100 for d in docs)
        return out.splitlines() == [f"{mid}: pass (100/100)" for mid in METHOD_IDS] + ["all methods pass"]
    if cmd == "cost":
        if _arg(argv, "--format") == "json":
            rows = [(r["min_cost"], r["mean_cost"], r["max_cost"]) for r in json.loads(out)["rows"]]
        else:
            lines = out.splitlines()
            if lines[0] != "method,min_cost,max_cost,mean_cost,max_magnitude":
                return False
            cells = (line.split(",") for line in lines[1:])
            rows = [(float(lo), float(mean), float(hi)) for _, lo, hi, mean, _ in cells]
        return len(rows) == len(METHOD_IDS) and all(0 <= lo <= mean <= hi for lo, mean, hi in rows)
    if cmd == "derive":
        d, sign = int(_arg(argv, "--divisor")), _arg(argv, "--sign")
        if not as_json:
            label = "positive" if sign == "pos" else "negative"
            return out.startswith(f"d={d}, {label} share: ") and out.count("\n") == 1
        doc = json.loads(out)
        factor = 1 if sign == "pos" else -1
        for y in range(100):
            q, r = divmod(y, d)
            value = doc["alpha"] * q + doc["beta"] * r + doc["gamma"] * ((doc["delta_q"] * q + doc["delta_r"] * r) // 4)
            if (factor * value) % 7 != oracle_share(y):
                return False
        return doc["d"] == d and doc["sign"] == sign
    return False


def check_cli(argv: list, out) -> int:
    code, stdout, stderr, _ = out
    try:
        return int(not _cli_output_ok(argv, code, stdout, stderr))
    except (ValueError, KeyError, IndexError, TypeError):  # unparsable output is a wrong answer
        return 1


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random], list]  # every request of one run, from the seeded generator
    serve: Callable[[], ContextManager[Callable]]  # yields the function that runs one request
    check: Callable[[Any, Any], int]  # number of wrong operations in one output
    ops: Callable[[Any], int]  # operations in one request
    warmup: int  # requests each worker runs before timing, the first as set-up
    traced: int  # requests in one fixed-size pass of the traced run
    child_kib: Callable[[Any], int] | None = None  # peak RSS of the process a request started


WORKLOADS = {
    "sweep": Workload(
        lambda rng: date_requests(rng, 2048),
        lambda: nullcontext(run_sweep), check_sweep, lambda _: ANSWERS_PER_DATE, 256, 256,
    ),
    "explain": Workload(
        lambda rng: date_requests(rng, 512),
        lambda: nullcontext(run_explain), check_explain, lambda _: ANSWERS_PER_DATE, 64, 64,
    ),
    "reports": Workload(
        lambda rng: [req for _ in range(16) for req in report_round(rng)],
        lambda: nullcontext(run_reports), check_reports, report_ops, 30, 60,
    ),
    "cli": Workload(
        lambda rng: [req for _ in range(16) for req in cli_block(rng)],
        lambda: Spawner(CHILD_ENV), check_cli, lambda _: 1, 1, 20, lambda out: out[3],
    ),
}

_FAILED = object()


class Loop(NamedTuple):
    latencies: list  # seconds per request
    attempted: int  # operations
    failed: int
    child_kib: int  # peak RSS over the processes the requests started, or 0


def closed_loop(
    workload: Workload, run: Callable, requests: list, *, seconds: float = 0.0, count: int | None = None, start: int = 0
) -> Loop:
    """One client sends the requests to `run` in order from index `start`,
    cycling, each after the previous one finished: `count` requests when
    given, else for `seconds` of wall time.

    Checks run between requests, outside the timed interval.  An exception
    fails every operation of its request, and the loop goes on.
    """
    latencies = []
    attempted = failed = child_kib = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < count if count is not None else time.perf_counter() < deadline:
        req = requests[(start + i) % len(requests)]
        i += 1
        began = time.perf_counter()
        try:
            out = run(req)
        except Exception:  # noqa: BLE001 - counted as failed below
            out = _FAILED
        latencies.append(time.perf_counter() - began)
        ops = workload.ops(req)
        attempted += ops
        if out is _FAILED:
            failed += ops
            continue
        failed += workload.check(req, out)
        if workload.child_kib:
            child_kib = max(child_kib, workload.child_kib(out))
    return Loop(latencies, attempted, failed, child_kib)


@contextmanager
def instrument(tracer):
    """Rebind every entry point in ENTRY_POINTS, and the method bodies, to
    wrappers that record a span per call, for the duration of the block."""
    names = globals()
    saved = {attr: names[attr] for attr in [*ENTRY_POINTS, "method_func"]}
    for attr, span in ENTRY_POINTS.items():
        names[attr] = tracer.wrap(span, saved[attr])

    def traced_method_func(method_id: str):
        desc = METHODS[method_id]
        return tracer.wrap(f"{FAMILY_MODULE[desc.category.value]}.eval", desc.func)

    names["method_func"] = traced_method_func
    try:
        yield
    finally:
        names.update(saved)
