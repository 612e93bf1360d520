"""Command-line interface.

Exit codes: 0 success, 1 verification failure (or underivable formula),
2 usage or parse error, 74 any other failed write to stdout (as to a full
disk; EX_IOERR in sysexits.h), 141 stdout closed by its reader (as by
`| head -1`), the status a shell reports for a process ended by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from ._record import echo
from .arith import ShareResult, SignConvention
from .dates import parse_date
from .divisor import NotRepresentableError, derive_divisor_formula
from .pipeline import PipelineId, dow
from .registry import (
    cost_report,
    evaluate,
    get_method,
    method_ids,
    verify_all,
    verify_method,
)
from .trace import DEFAULT_COST_MODEL, StepTrace, load_cost_model


def _emit_json(obj: dict | list, trace: StepTrace | None = None) -> None:
    """Print obj as JSON; a trace, when given, goes under "steps"."""
    if trace is not None:
        obj["steps"] = trace.to_jsonable()
    print(json.dumps(obj, indent=2))


def _print_steps(trace: StepTrace) -> None:
    for i, step in enumerate(trace.steps, 1):
        print(f"  {i}. {step.description}")


def _share_json(method_id: str, y: int, res: ShareResult) -> dict:
    return {
        "method": method_id,
        "year": y,
        "raw": res.raw,
        "sign": res.convention.value,
        "residue": res.residue,
        "negative_residue": res.negative_residue,
    }


def cmd_compute(args) -> int:
    desc = get_method(args.method)
    res = evaluate(args.method, args.year)
    if args.json:
        _emit_json(_share_json(args.method, args.year, res))
        return 0
    print(f"method: {desc.id} ({desc.display_name})")
    print(f"year: {args.year}")
    print(f"raw: {res.raw}")
    print(f"sign: {res.convention.value}")
    print(f"positive residue: {res.residue}")
    print(f"negative residue: {res.negative_residue}")
    return 0


def cmd_explain(args) -> int:
    desc = get_method(args.method)
    res = evaluate(args.method, args.year)
    if args.json:
        _emit_json(_share_json(args.method, args.year, res), res.trace)
        return 0
    print(f"{desc.display_name} ({desc.id}), year {args.year}:")
    _print_steps(res.trace)
    kind = "negative share" if res.convention is SignConvention.NEGATIVE else "positive share"
    print(f"result: {res.raw} ({kind})")
    print(f"positive residue mod 7: {res.residue}")
    return 0


def cmd_verify(args) -> int:
    reports = [verify_method(args.method)] if args.method else verify_all()
    ok = all(r.passed for r in reports)
    if args.json:
        _emit_json([r.to_json_dict() for r in reports])
    else:
        for r in reports:
            if r.passed:
                print(f"{r.method_id}: pass ({r.total}/{r.total})")
            else:
                print(f"{r.method_id}: FAIL ({r.total - len(r.failures)}/{r.total})")
                for f in r.failures:
                    print(f"  y={f.y}: expected {f.expected}, got {f.got}")
        print("all methods pass" if ok else "verification FAILED")
    return 0 if ok else 1


def cmd_derive(args) -> int:
    try:
        spec = derive_divisor_formula(args.divisor, args.sign)
    except NotRepresentableError as exc:
        if args.json:
            _emit_json({"d": args.divisor, "sign": args.sign, "error": str(exc)})
        else:
            print(f"not representable: {exc}")
        return 1
    if args.json:
        _emit_json(spec.to_json_dict())
        return 0
    label = "positive" if spec.convention is SignConvention.POSITIVE else "negative"
    print(f"d={spec.d}, {label} share: {spec.formula()}")
    return 0


def cmd_table(args) -> int:
    rows = []
    for y in range(100):
        res = evaluate(args.method, y)
        rows.append({"y": y, "raw": res.raw, "residue": res.residue})
    if args.format == "json":
        _emit_json(rows)
    else:
        print("y,raw,residue")
        for row in rows:
            print(f"{row['y']},{row['raw']},{row['residue']}")
    return 0


def cmd_cost(args) -> int:
    model = DEFAULT_COST_MODEL if args.model is None else load_cost_model(args.model)
    ids = [args.method] if args.method else method_ids()
    rows = cost_report(ids, model)
    if args.format == "json":
        _emit_json({"model": model.name, "rows": [r.to_json_dict() for r in rows]})
    else:
        print("method,min_cost,max_cost,mean_cost,max_magnitude")
        for r in rows:
            print(f"{r.method_id},{r.min_cost},{r.max_cost},{r.mean_cost:.2f},{r.max_magnitude}")
    return 0


def cmd_dow(args) -> int:
    date = parse_date(args.date)
    result = dow(
        date,
        method_id=args.method,
        pipeline=args.pipeline,
        proleptic=args.proleptic,
        with_trace=args.explain,
    )
    if args.json:
        payload = {
            "date": str(date),
            "weekday": int(result.weekday),
            "weekday_name": result.weekday.display_name,
            "method": result.method_id,
            "pipeline": result.pipeline.value,
        }
        _emit_json(payload, result.trace)  # the trace is None without --explain
        return 0
    print(f"{date} is a {result.weekday.display_name} (weekday {int(result.weekday)})")
    if args.explain:
        _print_steps(result.trace)
    return 0


# [0-9], not int(): int() also takes other scripts' decimal digits (full-width,
# Arabic-Indic, ...), underscores, a plus sign and surrounding whitespace.
_INT_RE = re.compile(r"-?[0-9]+")


def _ascii_int(text: str) -> int:
    """argparse type: an optional '-' and ASCII digits 0-9, nothing else."""
    if _INT_RE.fullmatch(text) is not None:
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {echo(text)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ydow",
        description="Mental day-of-week arithmetic: year-share methods, verification, and full-date pipelines.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_year_method(p):
        p.add_argument("--year", type=_ascii_int, required=True, help="two-digit year, 0-99")
        p.add_argument("--method", required=True, choices=method_ids(), help="method id")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("compute", help="raw value, sign convention, and residue for one year")
    add_year_method(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("explain", help="step-by-step worked computation for one year")
    add_year_method(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("verify", help="check methods against the reference share for all 100 years")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--method", choices=method_ids(), help="verify a single method")
    g.add_argument("--all", action="store_true", help="verify every method (default)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", help="derive a divisor-style formula from scratch")
    p.add_argument("--divisor", type=_ascii_int, required=True, metavar="D", help="divisor, 2-28")
    p.add_argument("--sign", required=True, choices=["pos", "neg"], help="which share to target")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("table", help="all 100 (y, raw, residue) rows for one method")
    p.add_argument("--method", required=True, choices=method_ids(), help="method id")
    p.add_argument("--format", required=True, choices=["csv", "json"], help="output format")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cost", help="mental-cost statistics per method")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--method", choices=method_ids(), help="restrict to one method")
    g.add_argument("--all", action="store_true", help="all methods (default)")
    p.add_argument("--model", help="path to a JSON cost-model file")
    p.add_argument("--format", required=True, choices=["csv", "json"], help="output format")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("dow", help="day of the week of a full date")
    p.add_argument("--date", required=True, metavar="YYYY-MM-DD", help="civil date")
    p.add_argument("--method", default="odd11", choices=method_ids(), help="year-share method")
    p.add_argument(
        "--pipeline",
        default="doomsday",
        choices=[p.value for p in PipelineId],
        help="assembly style",
    )
    p.add_argument("--proleptic", action="store_true", help="allow dates before 1583")
    p.add_argument("--explain", action="store_true", help="also print the step trace")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_dow)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so a failed write to stdout raises inside the try
        return code
    except ValueError as exc:  # every named input error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout's reader has gone, as after `| head -1`
        code = 141
    except OSError as exc:  # any other failed write to stdout, as to a full disk
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        code = 74
    # stdout now writes to devnull, so the interpreter's own flush at exit raises nothing
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
