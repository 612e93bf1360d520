"""Divisor-family year-share formulas.

Write y = d*q + r with 0 <= r < d.  For suitable divisors the year share (or
its negative) collapses to a formula of the shape

    alpha*q + beta*r + gamma * floor((delta_q*q + delta_r*r) / 4)

with small coefficients.  Six divisors ship as a built-in table; the
derivation engine reconstructs such a formula for any divisor in [2, 28]
that admits one with the inner q-coefficient in {-1, 0, 1}.

Each `DivisorSpec` compiles its step plan on its first evaluation, not when
it is constructed: which terms are non-zero, whether each is negated,
multiplied, added or subtracted, and every symbol text ("q + r",
"floor((q + r)/4)", ...).  The plan splits into a *shape*, the sequence of
`(src, pre, comb)` of its ops (which value each term reads, which step takes
its multiple, which step adds it to the running sum), and the data that fill
it in: the divisor, the convention, the multipliers and the step templates.
Every template but the split's shows only its step's own operands and
result, so the plan holds it as a lone template, a constant 1-tuple (see
`trace`), and the kernel records it as it is, with no value tuple.
`eval_divisor` runs one straight-line kernel per shape, generated and
compiled the first time a spec of that shape is evaluated and kept in
`_KERNELS`: it splits y, computes the numbers and records them with the
plan's templates (formatted when a trace's text is first read), with no loop
over ops; it calls the year check only on a bad year, and ends in
`trace.traced`, as every method body does.  The kernel's source depends on
the shape alone and holds no value, only fixed names and the ints it
computes with; every value reaches it as data, so specs that differ only in
their divisor, multipliers, signs or texts share one kernel, and no text of
a spec is ever compiled.  The cache needs no bound: shapes are few (each of
the four other coefficients is zero, 1, -1, another positive or another
negative value, and the floor coefficient -1, 0 or 1, which allows at most
741 shapes), and it holds code, never a result, so every call still computes
its numbers and builds a fresh trace.  `formula()` compiles the plan again
and returns its text of the whole formula, so it and the trace write every
term alike.  A spec's one piece of private state, the slot `_run`, holds its
shape's kernel and the plan's params; `eval_divisor` alone writes it, once, on
the spec's first evaluation.  It lies outside the seven fields (see
`_record`), so `repr`, `==`, `hash`, pickle, copy and `_replace` see only
the fields.  A spec that is never evaluated (one derived for
`derive --json`, a copy, the built-in d=4 and d=12 specs) never compiles a
plan, and every copy compiles its own on its first evaluation.

Every split here is Python's `divmod` (or `//` and `%`) after
`check_year2`, and every floor its `//`: `div4`, `div12`,
`DivisorSpec.value` and the kernels divide only by constants or by a
spec's checked divisor.

`div4` and `div12` compute the d=4 and d=12 table entries but keep their
own traces.  Running them through `eval_divisor` would keep their values,
their costs under the default model and their largest magnitudes, yet it
would change what a user sees: `explain` would lose the wording in which
each rule is taught, and `div4`'s halving would become a `MUL_SMALL` step,
so `cost --model` with a `halve` weight would report a different cost.
"""

from __future__ import annotations

from typing import Callable

from ._record import Record, check_int, echo, member
from .arith import ShareResult, SignConvention, check_year2
from .trace import (
    ADD_CONST, DIV_SPLIT, HALVE, MUL_SMALL, QUARTER_FLOOR, SIGN_FLIP, SUB_CONST, StepKind, traced,
)


class NotRepresentableError(ValueError):
    """No formula with a small inner coefficient exists for this divisor."""


# The largest coefficient magnitude a spec takes; derived formulas stay
# within 9, and the bound keeps every coefficient a few digits long.
MAX_COEF = 99
# The largest divisor a spec takes: every y is below 100, so d = 100 splits
# every year into q = 0, r = y, and any larger d splits it the same way.
MAX_DIVISOR = 100


class DivisorSpec(Record):
    """Coefficient record for one divisor formula, immutable (see `_record`).

    Value at y = d*q + r is coef_q*q + coef_r*r +
    coef_floor * floor((inner_q*q + inner_r*r) / 4), interpreted under the
    spec's sign convention, a SignConvention member or its value ("pos" or
    "neg").  The divisor and the five coefficients must be ints (a bool is
    not); anything else raises ValueError before any range is checked.
    The divisor lies in [2, MAX_DIVISOR], the floor coefficient is -1, 0
    or 1, and the other four lie in [-MAX_COEF, MAX_COEF].

    Construction checks and stores the seven fields and nothing else; the
    step plan is compiled on the spec's first evaluation (see
    `eval_divisor`).
    """

    _fields = ("d", "convention", "coef_q", "coef_r", "coef_floor", "inner_q", "inner_r")
    # (the shape's kernel, the plan's params), written by `eval_divisor` on the first evaluation
    __slots__ = (*_fields, "_run")

    def __init__(
        self, d: int, convention: SignConvention | str, coef_q: int, coef_r: int, coef_floor: int, inner_q: int,
        inner_r: int,
    ):
        check_int("divisor", d)
        coefs = tuple(zip(self._fields[2:], (coef_q, coef_r, coef_floor, inner_q, inner_r)))
        for name, value in coefs:
            check_int(name, value)
        if not 2 <= d <= MAX_DIVISOR:
            raise ValueError(f"divisor must be in [2, {MAX_DIVISOR}], got {echo(d)}")
        if coef_floor not in (-1, 0, 1):
            raise ValueError(f"floor coefficient must be -1, 0 or 1, got {echo(coef_floor)}")
        for name, value in coefs:
            if not -MAX_COEF <= value <= MAX_COEF:
                raise ValueError(f"{name} must be in [-{MAX_COEF}, {MAX_COEF}], got {echo(value)}")
        convention = member(SignConvention, convention)
        super().__init__(d, convention, coef_q, coef_r, coef_floor, inner_q, inner_r)

    def value(self, y: int) -> int:
        q, r = divmod(check_year2(y), self.d)
        total = self.coef_q * q + self.coef_r * r
        if self.coef_floor != 0:
            total += self.coef_floor * ((self.inner_q * q + self.inner_r * r) // 4)
        return total

    def formula(self) -> str:
        """The formula as its trace names it, e.g. "q - r - floor((q + r)/4)"."""
        return _compile_plan(self)[2]

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "sign": self.convention.value,
            "alpha": self.coef_q,
            "beta": self.coef_r,
            "gamma": self.coef_floor,
            "delta_q": self.inner_q,
            "delta_r": self.inner_r,
        }


def _compile_plan(spec: DivisorSpec) -> tuple:
    """A spec's steps after the split, as a shape and its params, and its formula text.

    `eval_divisor` compiles it on a spec's first evaluation and keeps the
    params beside the shape's kernel; `formula()` compiles it for the text.

    Each sum (the inner one under the floor, then the outer one) is folded
    left to right over its non-zero coef*value terms; an empty sum reads
    "0", and an inner sum with more than one term is parenthesised.  The
    outer sum's text is the formula, so `formula()` and the trace name every
    term alike.  Each term is one op, a shape entry `(src, pre, comb)`: it
    reads vals[src] (q, r or the floor), takes `m` times it in a `pre` step
    (MUL_SMALL, or SIGN_FLIP for a leading -1; None for no step), then adds
    it to or subtracts it from the running sum in a `comb` step (None for a
    leading term, which starts the sum).  Between the sums, one op
    `(2, QUARTER_FLOOR, None)` floors the inner sum by four.  Each op's data
    are what its steps need, in this order: the `pre` step's template, `m`
    for a MUL_SMALL step, and the `comb` step's template.  Each template is
    a lone template, a 1-tuple whose fields number its step's operands and
    then its result: the product's reads `m` and the term, or the term, and
    the product; the floor's reads the inner sum and its floor; the
    `comb`'s reads the sum so far, the term and the new sum.  The params
    are `(d, convention, *data)`.
    """
    shape, data = [], []

    def fold(terms: list[tuple[int, int, str]]) -> str:
        text = ""
        for coef, src, sym in terms:
            if coef == 0:
                continue
            mag, sign = abs(coef), "+" if coef > 0 else "-"
            term = sym if mag == 1 else f"{mag}{sym}"
            m = mag if text else coef
            pre = None if m == 1 else SIGN_FLIP if m == -1 else MUL_SMALL
            comb = None if not text else ADD_CONST if coef > 0 else SUB_CONST
            text = f"{text} {sign} {term}" if text else term if coef > 0 else f"-{term}"
            shape.append((src, pre, comb))
            if pre is SIGN_FLIP:
                data.append((f"-{sym} = {{1}}",))
            elif pre is MUL_SMALL:
                data.extend(((f"{m}*{sym} = {{2}}",), m))
            if comb is not None:
                data.append((f"{text}: {{0}} {sign} {{1}} = {{2}}",))
        return text or "0"

    terms = [(spec.coef_q, 0, "q"), (spec.coef_r, 1, "r")]
    if spec.coef_floor != 0:
        inner = fold([(spec.inner_q, 0, "q"), (spec.inner_r, 1, "r")])
        if " " in inner:
            inner = f"({inner})"
        shape.append((2, QUARTER_FLOOR, None))
        data.append((f"floor({inner}/4) = floor({{0}}/4) = {{1}}",))
        terms.append((spec.coef_floor, 2, f"floor({inner}/4)"))
    text = fold(terms)
    return tuple(shape), (spec.d, spec.convention, *data), text


# What a kernel's source may name besides its own locals; no builtins.
_KERNEL_GLOBALS = {
    "__builtins__": {},
    "int": int,
    "check_year2": check_year2,
    "traced": traced,
    "SPLIT": "split {0} = {1}*{2} + {3} (q={2}, r={3})",
    "PIN": ("value is {0}",),
    **{kind.name: kind for kind in StepKind},
}

# shape -> its kernel, filled as shapes are first evaluated.
_KERNELS: dict[tuple, Callable[[int, tuple], ShareResult]] = {}


def _kernel_source(shape: tuple) -> str:
    """The source of `kernel(y, params)`, `eval_divisor` for every spec of this shape.

    It unpacks the params once, to d, conv and op i's data t<i> (the
    `pre` template), m<i> and c<i> (the `comb` template), names op i's
    product p<i> and its new sum s<i>, and records the same steps the plan
    describes, each template as it is.  A formula whose last op records no
    step (a leading term without a multiplier, or no term at all) gets the
    runtime pin: when the last recorded result is not the value, a SET step
    records the value.
    """
    targets, body = ["d", "conv"], []
    records = ["(DIV_SPLIT, (SPLIT, y, d, q, r), (y, d), q)"]
    vals = ("q", "r", "f")
    acc, last = "0", "q"  # the running sum, and the last recorded result
    for i, (src, pre, comb) in enumerate(shape):
        t, m, c = f"t{i}", f"m{i}", f"c{i}"
        if pre is QUARTER_FLOOR:  # closes the inner sum; the outer sum reads it as f
            targets.append(t)
            body.append(f"f = {acc} // 4")
            records.append(f"(QUARTER_FLOOR, {t}, ({acc},), f)")
            last = "f"
            continue
        operand = vals[src]
        if pre is SIGN_FLIP:
            targets.append(t)
            body.append(f"p{i} = -{operand}")
            records.append(f"(SIGN_FLIP, {t}, ({operand},), p{i})")
            operand = last = f"p{i}"
        elif pre is MUL_SMALL:
            targets += (t, m)
            body.append(f"p{i} = {m} * {operand}")
            records.append(f"(MUL_SMALL, {t}, ({m}, {operand}), p{i})")
            operand = last = f"p{i}"
        if comb is None:
            acc = operand
        else:
            targets.append(c)
            body.append(f"s{i} = {acc} {'+' if comb is ADD_CONST else '-'} {operand}")
            records.append(f"({comb.name}, {c}, ({acc}, {operand}), s{i})")
            acc = last = f"s{i}"
    lines = [
        "def kernel(y, params):",
        f"    {', '.join(targets)} = params",
        "    if y.__class__ is not int or not 0 <= y <= 99:",
        "        check_year2(y)",
        "    q = y // d",
        "    r = y % d",
        *[f"    {line}" for line in body],
        f"    steps = ({', '.join(records)},)",
    ]
    if last != acc:  # only the values tell whether the last step already shows the value
        lines += [f"    if {last} != {acc}:", f"        steps += ((SET, PIN, ({acc},), {acc}),)"]
    lines.append(f"    return traced({acc}, conv, steps)")
    return "\n".join(lines)


# The six shipped formulas, kept as data so a single evaluator runs them all.
# Conventions follow where each formula lands relative to the reference
# year share; the d=12 rule (dozens + remainder + fours) is the positive
# share, as its own congruence proof and the exhaustive check both confirm.
BUILTIN_DIVISOR_SPECS: dict[int, DivisorSpec] = {
    4: DivisorSpec(4, SignConvention.NEGATIVE, 2, -1, 0, 0, 0),
    5: DivisorSpec(5, SignConvention.NEGATIVE, 1, -1, -1, 1, 1),
    11: DivisorSpec(11, SignConvention.POSITIVE, 0, 1, 1, -1, 1),
    12: DivisorSpec(12, SignConvention.POSITIVE, 1, 1, 1, 0, 1),
    16: DivisorSpec(16, SignConvention.POSITIVE, -1, 1, 1, 0, 1),
    17: DivisorSpec(17, SignConvention.POSITIVE, 0, 1, 1, 1, 1),
}


def eval_divisor(spec: DivisorSpec, y: int) -> ShareResult:
    """Evaluate a divisor formula at y, recording one step per mental operation.

    The steps follow the spec's plan (see `_compile_plan`); the kernel of
    the plan's shape (see `_kernel_source`) splits y, computes the numbers
    and records them with the plan's templates.  The spec's first
    evaluation compiles its plan and keeps the kernel and the plan's params
    in the spec's `_run` slot, which nothing else writes.
    """
    try:
        kernel, params = spec._run
    except AttributeError:  # the first evaluation: the plan, and its shape's kernel, compiled if no spec has run it yet
        shape, params, _ = _compile_plan(spec)
        kernel = _KERNELS.get(shape)
        if kernel is None:
            namespace = dict(_KERNEL_GLOBALS)
            exec(compile(_kernel_source(shape), "<ydow.divisor kernel>", "exec"), namespace)
            kernel = _KERNELS[shape] = namespace["kernel"]
        object.__setattr__(spec, "_run", (kernel, params))
    return kernel(y, params)


def derive_divisor_formula(d: int, convention: SignConvention | str) -> DivisorSpec:
    """Reconstruct the formula for divisor d under the requested convention.

    Expanding floor(5y/4) at y = d*q + r and splitting 5r into 4r + r gives
    a positive-share shape a*q + r + floor((b*q + r)/4), valid exactly when
    4a + b is congruent to t = 5d mod 28 (adding 28 to the inner numerator
    or 7 to the outer coefficient never changes the mod-7 value, and
    shifting a by k against b by -4k changes nothing at all).  The formula
    keeps the inner coefficient b in {-1, 0, 1} and, among those, minimizes
    max(|a|, |b|), then |a|; both choices are forced:

    - 4a + b = t (mod 28) implies b = t (mod 4), and {-1, 0, 1} holds one
      value of each class but 2, so b = (t + 1) % 4 - 1, and b == 2 means
      no formula exists (5d is 2 mod 4 exactly when d is);
    - b fixed, 4a = t - b (mod 28) with t - b a multiple of 4 means
      a = (t - b) // 4 (mod 7), and the member of that class in [-3, 3],
      a = ((t - b) // 4 + 3) % 7 - 3, has the smallest |a|, which is then
      also the smallest max(|a|, |b|), since |b| <= 1 <= 3.

    The negative-share spec is the termwise negation of the positive one.
    """
    check_int("divisor", d)
    if not 2 <= d <= 28:
        raise ValueError(f"divisor must be in [2, 28], got {echo(d)}")
    convention = member(SignConvention, convention)
    t = 5 * d % 28
    b = (t + 1) % 4 - 1
    if b == 2:
        raise NotRepresentableError(
            f"divisor {d}: no formula with inner q-coefficient in -1..1 "
            f"(5*{d} is 2 mod 4, so the inner coefficient would need magnitude 2)"
        )
    a = ((t - b) // 4 + 3) % 7 - 3
    sign = 1 if convention is SignConvention.POSITIVE else -1
    if b == 0 and d <= 4:
        # r < 4 makes floor(r/4) identically zero; drop the term
        return DivisorSpec(d, convention, sign * a, sign, 0, 0, 0)
    return DivisorSpec(d, convention, sign * a, sign, sign, b, 1)


def div4(y: int) -> ShareResult:
    """Highest-multiple-of-four method: half that multiple, minus the remainder.

    Same formula as the d=4 entry of the built-in table (2q - r, negative
    share); the trace follows the halving phrasing people actually use.
    """
    spec = BUILTIN_DIVISOR_SPECS[4]
    q, r = divmod(check_year2(y), 4)
    m = 4 * q
    half = m // 2
    raw = half - r
    steps = (
        (DIV_SPLIT, ("highest multiple of four not exceeding {} is {}, remainder {}", y, m, r), (y, 4), q),
        (HALVE, ("half of {0} is {1}",), (m,), half),
        (SUB_CONST, ("minus the remainder: {0} - {1} = {2}",), (half, r), raw),
    )
    return traced(raw, spec.convention, steps)


def div12(y: int) -> ShareResult:
    """Dozens method: dozens, plus the remainder, plus the fours in the remainder.

    Same formula as the d=12 entry of the built-in table (q + r + floor(r/4),
    positive share), phrased the way the rule is usually taught.
    """
    spec = BUILTIN_DIVISOR_SPECS[12]
    q, r = divmod(check_year2(y), 12)
    fours = r // 4
    raw = q + r + fours
    steps = (
        (DIV_SPLIT, ("dozens in {}: {}, remainder {}", y, q, r), (y, 12), q),
        (QUARTER_FLOOR, ("fours in the remainder: floor({0}/4) = {1}",), (r,), fours),
        (ADD_CONST, ("dozens plus remainder: {0} + {1} = {2}",), (q, r), q + r),
        (ADD_CONST, ("plus the fours: {0} + {1} = {2}",), (q + r, fours), raw),
    )
    return traced(raw, spec.convention, steps)
