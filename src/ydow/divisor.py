"""Divisor-family year-share formulas.

Write y = d*q + r with 0 <= r < d.  For suitable divisors the year share (or
its negative) collapses to a formula of the shape

    alpha*q + beta*r + gamma * floor((delta_q*q + delta_r*r) / 4)

with small coefficients.  Six divisors ship as a built-in table; the
derivation engine reconstructs such a formula for any divisor in [2, 28]
that admits one with the inner q-coefficient in {-1, 0, 1}.

Each `DivisorSpec` compiles its step plan once, when it is constructed:
which terms are non-zero, whether each is negated, multiplied, added or
subtracted, and every symbol text ("q + r", "floor((q + r)/4)", ...).
`eval_divisor` then only splits y, computes the numbers and records them
with the plan's templates (see `trace`; they are formatted when a trace's
text is first read), and `formula()` returns the plan's text of the whole
formula, so the two write every term alike.  The plan sits in a slot the
record's fields leave out, so `repr`, `==`, `hash`, pickle, copy and
`_replace` see only the seven coefficients, and every copy compiles its own
plan.

`div4` and `div12` compute the d=4 and d=12 table entries but keep their
own traces.  Running them through `eval_divisor` would keep their values,
their costs under the default model and their largest magnitudes, yet it
would change what a user sees: `explain` would lose the wording in which
each rule is taught, and `div4`'s halving would become a `MUL_SMALL` step,
so `cost --model` with a `halve` weight would report a different cost.
"""

from __future__ import annotations

from ._record import Record, check_int, echo, member
from .arith import ShareResult, SignConvention, check_year2, floor_div, normalize
from .trace import (
    ADD_CONST, DIV_SPLIT, HALVE, MUL_SMALL, QUARTER_FLOOR, SET, SIGN_FLIP, SUB_CONST, StepTrace,
)


class NotRepresentableError(ValueError):
    """No formula with a small inner coefficient exists for this divisor."""


# The largest coefficient magnitude a spec takes; derived formulas stay
# within 9, and the bound keeps every coefficient a few digits long.
MAX_COEF = 99
# The largest divisor a spec takes: every y is below 100, so d = 100 splits
# every year into q = 0, r = y, and any larger d splits it the same way.
MAX_DIVISOR = 100


class _Planned(Record):
    # Holds a spec's compiled plan.  Record reads a record's fields from the
    # __slots__ of its own class, so a slot declared here stays out of repr,
    # ==, hash, pickle, copy and _replace; those rebuild through __init__,
    # which compiles the plan again.
    __slots__ = ("_plan",)


class DivisorSpec(_Planned):
    """Coefficient record for one divisor formula, immutable (see `_record`).

    Value at y = d*q + r is coef_q*q + coef_r*r +
    coef_floor * floor((inner_q*q + inner_r*r) / 4), interpreted under the
    spec's sign convention, a SignConvention member or its value ("pos" or
    "neg").  The divisor and the five coefficients must be ints (a bool is
    not); anything else raises ValueError before any range is checked.
    The divisor lies in [2, MAX_DIVISOR], the floor coefficient is -1, 0
    or 1, and the other four lie in [-MAX_COEF, MAX_COEF].
    """

    __slots__ = ("d", "convention", "coef_q", "coef_r", "coef_floor", "inner_q", "inner_r")

    def __init__(
        self, d: int, convention: SignConvention | str, coef_q: int, coef_r: int, coef_floor: int, inner_q: int,
        inner_r: int,
    ):
        check_int("divisor", d)
        coefs = tuple(zip(self.__slots__[2:], (coef_q, coef_r, coef_floor, inner_q, inner_r)))
        for name, value in coefs:
            check_int(name, value)
        if not 2 <= d <= MAX_DIVISOR:
            raise ValueError(f"divisor must be in [2, {MAX_DIVISOR}], got {echo(d)}")
        if coef_floor not in (-1, 0, 1):
            raise ValueError(f"floor coefficient must be -1, 0 or 1, got {echo(coef_floor)}")
        for name, value in coefs:
            if not -MAX_COEF <= value <= MAX_COEF:
                raise ValueError(f"{name} must be in [-{MAX_COEF}, {MAX_COEF}], got {echo(value)}")
        super().__init__(d, member(SignConvention, convention), coef_q, coef_r, coef_floor, inner_q, inner_r)
        object.__setattr__(self, "_plan", _compile_plan(coef_q, coef_r, coef_floor, inner_q, inner_r))

    def value(self, y: int) -> int:
        q, r = divmod_split(y, self.d)
        total = self.coef_q * q + self.coef_r * r
        if self.coef_floor != 0:
            total += self.coef_floor * floor_div(self.inner_q * q + self.inner_r * r, 4)
        return total

    def formula(self) -> str:
        """The formula as its trace names it, e.g. "q - r - floor((q + r)/4)"."""
        return self._plan[1]

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


def _append_term(text: str, coef: int, sym: str) -> str:
    if coef == 0:
        return text
    mag = abs(coef)
    term = sym if mag == 1 else f"{mag}{sym}"
    if not text:
        return term if coef > 0 else f"-{term}"
    return f"{text} + {term}" if coef > 0 else f"{text} - {term}"


def _compile_plan(coef_q: int, coef_r: int, coef_floor: int, inner_q: int, inner_r: int) -> tuple:
    """A spec's steps after the split, as ops for `eval_divisor`, and its formula text.

    Each sum (the inner one under the floor, then the outer one) is folded
    left to right over its non-zero coef*value terms; an empty sum reads
    "0", and an inner sum with more than one term is parenthesised.  The
    outer sum's text is the formula, so `formula()` and the trace name every
    term alike.  Each term is one op
    `(src, pre, pre_text, m, comb, comb_text)`: it reads vals[src] (q, r
    or the floor), takes `m` times it in a `pre` step (MUL_SMALL, or
    SIGN_FLIP for a leading -1; None for no step), then adds it to or
    subtracts it from the running sum in a `comb` step (None for a leading
    term, which starts the sum).  Between the sums, one QUARTER_FLOOR op
    floors the inner sum by four.  The texts are step templates: `pre_text`
    takes the product, `comb_text` the sum so far, the term and the new sum,
    and the floor's text the inner sum and its floor.
    """
    ops = []

    def fold(terms: list[tuple[int, int, str]]) -> str:
        text = ""
        for coef, src, sym in terms:
            if coef == 0:
                continue
            m = abs(coef) if text else coef
            pre = None if m == 1 else SIGN_FLIP if m == -1 else MUL_SMALL
            comb = None if not text else ADD_CONST if coef > 0 else SUB_CONST
            text = _append_term(text, coef, sym)
            ops.append((src, pre, f"-{sym} = {{}}" if m == -1 else f"{m}*{sym} = {{}}", m, comb,
                        f"{text}: {{}} {'+' if coef > 0 else '-'} {{}} = {{}}"))
        return text or "0"

    terms = [(coef_q, 0, "q"), (coef_r, 1, "r")]
    if coef_floor != 0:
        inner = fold([(inner_q, 0, "q"), (inner_r, 1, "r")])
        if " " in inner:
            inner = f"({inner})"
        ops.append((2, QUARTER_FLOOR, f"floor({inner}/4) = floor({{}}/4) = {{}}", 0, None, ""))
        terms.append((coef_floor, 2, f"floor({inner}/4)"))
    text = fold(terms)
    return tuple(ops), text


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


def divmod_split(y: int, d: int) -> tuple[int, int]:
    """Quotient and remainder of y by d with 0 <= r < d."""
    if d < 2:
        raise ValueError(f"divisor must be >= 2, got {echo(d)}")
    check_year2(y)
    return y // d, y % d


def eval_divisor(spec: DivisorSpec, y: int) -> ShareResult:
    """Evaluate a divisor formula at y, recording one step per mental operation.

    The steps follow the spec's plan (see `_compile_plan`); this only splits
    y, computes the numbers and records them with the plan's templates.
    """
    d = spec.d
    q, r = divmod_split(y, d)
    steps = [(DIV_SPLIT, ("split {0} = {1}*{2} + {3} (q={2}, r={3})", y, d, q, r), (y, d), q)]
    vals = [q, r, 0]
    acc = 0
    for src, pre, pre_text, m, comb, comb_text in spec._plan[0]:
        if pre is QUARTER_FLOOR:  # closes the inner sum; the outer sum reads it as vals[2]
            fval = vals[2] = acc // 4
            steps.append((QUARTER_FLOOR, (pre_text, acc, fval), (acc,), fval))
            continue
        val = vals[src]
        if pre is None:
            operand = val
        elif pre is SIGN_FLIP:
            operand = -val
            steps.append((SIGN_FLIP, (pre_text, operand), (val,), operand))
        else:
            operand = m * val
            steps.append((MUL_SMALL, (pre_text, operand), (m, val), operand))
        if comb is None:
            acc = operand
        else:
            new = acc + operand if comb is ADD_CONST else acc - operand
            steps.append((comb, (comb_text, acc, operand, new), (acc, operand), new))
            acc = new
    if steps[-1][3] != acc:
        # degenerate single-term formula; pin the final value explicitly
        steps.append((SET, ("value is {}", acc), (acc,), acc))
    return normalize(acc, spec.convention, StepTrace(tuple(steps)))


def derive_divisor_formula(d: int, convention: SignConvention | str) -> DivisorSpec:
    """Reconstruct the formula for divisor d under the requested convention.

    Expanding floor(5y/4) at y = d*q + r and splitting 5r into 4r + r gives
    a positive-share shape a*q + r + floor((b*q + r)/4), valid exactly when
    4a + b is congruent to 5d mod 28 (adding 28 to the inner numerator or 7
    to the outer coefficient never changes the mod-7 value, and shifting a
    by k against b by -4k changes nothing at all).  The search keeps the
    inner coefficient b in {-1, 0, 1} and picks the representative
    minimizing max(|a|, |b|), breaking ties toward smaller |a|.  The
    negative-share spec is the termwise negation of the positive one.
    """
    check_int("divisor", d)
    if not 2 <= d <= 28:
        raise ValueError(f"divisor must be in [2, 28], got {echo(d)}")
    convention = member(SignConvention, convention)
    target = (5 * d) % 28
    candidates = []
    for b in (-1, 0, 1):
        for a in range(-9, 10):
            if (4 * a + b) % 28 == target:
                candidates.append((max(abs(a), abs(b)), abs(a), a, b))
    if not candidates:
        raise NotRepresentableError(
            f"divisor {d}: no formula with inner q-coefficient in -1..1 "
            f"(5*{d} is 2 mod 4, so the inner coefficient would need magnitude 2)"
        )
    candidates.sort()
    _, _, a, b = candidates[0]
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
    q, r = divmod_split(y, 4)
    m = 4 * q
    half = m // 2
    raw = half - r
    steps = (
        (DIV_SPLIT, ("highest multiple of four not exceeding {} is {}, remainder {}", y, m, r), (y, 4), q),
        (HALVE, ("half of {} is {}", m, half), (m,), half),
        (SUB_CONST, ("minus the remainder: {} - {} = {}", half, r, raw), (half, r), raw),
    )
    return normalize(raw, spec.convention, StepTrace(steps))


def div12(y: int) -> ShareResult:
    """Dozens method: dozens, plus the remainder, plus the fours in the remainder.

    Same formula as the d=12 entry of the built-in table (q + r + floor(r/4),
    positive share), phrased the way the rule is usually taught.
    """
    spec = BUILTIN_DIVISOR_SPECS[12]
    q, r = divmod_split(y, 12)
    fours = floor_div(r, 4)
    raw = q + r + fours
    steps = (
        (DIV_SPLIT, ("dozens in {}: {}, remainder {}", y, q, r), (y, 12), q),
        (QUARTER_FLOOR, ("fours in the remainder: floor({}/4) = {}", r, fours), (r,), fours),
        (ADD_CONST, ("dozens plus remainder: {} + {} = {}", q, r, q + r), (q, r), q + r),
        (ADD_CONST, ("plus the fours: {} + {} = {}", q + r, fours, raw), (q + r, fours), raw),
    )
    return normalize(raw, spec.convention, StepTrace(steps))
