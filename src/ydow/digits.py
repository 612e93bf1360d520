"""Year-share methods that work on individual digits.

Two flavors: eisele and harringer split off the tens/units digits of the
largest multiple of four not exceeding the year, everything else uses the
digits t, u of the year itself (y = 10t + u).  Floors of negative
quantities round toward minus infinity throughout; wang and digits_ab
genuinely depend on that.
"""

from __future__ import annotations

from .arith import NEGATIVE, POSITIVE, ShareResult, check_year2, floor_div, normalize
from .trace import (
    ADD_CONST, DIV_SPLIT, HALVE, MUL_SMALL, PARITY_TEST, QUARTER_FLOOR, SIGN_FLIP, SUB_CONST, StepTrace,
)


def _digit_split(y: int) -> tuple[int, int, tuple]:
    t, u = divmod(y, 10)
    step = (DIV_SPLIT, ("digits of {}: tens {}, units {}", y, t, u), (y, 10), t)
    return t, u, step


def eisele(y: int) -> ShareResult:
    """Digits of the largest multiple of four: 2t - u/2 + r (positive share).

    Here t and u are the tens/units digits of 4q where y = 4q + r.  The
    units digit of a multiple of four is even, so the halving is exact.
    """
    check_year2(y)
    q, r = divmod(y, 4)
    m = 4 * q
    t, u = divmod(m, 10)
    half = u // 2
    raw = 2 * t - half + r
    steps = (
        (DIV_SPLIT, ("largest multiple of four not exceeding {} is {}, remainder {}", y, m, r), (y, 4), q),
        (DIV_SPLIT, ("digits of {}: tens {}, units {}", m, t, u), (m, 10), t),
        (MUL_SMALL, ("twice the tens digit: 2*{} = {}", t, 2 * t), (2, t), 2 * t),
        (HALVE, ("half the units digit: {}/2 = {}", u, half), (u,), half),
        (SUB_CONST, ("2t - u/2: {} - {} = {}", 2 * t, half, 2 * t - half), (2 * t, half), 2 * t - half),
        (ADD_CONST, ("plus the remainder: {} + {} = {}", 2 * t - half, r, raw), (2 * t - half, r), raw),
    )
    return normalize(raw, POSITIVE, StepTrace(steps))


def harringer(y: int) -> ShareResult:
    """Variant of eisele on the same digits: 2t + 3u + r (positive share).

    Differs from eisele by 7u/2 -- a multiple of 7 since u is even -- so
    both land in the same residue class.
    """
    check_year2(y)
    q, r = divmod(y, 4)
    m = 4 * q
    t, u = divmod(m, 10)
    raw = 2 * t + 3 * u + r
    steps = (
        (DIV_SPLIT, ("largest multiple of four not exceeding {} is {}, remainder {}", y, m, r), (y, 4), q),
        (DIV_SPLIT, ("digits of {}: tens {}, units {}", m, t, u), (m, 10), t),
        (MUL_SMALL, ("twice the tens digit: 2*{} = {}", t, 2 * t), (2, t), 2 * t),
        (MUL_SMALL, ("thrice the units digit: 3*{} = {}", u, 3 * u), (3, u), 3 * u),
        (ADD_CONST, ("2t + 3u: {} + {} = {}", 2 * t, 3 * u, 2 * t + 3 * u), (2 * t, 3 * u), 2 * t + 3 * u),
        (ADD_CONST, ("plus the remainder: {} + {} = {}", 2 * t + 3 * u, r, raw), (2 * t + 3 * u, r), raw),
    )
    return normalize(raw, POSITIVE, StepTrace(steps))


def digits_aa(y: int) -> ShareResult:
    """Digit-pair rule, variant a: 2t - (floor((2t + u)/4) + u), negative share."""
    check_year2(y)
    t, u, split = _digit_split(y)
    twot = 2 * t
    inner = twot + u
    quarter = inner // 4
    s2 = quarter + u
    raw = twot - s2
    steps = (
        split,
        (MUL_SMALL, ("twice the tens digit: 2*{} = {}", t, twot), (2, t), twot),
        (ADD_CONST, ("2t + u = {} + {} = {}", twot, u, inner), (twot, u), inner),
        (QUARTER_FLOOR, ("its quarter: floor({}/4) = {}", inner, quarter), (inner,), quarter),
        (ADD_CONST, ("add the units digit: {} + {} = {}", quarter, u, s2), (quarter, u), s2),
        (SUB_CONST, ("subtract that sum from 2t: {} - {} = {}", twot, s2, raw), (twot, s2), raw),
    )
    return normalize(raw, NEGATIVE, StepTrace(steps))


def fong(y: int) -> ShareResult:
    """Digit formula with a tens-parity correction (positive share).

    2t + 10*(t mod 2) + u + floor((2*(t mod 2) + u)/4): when the tens digit
    is odd, both the running sum and the quantity being quartered get a
    small bump.
    """
    check_year2(y)
    t, u, split = _digit_split(y)
    p = t % 2
    twot = 2 * t
    steps = [
        split,
        (PARITY_TEST, ("tens digit {} is {}", t, "odd" if p else "even"), (t,), p),
        (MUL_SMALL, ("twice the tens digit: 2*{} = {}", t, twot), (2, t), twot),
    ]
    acc = twot
    if p:
        steps.append((ADD_CONST, ("tens digit odd: add 10, {} + 10 = {}", acc, acc + 10), (acc, 10), acc + 10))
        acc += 10
    steps.append((ADD_CONST, ("add the units digit: {} + {} = {}", acc, u, acc + u), (acc, u), acc + u))
    acc += u
    inner = 2 * p + u
    if p:
        text = ("tens digit odd: quarter {0} + 2 = {1} instead of {0}", u, inner)
        steps.append((ADD_CONST, text, (u, 2), inner))
    quarter = inner // 4
    steps.append((QUARTER_FLOOR, ("its quarter: floor({}/4) = {}", inner, quarter), (inner,), quarter))
    raw = acc + quarter
    steps.append((ADD_CONST, ("add the quarter: {} + {} = {}", acc, quarter, raw), (acc, quarter), raw))
    return normalize(raw, POSITIVE, StepTrace(tuple(steps)))


def wang(y: int) -> ShareResult:
    """Digit formula u - t + floor((u - 2t)/4) (positive share).

    The quartered quantity is negative whenever 2t > u, so the floor must
    round toward minus infinity; truncating it breaks more than half of
    all years.
    """
    check_year2(y)
    t, u, split = _digit_split(y)
    diff = u - t
    twot = 2 * t
    inner = u - twot
    quarter = floor_div(inner, 4)
    raw = diff + quarter
    steps = (
        split,
        (SUB_CONST, ("units minus tens: {} - {} = {}", u, t, diff), (u, t), diff),
        (MUL_SMALL, ("twice the tens digit: 2*{} = {}", t, twot), (2, t), twot),
        (SUB_CONST, ("u - 2t = {} - {} = {}", u, twot, inner), (u, twot), inner),
        (QUARTER_FLOOR, ("quarter, rounded down: floor({}/4) = {}", inner, quarter), (inner,), quarter),
        (ADD_CONST, ("add it to u - t: {} + {} = {}", diff, quarter, raw), (diff, quarter), raw),
    )
    return normalize(raw, POSITIVE, StepTrace(steps))


def digits_ab(y: int) -> ShareResult:
    """Digit-pair rule, variant b: -floor((5u - 6t)/4), negative share.

    Mental form: take |5u - 6t|, quarter it (bumping up by one on a
    nonzero remainder when the sign was minus), then attach the opposite
    sign.  That bookkeeping is exactly floor division of the signed value
    followed by negation, which is how the steps record it.
    """
    check_year2(y)
    t, u, split = _digit_split(y)
    fiveu = 5 * u
    sixt = 6 * t
    d = fiveu - sixt
    quarter = floor_div(d, 4)
    raw = -quarter
    if d >= 0:
        qdesc = ("quarter, rounded down: floor({}/4) = {}", d, quarter)
    elif (-d) % 4:
        qdesc = (
            "quarter of {} is {}, nonzero remainder and sign minus bump it to {}: floor({}/4) = {}",
            -d, (-d) // 4, (-d) // 4 + 1, d, quarter,
        )
    else:
        qdesc = ("quarter of {} is exactly {}: floor({}/4) = {}", -d, (-d) // 4, d, quarter)
    steps = (
        split,
        (MUL_SMALL, ("5u = 5*{} = {}", u, fiveu), (5, u), fiveu),
        (MUL_SMALL, ("6t = 6*{} = {}", t, sixt), (6, t), sixt),
        (SUB_CONST, ("5u - 6t = {} - {} = {} (remember the sign)", fiveu, sixt, d), (fiveu, sixt), d),
        (QUARTER_FLOOR, qdesc, (d,), quarter),
        (SIGN_FLIP, ("attach the opposite sign: {}", raw), (quarter,), raw),
    )
    return normalize(raw, NEGATIVE, StepTrace(steps))
