"""Year-share methods that work on individual digits.

Two flavors: eisele and harringer split off the tens/units digits of the
largest multiple of four not exceeding the year, everything else uses the
digits t, u of the year itself (y = 10t + u).  Every split is Python's
`divmod` and every floor its `//`, which round toward minus infinity; wang
and digits_ab quarter negative quantities and genuinely depend on that.
"""

from __future__ import annotations

from .arith import NEGATIVE, POSITIVE, ShareResult, check_year2
from .trace import (
    ADD_CONST, DIV_SPLIT, HALVE, MUL_SMALL, PARITY_TEST, QUARTER_FLOOR, SIGN_FLIP, SUB_CONST, traced,
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
        (MUL_SMALL, ("twice the tens digit: 2*{1} = {2}",), (2, t), 2 * t),
        (HALVE, ("half the units digit: {0}/2 = {1}",), (u,), half),
        (SUB_CONST, ("2t - u/2: {0} - {1} = {2}",), (2 * t, half), 2 * t - half),
        (ADD_CONST, ("plus the remainder: {0} + {1} = {2}",), (2 * t - half, r), raw),
    )
    return traced(raw, POSITIVE, steps)


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
        (MUL_SMALL, ("twice the tens digit: 2*{1} = {2}",), (2, t), 2 * t),
        (MUL_SMALL, ("thrice the units digit: 3*{1} = {2}",), (3, u), 3 * u),
        (ADD_CONST, ("2t + 3u: {0} + {1} = {2}",), (2 * t, 3 * u), 2 * t + 3 * u),
        (ADD_CONST, ("plus the remainder: {0} + {1} = {2}",), (2 * t + 3 * u, r), raw),
    )
    return traced(raw, POSITIVE, steps)


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
        (MUL_SMALL, ("twice the tens digit: 2*{1} = {2}",), (2, t), twot),
        (ADD_CONST, ("2t + u = {0} + {1} = {2}",), (twot, u), inner),
        (QUARTER_FLOOR, ("its quarter: floor({0}/4) = {1}",), (inner,), quarter),
        (ADD_CONST, ("add the units digit: {0} + {1} = {2}",), (quarter, u), s2),
        (SUB_CONST, ("subtract that sum from 2t: {0} - {1} = {2}",), (twot, s2), raw),
    )
    return traced(raw, NEGATIVE, steps)


def fong(y: int) -> ShareResult:
    """Digit formula with a tens-parity correction (positive share).

    2t + 10*(t mod 2) + u + floor((2*(t mod 2) + u)/4): when the tens digit
    is odd, both the running sum and the quantity being quartered get a
    small bump.
    """
    check_year2(y)
    t, u, split = _digit_split(y)
    twot = 2 * t
    if t % 2:
        s1 = twot + 10
        acc = s1 + u
        inner = 2 + u
        quarter = inner // 4
        raw = acc + quarter
        steps = (
            split,
            (PARITY_TEST, ("tens digit {0} is odd",), (t,), 1),
            (MUL_SMALL, ("twice the tens digit: 2*{1} = {2}",), (2, t), twot),
            (ADD_CONST, ("tens digit odd: add 10, {0} + 10 = {2}",), (twot, 10), s1),
            (ADD_CONST, ("add the units digit: {0} + {1} = {2}",), (s1, u), acc),
            (ADD_CONST, ("tens digit odd: quarter {0} + 2 = {2} instead of {0}",), (u, 2), inner),
            (QUARTER_FLOOR, ("its quarter: floor({0}/4) = {1}",), (inner,), quarter),
            (ADD_CONST, ("add the quarter: {0} + {1} = {2}",), (acc, quarter), raw),
        )
    else:
        acc = twot + u
        quarter = u // 4
        raw = acc + quarter
        steps = (
            split,
            (PARITY_TEST, ("tens digit {0} is even",), (t,), 0),
            (MUL_SMALL, ("twice the tens digit: 2*{1} = {2}",), (2, t), twot),
            (ADD_CONST, ("add the units digit: {0} + {1} = {2}",), (twot, u), acc),
            (QUARTER_FLOOR, ("its quarter: floor({0}/4) = {1}",), (u,), quarter),
            (ADD_CONST, ("add the quarter: {0} + {1} = {2}",), (acc, quarter), raw),
        )
    return traced(raw, POSITIVE, steps)


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
    quarter = inner // 4
    raw = diff + quarter
    steps = (
        split,
        (SUB_CONST, ("units minus tens: {0} - {1} = {2}",), (u, t), diff),
        (MUL_SMALL, ("twice the tens digit: 2*{1} = {2}",), (2, t), twot),
        (SUB_CONST, ("u - 2t = {0} - {1} = {2}",), (u, twot), inner),
        (QUARTER_FLOOR, ("quarter, rounded down: floor({0}/4) = {1}",), (inner,), quarter),
        (ADD_CONST, ("add it to u - t: {0} + {1} = {2}",), (diff, quarter), raw),
    )
    return traced(raw, POSITIVE, steps)


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
    quarter = d // 4
    raw = -quarter
    if d >= 0:
        qdesc = ("quarter, rounded down: floor({0}/4) = {1}",)
    elif (-d) % 4:
        qdesc = (
            "quarter of {} is {}, nonzero remainder and sign minus bump it to {}: floor({}/4) = {}",
            -d, (-d) // 4, (-d) // 4 + 1, d, quarter,
        )
    else:
        qdesc = ("quarter of {} is exactly {}: floor({}/4) = {}", -d, (-d) // 4, d, quarter)
    steps = (
        split,
        (MUL_SMALL, ("5u = 5*{1} = {2}",), (5, u), fiveu),
        (MUL_SMALL, ("6t = 6*{1} = {2}",), (6, t), sixt),
        (SUB_CONST, ("5u - 6t = {0} - {1} = {2} (remember the sign)",), (fiveu, sixt), d),
        (QUARTER_FLOOR, qdesc, (d,), quarter),
        (SIGN_FLIP, ("attach the opposite sign: {1}",), (quarter,), raw),
    )
    return traced(raw, NEGATIVE, steps)
