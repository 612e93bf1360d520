"""Single-variable year-share methods.

These manipulate one running value YS (test it, bump it, halve it) and never
need a second number to be held in mind.  Both produce the *negative* year
share.  Raw outputs are left unreduced; mod-7 normalization happens in
ShareResult.
"""

from __future__ import annotations

from .arith import NEGATIVE, ShareResult, check_year2
from .trace import ADD_CONST, HALVE, PARITY_TEST, SET, SUB_CONST, traced


def odd11(y: int) -> ShareResult:
    """Odd+11: set YS to y; if odd add 11; halve; if odd add 11 again.

    The result is even for every y and is congruent mod 7 to the negative
    year share.  Writing y = 4a + 2b + c (b, c in {0, 1}), the output equals
    2a + 12b + 6c.
    """
    check_year2(y)
    ys = y
    if ys % 2:
        first = (ADD_CONST, ("YS is odd: add 11, {0} + 11 = {2}",), (ys, 11), ys + 11)
        ys += 11
    else:
        first = (PARITY_TEST, ("YS is even: leave {0} unchanged",), (ys,), 0)
    half = ys // 2
    if half % 2:
        last = (ADD_CONST, ("YS is odd: add 11, {0} + 11 = {2}",), (half, 11), half + 11)
        raw = half + 11
    else:
        last = (PARITY_TEST, ("YS is even: leave {0} unchanged",), (half,), 0)
        raw = half
    steps = ((SET, ("set YS to {0}",), (y,), y), first, (HALVE, ("halve: {0} / 2 = {1}",), (ys,), half), last)
    return traced(raw, NEGATIVE, steps)


def parity3(y: int) -> ShareResult:
    """Parity Minus 3: like Odd+11 but with smaller intermediate values.

    Set YS to y; remember its parity and subtract 3 if odd; halve; subtract
    3 again if the parity changed.  Writing y = 4a + 2b + c, the output
    equals 2a - 2b - c, so it always has the same parity as y and is
    congruent mod 7 to the negative year share.  Intermediates can go
    slightly negative for y < 4; the algebra stays valid, so no clamping.
    """
    check_year2(y)
    ys = y
    remembered = ys % 2  # step-ii parity flag, reused verbatim in step iv
    if remembered:
        first = (SUB_CONST, ("YS is odd (remember: odd): subtract 3, {0} - 3 = {2}",), (ys, 3), ys - 3)
        ys -= 3
    else:
        first = (PARITY_TEST, ("YS is even (remember: even): leave {0} unchanged",), (ys,), 0)
    half = ys // 2
    if half % 2 != remembered:
        last = (SUB_CONST, ("parity changed: subtract 3, {0} - 3 = {2}",), (half, 3), half - 3)
        raw = half - 3
    else:
        last = (PARITY_TEST, ("parity unchanged: leave {0} as is",), (half,), remembered)
        raw = half
    steps = ((SET, ("set YS to {0}",), (y,), y), first, (HALVE, ("halve: {0} / 2 = {1}",), (ys,), half), last)
    return traced(raw, NEGATIVE, steps)
