"""Single-variable year-share methods.

These manipulate one running value YS (test it, bump it, halve it) and never
need a second number to be held in mind.  Both produce the *negative* year
share.  Raw outputs are left unreduced; mod-7 normalization happens in
ShareResult.
"""

from __future__ import annotations

from .arith import NEGATIVE, ShareResult, check_year2, normalize
from .trace import ADD_CONST, HALVE, PARITY_TEST, SET, SUB_CONST, StepTrace


def odd11(y: int) -> ShareResult:
    """Odd+11: set YS to y; if odd add 11; halve; if odd add 11 again.

    The result is even for every y and is congruent mod 7 to the negative
    year share.  Writing y = 4a + 2b + c (b, c in {0, 1}), the output equals
    2a + 12b + 6c.
    """
    check_year2(y)
    steps = []
    ys = y
    steps.append((SET, ("set YS to {}", ys), (ys,), ys))
    if ys % 2 == 1:
        steps.append((ADD_CONST, ("YS is odd: add 11, {} + 11 = {}", ys, ys + 11), (ys, 11), ys + 11))
        ys += 11
    else:
        steps.append((PARITY_TEST, ("YS is even: leave {} unchanged", ys), (ys,), ys % 2))
    steps.append((HALVE, ("halve: {} / 2 = {}", ys, ys // 2), (ys,), ys // 2))
    ys //= 2
    if ys % 2 == 1:
        steps.append((ADD_CONST, ("YS is odd: add 11, {} + 11 = {}", ys, ys + 11), (ys, 11), ys + 11))
        ys += 11
    else:
        steps.append((PARITY_TEST, ("YS is even: leave {} unchanged", ys), (ys,), ys % 2))
    return normalize(ys, NEGATIVE, StepTrace(tuple(steps)))


def parity3(y: int) -> ShareResult:
    """Parity Minus 3: like Odd+11 but with smaller intermediate values.

    Set YS to y; remember its parity and subtract 3 if odd; halve; subtract
    3 again if the parity changed.  Writing y = 4a + 2b + c, the output
    equals 2a - 2b - c, so it always has the same parity as y and is
    congruent mod 7 to the negative year share.  Intermediates can go
    slightly negative for y < 4; the algebra stays valid, so no clamping.
    """
    check_year2(y)
    steps = []
    ys = y
    steps.append((SET, ("set YS to {}", ys), (ys,), ys))
    remembered = ys % 2  # step-ii parity flag, reused verbatim in step iv
    if remembered:
        text = ("YS is odd (remember: odd): subtract 3, {} - 3 = {}", ys, ys - 3)
        steps.append((SUB_CONST, text, (ys, 3), ys - 3))
        ys -= 3
    else:
        steps.append((PARITY_TEST, ("YS is even (remember: even): leave {} unchanged", ys), (ys,), ys % 2))
    steps.append((HALVE, ("halve: {} / 2 = {}", ys, ys // 2), (ys,), ys // 2))
    ys //= 2
    if ys % 2 != remembered:
        steps.append((SUB_CONST, ("parity changed: subtract 3, {} - 3 = {}", ys, ys - 3), (ys, 3), ys - 3))
        ys -= 3
    else:
        steps.append((PARITY_TEST, ("parity unchanged: leave {} as is", ys), (ys,), ys % 2))
    return normalize(ys, NEGATIVE, StepTrace(tuple(steps)))
