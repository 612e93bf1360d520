import doctest

import pytest
from conftest import python_frames

import ydow.arith as arith
from ydow.arith import (
    ShareResult,
    SignConvention,
    check_year2,
    floor_div,
    mod7,
    normalize,
    year_share,
)


def test_doctests():
    failures, _ = doctest.testmod(arith)
    assert failures == 0


def reference_floor(p, q):
    # rounding toward minus infinity, stated independently of the
    # implementation: exact quotient when q divides p, otherwise one less
    # than truncation for negative dividends
    if p % q == 0:
        return p // q
    import math

    return math.floor(p / q)


def test_floor_div_matches_reference():
    for p in range(-200, 201):
        for q in (2, 4, 7, 10):
            assert floor_div(p, q) == reference_floor(p, q), (p, q)


def test_floor_div_examples():
    assert floor_div(7, 2) == 3
    assert floor_div(-8, 4) == -2
    assert floor_div(-1, 4) == -1
    assert floor_div(-13, 4) == -4
    assert floor_div(0, 7) == 0


def test_floor_div_rejects_bad_divisor():
    with pytest.raises(ValueError):
        floor_div(5, 0)
    with pytest.raises(ValueError):
        floor_div(5, -2)


def test_mod7_range_and_congruence():
    for n in range(-500, 501):
        r = mod7(n)
        assert 0 <= r <= 6, n
        assert (n - r) % 7 == 0, n


def test_check_year2():
    assert check_year2(0) == 0
    assert check_year2(99) == 99
    for bad in (-1, 100, 3.5, "12", None, True):
        with pytest.raises(ValueError):
            check_year2(bad)


def test_year_share_known_values():
    assert year_share(0) == 0
    assert year_share(24) == 2
    assert year_share(59) == 3
    assert year_share(87) == 3
    assert year_share(95) == 6


def test_year_share_equivalent_form():
    # floor(5y/4) and y + floor(y/4) are the same thing mod 7
    for y in range(100):
        assert year_share(y) == (y + y // 4) % 7


def test_year_share_runs_two_python_frames():
    # the floor and the reduction are Python's `//` and `%`: only the year check is a call
    for y in (0, 59, 99):
        assert python_frames(year_share, y) == ["year_share", "check_year2"]


def test_normalize_positive():
    res = normalize(17, SignConvention.POSITIVE)
    assert res == ShareResult(17, SignConvention.POSITIVE, 3, None)
    assert res.negative_residue == 4


def test_normalize_negative():
    # raw -3 as a negative share means the positive share is 3
    res = normalize(-3, SignConvention.NEGATIVE)
    assert res.residue == 3
    assert res.negative_residue == 4


def test_share_result_is_immutable():
    res = normalize(5, SignConvention.POSITIVE)
    with pytest.raises(AttributeError):
        res.raw = 6
