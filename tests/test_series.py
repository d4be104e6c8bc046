"""Exact Laurent and truncated-series arithmetic."""

from fractions import Fraction

import pytest

from ftik.errors import SingularSeriesError, TruncationError
from ftik.series import (
    HalfLaurent,
    IntLaurent,
    TruncSeries,
    compose_exp_minus_one,
    format_laurent,
    format_rational,
    laurent_to_series,
)


def test_laurent_ring_ops():
    z = IntLaurent.monomial(1)
    p = (z + IntLaurent.one()) * (z - IntLaurent.one())
    assert p == z**2 - IntLaurent.one()
    assert p.coeff(2) == 1 and p.coeff(0) == -1 and p.coeff(1) == 0
    assert (p - p).is_zero()
    assert (-p).coeff(0) == 1


def test_laurent_negative_exponents():
    p = IntLaurent.monomial(-2, 3) * IntLaurent.monomial(5, 2)
    assert p == IntLaurent.monomial(3, 6)


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"


def test_format_laurent_half_exponents():
    p = HalfLaurent.from_dict({-2: -1, 1: 2, 4: 1})
    text = format_laurent(p, "t")
    assert "t^(1/2)" in text and "t^-1" in text and "t^2" in text
    assert format_laurent(HalfLaurent.zero(), "t") == "0"


def test_trunc_series_mul_invert():
    s = TruncSeries.from_coeffs([1, 1], 5)  # 1 + u
    inv = s.invert()
    assert [inv.coeff(k) for k in range(6)] == [1, -1, 1, -1, 1, -1]
    assert (s * inv).coeff(0) == 1
    assert all((s * inv).coeff(k) == 0 for k in range(1, 6))
    assert (s**3).coeff(2) == 3


def test_trunc_series_subtraction_and_powers():
    s = TruncSeries.from_coeffs([2, -1, Fraction(1, 3)], 4)
    t = TruncSeries.from_coeffs([5, 0, 7, 1], 4)
    assert s - t == s + -t
    assert [(s - t).coeff(k) for k in range(5)] == [-3, -1, Fraction(-20, 3), -1, 0]
    with pytest.raises(ValueError):
        s - TruncSeries.from_coeffs([5], 3)
    assert s ** -2 == (s ** 2).invert()
    assert s ** 0 == TruncSeries.one(4)


def test_laurent_powers():
    p = HalfLaurent.from_dict({-1: 1, 1: 1})
    assert p ** 0 == HalfLaurent.one()
    assert p ** 3 == p * p * p
    assert IntLaurent.monomial(-1, 2) ** 0 == IntLaurent.one()
    with pytest.raises(ValueError):
        IntLaurent.monomial(1) ** -1


def test_trunc_series_invert_needs_unit():
    u = TruncSeries.from_coeffs([0, 1], 4)
    with pytest.raises(SingularSeriesError):
        u.invert()


def test_trunc_series_coeff_out_of_range():
    s = TruncSeries.one(3)
    with pytest.raises(TruncationError) as exc:
        s.coeff(4)
    assert exc.value.requested == 4


def test_half_power_binomial():
    # (1 + u)^(1/2) = 1 + u/2 - u^2/8 + ...
    s = laurent_to_series(HalfLaurent.monomial(1), 4)
    assert s.coeff(0) == 1
    assert s.coeff(1) == Fraction(1, 2)
    assert s.coeff(2) == Fraction(-1, 8)
    # Squaring recovers 1 + u exactly within truncation.
    sq = s * s
    assert sq.coeff(0) == 1 and sq.coeff(1) == 1
    assert all(sq.coeff(k) == 0 for k in (2, 3, 4))


def test_laurent_to_series_roundtrip():
    # t^(1/2) + t^(-1/2) about t = 1 starts at 2.
    hs = HalfLaurent.from_dict({1: 1, -1: 1})
    s = laurent_to_series(hs, 6)
    assert s.coeff(0) == 2


def test_compose_exp_minus_one():
    # f(u) = u composed with u = e^h - 1 gives e^h - 1: derivatives all 1.
    u = TruncSeries.from_coeffs([0, 1], 6)
    g = compose_exp_minus_one(u)
    import math
    for i in range(1, 7):
        assert math.factorial(i) * g.coeff(i) == 1
