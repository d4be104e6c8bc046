"""Property-based checks on the exact arithmetic cores."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ftik.series import (
    HalfLaurent,
    IntLaurent,
    TruncSeries,
    compose_exp_minus_one,
    laurent_to_series,
)

coeffs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
int_coeffs = st.integers(min_value=-50, max_value=50)
laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6), int_coeffs, max_size=5
).map(IntLaurent.from_dict)
half_laurents = st.dictionaries(
    st.integers(min_value=-9, max_value=9), int_coeffs, max_size=5
).map(HalfLaurent.from_dict)
series = st.lists(coeffs, min_size=7, max_size=7).map(
    lambda cs: TruncSeries.from_coeffs(cs, 6)
)


def truncated(s, k):
    return TruncSeries.from_coeffs(s.coeffs, k)


@settings(max_examples=60, deadline=None)
@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == IntLaurent.zero()


@settings(max_examples=60, deadline=None)
@given(series, series, series)
def test_trunc_series_ring_axioms(a, b, c):
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


@settings(max_examples=60, deadline=None)
@given(series)
def test_trunc_series_invert_roundtrip(a):
    if a.coeff(0) == 0:
        return
    prod = a * a.invert()
    assert prod.coeff(0) == 1
    assert all(prod.coeff(k) == 0 for k in range(1, 7))


@settings(max_examples=60, deadline=None)
@given(series, series, half_laurents)
def test_truncation_commutes_with_series_operations(a, b, p):
    # Coefficient k of each result reads only coefficients <= k of its
    # inputs, so expanding to exactly the order a formula reads is enough.
    for k in range(7):
        a_k, b_k = truncated(a, k), truncated(b, k)
        assert truncated(a * b, k) == a_k * b_k
        if a.coeff(0) != 0:
            assert truncated(a.invert(), k) == a_k.invert()
        assert truncated(compose_exp_minus_one(a), k) == compose_exp_minus_one(a_k)
        assert truncated(laurent_to_series(p, 6), k) == laurent_to_series(p, k)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.integers(min_value=-40, max_value=40), int_coeffs,
                    max_size=6).map(HalfLaurent.from_dict),
    st.integers(min_value=0, max_value=10),
)
def test_laurent_to_series_is_a_binomial_sum(p, order):
    # The u^k coefficient of c t^(h/2) = c (1 + u)^(h/2) is c C(h/2, k),
    # evaluated here as a falling factorial over k!.
    want = []
    for k in range(order + 1):
        total = Fraction(0)
        for halves, c in p.terms:
            binom = Fraction(c)
            for j in range(k):
                binom *= (Fraction(halves, 2) - j) / (j + 1)
            total += binom
        want.append(total)
    assert laurent_to_series(p, order).coeffs == tuple(want)
