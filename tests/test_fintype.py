"""Finite-type order machinery: alternating sums and the order-evidence
report."""

from fractions import Fraction

import pytest

from ftik import catalog
from ftik.diagram import SurgeryPresentation
from ftik.fintype import (
    CASSON,
    LAMBDA1,
    LAMBDA2,
    INVARIANTS,
    InvariantFunction,
    difference_sum,
    order_check,
)
from oracles import chain


def test_difference_sum_casson_vanishes_on_four_components():
    sp = catalog.presentation("borromean-unknot-plus1")
    assert sp.diagram.components == 4
    assert difference_sum(CASSON, sp) == 0


def test_difference_sum_casson_nonzero_on_borromean():
    sp = catalog.presentation("borromean-plus1")
    assert difference_sum(CASSON, sp) != 0


def test_casson_order_exactly_three_on_chains():
    # Chains are ASLs that are not split, so vanishing is not automatic.
    assert difference_sum(CASSON, chain(3)) == -1
    for n in range(4, 7):
        assert len(chain(n).diagram.split_pieces()) == 1
        assert difference_sum(CASSON, chain(n)) == 0, n


def test_difference_sum_lambda2_vanishes_on_seven_split():
    sp = catalog.presentation("split-seven-plus1")
    assert sp.diagram.components == 7
    assert difference_sum(LAMBDA2, sp) == 0


def test_difference_sum_constant_vanishes_everywhere_nonempty():
    # The constant invariant has order 0: its alternating sum over the
    # sub-presentations of any nonempty link is (1 - 1)^n = 0.
    one = InvariantFunction("one", lambda sp: Fraction(1))
    for name in ("unknot-plus1", "whitehead-plus1", "borromean-plus1"):
        assert difference_sum(one, catalog.presentation(name)) == 0


def test_order_check_report_shape():
    suite = [("borromean-unknot-plus1", catalog.presentation("borromean-unknot-plus1"))]
    report = order_check(CASSON, suite, 3)
    assert report["invariant"] == "casson"
    assert report["order"] == 3
    assert "not a proof" in report["note"]
    assert report["entries"][0]["pass"] is True
    assert report["entries"][0]["value"] == "0"


def test_order_check_rejects_small_presentations():
    suite = [("unknot-plus1", catalog.presentation("unknot-plus1"))]
    with pytest.raises(ValueError):
        order_check(LAMBDA2, suite, 6)


def test_order_check_detects_nonvanishing():
    suite = [("borromean-plus1", catalog.presentation("borromean-plus1"))]
    report = order_check(CASSON, suite, 2)
    assert report["entries"][0]["pass"] is False


def test_invariant_function_returns_fraction():
    value = LAMBDA1(catalog.presentation("trefoil-right-plus1"))
    assert isinstance(value, Fraction) and value == 6


def test_surgery_rows_call_through_the_invariant_functions():
    # A tracer rebinds LAMBDA2.evaluate; the table's row must see it.
    original = LAMBDA2.evaluate
    object.__setattr__(LAMBDA2, "evaluate", lambda sp: Fraction(7))
    try:
        assert INVARIANTS["lambda2"][0](catalog.get("trefoil-right-plus1").diagram) == 7
    finally:
        object.__setattr__(LAMBDA2, "evaluate", original)
