"""Finite-type order machinery: alternating sums and the order-evidence
report."""

import time
from fractions import Fraction

import pytest

from ftik import catalog
from ftik.diagram import LinkDiagram, SurgeryPresentation
from ftik.errors import ResourceLimitError
from ftik.fintype import (
    CASSON,
    LAMBDA1,
    LAMBDA2,
    INVARIANTS,
    InvariantFunction,
    difference_sum,
    order_check,
)
from oracles import chain, graph_link


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
        d = chain(n).diagram
        assert len(d.piece_masks((1 << d.components) - 1)) == 1
        assert difference_sum(CASSON, chain(n)) == 0, n


def test_casson_squared_obeys_the_product_rule_on_chains():
    # Theorem 3.1's algebra rests on Delta_L(FG) = (-1)^#L sum over A u B = L
    # of (-1)^(#A + #B) Delta_A F Delta_B G, A and B possibly overlapping;
    # here F = G = Casson on non-split chains.
    squared = InvariantFunction("casson^2", lambda sp: CASSON(sp) ** 2)
    for n, expected in zip(range(4, 8), (2, -2, 2, 0)):
        sp = chain(n)
        delta = {a: difference_sum(CASSON, sp.sub_presentation(
                     [c for c in range(n) if a >> c & 1]))
                 for a in range(1 << n)}
        full = (1 << n) - 1
        product_side = (-1) ** n * sum(
            (-1) ** (a.bit_count() + b.bit_count()) * delta[a] * delta[b]
            for a in delta for b in delta if a | b == full)
        assert difference_sum(squared, sp) == product_side == expected, n


def test_difference_sum_lambda2_vanishes_on_seven_split():
    sp = catalog.presentation("split-seven-plus1")
    assert sp.diagram.components == 7
    assert difference_sum(LAMBDA2, sp) == 0


def test_lambda2_difference_sums_of_graph_links():
    # theta u theta is split, so Delta lambda2 = 36 = 18 Delta casson^2 is
    # the cross term lambda1 lambda1 / 2 of the connected-sum rule, and
    # lambda2 - 18 casson^2 is of lower order there.  Chains 5, 6 and 7 are
    # not split; on chain 6 lambda2 - 18 casson^2 vanishes as well, and on
    # chain 7 Delta lambda2 vanishes, as an invariant of order <= 6 must on
    # 7 components.  On the digons graph lambda2 - 18 casson^2 does not
    # vanish, so it is not of lower order and the order-6 weight systems
    # of lambda2 and casson^2 have rank 2.
    theta_theta = graph_link(6, [(0, 1, 2), (3, 4, 5)])
    digons = graph_link(6, [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)])
    squared = InvariantFunction("casson^2", lambda sp: CASSON(sp) ** 2)
    rest = InvariantFunction("lambda2 - 18 casson^2",
                             lambda sp: LAMBDA2(sp) - 18 * CASSON(sp) ** 2)
    assert difference_sum(LAMBDA2, theta_theta) == 36
    assert difference_sum(squared, theta_theta) == 2
    assert difference_sum(rest, theta_theta) == 0
    assert difference_sum(LAMBDA2, chain(5)) == -60
    assert difference_sum(rest, chain(6)) == 0
    assert difference_sum(LAMBDA2, chain(7)) == 0
    assert difference_sum(LAMBDA2, digons) == 120
    assert difference_sum(squared, digons) == 4
    assert difference_sum(rest, digons) == 48


def test_difference_sum_checks_the_whole_presentation_first():
    # lambda2 on 20 unknots is instant, but the 2^20 sub-presentations are
    # past the budget of 10^6, so the sum refuses them before it evaluates
    # any.  Chain 10's 2^10 are under it, and lambda2 refuses the whole
    # presentation (its 2-parallel is one piece of 20 components) before
    # any smaller one is evaluated.
    unlink = SurgeryPresentation(LinkDiagram.from_pd([], (1,) * 20, 20))
    for presentation, expected in [(unlink, []), (chain(10), [10])]:
        evaluated = []
        counted = InvariantFunction("lambda2", lambda sp: evaluated.append(sp) or LAMBDA2(sp))
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            difference_sum(counted, presentation)
        assert time.perf_counter() - start < 2
        assert [sp.diagram.components for sp in evaluated] == expected


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
