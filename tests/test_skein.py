"""Bracket, Jones, and Conway evaluations against frozen values and the
naive state-sum oracle."""

from fractions import Fraction
from itertools import product

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ftik import catalog, memo, skein
from ftik.diagram import (
    LinkDiagram,
    closed_braid,
    disjoint_union,
    mirror,
    parallel,
    smooth_crossing,
    switch_crossing,
)
from ftik.errors import ResourceLimitError
from ftik.series import HalfLaurent, IntLaurent, laurent_to_series
from ftik.skein import (
    HALF_SUM,
    conway,
    conway_a2,
    jones,
    jones_series,
    kauffman_bracket,
)
from oracles import (
    braid_closures,
    braid_words,
    chain,
    contract_piece_dict,
    contraction_plan_rescored,
    kauffman_bracket_naive,
)

# Frozen Jones values in doubled (half-integer) exponents: {2k: c} == c t^k.
FROZEN_JONES = {
    "unknot": {0: 1},
    "trefoil-right": {-8: -1, -6: 1, -2: 1},
    "trefoil-left": {8: -1, 6: 1, 2: 1},
    "figure-eight": {-4: 1, -2: -1, 0: 1, 2: -1, 4: 1},
    "hopf-positive": {-5: 1, -1: 1},
    "whitehead": {-7: -1, -5: 2, -3: -1, -1: 2, 1: -1, 3: 1},
    "borromean": {-6: -1, -4: 3, -2: -2, 0: 4, 2: -2, 4: 3, 6: -1},
}

# Frozen Conway polynomials as {z-exponent: coefficient}.
FROZEN_CONWAY = {
    "unknot": {0: 1},
    "trefoil-right": {0: 1, 2: 1},
    "trefoil-left": {0: 1, 2: 1},
    "figure-eight": {0: 1, 2: -1},
    "hopf-positive": {1: 1},
    "whitehead": {3: -1},
    "borromean": {4: 1},
}


@pytest.mark.parametrize("name", sorted(FROZEN_JONES))
def test_jones_frozen(name):
    v = jones(catalog.get(name).diagram)
    assert v == HalfLaurent.from_dict(FROZEN_JONES[name])


@pytest.mark.parametrize("name", sorted(FROZEN_CONWAY))
def test_conway_frozen(name):
    p = conway(catalog.get(name).diagram)
    assert p == IntLaurent.from_dict(FROZEN_CONWAY[name])


def test_bracket_oracle_equivalence():
    for entry in catalog.entries():
        if not entry.diagram.is_empty() and len(entry.diagram.crossings) <= 10:
            assert kauffman_bracket(entry.diagram) == kauffman_bracket_naive(
                entry.diagram
            ), entry.name


@settings(max_examples=60, deadline=None)
@given(braid_closures)
def test_bracket_oracle_equivalence_on_braid_closures(d):
    # A cold memo per example, so every example runs the contraction.
    memo.clear()
    assert kauffman_bracket(d) == kauffman_bracket_naive(d)


def test_bracket_state_budget(monkeypatch):
    d = catalog.get("whitehead").diagram
    want = kauffman_bracket_naive(d)
    monkeypatch.setattr(skein, "_STATE_BUDGET", 1)
    with pytest.raises(ResourceLimitError, match="states"):
        kauffman_bracket(d)
    with pytest.raises(ResourceLimitError):
        jones(d)
    # A computation that raised leaves no memo entry behind.
    assert not any(memo._TABLES.values())
    monkeypatch.undo()
    assert kauffman_bracket(d) == want


def test_bracket_oracle_equivalence_on_short_braid_cables():
    # Every 2-parallel of a 1-2 letter word on 2-3 strands: 26 diagrams,
    # kinks and twist blocks among them.
    for strands in (2, 3):
        letters = [(g, s) for g in range(strands - 1) for s in (1, -1)]
        for size in (1, 2):
            for word in product(letters, repeat=size):
                cable = parallel(closed_braid(strands, list(word)), 2)
                memo.clear()
                assert kauffman_bracket(cable) == kauffman_bracket_naive(cable), word


def test_contraction_plan_matches_rescoring_on_catalog_and_cables():
    for entry in catalog.entries():
        for d in (entry.diagram, parallel(entry.diagram, 2)):
            assert skein._contraction_plan(d.crossings) == contraction_plan_rescored(
                d.crossings), entry.name


@settings(max_examples=40, deadline=None)
@given(braid_words(3, 8), st.integers(min_value=2, max_value=3))
def test_contraction_plan_matches_rescoring_on_random_cables(word, m):
    cable = parallel(closed_braid(*word), m)
    assert skein._contraction_plan(cable.crossings) == contraction_plan_rescored(
        cable.crossings)


def assert_kernels_agree(d):
    # Both kernels contract every crossing of d at once, split or not; the
    # dict kernel counts every loop, so it gives (-A^2 - A^(-2)) <d>.
    if d.crossings:
        assert contract_piece_dict(d) == skein._DELTA * skein._contract_piece(d)


def test_packed_kernel_matches_dict_kernel_on_catalog_and_cables():
    for entry in catalog.entries():
        for d in (entry.diagram, parallel(entry.diagram, 2)):
            assert_kernels_agree(d)
    # 3-parallels reach larger coefficients of both signs.
    for name in ("trefoil-right", "hopf-positive", "whitehead"):
        assert_kernels_agree(parallel(catalog.get(name).diagram, 3))


@settings(max_examples=40, deadline=None)
@given(braid_words(3, 6), st.integers(min_value=2, max_value=3))
def test_packed_kernel_matches_dict_kernel_on_random_cables(word, m):
    assert_kernels_agree(parallel(closed_braid(*word), m))


def assert_width_premise(d):
    # The packed kernel's width of n + c + 1 bits rests on this bound, from
    # the spanning-tree expansion: the bracket of n crossings in p split
    # pieces has coefficients whose absolute sum is below 2^(n + p - 1).
    # The oracle tests above only catch widths far below it.
    if d.crossings:
        total = sum(abs(c) for _e, c in skein._contract_piece(d).terms)
        assert total < 2 ** (len(d.crossings) + len(d.pieces) - 1)


def test_bracket_width_premise_on_catalog_cables():
    for entry in catalog.entries():
        for d in (entry.diagram, parallel(entry.diagram, 2), parallel(entry.diagram, 3)):
            assert_width_premise(d)


@settings(max_examples=40, deadline=None)
@given(st.lists(braid_words(3, 6).map(lambda w: closed_braid(*w)), min_size=1, max_size=3),
       st.integers(min_value=2, max_value=3))
def test_bracket_width_premise_on_random_cables_and_unions(closures, m):
    d = closures[0]
    for other in closures[1:]:
        d = disjoint_union(d, other)
    assert_width_premise(d)
    assert_width_premise(parallel(d, m))


# Most bracket states alive after one contraction step of a 2-parallel.
CABLE_PEAK_STATES = {"whitehead": 14, "borromean": 42, "T(3,4)": 131}


@pytest.mark.parametrize("name", sorted(CABLE_PEAK_STATES))
def test_bracket_peak_states_on_cables(monkeypatch, name):
    if name == "T(3,4)":
        d = closed_braid(3, [(0, 1), (1, 1)] * 4)
    else:
        d = catalog.get(name).diagram
    cable = parallel(d, 2)
    peak = CABLE_PEAK_STATES[name]
    monkeypatch.setattr(skein, "_STATE_BUDGET", peak - 1)
    memo.clear()
    with pytest.raises(ResourceLimitError):
        kauffman_bracket(cable)
    monkeypatch.setattr(skein, "_STATE_BUDGET", peak)
    memo.clear()
    kauffman_bracket(cable)


@settings(max_examples=40, deadline=None)
@given(st.lists(braid_words(3, 4).map(lambda w: closed_braid(*w)), min_size=2, max_size=3))
def test_bracket_contracts_split_unions_whole(closures):
    # Strands a word leaves untouched close into unknot markers, so some
    # unions hold markers between pieces with crossings.
    rest = closures[1]
    for other in closures[2:]:
        rest = disjoint_union(rest, other)
    d = disjoint_union(closures[0], rest)
    memo.clear()
    assert kauffman_bracket(d) == kauffman_bracket_naive(d)
    assert jones(d) == HALF_SUM * jones(closures[0]) * jones(rest)


def test_bracket_finishes_one_piece_before_the_next(monkeypatch):
    # The 2-parallel of the Borromean rings alone peaks at 42 states and
    # the Whitehead one at 14, and so must their union: a plan that worked
    # on one cable while several states of the other were alive would
    # multiply the two counts.
    w, b = catalog.get("whitehead").diagram, catalog.get("borromean").diagram
    cable = parallel(disjoint_union(w, b), 2)
    monkeypatch.setattr(skein, "_STATE_BUDGET", 41)
    memo.clear()
    with pytest.raises(ResourceLimitError):
        kauffman_bracket(cable)
    monkeypatch.setattr(skein, "_STATE_BUDGET", 42)
    memo.clear()
    assert kauffman_bracket(cable) == (
        skein._DELTA * kauffman_bracket(parallel(w, 2)) * kauffman_bracket(parallel(b, 2)))


def test_bracket_pieces_are_sublinks(monkeypatch):
    # Catalog diagrams include split unions with crossings in both pieces
    # (trefoils-two) and with an unknot marker (borromean-unknot).
    diagrams = [entry.diagram for entry in catalog.entries() if entry.diagram.components]
    diagrams += [parallel(d, 2) for d in diagrams]
    expected = [jones(d) for d in diagrams]

    def no_assemble(cls, *args, **kwargs):
        raise AssertionError("a bracket piece was assembled")

    monkeypatch.setattr(LinkDiagram, "assemble", classmethod(no_assemble))
    memo.clear()
    assert [jones(d) for d in diagrams] == expected


def test_bracket_hopf_value():
    # <positive Hopf> = -A^4 - A^-4, stored by integer A-exponent.
    b = kauffman_bracket(catalog.get("hopf-positive").diagram)
    assert b == IntLaurent.from_dict({4: -1, -4: -1})


def test_jones_multiplicative_on_split_unions():
    a = catalog.get("trefoil-right").diagram
    b = catalog.get("figure-eight").diagram
    u = disjoint_union(a, b)
    assert jones(u) == HALF_SUM * jones(a) * jones(b)


def test_jones_mirror_inverts_t():
    d = catalog.get("trefoil-right").diagram
    vm = jones(mirror(d))
    flipped = HalfLaurent.from_dict({-h: c for h, c in jones(d).as_dict().items()})
    assert vm == flipped


def test_jones_empty_and_unlink():
    empty = catalog.get("empty").diagram
    # V(empty) = (t^(1/2) + t^(-1/2))^(-1): check via the series route.
    s = jones_series(empty, 4)
    prod = s * laurent_to_series(HALF_SUM, 4)
    assert prod.coeff(0) == 1 and all(prod.coeff(k) == 0 for k in (1, 2, 3, 4))
    unlink2 = disjoint_union(
        catalog.get("unknot").diagram, catalog.get("unknot").diagram
    )
    assert jones(unlink2) == HALF_SUM


def test_skein_relation_exact():
    t_pos = HalfLaurent.monomial(2)
    t_neg = HalfLaurent.monomial(-2)
    t_half_diff = HalfLaurent.from_dict({1: 1, -1: -1})
    d = catalog.get("figure-eight").diagram
    for i in range(len(d.crossings)):
        if d.crossing_sign(i) > 0:
            plus, minus = d, switch_crossing(d, i)
        else:
            plus, minus = switch_crossing(d, i), d
        zero = smooth_crossing(d, i)
        assert t_pos * jones(plus) - t_neg * jones(minus) == t_half_diff * jones(zero)


def test_conway_resolution_budget():
    d = catalog.get("borromean").diagram
    with pytest.raises(ResourceLimitError):
        conway(d, node_budget=2)


def conway_nodes(d):
    """The smallest node budget ``conway`` meets on d from a cold memo,
    found by bisection."""
    def meets(budget):
        memo.clear()
        try:
            conway(d, node_budget=budget)
        except ResourceLimitError:
            return False
        return True

    low, high = 0, 1
    while not meets(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if meets(mid) else (mid, high)
    return high


# Nodes of the Conway resolution tree.  The tree walks each component from
# its smallest arc, so its size depends on how a diagram's arcs are named:
# random renamings of T(3,5)'s arcs gave 149 to 881 smoothings, where
# the names it is built with give 365.  Each smoothing adds two nodes.
CONWAY_NODES = {"T(3,5)": 731, "chain 3": 127, "borromean": 43}


@pytest.mark.parametrize("name", sorted(CONWAY_NODES))
def test_conway_tree_size(name):
    d = {
        "T(3,5)": lambda: closed_braid(3, [(0, 1), (1, 1)] * 5),
        "chain 3": lambda: chain(3).diagram,
        "borromean": lambda: catalog.get("borromean").diagram,
    }[name]()
    assert conway_nodes(d) == CONWAY_NODES[name]


def test_conway_a2_values():
    assert conway_a2(catalog.get("empty").diagram) == 0
    assert conway_a2(catalog.get("unknot").diagram) == 0
    assert conway_a2(catalog.get("trefoil-right").diagram) == 1
    assert conway_a2(catalog.get("figure-eight").diagram) == -1
    # For links the sign convention is the one forced by phi1 = 6 a2.
    assert conway_a2(catalog.get("whitehead").diagram) == 1
    assert conway_a2(catalog.get("borromean").diagram) == 1
    # Split anything has vanishing Conway polynomial.
    split = disjoint_union(
        catalog.get("trefoil-right").diagram, catalog.get("unknot").diagram
    )
    assert conway(split).is_zero()
    assert conway_a2(split) == 0


def test_casson_reads_the_lambda2_phi_table(monkeypatch):
    # Casson sums phi_1 / 6 over the sublinks of L, which are lambda2's
    # copy-0 sub-cables: lambda2's cable table has already put their P in
    # the alt memo, and phi_1 is one coefficient of it, so after lambda2 on
    # whitehead-plus1 the Casson sum contracts no bracket and walks no
    # Conway tree.
    from ftik.invariants import casson_invariant, ohtsuki_lambda2

    sp = catalog.presentation("whitehead-plus1")
    assert ohtsuki_lambda2(sp) == 39

    def no_contraction(d):
        raise AssertionError("bracket contracted")

    def no_conway(d, node_budget):
        raise AssertionError("conway tree walked")

    monkeypatch.setattr(skein, "_contract_piece", no_contraction)
    monkeypatch.setattr(skein, "_conway", no_conway)
    assert casson_invariant(sp) == 1


def test_psi2_and_a2_share_one_conway_walk(monkeypatch):
    # psi2 reads a4 and conway_a2 reads a2 from one memoized polynomial, so
    # a2 after psi2 on the same knot switches no crossing.
    from ftik.invariants import psi2_knot_invariant

    switches = []

    def counted(d, i):
        switches.append(i)
        return switch_crossing(d, i)

    monkeypatch.setattr(skein, "switch_crossing", counted)
    d = catalog.get("figure-eight").diagram
    assert psi2_knot_invariant(d) == 69
    walked = len(switches)
    assert walked > 0
    assert conway_a2(d) == -1
    assert len(switches) == walked


def test_conway_a2_is_rational():
    assert isinstance(conway_a2(catalog.get("trefoil-right").diagram), Fraction)
