"""Surgery-formula invariants: Casson, lambda1, lambda2, phi weights, and
the induced knot invariant psi2."""

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftik import catalog, invariants, memo, skein
from ftik.diagram import (
    LinkDiagram,
    SurgeryPresentation,
    closed_braid,
    disjoint_union,
    parallel,
    sublink,
    switch_crossing,
    with_framings,
)
from ftik.invariants import (
    casson_invariant,
    jones_exp_derivative,
    jones_sublink_weight,
    normalized_jones_series,
    ohtsuki_lambda1,
    ohtsuki_lambda2,
    psi2_knot_invariant,
    sublink_alternating_series,
    sublink_alternating_series_naive,
)
from ftik.errors import DiagramError, ResourceLimitError
from ftik.fintype import LAMBDA2, difference_sum
from ftik.skein import conway_a2
from oracles import (
    braid_closures,
    braid_words,
    chain,
    hoste_casson,
    is_algebraically_split,
    lambda2_every_subcable,
    side_by_side,
    tie_knot,
)


def sp(name):
    return catalog.presentation(name)


def framed(name, framings):
    return SurgeryPresentation(with_framings(catalog.get(name).diagram, framings))


def plus_one_union(*names):
    d = catalog.get(names[0]).diagram
    for name in names[1:]:
        d = disjoint_union(d, catalog.get(name).diagram)
    return SurgeryPresentation(with_framings(d, (1,) * d.components))


# Split unions whose pieces have phi_1 != 0: W u B has two pieces, T u W u T
# three, so a sum in place of the product, or a weight read off three
# pieces, changes their values.
SPLIT_UNIONS = {
    "W u B": ("whitehead", "borromean"),
    "T u W u T": ("trefoil-right", "whitehead", "trefoil-left"),
}


def test_casson_catalog_values():
    assert casson_invariant(sp("empty")) == 0
    assert casson_invariant(sp("unknot-plus1")) == 0
    assert casson_invariant(sp("trefoil-right-plus1")) == 1
    assert casson_invariant(sp("trefoil-right-minus1")) == -1
    assert casson_invariant(sp("figure-eight-plus1")) == -1
    assert casson_invariant(sp("trefoils-two-plus1")) == 2


def test_casson_on_chains_and_a_torus_knot():
    for n in range(3, 7):
        assert casson_invariant(chain(n)) == n - 2, n
    # (p^2 - 1)(q^2 - 1) / 24 for +1-surgery on T(2, 13).
    t_2_13 = with_framings(closed_braid(2, [(0, 1)] * 13), (1,))
    assert casson_invariant(SurgeryPresentation(t_2_13)) == 21


def test_surgery_sums_never_walk_the_conway_tree(monkeypatch):
    def no_conway(d, node_budget):
        raise AssertionError("conway tree walked")

    monkeypatch.setattr(skein, "_conway", no_conway)
    for entry in catalog.asl_entries():
        p = SurgeryPresentation(entry.diagram)
        casson_invariant(p)
        ohtsuki_lambda1(p)
        ohtsuki_lambda2(p)
    for n in range(3, 7):
        casson_invariant(chain(n))


def test_casson_matches_hoste_oracle():
    presentations = [SurgeryPresentation(e.diagram) for e in catalog.asl_entries()]
    presentations += [plus_one_union(*names) for names in SPLIT_UNIONS.values()]
    for p in presentations + [chain(3), chain(4)]:
        fast = casson_invariant(p)
        # The oracle walks its own Conway trees on a cold memo.
        memo.clear()
        assert fast == hoste_casson(p)


# Pure 3-braid generators A_(i,j) as braid words.
PURE_GENERATORS = {
    (0, 1): [(0, 1), (0, 1)],
    (1, 2): [(1, 1), (1, 1)],
    (0, 2): [(1, 1), (0, 1), (0, 1), (1, -1)],
}


def pure_word(letters):
    word = []
    for gen, sign in letters:
        w = PURE_GENERATORS[gen]
        word += w if sign > 0 else [(p, -s) for p, s in reversed(w)]
    return word


# One or two distinct pure generators followed by their inverses in any
# order: every exponent sum, so every linking number, vanishes, and the
# word has at most 12 letters.
balanced_pure_words = st.lists(
    st.tuples(st.sampled_from(sorted(PURE_GENERATORS)), st.sampled_from((1, -1))),
    min_size=1,
    max_size=2,
    unique_by=lambda letter: letter[0],
).flatmap(lambda letters: st.permutations([(g, -s) for g, s in letters]).map(
    lambda inverses: pure_word(letters + inverses)))


# 2- and 3-strand closures that are ASLs, with at most 12 crossings so the
# oracle's Conway trees stay small.  Random words are kept to 10 letters:
# some 11- and 12-letter closures take seconds in the tree.
small_asl_closures = st.one_of(
    braid_words(3, 10).map(lambda w: closed_braid(*w)).filter(is_algebraically_split),
    balanced_pure_words.map(lambda word: closed_braid(3, word)),
)


@settings(max_examples=60, deadline=None)
@given(small_asl_closures, st.data())
def test_casson_matches_hoste_oracle_on_braid_closures(d, data):
    framings = data.draw(st.lists(st.sampled_from((1, -1)),
                                  min_size=d.components, max_size=d.components))
    p = SurgeryPresentation(with_framings(d, framings))
    fast = casson_invariant(p)
    memo.clear()
    assert fast == hoste_casson(p)


def test_surgery_presentation_rejects_non_integer_framings():
    # A float framing hashes like the int in the framed memo key, so a
    # lambda2 computed on it would be served as the catalog value.
    d = catalog.get("trefoil-right").diagram
    for f in (1.0, True, Fraction(1)):
        with pytest.raises(DiagramError):
            ohtsuki_lambda2(SurgeryPresentation(
                LinkDiagram(d.crossings, d.over_in, d.component_arcs, (f,))
            ))
    value = ohtsuki_lambda2(sp("trefoil-right-plus1"))
    assert (type(value), value) == (Fraction, 39)


def test_casson_additive_on_split_unions():
    a = catalog.get("trefoil-right").diagram
    b = catalog.get("figure-eight").diagram
    union = SurgeryPresentation(with_framings(disjoint_union(a, b), (1, 1)))
    assert casson_invariant(union) == casson_invariant(
        framed("trefoil-right", (1,))
    ) + casson_invariant(framed("figure-eight", (1,)))


def test_casson_presentation_independence_whitehead():
    # Surgery on one Whitehead component twists the other into a twist knot:
    # (f, +1) and (f, -1) surgeries reproduce trefoil/figure-eight surgeries.
    assert casson_invariant(framed("whitehead", (1, 1))) == casson_invariant(
        framed("trefoil-right", (1,))
    )
    assert casson_invariant(framed("whitehead", (1, -1))) == casson_invariant(
        framed("figure-eight", (1,))
    )


def test_lambda1_is_six_casson():
    for entry in catalog.asl_entries():
        p = SurgeryPresentation(entry.diagram)
        assert ohtsuki_lambda1(p) == 6 * casson_invariant(p)


def test_phi1_equals_six_a2():
    from ftik.skein import conway_a2

    for name in ("unknot", "trefoil-right", "figure-eight", "whitehead",
                 "borromean"):
        d = catalog.get(name).diagram
        assert jones_sublink_weight(d, 1) == 6 * conway_a2(d), name
    # Non-split ASLs with 3 and 4 components; chain 5's Conway tree
    # exceeds the node budget.
    for n in (3, 4):
        d = chain(n).diagram
        assert jones_sublink_weight(d, 1) == 6 * conway_a2(d), n


def test_sublink_alternating_series_factored_matches_naive():
    split = disjoint_union(
        catalog.get("trefoil-right").diagram, catalog.get("figure-eight").diagram
    )
    factored = sublink_alternating_series(split, 8)
    jones_sublink_weight(split, 3)
    # The ``alt`` memo holds connected sublinks only, never a split diagram.
    assert split.canonical_key() not in memo._TABLES["alt"]
    # The oracle computes its own X values instead of reading the factored
    # sum's from the memo.
    memo.clear()
    assert factored.coeffs == sublink_alternating_series_naive(split, 8).coeffs
    # A split unknot component kills the whole alternating sum.
    with_unknot = disjoint_union(split, catalog.get("unknot").diagram)
    assert sublink_alternating_series(with_unknot, 8).is_zero()


def weight_by_naive_sum(d, i):
    n = d.components
    return (-2) ** n * sublink_alternating_series_naive(d, n + i).coeff(n + i)


def test_sublink_weight_is_one_coefficient_of_the_naive_sum():
    empty = sublink(catalog.get("unknot").diagram, ())
    diagrams = [empty] + [entry.diagram for entry in catalog.entries()]
    # Split but not algebraically split, so the split rule does not apply.
    diagrams.append(disjoint_union(catalog.get("hopf-positive").diagram,
                                   catalog.get("trefoil-right").diagram))
    for name in ("whitehead", "borromean"):
        cable = parallel(catalog.get(name).diagram, 2)
        diagrams += [sublink(cable, keep) for r in range(cable.components + 1)
                     for keep in combinations(range(cable.components), r)]
    for d in diagrams:
        orders = (0, 1, 2, 3) if d is empty else (1, 2, 3)
        weights = [jones_sublink_weight(d, i) for i in orders]
        # A fresh table weighs the full mask the same way, split or not,
        # whether or not the split rule holds.
        tables = [invariants._Sublinks(d)((1 << d.components) - 1, i) for i in orders]
        # The oracle computes its own X values instead of reading the memo.
        memo.clear()
        expected = [weight_by_naive_sum(d, i) for i in orders]
        assert weights == expected, d
        assert tables == expected, d


def test_memo_clear_empties_the_inverse_table():
    jones_sublink_weight(catalog.get("whitehead").diagram, 2)
    assert memo._TABLES["inverse"]
    memo.clear()
    assert not any(memo._TABLES.values())


closures_unions_and_cables = st.one_of(
    braid_closures,
    st.tuples(braid_closures, braid_closures).map(lambda ds: disjoint_union(*ds)),
    braid_closures.filter(lambda d: len(d.crossings) <= 5).map(lambda d: parallel(d, 2)),
)


@settings(max_examples=40, deadline=None)
@given(closures_unions_and_cables)
def test_integral_alternating_sum_matches_naive_oracle(d):
    order = d.components + 3
    fast = sublink_alternating_series(d, order)
    memo.clear()
    assert fast.coeffs == sublink_alternating_series_naive(d, order).coeffs
    # Every example's first component is a knot, a cable's with its twists.
    knot = sublink(d, [0])
    assert jones_sublink_weight(knot, 1) == 6 * conway_a2(knot)
    if len(knot.crossings) <= 7:
        plus_one = SurgeryPresentation(with_framings(knot, (1,)))
        assert psi2_knot_invariant(knot) == ohtsuki_lambda2(plus_one)


# Knots with at most 6 crossings, +-1-framed, and +-1-framed unknots with
# zero or one crossing.  Words of at most 6 letters reach every knot the
# 12-letter braid_closures did under a 6-crossing filter, and filtering them
# for knots alone keeps Hypothesis's filter_too_much health check quiet.
framed_knots = st.tuples(
    braid_words(4, 6).map(lambda w: closed_braid(*w)).filter(lambda d: d.components == 1),
    st.sampled_from((1, -1)),
)
framed_unknots = st.tuples(
    st.sampled_from((catalog.get("unknot").diagram,
                     closed_braid(2, [(0, 1)]), closed_braid(2, [(0, -1)]))),
    st.sampled_from((1, -1)),
)


def union(*framed):
    d = framed[0][0]
    for other, _f in framed[1:]:
        d = disjoint_union(d, other)
    return SurgeryPresentation(with_framings(d, [f for _d, f in framed]))


@settings(max_examples=30, deadline=None)
@given(framed_knots, framed_knots, framed_unknots)
def test_connected_sum_rules(k1, k2, unknot):
    # A split union presents the connected sum: Casson adds, lambda2 adds
    # with the cross term lambda1 lambda1, and a +-1-framed unknot is S^3.
    m1, m2 = union(k1), union(k2)
    both = union(k1, k2)
    assert casson_invariant(both) == casson_invariant(m1) + casson_invariant(m2)
    assert ohtsuki_lambda2(both) == (
        ohtsuki_lambda2(m1) + ohtsuki_lambda2(m2)
        + ohtsuki_lambda1(m1) * ohtsuki_lambda1(m2))
    with_unknot = union(k1, unknot)
    assert casson_invariant(with_unknot) == casson_invariant(m1)
    assert ohtsuki_lambda2(with_unknot) == ohtsuki_lambda2(m1)


def test_lambda2_anchor_values():
    assert ohtsuki_lambda2(sp("trefoil-right-plus1")) == 39
    assert ohtsuki_lambda2(sp("trefoil-left-plus1")) == 63
    assert ohtsuki_lambda2(sp("figure-eight-plus1")) == 69
    assert ohtsuki_lambda2(sp("unknot-plus1")) == 0
    assert ohtsuki_lambda2(sp("empty")) == 0


def test_lambda2_diagram_independence():
    # The same trefoil presented on 2 and on 3 strands.
    two = closed_braid(2, [(0, 1)] * 3)
    three = closed_braid(3, [(0, 1), (1, 1)] * 2)
    assert three.components == 1
    a = ohtsuki_lambda2(SurgeryPresentation(with_framings(two, (1,))))
    b = ohtsuki_lambda2(SurgeryPresentation(with_framings(three, (1,))))
    assert a == b == 39


def test_lambda2_presentation_independence_whitehead():
    # Same manifolds as the twist-knot surgeries, via the Whitehead link.
    assert ohtsuki_lambda2(framed("whitehead", (1, 1))) == 39
    assert ohtsuki_lambda2(framed("whitehead", (1, -1))) == ohtsuki_lambda2(
        framed("figure-eight", (1,))
    )
    assert ohtsuki_lambda2(framed("whitehead", (-1, -1))) == ohtsuki_lambda2(
        framed("figure-eight", (-1,))
    )


# One-component closures of 2-4 strands with at most 8 crossings.
small_knots = braid_words(4, 8).map(lambda w: closed_braid(*w)).filter(
    lambda d: d.components == 1)
framed_asls = st.tuples(
    st.sampled_from(("whitehead", "borromean", "trefoil-left", "figure-eight")).map(
        lambda name: catalog.get(name).diagram),
    st.sampled_from((1, -1)),
).map(lambda asl: with_framings(asl[0], (asl[1],) * asl[0].components))


def renamed(d, order):
    """d with its arcs renamed in ``order``, a permutation of their ids:
    the same link, whose canonical key can differ."""
    name = dict(zip(sorted(a for arcs in d.component_arcs for a in arcs), order))
    crossings = tuple(tuple(name[a] for a in cr) for cr in d.crossings)
    component_arcs = []
    for arcs in d.component_arcs:
        arcs = [name[a] for a in arcs]
        start = arcs.index(min(arcs)) if arcs else 0
        component_arcs.append(tuple(arcs[start:] + arcs[:start]))
    return LinkDiagram(crossings, d.over_in, tuple(component_arcs), d.framings)


@settings(max_examples=40, deadline=None)
@given(small_knots, st.sampled_from((0, 1)), st.sampled_from((1, -1)),
       st.sampled_from((1, -1)), st.lists(framed_asls, max_size=2), st.data())
def test_rolfsen_twist_on_a_knot_tied_into_whitehead(k, u, f, eps, extras, data):
    # Tie K into component U of the Whitehead link.  The other component C
    # bounds a disk that U # K meets twice with opposite signs, so surgery
    # on C framed eps twists the clasp into the twist knot T_eps:
    #     S^3 over (U # K, C) framed (f, eps) = S^3_f(T_eps # K),
    # with T_+1 the right trefoil and T_-1 the figure-eight (K = unknot is
    # the Whitehead test above).  A split ASL on both sides is a connected
    # summand of both manifolds, and a +-1-framed unknot on one side is S^3.
    framings = [eps, eps]
    framings[u] = f
    left = with_framings(tie_knot(catalog.get("whitehead").diagram, u, k), framings)
    twist = catalog.get("trefoil-right" if eps == 1 else "figure-eight").diagram
    right = with_framings(tie_knot(twist, 0, k), (f,))
    assert left.validate() == right.validate() == []
    for extra in extras:
        left = disjoint_union(left, extra)
        right = disjoint_union(extra, right)
    unknot = with_framings(catalog.get("unknot").diagram, (data.draw(st.sampled_from((1, -1))),))
    left = disjoint_union(unknot, left)
    # Values, not keys: the arcs of one side renamed in any order.
    arcs = sum(map(len, right.component_arcs))
    right = renamed(right, data.draw(st.permutations(range(1, arcs + 1))))
    values = [(ohtsuki_lambda2(p), casson_invariant(p))
              for p in map(SurgeryPresentation, (left, right))]
    assert values[0] == values[1]


@pytest.mark.parametrize("name, most", [("whitehead-plus1", 6), ("borromean-plus1", 16)])
def test_lambda2_contracts_few_bracket_pieces(monkeypatch, name, most):
    # Memo hits depend on how sublinks name their arcs: numbering each fused
    # run by its last arc instead of in walk order doubles these counts.
    contracted = []
    contract = skein._contract_piece

    def counted(d):
        contracted.append(d)
        return contract(d)

    monkeypatch.setattr(skein, "_contract_piece", counted)
    ohtsuki_lambda2(catalog.presentation(name))
    assert len(contracted) <= most


@pytest.mark.parametrize("name", ["borromean-plus1", "whitehead-plus1", "W u B"])
def test_lambda2_takes_every_sublink_from_the_cable(monkeypatch, name):
    # A sublink of L is the sub-cable of L's 2-parallel made of copy 0 of
    # each kept component, so lambda2 restricts only the cable of each
    # split piece: never a sub-cable it built.  It restricts L only to cut
    # out its split pieces, so never when L is one piece.  Casson restricts
    # only L.
    p = plus_one_union(*SPLIT_UNIONS[name]) if name in SPLIT_UNIONS else sp(name)
    n = p.diagram.components
    pieces = [[c for c in range(n) if piece >> c & 1]
              for piece in p.diagram.piece_masks((1 << n) - 1)]
    cables, restricted = [], []

    def cable(d, m):
        cables.append(parallel(d, m))
        return cables[-1]

    def spy(d, keep):
        restricted.append((d, sorted(keep)))
        return sublink(d, keep)

    monkeypatch.setattr(invariants, "parallel", cable)
    monkeypatch.setattr(invariants, "sublink", spy)
    ohtsuki_lambda2(p)
    cut = [keep for d, keep in restricted if d is p.diagram]
    assert cut == (pieces if len(pieces) > 1 else [])
    assert len(cables) == len(pieces)
    assert all(d is p.diagram or any(d is c for c in cables) for d, _keep in restricted)
    memo.clear()
    restricted.clear()
    casson_invariant(p)
    assert restricted and all(d is p.diagram for d, _keep in restricted)


def lambda2_oracle_cases():
    cases = [(e.name, SurgeryPresentation(e.diagram)) for e in catalog.asl_entries()]
    cases += [(f"chain {n}", chain(n)) for n in (3, 4)]
    return cases + [(name, plus_one_union(*names)) for name, names in SPLIT_UNIONS.items()]


def test_lambda2_matches_every_subcable_oracle():
    for name, p in lambda2_oracle_cases():
        memo.clear()
        fast = ohtsuki_lambda2(p)
        # The oracle weighs every sub-cable whole, on its own cold memo.
        memo.clear()
        assert fast == lambda2_every_subcable(p), name


# ASL closures with one or two components, at most 6 crossings each, so a
# union of three has at most 6 components and 3^6 - 1 sub-cables.
small_closures = braid_words(3, 6).map(lambda w: closed_braid(*w)).filter(
    lambda d: d.components <= 2 and is_algebraically_split(d))


@settings(max_examples=15, deadline=None)
@given(st.lists(small_closures, min_size=2, max_size=3), st.data())
def test_lambda2_matches_every_subcable_oracle_on_unions(closures, data):
    d = closures[0]
    for other in closures[1:]:
        d = disjoint_union(d, other)
    framings = data.draw(st.lists(st.sampled_from((1, -1)),
                                  min_size=d.components, max_size=d.components))
    p = SurgeryPresentation(with_framings(d, framings))
    fast = ohtsuki_lambda2(p)
    memo.clear()
    assert fast == lambda2_every_subcable(p)


def assert_orientation_reversal(p):
    # Ohtsuki's series obeys tau(-M)(q) = tau(M)(1/q), and
    # 1/q - 1 = -(q - 1) + (q - 1)^2 - ..., so its first two coefficients
    # give lambda1(-M) = -lambda1(M) and lambda2(-M) = lambda2(M) + lambda1(M).
    # -M is surgery on the mirror image with the framings negated.
    lambda1 = ohtsuki_lambda1(p)
    assert ohtsuki_lambda1(p.mirror()) == -lambda1
    assert ohtsuki_lambda2(p.mirror()) == ohtsuki_lambda2(p) + lambda1


def test_orientation_reversal_on_the_catalog():
    for entry in catalog.asl_entries():
        assert_orientation_reversal(SurgeryPresentation(entry.diagram))


@settings(max_examples=60, deadline=None)
@given(st.lists(braid_closures.filter(is_algebraically_split), min_size=1, max_size=2),
       st.data())
def test_orientation_reversal_on_braid_closures(closures, data):
    # 2- to 4-strand closures of at most 12 letters, and split unions of two.
    d = closures[0]
    for other in closures[1:]:
        d = disjoint_union(d, other)
    framings = data.draw(st.lists(st.sampled_from((1, -1)),
                                  min_size=d.components, max_size=d.components))
    assert_orientation_reversal(SurgeryPresentation(with_framings(d, framings)))


def components_of(mask):
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


@pytest.mark.parametrize("name", sorted(SPLIT_UNIONS))
@pytest.mark.parametrize("cabled", [False, True], ids=["sublinks", "sub-cables"])
def test_split_sublinks_weigh_by_the_split_rule(monkeypatch, name, cabled):
    # Casson walks the sublinks of L, lambda2 the sub-cables of its
    # 2-parallel.  On each split one, the weights built whole must be
    # phi_1 = 0 and phi_2 = phi_1(A) phi_1(B) for two pieces A, B, or 0 for
    # three or more; the surgery sums' weights must equal them without
    # building or weighing a split sublink or the pieces of three.
    d = plus_one_union(*SPLIT_UNIONS[name]).diagram
    if cabled:
        d = parallel(d, 2)
    phi1 = {}

    def whole(mask, i):
        return jones_sublink_weight(sublink(d, components_of(mask)), i)

    seen = {2: 0, 3: 0}
    for mask in range(1, 1 << d.components):
        pieces = d.piece_masks(mask)
        if len(pieces) == 1:
            phi1[mask] = whole(mask, 1)
            continue
        if len(pieces) == 2:
            expected = phi1[pieces[0]] * phi1[pieces[1]]
        else:
            expected = 0
        if all(phi1[piece] for piece in pieces):
            seen[min(len(pieces), 3)] += 1
        assert (whole(mask, 1), whole(mask, 2)) == (0, expected), components_of(mask)
        built = []
        monkeypatch.setattr(invariants, "sublink", lambda *a: built.append(a) or sublink(*a))
        monkeypatch.setattr(invariants, "jones_sublink_weight",
                            lambda *a: built.append(a) or jones_sublink_weight(*a))
        # A fresh table: no piece of this mask is built yet.
        weights = invariants._Sublinks(d)
        assert weights(mask, 1) == 0
        assert not built
        assert weights(mask, 2) == expected
        assert not built or len(pieces) == 2
        monkeypatch.undo()
    # Products that differ from sums, and three weighty pieces, both occur.
    assert seen[2] and (seen[3] or name == "W u B")


@pytest.mark.parametrize("names, most", [
    (("whitehead", "trefoil-right") + ("unknot",) * 4, 23),
    (("borromean", "borromean"), 61),
    ("chain 5", 1500),
    ("chain 5", 600),
])
def test_lambda2_builds_few_sublinks(monkeypatch, names, most):
    # Building every sub-cable took 2,640 and 1,436 sublink calls on the two
    # unions, and restricting one cable of the whole union took 25 and 86:
    # each split piece now has its own cable, and a piece seen before
    # builds none.  Rebuilding every sublink of each connected sub-cable
    # took 11,107 on chain 5, and building each of its 2-parallel's
    # 2^10 - 2 proper sublinks once, the split ones included, took 1,022.
    built = []
    monkeypatch.setattr(invariants, "sublink", lambda *a: built.append(a) or sublink(*a))
    ohtsuki_lambda2(chain(5) if names == "chain 5" else plus_one_union(*names))
    assert len(built) <= most


def count_calls(monkeypatch, module, name):
    """A list that grows by one entry per call of ``module.name``."""
    calls, function = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or function(*a))
    return calls


def test_lambda2_reads_a_split_piece_seen_before_from_the_memo(monkeypatch):
    # Each split piece's sums are memoized without framings, so after the
    # Borromean rings a union of two of them under other framings builds
    # no cable and contracts no bracket: it only cuts out its two pieces.
    # Restricting one cable of the whole union took 1 parallel and 52
    # sublink calls.
    union = plus_one_union("borromean", "borromean").diagram
    p = SurgeryPresentation(with_framings(union, (-1, 1, 1, 1, -1, 1)))
    ohtsuki_lambda2(sp("borromean-plus1"))
    cables = count_calls(monkeypatch, invariants, "parallel")
    built = count_calls(monkeypatch, invariants, "sublink")
    contracted = count_calls(monkeypatch, skein, "_contract_piece")
    value = ohtsuki_lambda2(p)
    assert (len(cables), len(contracted)) == (0, 0)
    assert len(built) <= 2
    monkeypatch.undo()
    memo.clear()
    assert value == lambda2_every_subcable(p)


@pytest.mark.parametrize("p, most", [
    (SurgeryPresentation(with_framings(
        disjoint_union(catalog.get("whitehead").diagram, catalog.get("whitehead").diagram),
        (1, 1, 1, -1))), 3),
    (catalog.presentation("split-seven-plus1"), 2),
])
def test_lambda2_difference_sums_cable_each_piece_once(monkeypatch, p, most):
    # The sub-presentations of a split union share their pieces: W u W has
    # three distinct ones (W and its two components), split-seven two (the
    # trefoil and the unknot).  One cable per sub-presentation took 15 and
    # 14 parallel calls.
    cables = count_calls(monkeypatch, invariants, "parallel")
    difference_sum(LAMBDA2, p)
    assert len(cables) <= most


def test_lambda2_piece_sums_hold_under_every_framing():
    # One framing-free entry per piece serves every framing vector, W twice
    # over among them: f^k reduces to the sign f^S of the components taken
    # once.  The oracle weighs every sub-cable whole, on its own memo.
    d = plus_one_union("whitehead", "trefoil-right", "whitehead").diagram
    presentations = [SurgeryPresentation(with_framings(d, framings))
                     for framings in product((1, -1), repeat=d.components)]
    expected = [lambda2_every_subcable(p) for p in presentations]
    memo.clear()
    assert [ohtsuki_lambda2(p) for p in presentations] == expected


@pytest.mark.parametrize("surgery_sum, name", [
    (ohtsuki_lambda2, "chain 4"),
    (ohtsuki_lambda2, "B u B"),
    (casson_invariant, "chain 4"),
])
def test_surgery_sums_take_no_split_jones(monkeypatch, surgery_sum, name):
    # The alternating sum of a connected sublink reads V of that sublink
    # alone, and P of a split proper sublink from its pieces.  Summing V
    # over every submask sent 11 split sub-cables of chain 4's 2-parallel
    # to the bracket.
    split = []
    compute = skein._jones

    def spy(d):
        if len(d.piece_masks((1 << d.components) - 1)) > 1:
            split.append(d)
        return compute(d)

    monkeypatch.setattr(skein, "_jones", spy)
    surgery_sum(chain(4) if name == "chain 4" else plus_one_union("borromean", "borromean"))
    assert not split


def test_lambda2_refuses_a_cable_piece_past_the_budget():
    # Chain 10's 3^10 - 1 sub-cables pass the sum's own check, but its
    # 2-parallel is one piece of 20 components: P of it would walk
    # 2^20 - 1 sublinks for hours, so the sum must stop before it starts.
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="1048575 sublinks of one piece"):
        ohtsuki_lambda2(chain(10))
    assert time.perf_counter() - start < 2


def test_surgery_sums_on_split_unknots_are_instant():
    # Each unknot is a split piece with phi_1 = 0 on every sub-cable of its
    # cable, so it adds nothing to either sum.  Walking all 3^12 - 1
    # sub-cables of 12 unknots takes seconds; the walk over one piece at a
    # time, and the presentation check, which reads only the component
    # pairs that share a crossing, are linear in the number of pieces.  A
    # dense linking matrix of 2,001 components would peak at 64 MB.
    framings = tuple((1, -1, -1)[c % 3] for c in range(40))
    unlink = SurgeryPresentation(LinkDiagram.from_pd([], framings, 40))
    start = time.perf_counter()
    assert (ohtsuki_lambda2(unlink), casson_invariant(unlink)) == (0, 0)
    assert time.perf_counter() - start < 1

    start = time.perf_counter()
    trefoil = catalog.get("trefoil-right").diagram
    d = with_framings(disjoint_union(trefoil, LinkDiagram.from_pd([], None, 2000)),
                      (1,) + framings * 50)
    tracemalloc.start()
    try:
        presentation = SurgeryPresentation(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert (ohtsuki_lambda2(presentation), casson_invariant(presentation)) == (39, 1)
    assert time.perf_counter() - start < 1

    # Both sums skip a marker piece before it reaches a sublink table or a
    # cut: walking 20,000 of them through the table took over 1 s for Casson.
    d = with_framings(disjoint_union(trefoil, LinkDiagram.from_pd([], None, 20000)),
                      (1,) + framings * 500)
    presentation = SurgeryPresentation(d)
    for surgery_sum, value in ((ohtsuki_lambda2, 39), (casson_invariant, 1)):
        start = time.perf_counter()
        assert surgery_sum(presentation) == value
        assert time.perf_counter() - start < 1

    # Markers never enter the piece walk: the face count and both sums read
    # only the pieces with crossings.  Growing every marker piece over the
    # whole mask took about 2 s each for the parse, lambda2 and Casson.
    start = time.perf_counter()
    d = LinkDiagram.from_pd(trefoil.crossings, (1,) + framings * 2000, 80000)
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    presentation = SurgeryPresentation(d)
    assert time.perf_counter() - start < 1
    for surgery_sum, value in ((ohtsuki_lambda2, 39), (casson_invariant, 1)):
        start = time.perf_counter()
        assert surgery_sum(presentation) == value
        assert time.perf_counter() - start < 1

    hopf = with_framings(catalog.get("hopf-positive").diagram, (1, 1))
    with pytest.raises(DiagramError) as exc:
        SurgeryPresentation(hopf)
    assert exc.value.violations == ["components 0 and 1 have linking number 1"]


def test_sums_over_unknot_markers_are_zero_and_instant():
    # A marker has P = V(O) - 1 = 0 and makes its diagram split, so every
    # alternating sum, phi weight and Conway polynomial of a diagram with a
    # marker beside another component is 0.  Expanding 1/s^N and growing
    # every marker's piece over the whole mask took over 15 s for phi_1
    # at N = 80,000, and 1.5 s for the Conway polynomial.
    trefoil = catalog.get("trefoil-right").diagram
    d = LinkDiagram.from_pd(trefoil.crossings, None, 80000)
    for is_zero in (lambda: jones_sublink_weight(d, 1) == 0,
                    lambda: jones_sublink_weight(d, 2) == 0,
                    lambda: sublink_alternating_series(d, 8).is_zero(),
                    lambda: skein.conway(d).is_zero(), lambda: conway_a2(d) == 0):
        memo.clear()
        start = time.perf_counter()
        assert is_zero()
        assert time.perf_counter() - start < 1


def count_tables(monkeypatch):
    """A list that grows by one entry per ``_Sublinks`` built."""
    tables, init = [], invariants._Sublinks.__init__
    monkeypatch.setattr(invariants._Sublinks, "__init__",
                        lambda self, d: tables.append(d) or init(self, d))
    return tables


@pytest.mark.parametrize("name", [
    "whitehead-plus1", "borromean-plus1", "trefoils-two-plus1", "chain 4"])
def test_surgery_sums_build_one_sublink_table(monkeypatch, name):
    # A table reads each weight off its own P, so it never calls the public
    # weight or alternating sum, and builds no table of its own.  Nested
    # tables made 15, 35, 5 and 83 for lambda2 and 4, 5, 2 and 7 for
    # Casson.  lambda2 builds one table per distinct piece's cable:
    # trefoils-two's two pieces are one trefoil.
    p = chain(4) if name == "chain 4" else sp(name)
    d = p.diagram
    pieces = {sublink(d, d.mask_components(piece)).canonical_key() for piece in d.pieces}

    def refuse(*args):
        raise AssertionError("a sublink table called a public weight")

    monkeypatch.setattr(invariants, "jones_sublink_weight", refuse)
    monkeypatch.setattr(invariants, "sublink_alternating_series", refuse)
    tables = count_tables(monkeypatch)
    memo.clear()
    ohtsuki_lambda2(p)
    assert len(tables) == len(pieces)
    tables.clear()
    memo.clear()
    casson_invariant(p)
    assert len(tables) == 1


def count_walks(monkeypatch):
    """A list that grows by one name per ``sublink``, ``jones`` or
    ``_Sublinks._alt_piece`` call made by the invariants module."""
    walks = []
    for owner, name in ((invariants, "sublink"), (invariants, "jones"),
                        (invariants._Sublinks, "_alt_piece")):
        monkeypatch.setattr(owner, name, lambda *args, f=getattr(owner, name), name=name:
                            walks.append(name) or f(*args))
    return walks


def test_phi_of_a_memoized_alternating_sum_walks_no_sublink(monkeypatch):
    # P of chain 4's connected sublink on components 0-2 is memoized by
    # chain 4's table; phi of that sublink reads it from the ``alt`` memo,
    # with no sublink built, no V read and no submask summed.
    d = chain(4).diagram
    invariants._Sublinks(d).alt(0b0111)
    three = sublink(d, [0, 1, 2])
    walks = count_walks(monkeypatch)
    weights = [jones_sublink_weight(three, i) for i in (1, 2)]
    assert not walks
    # Without the memoized P the same weights walk the sublinks.
    memo._TABLES["alt"].clear()
    assert [jones_sublink_weight(three, i) for i in (1, 2)] == weights
    assert walks
    monkeypatch.undo()
    memo.clear()
    assert weights == [jones_sublink_weight(three, i) for i in (1, 2)]


def test_surgery_sums_on_many_split_trefoils_are_linear():
    # n split right trefoils, all +1, present the connected sum of n
    # Poincare spheres: lambda2 = sum_k A_k + sum_(j<k) B_j B_k with A = 39
    # and B = 6, and Casson = n.  Each piece is cut out in one walk over
    # its own strands; reading every crossing of the union for each piece
    # took about 4 s per sum at n = 4,000.
    trefoil = with_framings(catalog.get("trefoil-right").diagram, (1,))
    assert side_by_side(trefoil, 3) == disjoint_union(disjoint_union(trefoil, trefoil), trefoil)
    n = 4000
    p = SurgeryPresentation(side_by_side(trefoil, n))
    for surgery_sum, value in ((ohtsuki_lambda2, 39 * n + 18 * n * (n - 1)),
                               (casson_invariant, n)):
        start = time.perf_counter()
        assert surgery_sum(p) == value
        assert time.perf_counter() - start < 1


def test_weights_of_many_split_trefoils_are_instant():
    # n split right trefoils form an algebraically split link of n pieces,
    # so phi_1 = 0, and phi_2 = phi_1(T)^2 = 36 for n = 2 and 0 for n >= 3
    # (the split rule).  Expanding the order-(n + 1) series took 24.7 s
    # for phi_1 at n = 1,000.  The rule says nothing of phi_3, which
    # still reads the series.
    trefoil = catalog.get("trefoil-right").diagram
    d = side_by_side(trefoil, 1000)
    for i in (1, 2):
        memo.clear()
        start = time.perf_counter()
        assert jones_sublink_weight(d, i) == 0
        assert time.perf_counter() - start < 1
    two = side_by_side(trefoil, 2)
    memo.clear()
    assert jones_sublink_weight(two, 2) == 36
    assert 4 * sublink_alternating_series(two, 4).coeff(4) == 36
    assert jones_sublink_weight(two, 3) == 4 * sublink_alternating_series(two, 5).coeff(5) != 0


def assert_piece_betas_are_phi1(d):
    # B = sum_S f^S beta_S must be lambda_1 of the piece, so beta_S is
    # phi_1 of the sublink on S, and 0 when S is empty or split.  Unions
    # read B only in products B_j B_k, so they cannot see its sign.
    betas = {signs: beta for signs, _alpha, beta in invariants._lambda2_piece(d)}
    # The piece reads phi_1 only on the sub-cables without a doubled
    # component, so phi_1 must vanish on all the others.  Their P is in the
    # memo of the piece's own cable table.
    cable = parallel(d, 2)
    for counts in product((0, 1, 2), repeat=d.components):
        if 2 in counts:
            keep = [2 * c + j for c, k in enumerate(counts) for j in range(k)]
            assert jones_sublink_weight(sublink(cable, keep), 1) == 0, counts
    # phi_1 is weighed afresh, not read off the cable's sub-cables.
    memo.clear()
    for mask in range(1 << d.components):
        phi1 = 0
        if len(d.piece_masks(mask)) == 1:
            phi1 = jones_sublink_weight(sublink(d, d.mask_components(mask)), 1)
        assert betas.get(mask, 0) == phi1, mask


def test_lambda2_piece_betas_are_phi1():
    pieces = [e.diagram for e in catalog.asl_entries()
              if len(e.diagram.piece_masks((1 << e.diagram.components) - 1)) == 1]
    for d in pieces + [chain(4).diagram]:
        memo.clear()
        assert_piece_betas_are_phi1(d)


@settings(max_examples=30, deadline=None)
@given(small_asl_closures.filter(
    lambda d: len(d.piece_masks((1 << d.components) - 1)) == 1))
def test_lambda2_piece_betas_are_phi1_on_braid_closures(d):
    assert_piece_betas_are_phi1(d)


@pytest.mark.parametrize("name", ["whitehead-plus1", "borromean-plus1", "chain 4"])
def test_lambda2_reads_phi1_only_on_copy0_subcables(monkeypatch, name):
    # Only the first sum weighs phi_1, on the sub-cables that take copy 0
    # of each kept component, so lambda2 asks its cable's table for no
    # phi_1 of a sub-cable that takes both copies of a component.  The
    # split rule's own reads of a split sub-cable's pieces are nested in
    # the table's call, not lambda2's, and are left out.
    p = chain(4) if name == "chain 4" else sp(name)
    reads, depth, call = [], [0], invariants._Sublinks.__call__

    def spy(self, mask, i):
        if not depth[0]:
            reads.append((mask, i))
        depth[0] += 1
        try:
            return call(self, mask, i)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(invariants._Sublinks, "__call__", spy)
    memo.clear()
    ohtsuki_lambda2(p)
    doubled = {mask for mask, _i in reads
               if any(mask >> 2 * c & 3 == 3 for c in range(p.diagram.components))}
    assert doubled and {i for mask, i in reads if mask in doubled} == {2}


def test_jones_exp_derivatives_frozen():
    tr = catalog.get("trefoil-right").diagram
    tl = catalog.get("trefoil-left").diagram
    f8 = catalog.get("figure-eight").diagram
    assert [jones_exp_derivative(tr, i) for i in (2, 3, 4)] == [-6, 36, -174]
    assert [jones_exp_derivative(tl, i) for i in (2, 3, 4)] == [-6, -36, -174]
    assert [jones_exp_derivative(f8, i) for i in (2, 3, 4)] == [6, 0, 30]
    unknot = catalog.get("unknot").diagram
    assert all(jones_exp_derivative(unknot, i) == 0 for i in (1, 2, 3, 4))


def test_normalized_jones_series_empty_is_one():
    s = normalized_jones_series(catalog.get("empty").diagram, 6)
    assert s.coeff(0) == 1 and all(s.coeff(k) == 0 for k in range(1, 7))


def test_psi2_values():
    assert psi2_knot_invariant(catalog.get("unknot").diagram) == 0
    assert psi2_knot_invariant(catalog.get("trefoil-right").diagram) == 39
    assert psi2_knot_invariant(catalog.get("trefoil-left").diagram) == 63
    assert psi2_knot_invariant(catalog.get("figure-eight").diagram) == 69


def test_psi2_rejects_links():
    with pytest.raises(ValueError):
        psi2_knot_invariant(catalog.get("whitehead").diagram)


def test_psi2_matches_lambda2_surgery_definition():
    for entry in catalog.entries():
        d = entry.diagram
        if d.components == 1 and d.framings == (0,):
            plus_one = SurgeryPresentation(with_framings(d, (1,)))
            assert psi2_knot_invariant(d) == ohtsuki_lambda2(plus_one), entry.name


def test_surgery_induces_knot_invariants_of_order_four_and_two():
    # +1 surgery turns an invariant of Ohtsuki order 3n into a knot
    # invariant of Vassiliev order at most 2n: K -> lambda2(S^3_(+1)(K))
    # has order 4 and K -> Casson order 2.  So on seeded braid-closure
    # knots, every alternating sum over the switches of 5 crossings
    # vanishes for lambda2, and every one over 3 crossings for Casson,
    # whatever the other picked crossings are set to.  Some 4-fold
    # (2-fold) sum is nonzero, so the vanishing is not automatic.
    rng = random.Random(31)
    knots = []
    while len(knots) < 8:
        strands = rng.randint(2, 4)
        word = [(rng.randrange(strands - 1), rng.choice((1, -1)))
                for _ in range(rng.randint(6, 12))]
        knot = closed_braid(strands, word)
        if knot.components == 1:
            knots.append(knot)
    nonzero = set()
    for knot in knots:
        picks = rng.sample(range(len(knot.crossings)), 5)
        # values[S]: both invariants with the picked crossings in S switched.
        values = []
        for switched in range(32):
            d = knot
            for bit, c in enumerate(picks):
                if switched >> bit & 1:
                    d = switch_crossing(d, c)
            p = SurgeryPresentation(with_framings(d, (1,)))
            values.append((ohtsuki_lambda2(p), casson_invariant(p)))
        for chosen, rest in product(range(32), repeat=2):
            if chosen & rest == 0:
                for which, order in enumerate((4, 2)):
                    total = sum((-1) ** sub.bit_count() * values[rest | sub][which]
                                for sub in range(32) if sub & chosen == sub)
                    if chosen.bit_count() > order:
                        assert total == 0, (knot, picks, chosen, rest, which)
                    elif total and chosen.bit_count() == order:
                        nonzero.add(which)
    assert nonzero == {0, 1}


def test_values_are_fractions():
    v = ohtsuki_lambda2(sp("trefoil-right-plus1"))
    assert isinstance(v, Fraction)
