"""Property checks that hold across the whole catalog."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ftik import catalog, memo
from ftik.diagram import (
    SurgeryPresentation,
    closed_braid,
    mirror,
    parallel,
    with_framings,
)
from ftik.fintype import CASSON, LAMBDA1, difference_sum
from ftik.invariants import (
    casson_invariant,
    jones_exp_derivative,
    ohtsuki_lambda2,
    sublink_alternating_series,
)
from ftik.skein import conway, jones
from oracles import braid_words, is_algebraically_split


def test_parallel_linking_vanishes_for_m_2_and_3():
    for entry in catalog.asl_entries():
        d = entry.diagram
        if d.is_empty():
            continue
        for m in (2, 3):
            lm = parallel(d, m).linking_matrix()
            n = len(lm)
            assert all(
                lm[i][j] == 0 for i in range(n) for j in range(n) if i != j
            ), (entry.name, m)


def test_conway_parity():
    # Only even z-powers for odd component counts, odd powers for even.
    for entry in catalog.entries():
        d = entry.diagram
        if d.is_empty():
            continue
        want = 0 if d.components % 2 == 1 else 1
        p = conway(d)
        assert all(e % 2 == want for e, _c in p.terms), entry.name


def test_v1_vanishes_on_catalog_knots():
    for entry in catalog.entries():
        if entry.diagram.components == 1:
            assert jones_exp_derivative(entry.diagram, 1) == 0, entry.name


def test_split_links_have_vanishing_low_phi():
    # For a split catalog link the alternating sublink sum vanishes to
    # order #L in (t - 1).
    for name in ("trefoils-two-plus1", "borromean-unknot-plus1",
                 "split-seven-plus1"):
        d = catalog.get(name).diagram
        s = sublink_alternating_series(d, d.components + 2)
        assert all(s.coeff(i) == 0 for i in range(d.components + 1)), name


def test_asl_entries_skips_only_diagram_errors(monkeypatch):
    # A bug in presentation validation must not silently drop entries from
    # the suites that iterate over the ASLs.
    def broken(d):
        raise KeyError("internal bug")

    monkeypatch.setattr(catalog, "SurgeryPresentation", broken)
    with pytest.raises(KeyError, match="internal bug"):
        catalog.asl_entries()


def test_mirror_right_trefoil_is_left_by_jones():
    right = catalog.get("trefoil-right").diagram
    left = catalog.get("trefoil-left").diagram
    assert jones(mirror(right)) == jones(left)
    assert jones(right) != jones(left)


def test_difference_sums_vanish_exhaustively_from_four_components():
    for entry in catalog.asl_entries(min_components=4):
        sp = SurgeryPresentation(entry.diagram)
        assert difference_sum(CASSON, sp) == 0, entry.name
        assert difference_sum(LAMBDA1, sp) == 0, entry.name


def markov_invariants(d):
    """Jones and Conway polynomials and, on an algebraically split link,
    lambda2 and Casson with every framing +1, from a cold memo."""
    memo.clear()
    polynomials = (jones(d), conway(d))
    if not is_algebraically_split(d):
        return polynomials
    sp = SurgeryPresentation(with_framings(d, (1,) * d.components))
    return polynomials + (ohtsuki_lambda2(sp), casson_invariant(sp))


@settings(max_examples=30, deadline=None)
@given(braid_words(4, 6), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=2), st.sampled_from((1, -1)))
def test_markov_moves_keep_jones_and_lambda2(word, turn, g, sign):
    strands, letters = word
    turn %= len(letters)
    g %= strands - 1
    want = markov_invariants(closed_braid(strands, letters))
    # Markov conjugation: rotating the word, and wrapping it in a letter and
    # its inverse.  Markov stabilization: a letter that crosses the last
    # strand with a new one.
    moved = (
        closed_braid(strands, letters[turn:] + letters[:turn]),
        closed_braid(strands, [(g, sign)] + letters + [(g, -sign)]),
        closed_braid(strands + 1, letters + [(strands - 1, sign)]),
    )
    for d in moved:
        assert markov_invariants(d) == want
