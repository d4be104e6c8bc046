"""Diagram construction, validation, serialization, and moves."""

import collections
import dataclasses
import json
import marshal
from enum import IntEnum
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftik import catalog, memo
from ftik.diagram import (
    LinkDiagram,
    SurgeryPresentation,
    closed_braid,
    disjoint_union,
    mirror,
    parallel,
    smooth_crossing,
    sublink,
    switch_crossing,
    with_framings,
)
from ftik.errors import DiagramError
from ftik.skein import jones
from oracles import (
    braid_closures,
    braid_words,
    smooth_crossing_union_find,
    split_pieces_union_find,
    sublink_union_find,
)

TREFOIL_PD = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]


def test_from_pd_trefoil():
    d = LinkDiagram.from_pd(TREFOIL_PD)
    assert d.components == 1
    assert len(d.crossings) == 3
    assert d.validate() == []
    assert abs(d.writhe()) == 3


def test_from_pd_rejects_bad_arc_multiplicity():
    with pytest.raises(DiagramError) as exc:
        LinkDiagram.from_pd([(1, 2, 3, 4), (1, 2, 3, 5)])
    assert exc.value.violations


def test_validate_reports_framing_mismatch():
    d = closed_braid(2, [(0, 1)] * 3)
    bad = LinkDiagram(d.crossings, d.over_in, d.component_arcs, (1, 1))
    assert any("framings" in v for v in bad.validate())


def test_validate_reports_component_arcs_off_the_successor_cycles():
    d = closed_braid(2, [(0, 1)] * 3)
    (arcs,) = d.component_arcs
    rotated = arcs[1:] + arcs[:1]
    reversed_ = arcs[:1] + arcs[:0:-1]
    for wrong in (rotated, reversed_):
        bad = LinkDiagram(d.crossings, d.over_in, (wrong,), d.framings)
        assert any("successor cycles" in v for v in bad.validate()), wrong


def test_closed_braid_components():
    assert closed_braid(2, [(0, 1)] * 3).components == 1
    assert closed_braid(2, [(0, 1)] * 2).components == 2
    # Untouched strands become marker components.
    d = closed_braid(3, [(0, 1)] * 2)
    assert d.components == 3
    assert d.unknotted_components == 1


def test_closed_braid_rejects_signs_other_than_plus_minus_one():
    # A sign of 0 used to become a negative crossing silently.
    for sign in (0, 2, -3):
        with pytest.raises(ValueError, match="sign"):
            closed_braid(2, [(0, sign)] * 3)
    with pytest.raises(ValueError, match="position"):
        closed_braid(2, [(1, 1)])


def test_framings_must_be_integers():
    # int() used to turn 1.7 into framing 1, True into 1 and "2" into 2.
    tref = catalog.get("trefoil-right").diagram
    for bad in ((1.7,), (True,), ("2",), (None,)):
        with pytest.raises(DiagramError, match="integers"):
            with_framings(tref, bad)
        with pytest.raises(DiagramError, match="integers"):
            LinkDiagram.assemble(tref.crossings, tref.over_in, bad)
    with pytest.raises(DiagramError, match="expected 1 framings"):
        with_framings(tref, (1, 1))
    assert with_framings(tref, [1]).framings == (1,)
    assert LinkDiagram.assemble(tref.crossings, tref.over_in, [-1]).framings == (-1,)


def test_linking_matrix_hopf():
    hopf = catalog.get("hopf-positive").diagram
    lm = hopf.linking_matrix()
    assert lm[0][1] == lm[1][0] == 1


def test_linking_matrix_asl_zero():
    for name in ("whitehead", "borromean"):
        lm = catalog.get(name).diagram.linking_matrix()
        n = len(lm)
        assert all(lm[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def test_json_roundtrip_bit_exact():
    for entry in catalog.entries():
        doc = entry.diagram.to_json_dict(entry.name)
        text = json.dumps(doc, sort_keys=True)
        name, rebuilt = LinkDiagram.from_json_dict(json.loads(text))
        assert name == entry.name
        assert json.dumps(rebuilt.to_json_dict(name), sort_keys=True) == text


def test_from_json_dict_missing_key():
    with pytest.raises(DiagramError):
        LinkDiagram.from_json_dict({"name": "x", "components": 0})


def test_mirror_involution_and_sign_flip():
    d = catalog.get("trefoil-right").diagram
    m = mirror(d)
    assert m.writhe() == -d.writhe()
    assert mirror(m).canonical_key() == d.canonical_key()


def test_canonical_key_kept_on_the_diagram():
    d = catalog.get("borromean-plus1").diagram
    key = d.canonical_key()
    fresh = dataclasses.replace(d)
    assert d.canonical_key() is key
    # The stored key is no dataclass field: equality and hashing ignore it.
    assert d == fresh and hash(d) == hash(fresh)
    assert fresh.canonical_key() == key
    flipped = with_framings(d, [-f for f in d.framings])
    assert flipped.canonical_key() == key
    assert flipped.canonical_key(include_framings=True) != d.canonical_key(
        include_framings=True)
    assert d.canonical_key(include_framings=True)[: len(key)] == key


class _One(IntEnum):
    ONE = 1


def test_canonical_key_is_deterministic_bytes():
    # A position-numbered knot with 302 arcs: ints above 256 are not
    # shared objects, so a marshal format with back-references would
    # encode two equal diagrams whose arcs are distinct objects apart.
    d = sublink(closed_braid(2, [(0, 1)] * 151), [0])
    copy = LinkDiagram(
        tuple(tuple(int(str(x)) for x in cr) for cr in d.crossings),
        d.over_in,
        tuple(tuple(int(str(a)) for a in cycle) for cycle in d.component_arcs),
        d.framings,
    )
    assert copy == d
    assert type(d.canonical_key()) is bytes and type(d.canonical_key(True)) is bytes
    assert copy.canonical_key() == d.canonical_key()
    assert copy.canonical_key(True) == d.canonical_key(True)
    # Framings of any size key apart, and an IntEnum keys as its value,
    # as a framing and as an arc alike.
    framed = {with_framings(d, [f]).canonical_key(True) for f in (2**70, -(2**70), 2**70 + 1)}
    assert len(framed) == 3
    assert (with_framings(d, [_One.ONE]).canonical_key(True)
            == with_framings(d, [1]).canonical_key(True))
    enum_arcs = LinkDiagram.from_pd(
        [[_One.ONE if x == 1 else x for x in cr] for cr in TREFOIL_PD], [_One.ONE])
    trefoil = LinkDiagram.from_pd(TREFOIL_PD, [1])
    assert enum_arcs.canonical_key(True) == trefoil.canonical_key(True)


_CACHED = ("_component_pairs", "_strand_walks", "_adjacency", "pieces", "_linking_numbers",
           "_keys")


def test_cached_attributes_are_computed_once_per_instance(monkeypatch):
    d = catalog.get("borromean-plus1").diagram
    for name in _CACHED:
        getattr(d, name)
    # dataclasses.replace builds a new instance, which carries no value.
    fresh = dataclasses.replace(d)
    assert not set(_CACHED) & set(vars(fresh))
    calls = collections.Counter()

    def counted(fn, name):
        def wrapper(obj):
            calls[name] += 1
            return fn(obj)
        return wrapper

    for name in _CACHED:
        descriptor = LinkDiagram.__dict__[name]
        # Read on the class, the attribute is the descriptor itself.
        assert getattr(LinkDiagram, name) is descriptor
        monkeypatch.setattr(descriptor, "fn", counted(descriptor.fn, name))
    for _ in range(3):
        SurgeryPresentation(fresh)
        fresh.canonical_key(True)
        fresh.piece_masks(0b11)
        sublink(fresh, [0, 1])
        assert fresh.pieces == (0b111,)
    assert calls == dict.fromkeys(_CACHED, 1)


def assert_key_reads_the_position_numbering(d):
    # The full sublink numbers the arcs 1..N in component order, and the
    # key's body is its sorted crossings; renaming the arcs in an
    # order-keeping way leaves the key alone.
    full = sublink(d, range(d.components))
    arcs = [a for cycle in full.component_arcs for a in cycle]
    assert arcs == list(range(1, len(arcs) + 1))
    assert tuple(sorted(zip(full.crossings, full.over_in))) == marshal.loads(d.canonical_key())[0]
    renamed = LinkDiagram(
        tuple(tuple(2 * x + 7 for x in cr) for cr in d.crossings),
        d.over_in,
        tuple(tuple(2 * a + 7 for a in cycle) for cycle in d.component_arcs),
        d.framings,
    )
    assert renamed.validate() == []
    assert renamed.canonical_key(True) == d.canonical_key(True)


def test_canonical_key_is_the_position_numbering_on_the_catalog():
    for entry in catalog.entries():
        for d in (entry.diagram, parallel(entry.diagram, 2)):
            assert_key_reads_the_position_numbering(d)


@settings(max_examples=60, deadline=None)
@given(braid_closures)
def test_canonical_key_is_the_position_numbering_on_closures(d):
    assert_key_reads_the_position_numbering(d)


def test_switch_crossing_changes_sign():
    d = catalog.get("trefoil-right").diagram
    s = switch_crossing(d, 0)
    assert s.crossing_sign(0) == -d.crossing_sign(0)
    assert s.writhe() == d.writhe() - 2 * d.crossing_sign(0)


def test_smooth_crossing_trefoil_gives_hopf():
    d = catalog.get("trefoil-right").diagram
    s = smooth_crossing(d, 0)
    assert s.components == 2
    assert len(s.crossings) == 2
    assert abs(s.linking_matrix()[0][1]) == 1


def assert_smoothings_match_the_union_find_oracle(d):
    for i in range(len(d.crossings)):
        assert smooth_crossing(d, i) == smooth_crossing_union_find(d, i), i


def test_smooth_crossing_matches_the_union_find_oracle_on_the_catalog():
    # Exact equality, arc names included: the Conway tree's node counts
    # depend on them.
    for entry in catalog.entries():
        assert_smoothings_match_the_union_find_oracle(entry.diagram)
    # No planar code smooths a crossing whose two joins share an arc: that
    # takes an under-strand (crossing 0) or an over-strand (crossing 1)
    # that closes on its own crossing without meeting another.
    assert_smoothings_match_the_union_find_oracle(
        LinkDiagram.assemble(((1, 2, 1, 3), (2, 4, 3, 4)), (3, 1)))


@settings(max_examples=100, deadline=None)
@given(braid_closures)
def test_smooth_crossing_matches_the_union_find_oracle_on_closures(d):
    assert_smoothings_match_the_union_find_oracle(d)


def test_sublink():
    b = catalog.get("borromean").diagram
    sub = sublink(b, (0, 2))
    assert sub.components == 2
    assert sub.validate() == []
    # Any 2-component sublink of the Borromean rings is an unlink; its
    # crossings between the two survivors cancel but arcs stay consistent.
    assert sublink(b, ()).is_empty()


def subsets(n):
    return [keep for r in range(n + 1) for keep in combinations(range(n), r)]


closures_and_cables = st.one_of(
    braid_closures,
    braid_words(4, 8).map(lambda w: parallel(closed_braid(*w), 2)),
)


@settings(max_examples=60, deadline=None)
@given(closures_and_cables)
def test_sublink_of_a_sublink_is_a_sublink(d):
    # Fused arcs are numbered in walk order from each component's first
    # arc, so the law holds as exact dataclass equality, arc names included.
    for a in subsets(d.components):
        sub = sublink(d, a)
        for b in subsets(len(a)):
            assert sublink(sub, b) == sublink(d, [a[i] for i in b]), (a, b)


def assert_copy_zero_is_the_sublink(d):
    # lambda2 reads each phi_1 term off the 2-parallel on this identity.
    cable = parallel(d, 2)
    for keep in subsets(d.components):
        assert sublink(cable, [2 * c for c in keep]) == sublink(d, keep), keep


def test_copy_zero_sub_cable_is_the_sublink_on_the_catalog():
    for entry in catalog.entries():
        assert_copy_zero_is_the_sublink(entry.diagram)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    braid_closures,
    st.tuples(braid_closures, braid_closures).map(lambda ds: disjoint_union(*ds)),
))
def test_copy_zero_sub_cable_is_the_sublink_on_closures(d):
    assert_copy_zero_is_the_sublink(d)


@settings(max_examples=30, deadline=None)
@given(st.one_of(
    braid_closures,
    braid_words(3, 5).map(lambda w: parallel(closed_braid(*w), 2)),
))
def test_sublink_matches_the_union_find_oracle(d):
    for keep in subsets(d.components):
        fast, slow = sublink(d, keep), sublink_union_find(d, keep)
        assert fast.validate() == [] and slow.validate() == []
        assert fast.framings == slow.framings
        assert fast.unknotted_components == slow.unknotted_components
        if fast.components:
            jones_fast = jones(fast)
            memo.clear()
            assert jones(slow) == jones_fast, keep


def test_disjoint_union():
    a = catalog.get("trefoil-right").diagram
    b = catalog.get("unknot").diagram
    u = disjoint_union(a, b)
    assert u.components == 2
    assert u.unknotted_components == 1
    assert u.validate() == []


def test_parallel_two_cable():
    d = catalog.get("trefoil-right").diagram
    c = parallel(d, 2)
    assert c.components == 2
    assert c.validate() == []
    lm = c.linking_matrix()
    # 0-framed parallel: copies have linking number 0 with each other.
    assert lm[0][1] == 0


def test_parallel_of_link():
    w = catalog.get("whitehead").diagram
    c = parallel(w, 2)
    assert c.components == 4
    assert c.validate() == []
    lm = c.linking_matrix()
    assert all(lm[i][j] == 0 for i in range(4) for j in range(4) if i != j)


def test_surgery_presentation_constraints():
    tref = catalog.get("trefoil-right").diagram
    SurgeryPresentation(with_framings(tref, (1,)))
    with pytest.raises(DiagramError):
        SurgeryPresentation(with_framings(tref, (2,)))
    hopf = catalog.get("hopf-positive").diagram
    with pytest.raises(DiagramError):
        SurgeryPresentation(with_framings(hopf, (1, 1)))


def test_surgery_presentation_mirror_negates_framings():
    sp = catalog.presentation("trefoil-right-plus1")
    assert sp.mirror().diagram.framings == (-1,)


def all_pieces(d):
    return d.piece_masks((1 << d.components) - 1)


def test_split_pieces():
    def pieces(name):
        return all_pieces(catalog.get(name).diagram)

    assert pieces("trefoils-two-plus1") == [0b1, 0b10]
    assert pieces("borromean-unknot-plus1") == [0b111, 0b1000]
    assert pieces("split-seven-plus1") == [1 << c for c in range(7)]
    for entry in catalog.entries():
        for d in (entry.diagram, parallel(entry.diagram, 2)):
            assert all_pieces(d) == split_pieces_union_find(d), entry.name


@settings(max_examples=60, deadline=None)
@given(st.lists(braid_closures, min_size=1, max_size=3), st.data())
def test_split_pieces_match_union_find_oracle(closures, data):
    d = closures[0]
    for other in closures[1:]:
        d = disjoint_union(d, other)
    assert all_pieces(d) == split_pieces_union_find(d)
    keep = data.draw(st.sets(st.integers(0, d.components - 1)))
    sub = sublink(d, keep)
    assert all_pieces(sub) == split_pieces_union_find(sub)
    # A sublink can put markers between other components, which checks
    # that ``pieces`` keeps the order of the pieces it leaves in.
    for variant in (d, sub):
        markers = {1 << c for c, arcs in enumerate(variant.component_arcs) if not arcs}
        assert list(variant.pieces) == [
            piece for piece in split_pieces_union_find(variant) if piece not in markers]
    # The pieces of a sublink are the pieces of its mask, renumbered.
    kept = sorted(keep)
    assert d.piece_masks(sum(1 << c for c in kept)) == [
        sum(1 << comp for c, comp in enumerate(kept) if piece >> c & 1)
        for piece in all_pieces(sub)]


VIRTUAL_PD = [[2, 3, 4, 1], [4, 1, 3, 2]]


def test_virtual_pd_code_is_rejected():
    # Every arc appears twice and the orientations are consistent, but the
    # two crossings bound 2 faces where a planar diagram bounds 4.
    with pytest.raises(DiagramError) as exc:
        LinkDiagram.from_pd(VIRTUAL_PD)
    assert any("planar" in v for v in exc.value.violations)
    crossings = tuple(tuple(c) for c in VIRTUAL_PD)
    d = LinkDiagram.assemble(crossings, (1, 1))
    assert any("planar" in v for v in d.validate())


def test_virtual_piece_beside_a_planar_one_is_rejected():
    # The faces are counted once over the whole diagram: the trefoil bounds
    # 5 and the virtual piece 2, where two planar pieces would bound 5 + 4.
    # The 7 faces equal V + 2 for V = 5, so the count needs 2 per piece.
    shifted = [[arc + 6 for arc in cr] for cr in VIRTUAL_PD]
    with pytest.raises(DiagramError) as exc:
        LinkDiagram.from_pd(TREFOIL_PD + shifted)
    assert any("planar" in v for v in exc.value.violations)
    trefoil = LinkDiagram.from_pd(TREFOIL_PD)
    crossings = trefoil.crossings + tuple(tuple(cr) for cr in shifted)
    d = LinkDiagram.assemble(crossings, trefoil.over_in + (1, 1))
    assert all_pieces(d) == [0b1, 0b10]
    assert any("planar" in v for v in d.validate())


def test_catalog_diagrams_pass_the_face_count():
    for entry in catalog.entries():
        d = entry.diagram
        for variant in (d, mirror(d), parallel(d, 2)):
            assert variant.validate() == [], entry.name


@settings(max_examples=100, deadline=None)
@given(braid_closures)
def test_every_operation_keeps_component_arcs_the_successor_cycles(d):
    # Each constructor must hand out exactly the successor cycles, each from
    # its smallest arc, with () for a marker; validate() checks just that.
    derived = [d, mirror(d), parallel(d, 2), disjoint_union(d, d)]
    derived += [sublink(d, keep) for r in range(d.components + 1)
                for keep in combinations(range(d.components), r)]
    for i in range(len(d.crossings)):
        derived += [smooth_crossing(d, i), switch_crossing(d, i)]
    for variant in derived:
        assert variant.validate() == []


@settings(max_examples=100, deadline=None)
@given(braid_closures, st.booleans())
def test_from_pd_infers_the_braid_orientation(d, mirrored):
    # Walking from the under-passages recovers the braid's own orientation
    # wherever a component passes under somewhere; a component that only
    # passes over gets a fixed one, which must still be consistent.
    d = mirror(d) if mirrored else d
    comp_of = {a: c for c, arcs in enumerate(d.component_arcs) for a in arcs}
    passes_under = {comp_of[cr[0]] for cr in d.crossings}
    rebuilt = LinkDiagram.from_pd(d.crossings, d.framings, d.unknotted_components)
    if all(c in passes_under for c, arcs in enumerate(d.component_arcs) if arcs):
        assert rebuilt == d
    else:
        assert rebuilt.validate() == []


@settings(max_examples=40, deadline=None)
@given(braid_closures)
def test_parallel_copy_labels(d):
    # Copy j of component c is component c*m + j of the cable, so taking
    # copy j of every component gives back d's own diagram.
    assert parallel(d, 1).canonical_key(True) == d.canonical_key(True)
    expected = jones(d)
    for m in (2, 3):
        cable = parallel(d, m)
        for j in range(m):
            copy = sublink(cable, [c * m + j for c in range(d.components)])
            assert jones(copy) == expected, (m, j)
