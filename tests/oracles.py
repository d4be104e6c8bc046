"""Test-only links, strategies and oracles.

``braid_words(max_strands, max_size)`` draws (strands, word) with 2 to
``max_strands`` strands and 1 to ``max_size`` letters; its closures have one
crossing per letter.

``graph_link(strands, triples)`` is the closure of the pure braid
prod over (i, j, k) of [A_ij, A_jk], with A_ij = sigma_(j-1) ... sigma_(i+1)
sigma_i^2 sigma_(i+1)^-1 ... sigma_(j-1)^-1 on strands i < j, all framings
+1.  Its components play the edges of a graph and the triples its
vertices; every commutator keeps the pairwise linking numbers 0.
``chain(n)`` is the graph link of the triples (p, p+1, p+2): it has
8(n - 2) crossings, it is not split, and removing an end component leaves
chain n - 1.

``hoste_casson`` is Hoste's surgery formula, the sum of f(L') a2(L') over
nonempty sublinks, with a2 read from the Conway resolution tree.  The
library sums phi_1 / 6 on the Jones side instead, so the two are
independent engines for the Casson invariant.

``lambda2_every_subcable`` is lambda2's surgery sum with every sub-cable of
the 2-parallel built and weighed whole; the library reads a split
sub-cable's weights off its connected pieces instead.

``tie_knot(d, comp, k)`` ties the knot k into component ``comp`` of d, a
connected sum drawn by swapping the head ends of one arc of each.

``_UnionFind`` is the oracles' own: ``split_pieces_union_find``,
``sublink_union_find``, ``smooth_crossing_union_find`` and
``kauffman_bracket_naive`` join in it, and the library has no union-find,
so none of them shares a helper with the code it checks.

``side_by_side(d, k)`` places k copies of d side by side in one pass,
equal to folding ``disjoint_union`` k times.

``split_pieces_union_find`` joins the components of each crossing in a
union-find and returns the pieces as component bitmasks ordered by smallest
component; the library grows each piece over a bitmask adjacency.

``sublink_union_find`` restricts a diagram to some components by joining
the fused arcs in a union-find and re-tracing the successor cycles; the
library walks each kept strand once and collects the kept crossings on
the way instead.  ``smooth_crossing_union_find`` makes a smoothing's two
joins in a union-find; the library names the two joined classes directly.

``contraction_plan_rescored`` plans the bracket contraction by rescoring
every remaining crossing at each step; the library keeps a running count
of open arcs per crossing.

``kauffman_bracket_naive`` sums the bracket over all 2^n states, tracing
each state's loops in a union-find; the library contracts the whole
diagram, split pieces included, crossing by crossing and merges states.

``contract_piece_dict`` contracts a diagram's crossings on the library's
plan and state tuples, but keeps each state's weight as a ``dict`` from
A-exponent to coefficient and counts every loop, so it returns
(-A^2 - A^(-2)) times the bracket; the library counts every loop too, but
packs each weight into one integer and divides the closed state's weight
once by the packed (-A^2 - A^(-2)).
"""

import math
from fractions import Fraction
from itertools import combinations, count, product

from hypothesis import strategies as st

from ftik.diagram import (
    Crossing,
    LinkDiagram,
    SurgeryPresentation,
    _cycles,
    closed_braid,
    disjoint_union,
    parallel,
    sublink,
    with_framings,
)
from ftik.errors import DiagramError
from ftik.invariants import jones_sublink_weight
from ftik.series import IntLaurent
from ftik.skein import _DELTA, _contraction_plan, conway_a2


class _UnionFind:
    """Union-find over arc ids, joined by size.  An id that was never
    joined is its own singleton class."""

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.size: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        up = parent.get(root, root)
        while up != root:
            root = up
            up = parent.get(root, root)
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def join(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        size = self.size
        sx, sy = size.get(rx, 1), size.get(ry, 1)
        if sx < sy:
            rx, ry = ry, rx
        self.parent[ry] = rx
        size[rx] = sx + sy


def braid_words(max_strands: int, max_size: int):
    return st.integers(min_value=2, max_value=max_strands).flatmap(lambda n: st.lists(
        st.tuples(st.integers(min_value=0, max_value=n - 2), st.sampled_from((1, -1))),
        min_size=1,
        max_size=max_size,
    ).map(lambda word: (n, word)))


braid_closures = braid_words(4, 12).map(lambda w: closed_braid(*w))


def pure_generator(i: int, j: int) -> list[tuple[int, int]]:
    """A_ij on strands i < j as a braid word."""
    conjugator = [(p, 1) for p in range(j - 1, i, -1)]
    return conjugator + [(i, 1), (i, 1)] + inverse_word(conjugator)


def inverse_word(word: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(p, -sign) for p, sign in reversed(word)]


def graph_link(strands: int, triples) -> SurgeryPresentation:
    word = []
    for i, j, k in triples:
        a, b = pure_generator(i, j), pure_generator(j, k)
        word += a + b + inverse_word(a) + inverse_word(b)
    return SurgeryPresentation(with_framings(closed_braid(strands, word), (1,) * strands))


def chain(n: int) -> SurgeryPresentation:
    return graph_link(n, [(p, p + 1, p + 2) for p in range(n - 2)])


def hoste_casson(sp: SurgeryPresentation) -> Fraction:
    d = sp.diagram
    total = Fraction(0)
    for size in range(1, d.components + 1):
        for keep in combinations(range(d.components), size):
            total += math.prod(d.framings[c] for c in keep) * conway_a2(sublink(d, keep))
    return total


def lambda2_every_subcable(sp: SurgeryPresentation) -> Fraction:
    d = sp.diagram
    cable = parallel(d, 2)
    total = Fraction(0)
    for counts in product((0, 1, 2), repeat=d.components):
        if not any(counts):
            continue
        sub = sublink(cable, [2 * comp + j for comp, k in enumerate(counts) for j in range(k)])
        f = math.prod(d.framings[comp] ** k for comp, k in enumerate(counts))
        total += jones_sublink_weight(sub, 2) * f / 2 ** counts.count(2)
        if 2 not in counts:
            total += jones_sublink_weight(sub, 1) * f * Fraction(sub.components, 2)
    return total


def side_by_side(d: LinkDiagram, k: int) -> LinkDiagram:
    """k copies of d side by side, built in one pass: copy j shifts d's
    arc ids by j times d's largest one, as folding ``disjoint_union`` k
    times does, without re-copying the growing union at every step."""
    offset = max((x for cr in d.crossings for x in cr), default=0)
    shifts = [j * offset for j in range(k)]
    return LinkDiagram(
        tuple(tuple(x + s for x in cr) for s in shifts for cr in d.crossings),
        d.over_in * k,
        tuple(tuple(a + s for a in arcs) for s in shifts for arcs in d.component_arcs),
        d.framings * k,
    )


def tie_knot(d: LinkDiagram, comp: int, k: LinkDiagram) -> LinkDiagram:
    """The connected sum of component ``comp`` of d with the knot k, both
    drawn with crossings, keeping d's framings.

    In the disjoint union of d and k, the first arc x of ``comp`` and the
    first arc y of k swap their head ends (slot 0, or slot ``over_in``,
    of the crossing each enters): x now runs into k and y back into d.
    That is a band between the two arcs, so the two components become
    one.  Every arc of k is numbered above every arc of d, so each cycle
    starts at the first arc of the component of d it runs through.
    """
    union = disjoint_union(d, k)
    x, y = d.component_arcs[comp][0], union.component_arcs[d.components][0]
    swap = {x: y, y: x}
    crossings = []
    for cr, oi in zip(union.crossings, union.over_in):
        cr = list(cr)
        for slot in (0, oi):
            cr[slot] = swap.get(cr[slot], cr[slot])
        crossings.append(tuple(cr))
    first = {arcs[0]: c for c, arcs in enumerate(d.component_arcs) if arcs}
    component_arcs = list(d.component_arcs)
    for cycle in _cycles(tuple(crossings), union.over_in):
        component_arcs[first[cycle[0]]] = cycle
    return LinkDiagram(tuple(crossings), union.over_in, tuple(component_arcs), d.framings)


def split_pieces_union_find(d: LinkDiagram) -> list[int]:
    uf = _UnionFind()
    for p, q in d._component_pairs:
        uf.join(p, q)
    pieces: dict[int, int] = {}
    for comp in range(d.components):
        root = uf.find(comp)
        pieces[root] = pieces.get(root, 0) | 1 << comp
    return list(pieces.values())


def is_algebraically_split(d: LinkDiagram) -> bool:
    try:
        SurgeryPresentation(with_framings(d, (1,) * d.components))
    except DiagramError:
        return False
    return True


def contraction_plan_rescored(crossings: tuple) -> tuple[int, list]:
    """The bracket's greedy contraction plan, rescoring every remaining
    crossing at each step: the most open arcs first, the lowest index on
    ties."""
    remaining = set(range(len(crossings)))
    slot_of: dict[int, int] = {}
    free: list[int] = []
    fresh = count()
    plan = []
    while remaining:
        best = max(sorted(remaining),
                   key=lambda i: sum(arc in slot_of for arc in crossings[i]))
        remaining.discard(best)
        slots, released = [], []
        for arc in crossings[best]:
            if arc in slot_of:
                released.append(slot_of.pop(arc))
                slots.append(released[-1])
            else:
                slot_of[arc] = free.pop() if free else next(fresh)
                slots.append(slot_of[arc])
        free += released
        a, b, c, e = slots
        plan.append(((((a, b), (c, e)), 1), (((a, e), (b, c)), -1)))
    return next(fresh), plan


# (-A^2 - A^(-2))^k as (exponent, coefficient) pairs, for the at most two
# loops that one smoothing of a crossing can close.
_LOOP_POWERS = (((0, 1),), ((2, -1), (-2, -1)), ((4, 1), (0, 2), (-4, 1)))


def contract_piece_dict(d: LinkDiagram) -> IntLaurent:
    """(-A^2 - A^(-2)) times the bracket of the crossings of a diagram with
    at least one crossing, split or not: the plain state sum, in which
    every loop counts, with one ``dict`` weight per state.  A smoothing
    multiplies the weight by A^(+-1) times the ``_LOOP_POWERS`` entry of
    the loops it closed and adds the product into the weight of the
    resulting state."""
    n_slots, plan = _contraction_plan(d.crossings)
    closed = (-1,) * n_slots
    states: dict[tuple, dict[int, int]] = {closed: {0: 1}}
    for branches in plan:
        new_states: dict[tuple, dict[int, int]] = {}
        for key, weight in states.items():
            for joins, shift in branches:
                m = list(key)
                loops = 0
                for x, y in joins:
                    px = x if m[x] < 0 else m[x]
                    py = y if m[y] < 0 else m[y]
                    m[x] = m[y] = -1
                    if px == y:
                        loops += 1
                    else:
                        m[px], m[py] = py, px
                acc = new_states.setdefault(tuple(m), {})
                for fe, fc in _LOOP_POWERS[loops]:
                    fe += shift
                    for we, wc in weight.items():
                        acc[we + fe] = acc.get(we + fe, 0) + fc * wc
        states = new_states
    assert set(states) <= {closed}
    return IntLaurent.from_dict(states.get(closed, {}))


def sublink_union_find(d: LinkDiagram, keep) -> LinkDiagram:
    """The sublink on the components in ``keep``: each crossing with a
    removed strand joins the two arcs of its kept strand, every arc is
    renamed to its union-find root, and each successor cycle of the kept
    crossings goes to the component of its first arc."""
    keep = frozenset(keep)
    comp_of = {a: c for c, arcs in enumerate(d.component_arcs) for a in arcs}
    uf = _UnionFind()
    kept: list[tuple[Crossing, int]] = []
    for cr, oi in zip(d.crossings, d.over_in):
        a, b, c, e = cr
        under_kept = comp_of[a] in keep
        over_kept = comp_of[b] in keep
        if under_kept and over_kept:
            kept.append((cr, oi))
        elif under_kept:
            uf.join(a, c)
        elif over_kept:
            uf.join(b, e)
    crossings = tuple(tuple(uf.find(x) for x in cr) for cr, _oi in kept)
    over_in = tuple(oi for _cr, oi in kept)
    kept_comps = sorted(keep)
    index = {comp: i for i, comp in enumerate(kept_comps)}
    component_arcs: list[tuple[int, ...]] = [()] * len(kept_comps)
    for cycle in _cycles(crossings, over_in):
        component_arcs[index[comp_of[cycle[0]]]] = cycle
    framings = tuple(d.framings[comp] for comp in kept_comps)
    return LinkDiagram(crossings, over_in, tuple(component_arcs), framings)


def smooth_crossing_union_find(d: LinkDiagram, i: int) -> LinkDiagram:
    """The smoothing of crossing i with its two joins made in a union-find:
    every arc is renamed to its root, and each class that no remaining
    crossing reads is a free loop."""
    a, b, c, e = d.crossings[i]
    o_in, o_out = (b, e) if d.over_in[i] == 1 else (e, b)
    uf = _UnionFind()
    uf.join(a, o_out)
    uf.join(o_in, c)
    remaining = [
        (tuple(uf.find(x) for x in cr), oi)
        for j, (cr, oi) in enumerate(zip(d.crossings, d.over_in))
        if j != i
    ]
    used = {x for cr, _oi in remaining for x in cr}
    free_loops = len({uf.find(a), uf.find(o_in)} - used)
    crossings = tuple(cr for cr, _oi in remaining)
    over_in = tuple(oi for _cr, oi in remaining)
    return LinkDiagram.assemble(crossings, over_in, None, d.unknotted_components + free_loops)


def kauffman_bracket_naive(d: LinkDiagram) -> IntLaurent:
    """Independent 2^n state-sum evaluation of the bracket."""
    if d.components == 0:
        raise ValueError("empty diagram")
    n = len(d.crossings)
    arcs = {x for cr in d.crossings for x in cr}
    # Number of states per (A-exponent, loop count), summed up at the end.
    tally: dict[tuple[int, int], int] = {}
    for bits in range(1 << n):
        uf = _UnionFind()
        exponent = 0
        for i, (a, b, c, e) in enumerate(d.crossings):
            if bits >> i & 1:
                uf.join(a, b)
                uf.join(c, e)
                exponent += 1
            else:
                uf.join(a, e)
                uf.join(b, c)
                exponent -= 1
        loops = len({uf.find(x) for x in arcs}) + d.unknotted_components
        tally[exponent, loops] = tally.get((exponent, loops), 0) + 1
    total = IntLaurent.zero()
    for (exponent, loops), states in tally.items():
        total = total + _DELTA ** (loops - 1) * IntLaurent.monomial(exponent, states)
    return total
