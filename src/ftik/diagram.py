"""Oriented framed link diagrams in planar-diagram (PD) form.

A crossing is a 4-tuple of arc identifiers listed counterclockwise starting
at the incoming under-arc, the dominant convention in published link tables.
Orientation is carried by an explicit record of which over-slot (1 or 3) the
over-strand enters; for table codes this is inferred by walking each strand
forward from its under-passages.  Components that have no crossings at all cannot be expressed in
PD form and are kept as explicit unknot markers.

Diagrams are immutable values and every operation here is a pure function.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass
from itertools import chain, count
from typing import Callable, Iterable, Sequence

from .errors import DiagramError

Crossing = tuple[int, int, int, int]
_Pair = tuple[int, int]


class _cached:
    """A per-instance cache like ``functools.cached_property``, without its
    lock: the first read stores the value in the instance's ``__dict__``."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class LinkDiagram:
    """An oriented link diagram with per-component integer framings.

    ``over_in`` holds, per crossing, the slot (1 or 3) at which the
    over-strand enters.  ``component_arcs`` holds, per component, its arcs
    in orientation order starting from its smallest arc; a zero-crossing
    unknot component (a marker) owns no arcs and gets ``()``.  Every
    constructor keeps these tuples equal to the cycles of the arc successor
    relation, which ``validate`` checks.
    """

    crossings: tuple[Crossing, ...]
    over_in: tuple[int, ...]
    component_arcs: tuple[tuple[int, ...], ...]
    framings: tuple[int, ...]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_pd(
        cls,
        crossings: Iterable[Sequence[int]],
        framings: Sequence[int] | None = None,
        unknotted_components: int = 0,
    ) -> "LinkDiagram":
        """Build a diagram from bare PD tuples, inferring orientations.

        Marker components are appended after the PD-borne components, which
        are numbered in order of their smallest arc identifier.
        """
        crossings = tuple(tuple(c) for c in crossings)
        violations = pd_violations(crossings)
        if violations:
            raise DiagramError(violations)
        # Plain ints, which ``marshal`` can encode in ``canonical_key``.
        crossings = tuple(tuple(map(int, c)) for c in crossings)
        other_end = _other_end(crossings)
        over_in = _infer_over_in(crossings, other_end)
        d = cls.assemble(crossings, over_in, framings, unknotted_components)
        violations = d._face_violations(other_end)
        if violations:
            raise DiagramError(violations)
        return d

    @classmethod
    def assemble(
        cls,
        crossings: tuple[Crossing, ...],
        over_in: tuple[int, ...],
        framings: Sequence[int] | None = None,
        unknotted_components: int = 0,
    ) -> "LinkDiagram":
        """Build a diagram from crossings with known over-strand directions."""
        cycles = _cycles(crossings, over_in)
        total = len(cycles) + unknotted_components
        framings = (0,) * total if framings is None else _checked_framings(framings, total)
        component_arcs = tuple(cycles) + ((),) * unknotted_components
        return cls(crossings, tuple(over_in), component_arcs, framings)

    # -- basic accessors ----------------------------------------------------

    @property
    def components(self) -> int:
        return len(self.component_arcs)

    @property
    def unknotted_components(self) -> int:
        return self.component_arcs.count(())

    @_cached
    def _component_pairs(self) -> tuple[_Pair, ...]:
        """Each crossing's (under, over) component pair.  With
        ``_strand_walks`` this is the strand index, built once per instance
        when first read."""
        comp_of = {a: c for c, arcs in enumerate(self.component_arcs) for a in arcs}
        return tuple([(comp_of[a], comp_of[b]) for a, b, _c, _e in self.crossings])

    @_cached
    def _strand_walks(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per component, its arcs in order, each as (arc, the component
        met at its head, the index of the crossing at its head), the head
        being the crossing where the arc ends."""
        met = {}
        for i, (cr, oi, (p, q)) in enumerate(
                zip(self.crossings, self.over_in, self._component_pairs)):
            met[cr[0]] = q, i
            met[cr[oi]] = p, i
        return tuple(tuple((a, *met[a]) for a in arcs) for arcs in self.component_arcs)

    def is_empty(self) -> bool:
        return self.components == 0

    def crossing_sign(self, i: int) -> int:
        """+1 for a right-handed crossing, -1 for a left-handed one.

        With slots listed counterclockwise from the incoming under-arc, the
        crossing is positive exactly when the over-strand enters at slot 3.
        """
        return 1 if self.over_in[i] == 3 else -1

    def writhe(self) -> int:
        return sum(self.crossing_sign(i) for i in range(len(self.crossings)))

    def self_writhe(self, comp: int) -> int:
        return sum(self.crossing_sign(i) for i, pair in enumerate(self._component_pairs)
                   if pair == (comp, comp))

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Check all structural invariants, planarity included; returns
        violations, never raises."""
        out = pd_violations(self.crossings)
        try:
            cycles = _cycles(self.crossings, self.over_in)
        except DiagramError as exc:
            return out + exc.violations
        if sorted(arcs for arcs in self.component_arcs if arcs) != cycles:
            out.append(
                "component arcs are not the arc successor cycles, "
                "each starting at its smallest arc"
            )
        if len(self.framings) != self.components:
            out.append(
                f"{len(self.framings)} framings for {self.components} components"
            )
        if len(self.over_in) != len(self.crossings):
            out.append("over_in length does not match crossing count")
        for i, s in enumerate(self.over_in):
            if s not in (1, 3):
                out.append(f"crossing {i}: over-strand entry slot must be 1 or 3")
        return out or self._face_violations(_other_end(self.crossings))

    def _face_violations(self, other_end: dict[_Pair, _Pair]) -> list[str]:
        """Euler's formula: a planar split piece with V crossings has 2V
        edges and bounds exactly V + 2 faces, and a piece of genus g bounds
        2g fewer.  So the diagram is planar exactly when its faces number
        V + 2p, for V crossings in the p split pieces of ``pieces``; a PD
        code with virtual crossings traces fewer.  Faces are the cycles of
        the dart map (c, s) -> (``other_end`` of (c, s), slot + 1), where
        ``other_end`` is ``_other_end(self.crossings)``, which ``from_pd``
        has already built for ``_infer_over_in``."""
        seen: set[tuple[int, int]] = set()
        faces = 0
        for dart in other_end:
            if dart in seen:
                continue
            faces += 1
            while dart not in seen:
                seen.add(dart)
                ci, slot = other_end[dart]
                dart = (ci, (slot + 1) % 4)
        pieces = len(self.pieces)
        planar = len(self.crossings) + 2 * pieces
        if faces == planar:
            return []
        return [f"diagram is not planar: {len(self.crossings)} crossings in {pieces} "
                f"pieces bound {faces} faces, a planar diagram bounds {planar}"]

    @_cached
    def _adjacency(self) -> tuple[int, ...]:
        """Per component, the bitmask of the other components it crosses."""
        adjacency = [0] * self.components
        for p, q in self._component_pairs:
            if p != q:
                adjacency[p] |= 1 << q
                adjacency[q] |= 1 << p
        return tuple(adjacency)

    @_cached
    def pieces(self) -> tuple[int, ...]:
        """The split pieces that have crossings, as component bitmasks
        ordered by smallest component: ``piece_masks`` of the components
        that own arcs, found once per instance.  An unknot marker is a
        piece of its own with no crossings, so it is left out before the
        walk and costs nothing."""
        return tuple(self.piece_masks(
            sum(1 << c for c, arcs in enumerate(self.component_arcs) if arcs)))

    def piece_masks(self, mask: int) -> list[int]:
        """The split pieces of ``sublink(self, comps)``, where bit c of
        ``mask`` keeps component c, as component bitmasks of self ordered
        by smallest component.  A sublink keeps exactly the crossings
        between kept components, so its pieces are the connected parts of
        the kept components in the crossing adjacency.  Each piece costs a
        few operations over the whole mask, so a wide mask of many pieces
        is quadratic in them.  No caller passes a marker beside other
        components: ``pieces`` leaves markers out, and the public weight,
        alternating sum and ``skein._conway`` give 0 on such a diagram
        first.  Wide masks of many pieces with crossings
        come from ``pieces``, from the sublink table of a split diagram
        (for ``jones_sublink_weight`` or ``sublink_alternating_series``)
        and from ``skein._conway`` on a split resolution node."""
        adjacency = self._adjacency
        pieces = []
        while mask:
            piece = frontier = mask & -mask
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown = adjacency[low.bit_length() - 1] & mask & ~piece
                piece |= grown
                frontier |= grown
            pieces.append(piece)
            mask &= ~piece
        return pieces

    @staticmethod
    def mask_components(mask: int) -> list[int]:
        """The components whose bits are set in ``mask``, in increasing
        order, found in one step per set bit."""
        comps = []
        while mask:
            low = mask & -mask
            comps.append(low.bit_length() - 1)
            mask ^= low
        return comps

    # -- linking data -------------------------------------------------------

    def linking_matrix(self) -> list[list[int]]:
        """Symmetric matrix with linking numbers off the diagonal and
        framings on it.  An odd signed crossing count between two
        components means the diagram is malformed."""
        n = self.components
        out = [[0] * n for _ in range(n)]
        for p, f in enumerate(self.framings):
            out[p][p] = f
        for (p, q), lk in self._linking_numbers.items():
            out[p][q] = out[q][p] = lk
        return out

    @_cached
    def _linking_numbers(self) -> dict[_Pair, int]:
        """The nonzero linking numbers by component pair (p, q), p < q, in
        that order.  Only components that share a crossing can link, so one
        pass over the crossings, made once per instance, finds them all; an
        odd signed crossing count between two of them raises
        ``DiagramError``."""
        sums: dict[_Pair, int] = {}
        for i, (p, q) in enumerate(self._component_pairs):
            if p != q:
                pair = (min(p, q), max(p, q))
                sums[pair] = sums.get(pair, 0) + self.crossing_sign(i)
        out = {}
        for (p, q), s in sorted(sums.items()):
            if s % 2 != 0:
                raise DiagramError(f"odd signed crossing sum between components {p} and {q}")
            if s:
                out[p, q] = s // 2
        return out

    # -- canonical key ------------------------------------------------------

    def canonical_key(self, include_framings: bool = False) -> bytes:
        """A cache key: equal keys mean diagrams equal up to arc names.

        Its body is the sorted (crossing, over_in) pairs of the diagram with
        each arc renumbered by its position in ``component_arcs`` read in
        order, from 1; that position-numbered copy is
        ``sublink(d, range(d.components))``.  So the key is invariant under
        renamings of the arcs that keep the order of their ids, but not
        under every relabelling: the same diagram with its arcs named in
        another order can get another key, and a memo hit rate depends on
        how arcs are named.  The key is the ``marshal`` bytes (version 2:
        no back-references, so equal values give equal bytes) of (body,
        components, unknotted components); the framed key appends those of
        (framings, marker indices).  Both keys are built once per instance,
        outside the dataclass fields, so equality and hashing are unaffected.
        """
        return self._keys[include_framings]

    @_cached
    def _keys(self) -> tuple[bytes, bytes]:
        order = tuple(chain.from_iterable(self.component_arcs))
        pairs = zip(self.crossings, self.over_in)
        # Every sublink arrives position-numbered: no relabel is needed.
        if order != tuple(range(1, len(order) + 1)):
            relabel = dict(zip(order, count(1)))
            pairs = ((tuple([relabel[x] for x in cr]), oi) for cr, oi in pairs)
        key = marshal.dumps(
            (tuple(sorted(pairs)), self.components, self.unknotted_components), 2)
        markers = tuple(c for c, arcs in enumerate(self.component_arcs) if not arcs)
        return key, key + marshal.dumps((self.framings, markers), 2)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self, name: str) -> dict:
        """Emit the link-file schema.  Marker components must occupy the
        trailing component indices, as the schema only stores their count."""
        markers = self.unknotted_components
        if () in self.component_arcs[: self.components - markers]:
            raise DiagramError("cannot serialize: unknotted components are not trailing")
        return {
            "name": name,
            "components": self.components,
            "framings": list(self.framings),
            "crossings": [list(c) for c in self.crossings],
            "unknotted_components": markers,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> tuple[str, "LinkDiagram"]:
        if not isinstance(data, dict):
            raise DiagramError("link file must be a JSON object")
        required = {"name", "components", "framings", "crossings", "unknotted_components"}
        missing = required - set(data)
        if missing:
            raise DiagramError(f"link file missing keys: {sorted(missing)}")
        violations = []
        crossings = data["crossings"]
        if not isinstance(crossings, list) or not all(isinstance(c, list) for c in crossings):
            violations.append("link file: crossings must be a list of 4-arc lists")
        framings = data["framings"]
        if not isinstance(framings, list) or not all(_is_int(f) for f in framings):
            violations.append("link file: framings must be a list of integers")
        for key in ("components", "unknotted_components"):
            if not _is_int(data[key]) or data[key] < 0:
                violations.append(f"link file: {key} must be an integer >= 0")
        if violations:
            raise DiagramError(violations)
        d = cls.from_pd(
            crossings,
            framings=framings,
            unknotted_components=data["unknotted_components"],
        )
        if d.components != data["components"]:
            raise DiagramError(
                f"link file declares {data['components']} components, "
                f"diagram has {d.components}"
            )
        return data["name"], d


# ---------------------------------------------------------------------------
# PD structure checks and orientation inference
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    """An int from a JSON document; ``true``/``false`` load as bools, which
    Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _checked_framings(framings: Sequence[int], total: int) -> tuple[int, ...]:
    """The framings as a tuple of plain ints (an ``IntEnum`` becomes its
    value, which ``marshal`` can encode in a key); anything but ``total``
    ints (bools, floats and strings included) raises ``DiagramError``."""
    framings = tuple(framings)
    if not all(_is_int(f) for f in framings):
        raise DiagramError(f"framings must be integers, got {framings!r}")
    if len(framings) != total:
        raise DiagramError(f"expected {total} framings, got {len(framings)}")
    return tuple(map(int, framings))


def pd_violations(crossings: Sequence[Sequence[int]]) -> list[str]:
    """Structural checks on raw PD tuples: four positive integer arcs per
    crossing, each arc at exactly two slots.  Returns human-readable
    violations.  Orientation is not checked here: ``from_pd`` infers it with
    ``_infer_over_in`` and ``validate`` traces it with ``_cycles``, and each
    rejects a code that has none."""
    out: list[str] = []
    counts: dict[int, int] = {}
    for i, c in enumerate(crossings):
        if len(c) != 4:
            out.append(f"crossing {i}: expected 4 arcs, got {len(c)}")
            continue
        if not all(_is_int(arc) and arc >= 1 for arc in c):
            out.append(f"crossing {i}: arc identifiers must be positive integers")
            continue
        for arc in c:
            counts[arc] = counts.get(arc, 0) + 1
    for arc, n in sorted(counts.items()):
        if n != 2:
            out.append(f"arc multiplicity: arc {arc} appears {n} times, expected 2")
    return out


def _other_end(crossings: tuple[Crossing, ...]) -> dict[tuple[int, int], tuple[int, int]]:
    """Map each (crossing, slot) to the (crossing, slot) at the other end of
    the arc found there.  Every arc must appear exactly twice."""
    first: dict[int, tuple[int, int]] = {}
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for ci, cr in enumerate(crossings):
        for slot, arc in enumerate(cr):
            end = first.pop(arc, None)
            if end is None:
                first[arc] = (ci, slot)
            else:
                out[end], out[ci, slot] = (ci, slot), end
    return out


def _infer_over_in(
    crossings: tuple[Crossing, ...], other_end: dict[_Pair, _Pair]
) -> tuple[int, ...]:
    """Infer, per crossing, which over-slot the over-strand enters, walking
    the dart map ``other_end`` of ``_other_end(crossings)``.

    Every under-passage enters at slot 0.  A strand is walked forward from
    each slot 0: it leaves a crossing at the slot opposite its entry and
    enters the next at the other end of that arc, so it meets each
    over-passage at its entry slot.  A component that only ever passes over
    is walked from slot 3 of its lowest crossing, a fixed arbitrary choice
    that cannot affect any invariant of an algebraically split link.  A
    walk that enters a crossing at slot 2, or at both over-slots, means the
    code has no consistent orientation and raises ``DiagramError``.
    """
    over_in = [0] * len(crossings)
    entered: set[tuple[int, int]] = set()

    def walk(dart: tuple[int, int]) -> None:
        while dart not in entered:
            ci, slot = dart
            if slot == 2 or over_in[ci] == 4 - slot:
                raise DiagramError([f"crossing {ci}: inconsistent strand orientation"])
            entered.add(dart)
            if slot:
                over_in[ci] = slot
            dart = other_end[ci, (slot + 2) % 4]

    for ci in range(len(crossings)):
        walk((ci, 0))
    for ci in range(len(crossings)):
        if not over_in[ci]:
            walk((ci, 3))
    return tuple(over_in)


def _successors(crossings: tuple[Crossing, ...], over_in: tuple[int, ...]) -> dict[int, int]:
    succ: dict[int, int] = {}
    for cr, oi in zip(crossings, over_in):
        a, b, c, d = cr
        succ[a] = c
        if oi == 1:
            succ[b] = d
        else:
            succ[d] = b
    return succ


def _cycles(crossings: tuple[Crossing, ...], over_in: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Decompose the arc successor relation into cycles, each starting at
    its smallest arc and ordered by it."""
    succ = _successors(crossings, over_in)
    seen: set[int] = set()
    cycles: list[tuple[int, ...]] = []
    for start in sorted(succ):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        arc = succ.get(start)
        while arc is not None and arc != start:
            if arc in seen:
                raise DiagramError(
                    [f"arc successor relation is not a disjoint union of cycles (near arc {arc})"]
                )
            cycle.append(arc)
            seen.add(arc)
            arc = succ.get(arc)
        if arc is None:
            raise DiagramError([f"arc {cycle[-1]} has no successor"])
        cycles.append(tuple(cycle))
    return cycles


# ---------------------------------------------------------------------------
# Diagram operations
# ---------------------------------------------------------------------------


def _switched(cr: Crossing, over_in: int) -> tuple[Crossing, int]:
    """One crossing with over- and under-strand exchanged; the slots rotate
    so that the old over-strand's entry becomes the under-arc slot 0."""
    a, b, c, e = cr
    return ((b, c, e, a), 3) if over_in == 1 else ((e, a, b, c), 1)


def mirror(d: LinkDiagram) -> LinkDiagram:
    """Swap over- and under-strand at every crossing.  Framings are kept;
    surgery presentations negate them separately."""
    flipped = [_switched(cr, oi) for cr, oi in zip(d.crossings, d.over_in)]
    return LinkDiagram(
        tuple(cr for cr, _oi in flipped),
        tuple(oi for _cr, oi in flipped),
        d.component_arcs,
        d.framings,
    )


def switch_crossing(d: LinkDiagram, i: int) -> LinkDiagram:
    """Exchange over- and under-strand at one crossing (a skein move)."""
    crossings = list(d.crossings)
    over_in = list(d.over_in)
    crossings[i], over_in[i] = _switched(crossings[i], over_in[i])
    return LinkDiagram(tuple(crossings), tuple(over_in), d.component_arcs, d.framings)


def smooth_crossing(d: LinkDiagram, i: int) -> LinkDiagram:
    """Orientation-respecting smoothing of one crossing.

    Component structure is rebuilt from scratch since the smoothing can
    merge two components or split one; framings are reset to zero (the
    operation is only meaningful inside skein recursions).  The under-arc
    in ``a`` joins the over-arc out, and the over-arc in joins the under-arc
    out ``c``.  The first pair is named ``a`` and the second ``o_in``; the
    two pairs share an arc only when ``a == c`` or ``o_in == o_out`` (an
    arc has one head and one tail), and then both are named ``a``.  Each
    of these names that no remaining crossing reads stands for arcs seen
    twice at crossing ``i`` only, so it has closed into a free loop.
    """
    a, b, c, e = d.crossings[i]
    if d.over_in[i] == 1:
        o_in, o_out = b, e
    else:
        o_in, o_out = e, b
    second = a if a == c or o_in == o_out else o_in
    rename = {o_out: a, o_in: second, c: second}
    remaining = [
        (tuple(rename.get(x, x) for x in cr), oi)
        for j, (cr, oi) in enumerate(zip(d.crossings, d.over_in))
        if j != i
    ]
    used = {x for cr, _oi in remaining for x in cr}
    free_loops = len({a, second} - used)
    crossings = tuple(cr for cr, _oi in remaining)
    over_in = tuple(oi for _cr, oi in remaining)
    return LinkDiagram.assemble(
        crossings, over_in, None, d.unknotted_components + free_loops
    )


def sublink(d: LinkDiagram, keep: Iterable[int]) -> LinkDiagram:
    """Restrict the diagram to a subset of components.

    Crossings between two kept strands are preserved; where a kept strand
    passes through a crossing with a removed strand, its two arcs are fused
    and the crossing disappears.  Component indices keep their original
    relative order and framings are restricted accordingly.

    Each kept component's arc cycle is walked once, from the strand index,
    starting at the run of arcs that holds its first arc.  A run of arcs
    between two kept crossings becomes one fused arc, and the runs are
    numbered 1, 2, ... in walk order, component after component: the
    position numbering of ``canonical_key``.  The same walk collects the
    index of each kept crossing, met once by each of its two strands, and
    the kept crossings keep d's order; no other crossing of d is read, so
    the cost is linear in the kept strands.  Runs of a sublink are unions
    of runs of d, and its first run holds d's first arc, so
    ``sublink(sublink(d, A), B')`` equals ``sublink(d, B)`` whenever B'
    indexes B within A.  A kept component that no kept crossing reads, a
    marker or a loop whose crossings all vanished, gets ``()``.
    """
    keep = frozenset(keep)
    bad = [c for c in keep if c not in range(d.components)]
    if bad:
        raise DiagramError(f"unknown component indices {sorted(bad)}")
    walks = d._strand_walks
    kept_comps = sorted(keep)
    name: dict[int, int] = {}
    kept: set[int] = set()
    component_arcs: list[tuple[int, ...]] = []
    fused = 1
    for comp in kept_comps:
        walk = walks[comp]
        for last in range(len(walk) - 1, -1, -1):
            if walk[last][1] in keep:
                break
        else:
            component_arcs.append(())
            continue
        # The run after the last kept crossing holds the first arc.
        first = fused
        for arc, met, i in walk[last + 1:] + walk[:last + 1]:
            name[arc] = fused
            if met in keep:
                fused += 1
                kept.add(i)
        component_arcs.append(tuple(range(first, fused)))
    kept_order = sorted(kept)
    crossings = tuple(tuple(name[x] for x in d.crossings[i]) for i in kept_order)
    over_in = tuple(d.over_in[i] for i in kept_order)
    framings = tuple(d.framings[comp] for comp in kept_comps)
    return LinkDiagram(crossings, over_in, tuple(component_arcs), framings)


def disjoint_union(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    """Place two diagrams side by side, reindexing arcs and components."""
    offset = max((x for cr in d1.crossings for x in cr), default=0)
    crossings = d1.crossings + tuple(
        tuple(x + offset for x in cr) for cr in d2.crossings
    )
    component_arcs = d1.component_arcs + tuple(
        tuple(a + offset for a in arcs) for arcs in d2.component_arcs
    )
    return LinkDiagram(
        crossings, d1.over_in + d2.over_in, component_arcs, d1.framings + d2.framings
    )


# ---------------------------------------------------------------------------
# Parallel cables
# ---------------------------------------------------------------------------


def parallel(d: LinkDiagram, m: int) -> LinkDiagram:
    """The 0-framed m-parallel: blackboard m-cable plus compensating twists.

    Each crossing becomes an m-by-m grid of crossings, and each component
    with self-writhe w gets a block of -w full twists, so that parallel
    copies of one component have pairwise linking number zero.  The block
    sits on the component's first arc: that arc's copies feed it, and the
    crossing where the arc ends reads the block's outputs.  ``into`` holds
    the arcs read at incoming slots, ``copies`` those at outgoing slots.
    The twist crossings follow the grid.  A successor cycle is copy j of
    component xi when it holds copy j of xi's first arc; it gets component
    index ``xi * m + j`` and the framing of xi.
    """
    if m < 1:
        raise ValueError("parallel multiplicity must be a positive integer")
    fresh = count(max((x for cr in d.crossings for x in cr), default=0) + 1).__next__
    # Copies are allocated in arc order, which fixes the cable's arc ids.
    arcs_in_order = sorted(chain.from_iterable(d.component_arcs))
    copies = {a: [fresh() for _ in range(m)] for a in arcs_in_order}
    into = dict(copies)
    twists: list[Crossing] = []
    twists_over_in: list[int] = []
    for comp, arcs in enumerate(d.component_arcs):
        w = d.self_writhe(comp) if m > 1 else 0
        if w == 0:
            continue
        cur = list(copies[arcs[0]])
        for _ in range(abs(w) * m):
            for p in range(m - 1):
                _braid_crossing(cur, p, -w, fresh, twists, twists_over_in)
        into[arcs[0]] = cur

    crossings: list[Crossing] = []
    over_in: list[int] = []
    for (a, b, c, e), oi in zip(d.crossings, d.over_in):
        # Vertical bundle (under-strand, heading north): copy i at x-position i.
        vert = [[into[a][i], *(fresh() for _ in range(1, m)), copies[c][i]] for i in range(m)]
        # Horizontal bundle, row k from the south.  Entering at slot 3 (west)
        # it heads east with its left side north, so copy j sits in row
        # m - 1 - j; entering at slot 1 (east) it heads west, copy j in row j.
        if oi == 3:
            west, east, rows = into[e], copies[b], range(m - 1, -1, -1)
        else:
            west, east, rows = copies[e], into[b], range(m)
        horiz = [[west[j], *(fresh() for _ in range(1, m)), east[j]] for j in rows]
        crossings += [
            (vert[i][k], horiz[k][i + 1], vert[i][k + 1], horiz[k][i])
            for i in range(m)
            for k in range(m)
        ]
        over_in += [oi] * (m * m)
    crossings += twists
    over_in += twists_over_in

    # Each cycle starts at its smallest arc, the copy of its component's
    # first arc, since the copies come first and in arc order.  Markers
    # stay ().
    label = {
        copies[arcs[0]][j]: comp * m + j
        for comp, arcs in enumerate(d.component_arcs)
        if arcs
        for j in range(m)
    }
    component_arcs: list[tuple[int, ...]] = [()] * (d.components * m)
    for cycle in _cycles(crossings, over_in):
        component_arcs[label[cycle[0]]] = cycle
    framings = tuple(f for f in d.framings for _j in range(m))
    return LinkDiagram(tuple(crossings), tuple(over_in), tuple(component_arcs), framings)


# ---------------------------------------------------------------------------
# Braid closures (used to build catalog diagrams)
# ---------------------------------------------------------------------------


def _braid_crossing(
    cur: list[int], p: int, sign: int, fresh: Callable[[], int],
    crossings: list[Crossing], over_in: list[int],
) -> None:
    """Append the braid generator at position p to a braid under
    construction: ``cur`` holds the arc now at each strand position, and
    sign > 0 means the left strand passes over.  The two strands swap
    positions, and each leaves on a fresh arc."""
    x, y = cur[p], cur[p + 1]
    xo, yo = fresh(), fresh()
    if sign > 0:
        crossings.append((y, yo, xo, x))
        over_in.append(3)
    else:
        crossings.append((x, y, yo, xo))
        over_in.append(1)
    cur[p], cur[p + 1] = xo, yo


def closed_braid(strands: int, word: Sequence[tuple[int, int]]) -> LinkDiagram:
    """Closure of a braid given as (position, sign) generator pairs.

    Position p in 0..strands-2 crosses strands p and p+1; sign +1 means the
    left strand passes over and -1 the right one; any other sign raises
    ``ValueError``.  Strands untouched by the word close into unknot markers.
    """
    fresh = count(1).__next__
    start = [fresh() for _ in range(strands)]
    cur = list(start)
    crossings: list[Crossing] = []
    over_in: list[int] = []
    for p, sign in word:
        if not 0 <= p < strands - 1:
            raise ValueError(f"braid position {p} out of range")
        if sign not in (1, -1):
            raise ValueError(f"braid sign {sign} is not +1 or -1")
        _braid_crossing(cur, p, sign, fresh, crossings, over_in)
    rename = {}
    untouched = 0
    for p in range(strands):
        if cur[p] == start[p]:
            untouched += 1
        else:
            rename[cur[p]] = start[p]
    crossings = tuple(tuple(rename.get(x, x) for x in cr) for cr in crossings)
    return LinkDiagram.assemble(crossings, tuple(over_in), None, untouched)


# ---------------------------------------------------------------------------
# Surgery presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurgeryPresentation:
    """A +-1-framed algebraically split link, denoting surgery on S^3."""

    diagram: LinkDiagram

    def __post_init__(self):
        problems = []
        d = self.diagram
        for i, f in enumerate(d.framings):
            if not _is_int(f) or f not in (1, -1):
                problems.append(f"component {i} has framing {f}, expected +1 or -1")
        if not problems:
            problems = [f"components {p} and {q} have linking number {lk}"
                        for (p, q), lk in d._linking_numbers.items()]
        if problems:
            raise DiagramError(problems)

    @property
    def components(self) -> int:
        return self.diagram.components

    def mirror(self) -> "SurgeryPresentation":
        d = self.diagram
        return SurgeryPresentation(with_framings(mirror(d), [-f for f in d.framings]))

    def sub_presentation(self, keep: Iterable[int]) -> "SurgeryPresentation":
        return SurgeryPresentation(sublink(self.diagram, keep))

    def canonical_key(self) -> bytes:
        return self.diagram.canonical_key(include_framings=True)


def with_framings(d: LinkDiagram, framings: Sequence[int]) -> LinkDiagram:
    framings = _checked_framings(framings, d.components)
    return LinkDiagram(d.crossings, d.over_in, d.component_arcs, framings)
