"""Diagram polynomials: Kauffman bracket, Jones polynomial, Conway polynomial.

The bracket of a diagram is evaluated by contracting all of its
crossings, split pieces included, one at a time in an order planned once
per diagram.  The plan gives every open arc a fixed slot,
and a state is the tuple that pairs the open slots; states that reach the
same pairing are merged, which is what makes cable diagrams tractable.
The state model has integer coefficients, so each weight is packed into
one ``int`` with one wide digit per power of A^2 above its lowest
A-exponent, and becomes an ``IntLaurent`` only once per diagram.  A
contraction step that leaves more than ``_STATE_BUDGET`` pairings alive
raises ``ResourceLimitError``.  The Jones polynomial follows the
convention in which

    t V(L+) - t^{-1} V(L-) = (t^{1/2} - t^{-1/2}) V(L0),   V(unknot) = 1,

i.e. the classical polynomial with t replaced by t^{-1} and an overall
sign (-1)^(#components - 1).  The Conway polynomial is computed by a skein
resolution tree that unknots diagrams towards descending form.

Brackets, Jones values and Conway polynomials are memoized in
``ftik.memo`` by ``LinkDiagram.canonical_key``, so every function here
remains observably pure; a2 and the a4 of psi2's closed form read one
memoized Conway polynomial.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain, count

from . import memo
from .diagram import LinkDiagram, smooth_crossing, switch_crossing
from .errors import DiagramError, ResourceLimitError
from .series import HalfLaurent, IntLaurent, TruncSeries, laurent_to_series

# Loop value -A^2 - A^(-2).
_DELTA = IntLaurent.from_dict({2: -1, -2: -1})

# Most boundary pairings one contraction step may leave alive.
_STATE_BUDGET = 10**6

# t^(1/2) + t^(-1/2), the unknot factor of split unions.
HALF_SUM = HalfLaurent.from_dict({1: 1, -1: 1})

clear_caches = memo.clear


# ---------------------------------------------------------------------------
# Kauffman bracket
# ---------------------------------------------------------------------------


def _contraction_plan(crossings: tuple) -> tuple[int, list]:
    """Greedy order: prefer crossings that close already-open arcs, so the
    active boundary stays small, and on ties the lowest index.  An arc takes
    a free slot at its first end and gives it back after the crossing at its
    second end.  ``opened`` counts the open arcs at each crossing and moves
    with every slot taken or given back.  One heap holds (-count, index)
    entries, one pushed per change, so its smallest live entry is the next
    pick; entries gone stale are skipped.
    Returns the slot count and, per step, both smoothings as (slot joins,
    A-shift)."""
    n = len(crossings)
    ends: dict[int, list[int]] = {}
    for i, cr in enumerate(crossings):
        for arc in cr:
            ends.setdefault(arc, []).append(i)
    opened = [0] * n
    done = [False] * n
    heap = [(0, i) for i in range(n)]
    slot_of: dict[int, int] = {}
    free: list[int] = []
    fresh = count()
    plan = []
    for _step in range(n):
        neg, best = heapq.heappop(heap)
        while done[best] or opened[best] != -neg:
            neg, best = heapq.heappop(heap)
        done[best] = True
        slots, released = [], []
        for arc in crossings[best]:
            if arc in slot_of:
                released.append(slot_of.pop(arc))
                slots.append(released[-1])
                change = -1
            else:
                slot_of[arc] = free.pop() if free else next(fresh)
                slots.append(slot_of[arc])
                change = 1
            for i in ends[arc]:
                if not done[i]:
                    opened[i] += change
                    heapq.heappush(heap, (-opened[i], i))
        # Not reusable before the next crossing: a smoothing may join a new
        # arc before it reads the arc that closed here.
        free += released
        a, b, c, e = slots
        plan.append(((((a, b), (c, e)), 1), (((a, e), (b, c)), -1)))
    return next(fresh), plan


def _contract_piece(d: LinkDiagram) -> IntLaurent:
    """Bracket of the crossings of a diagram with at least one crossing,
    split or not, normalized so a single loop gives 1; unknot markers are
    left out.

    A state is a tuple over the plan's slots: an open arc's slot holds the
    slot at the other end of its strand, a free slot holds -1.  Its weight
    is a pair ``(low, x)`` that stands for A^low f(A^2), with f an integer
    polynomial and ``x = f(2^b)`` one signed ``int``: after k steps every
    exponent has the parity of k, so X = A^2 steps the digits.

    A smoothing patches a copy of the tuple, moves ``low`` by its A-shift
    and by -2 per loop it closed, and multiplies ``x`` by the packed
    (-A^2 - A^(-2))^loops.  Adding into a state whose ``low`` differs
    shifts the operand with the higher ``low`` left by b digits per A^2.
    Each of these is a ring operation, and f -> f(2^b) is a ring
    homomorphism Z[X] -> Z (Kronecker substitution), so ``x`` is exact
    whatever carries pass between its digits.  Every path counts every
    loop, so the closed state holds (-A^2 - A^(-2)) <d>; that factor
    packs to -(1 + 2^(2b)) from A^(-2), and one exact integer division by
    it leaves <d> evaluated at 2^b, whose balanced digits, in
    [-2^(b-1), 2^(b-1)), are the bracket's coefficients once each of
    them has |c| < 2^(b-1).

    The width ``b = n + c + 1``, for n crossings and c components, covers
    that.  By Thistlethwaite's spanning-tree expansion each spanning tree
    of a connected piece's Tait graph gives one monomial +-A^k of its
    bracket, and a Tait graph with n_j edges has fewer than 2^(n_j)
    spanning trees, each a set of its edges.  A split union multiplies its
    p pieces' brackets by (-A^2 - A^(-2))^(p-1), so the coefficients'
    absolute sum stays below 2^(n+p-1) <= 2^(b-2), as p <= c.  The plain
    state count (2^n states, each closing at most n + p loops) would give
    only 2n + c + 1 bits.
    """
    n_slots, plan = _contraction_plan(d.crossings)
    b = len(d.crossings) + d.components + 1
    # (-A^2 - A^(-2))^loops for 0, 1 and 2 loops, packed from A^(-2 loops).
    loop_factors = (1, -(1 + (1 << 2 * b)), 1 + (1 << (2 * b + 1)) + (1 << 4 * b))
    closed = (-1,) * n_slots
    states: dict[tuple, tuple[int, int]] = {closed: (0, 1)}
    for branches in plan:
        new_states: dict[tuple, tuple[int, int]] = {}
        for key, (low, x) in states.items():
            for joins, shift in branches:
                m = list(key)
                loops = 0
                for p, q in joins:
                    pp = p if m[p] < 0 else m[p]
                    pq = q if m[q] < 0 else m[q]
                    m[p] = m[q] = -1
                    if pp == q:
                        loops += 1
                    else:
                        m[pp], m[pq] = pq, pp
                k = tuple(m)
                new_low = low + shift - 2 * loops
                new_x = x * loop_factors[loops] if loops else x
                acc = new_states.get(k)
                if acc is not None:
                    acc_low, acc_x = acc
                    if acc_low < new_low:
                        new_x = acc_x + (new_x << b * ((new_low - acc_low) >> 1))
                        new_low = acc_low
                    else:
                        new_x += acc_x << b * ((acc_low - new_low) >> 1)
                new_states[k] = (new_low, new_x)
        if len(new_states) > _STATE_BUDGET:
            raise ResourceLimitError(
                f"bracket contraction exceeded {_STATE_BUDGET} states"
            )
        states = new_states
    assert set(states) <= {closed}
    low, x = states.get(closed, (0, 0))
    low, x = low + 2, x // loop_factors[1]
    mask, half = (1 << b) - 1, 1 << (b - 1)
    coeffs: dict[int, int] = {}
    while x:
        c = x & mask
        if c >= half:
            c -= 1 << b
        coeffs[low] = c
        x = (x - c) >> b
        low += 2
    return IntLaurent.from_dict(coeffs)


def kauffman_bracket(d: LinkDiagram) -> IntLaurent:
    """Exact bracket polynomial in A, normalized with <unknot> = 1.

    One contraction runs over all of d's crossings, split pieces included,
    since <L1 u L2> = (-A^2 - A^(-2)) <L1> <L2>; each bare unknot component
    adds one more loop factor.  The greedy plan finishes one piece before it
    opens the next, so a split diagram peaks at its largest piece's peak.
    """
    if d.components == 0:
        raise ValueError("the bracket of the empty diagram is handled one level up")
    if not d.crossings:
        return _DELTA ** (d.components - 1)
    return _DELTA ** d.unknotted_components * memo.lookup(
        "bracket", d.canonical_key(), _contract_piece, d)


# ---------------------------------------------------------------------------
# Jones polynomial (skein-relation convention with t V(L+) - t^{-1} V(L-))
# ---------------------------------------------------------------------------


def jones(d: LinkDiagram) -> HalfLaurent:
    """Jones polynomial of a nonempty diagram in the convention above.

    Computed as (-1)^(#L-1) (-A)^(-3w) <d> with A^4 = t; the substitution
    direction absorbs the t -> t^{-1} change of variable.
    """
    if d.components == 0:
        raise DiagramError("the empty link is handled by jones_series")
    return memo.lookup("jones", d.canonical_key(), _jones, d)


def _jones(d: LinkDiagram) -> HalfLaurent:
    # A^e with A^4 = t is t^(e/4), e/2 in halves; shifting and halving keep
    # the bracket's terms sorted, so they are read once in order.
    w = d.writhe()
    sign = -1 if (w + d.components - 1) % 2 else 1
    terms = []
    for e, coeff in kauffman_bracket(d).terms:
        e -= 3 * w
        if e % 2 != 0:
            raise AssertionError("normalized bracket has odd A-exponent")
        terms.append((e // 2, sign * coeff))
    return HalfLaurent(tuple(terms))


def jones_series(d: LinkDiagram, order: int) -> TruncSeries:
    """Expansion of the Jones polynomial about t = 1; the empty link gets
    the defining value (t^{1/2} + t^{-1/2})^{-1}."""
    if d.components == 0:
        return laurent_to_series(HALF_SUM, order).invert()
    return laurent_to_series(jones(d), order)


# ---------------------------------------------------------------------------
# Conway polynomial
# ---------------------------------------------------------------------------


def _first_bad_crossing(d: LinkDiagram) -> tuple[int, int] | None:
    """Walk the components in index order, each from its smallest arc, as
    ``component_arcs`` stores them; return the first crossing whose first
    visit is an under-passage, with its sign."""
    head: dict[int, tuple[int, str]] = {}
    for ci, (cr, oi) in enumerate(zip(d.crossings, d.over_in)):
        head[cr[0]] = (ci, "under")
        head[cr[oi]] = (ci, "over")
    visited: set[int] = set()
    for arc in chain.from_iterable(d.component_arcs):
        ci, role = head[arc]
        if ci not in visited:
            visited.add(ci)
            if role == "under":
                return ci, d.crossing_sign(ci)
    return None


def conway(d: LinkDiagram, node_budget: int = 10**6) -> IntLaurent:
    """Conway polynomial in z via the resolution tree for
    nabla(L+) - nabla(L-) = z nabla(L0).

    Base cases: a descending knot diagram gives 1, and any diagram without
    exactly one split piece (split or empty) gives 0, one with an unknot
    marker beside another component before its pieces are grown.  A tree
    with more than ``node_budget`` nodes, or deeper than Python's
    recursion limit, raises ``ResourceLimitError``.  The polynomial is
    memoized per diagram, so a memo hit returns without walking, whatever
    the budget.
    """
    return memo.lookup("conway", d.canonical_key(), _conway, d, node_budget)


def _conway(d: LinkDiagram, node_budget: int) -> IntLaurent:
    nodes = 0

    def rec(d: LinkDiagram) -> IntLaurent:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(
                f"conway resolution exceeded {node_budget} nodes"
            )
        if (d.components > 1 and d.unknotted_components
                or len(d.piece_masks((1 << d.components) - 1)) != 1):
            return IntLaurent.zero()
        bad = _first_bad_crossing(d)
        if bad is None:
            return IntLaurent.one() if d.components == 1 else IntLaurent.zero()
        i, sign = bad
        switched = rec(switch_crossing(d, i))
        smoothed = rec(smooth_crossing(d, i)).shift(1)
        return switched + smoothed if sign > 0 else switched - smoothed

    try:
        return rec(d)
    except RecursionError as exc:
        raise ResourceLimitError("conway resolution tree too deep") from exc


def conway_a2(d: LinkDiagram) -> Fraction:
    """The a2 invariant of Hoste's Casson surgery formula:

        a2(L) = (-1)^(#L + 1) * [z^(#L + 1)] nabla(L),

    the coefficient of z^(#L+1) in the skein-normalized Conway polynomial,
    with an alternating sign in the component count.  For a knot this is
    the classical second Conway coefficient; for a 2-component link with
    linking number zero it is minus the z^3 coefficient (minus the
    Sato-Levine invariant).  The sign is forced by consistency: it is what
    makes phi_1 = 6 a2 hold on algebraically split links of every
    component count, and what makes the Casson surgery sum agree across
    different presentations of the same manifold (e.g. surgery on the
    Whitehead link versus the equivalent twist-knot surgeries).  The empty
    link gets 0.  The coefficient is read from the memoized ``conway``.
    ``casson_invariant`` sums phi_1 / 6 instead, so a2 serves the ``a2``
    row and the phi_1 = 6 a2 check, not the surgery sums.
    """
    sign = -1 if d.components % 2 == 0 else 1
    return Fraction(sign * conway(d).coeff(d.components + 1))
