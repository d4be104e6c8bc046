"""Surgery-formula invariants of homology spheres presented by +-1-framed
algebraically split links.

The order-6 invariant lambda2 comes from the Jones-side surgery formula

    lambda2(S^3_L) = sum_{L' in L}   phi_1(L') f(L') #L'/2
                   + sum_{L' in L^2} phi_2(L') f(L') / 2^(s2(L')),

where f is the product of framings, L^2 is the 0-framed 2-parallel, the
inner weights phi_i are scaled derivatives at t = 1 of the alternating
sublink sum of the normalized Jones polynomial
X = V / (t^{1/2} + t^{-1/2})^(#L - 1), and s2 counts components taken with
both copies.  Copy 0 of each kept component gives back the sublink itself,
sublink(L^2, [2c for c in keep]) == sublink(L, keep), so both sums run in
one loop over the sub-cables.  The Casson invariant reads the same phi_1
weights:

    lambda_C(S^3_L) = sum over nonempty sublinks L' of f(L') phi_1(L') / 6.

This is exact on algebraically split links.  Hoste's formula gives
lambda_C = sum f a2, the Jones-side formula gives lambda_1 = sum f phi_1,
and lambda_1 = 6 lambda_C.  So sum_S eps^S (phi_1 - 6 a2)(L_S) = 0 for
every framing vector eps in {+-1}^#L; the characters eps -> eps^S are
linearly independent, so phi_1 = 6 a2 on every sublink of an algebraically
split link (each of which is algebraically split again).  The Conway
resolution tree behind a2 is therefore off every surgery sum; it stays the
second, independent engine for the phi_1 = 6 a2 check.  The induced knot
invariant psi2 is lambda2 of +1-surgery; its closed form in derivatives of
V(e^h) at h = 0 and the z^4 Conway coefficient is kept as the reference.

The alternating sum is taken on integral Jones polynomials: multiplied by
s^(#L - 1), where s = t^{1/2} + t^{-1/2}, it is a Laurent polynomial P(L)
with integer coefficients, memoized per connected sublink only, and only
the final division expands a series.  Each evaluation (one surgery sum,
one weight phi_i or one alternating sum) keeps one table of the sublinks
of the diagram it started from, addressed by component bitmask, and
reads every P, weight and series from it.  P is read off V by
Moebius inversion: V(L) = sum over sublinks L' of s^(#L - #L') P(L'),
with P = 1/s on the empty sublink, so

    P(L) = V(L) - s^(#L - 1) - sum over nonempty proper L' of s^(#L - #L') P(L').

V is read only on the connected sublink itself, and each proper sublink's
P comes from the same table, a split one as the product of its pieces'
(below).  So only connected sublinks are built, each once, and always as
a sublink of that one diagram.

Everything is exact.  Each series is expanded exactly as far as its
formula reads it: order #L + i for phi_i and i for v_i.  phi_i is the
u^(#L + i) coefficient of the alternating sum P / s^(#L - 1), times
(-2)^#L, where u = t - 1; the inverse power of s is memoized per
(#L, order).

Both surgery sums read a split sublink's weights off its pieces instead of
building it.  V(L1 u L2) = s V(L1) V(L2) gives P(L1 u L2) = s P(L1) P(L2),
so P / s^(#L - 1) is the product over the pieces L_k of
P_k / s^(#L_k - 1).  On an algebraically split link each factor vanishes
through u^(#L_k), where u = t - 1, so the product vanishes through
u^(#L + pieces - 1).  phi_i reads its u^(#L + i) coefficient times
(-2)^#L, the product of the pieces' (-2)^(#L_k); so on an algebraically
split link

    phi_1 = 0 on every split link,
    phi_2(L1 u L2) = phi_1(L1) phi_1(L2) for two pieces,
    phi_2 = 0 for three or more pieces.

Every sublink of an algebraically split link, and every sub-cable of its
0-framed 2-parallel, is algebraically split again, so the rule holds on
everything the sums walk.  Only connected sublinks are weighed, and no
split one is built.

So both surgery sums walk one split piece L_k of L at a time.  A sublink
that meets two pieces is split and has phi_1 = 0, so lambda_C is the sum
over the pieces of the sums over their own sublinks.  A sub-cable S of
the 2-parallel splits as the union of its parts S_k in the cables of the
pieces it meets, and its framing product and its factor 2^(-s2) split
the same way.  If it meets two pieces, phi_2(S) = phi_1(S_j) phi_1(S_k)
(both sides vanish when a part is split, since S then has three or more
pieces); if it meets three or more, phi_2(S) = 0.  Hence

    lambda2(S^3_L) = sum_k A_k + sum_{j<k} B_j B_k,

where A_k is the lambda2 sum over the sub-cables of L_k's cable and
B_k = sum f phi_1 / 2^(s2) over the same sub-cables.  phi_1 vanishes on
every sub-cable that takes both copies of a component (the tests check
this on every such sub-cable they reach; it is not derived here), so
B_k = sum f phi_1 over the copy-0 sub-cables, which is lambda_1 of L_k,
and the walk reads phi_1 only there.  The walk costs
sum_k 3^#L_k, not 3^#L, and each piece's walk stays within the
2^(cable piece) - 1 submasks that the sublink table checks against the
budget.

The framings enter A_k and B_k only as a sign.  The tuple k in
{0,1,2}^#L_k weighs its sub-cable by f^k = prod_c f_c^(k_c), and
f_c^0 = f_c^2 = 1 for f_c = +-1, so f^k = f^S, the product of f_c over the
sign mask S = {c : k_c = 1}.  So a piece's walk collects alpha_S and
beta_S, its sums with the framings taken out, and

    A_k = sum_S f^S alpha_S,    B_k = sum_S f^S beta_S.

The (S, alpha_S, beta_S) of a piece are memoized under its framing-free
key, which fixes the order of its components.  A piece that recurs, in
another union, in a sub-presentation or under other framings, builds no
cable and reads no weight: it is cut out of L and looked up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from . import memo
from .diagram import LinkDiagram, SurgeryPresentation, parallel, sublink
from .errors import DiagramError, ResourceLimitError
from .series import HalfLaurent, TruncSeries, compose_exp_minus_one, laurent_to_series
from .skein import HALF_SUM, conway, jones, jones_series

clear_caches = memo.clear


def normalized_jones_series(d: LinkDiagram, order: int) -> TruncSeries:
    """X(L) = V(L) / (t^{1/2} + t^{-1/2})^(#L - 1), expanded about t = 1.

    The empty link gives exactly 1: its Jones value cancels the inverse
    power of the denominator.
    """
    denom = laurent_to_series(HALF_SUM, order) ** (d.components - 1)
    return jones_series(d, order) * denom.invert()


def sublink_alternating_series_naive(d: LinkDiagram, order: int) -> TruncSeries:
    """Alternating sum of X over all 2^#L sublinks, empty link included.

    Brute-force enumeration; kept as the independent oracle for the
    evaluation below.
    """
    n = d.components
    total = TruncSeries.zero(order)
    for size in range(n + 1):
        sign = (-1) ** (n - size)
        for keep in combinations(range(n), size):
            x = normalized_jones_series(sublink(d, keep), order)
            total = total + (x if sign > 0 else -x)
    return total


def sublink_alternating_series(d: LinkDiagram, order: int) -> TruncSeries:
    """Alternating sum of X over all sublinks, as P(L) / s^(#L - 1) with
    s = t^{1/2} + t^{-1/2} and P the integral Jones sum of ``_Sublinks.alt``.

    The empty link gives 1, and a diagram with an unknot marker gives 0
    before any table or walk: the marker is a split piece with
    P = V(O) - 1 = 0.  Every other diagram is summed by a table of d, on
    its full mask, which may be wide, of many split pieces.  No table
    calls this function: a table reads its own P."""
    n = d.components
    if n == 0:
        return TruncSeries.one(order)
    if d.unknotted_components:
        return TruncSeries.zero(order)
    return _Sublinks(d).series((1 << n) - 1, order)


def jones_sublink_weight(d: LinkDiagram, i: int) -> Fraction:
    """The scaled derivative phi_i = (-2)^#L / (#L + i)! * Phi_(#L + i),
    where Phi_k is the k-th t-derivative of the alternating sum at t = 1.

    A diagram with an unknot marker gives 0, as its alternating sum does.
    Every other diagram, the empty link included, is weighed by a table
    of d on its full mask: phi_i is one coefficient of the alternating
    sum, whose P the table reads from the ``alt`` memo by connected
    sublink, so phi keeps no memo of its own.  An algebraically split d
    takes the split rule of the module docstring for i <= 2, with no
    series at all (the series is about cubic in the number of pieces);
    every other weight is read off the product of its pieces' P."""
    if d.unknotted_components:
        return Fraction(0)
    return _Sublinks(d)((1 << d.components) - 1, i)


# Most sublinks one sum may walk: 2^k - 1 submasks of a k-component piece
# for P, which also bounds the surgery sums' walk over one piece at a time,
# and 2^#L sub-presentations for a difference sum.
_SUBLINK_BUDGET = 10**6


def _check_budget(count: int, walk: str) -> None:
    """Refuse a walk over ``count`` sublinks past the budget, before it
    starts; ``walk`` names it, with ``{}`` where the count goes."""
    if count > _SUBLINK_BUDGET:
        raise ResourceLimitError(f"{walk.format(count)} exceeds the budget of {_SUBLINK_BUDGET}")


class _Sublinks:
    """The sublinks of one diagram d, addressed by component bitmask (bit c
    keeps component c), for one evaluation: one surgery sum, one weight
    or one alternating sum.

    ``alt`` gives P of every mask, once per table: a split mask is s^(k-1)
    times the product over its k pieces from ``LinkDiagram.piece_masks``,
    and a connected one goes through the ``alt`` memo by canonical key,
    whose miss reads V of that mask alone and P of its proper submasks
    (the Moebius rule of the module docstring).  Only a connected mask is
    built, as ``sublink(d, comps)`` or d itself for the full mask, at most
    once per table, when ``alt`` first meets it; the table never restricts
    a sublink it built.

    Calling the table gives phi_i of a mask, and ``series`` the mask's
    alternating sum P / s^(n - 1) to a given order.  The public
    ``jones_sublink_weight`` and ``sublink_alternating_series`` read both
    on d's full mask, so every weight and every alternating sum takes
    this one route.  When d has no nonzero linking number and i <= 2, a
    split mask takes the split rule of the module docstring, from its
    pieces' phi_1, so it is never built; every other nonempty mask reads
    one coefficient of its own series.  So the table calls no public
    function for a weight and builds no table of its own, and Casson
    builds one table, of L, and lambda2 one per distinct piece, of its
    cable, whose masks lie within one piece.  The submask walk of d's
    largest piece in ``LinkDiagram.pieces`` is checked against the
    sublink budget before any work starts; it bounds the surgery sums
    too, which walk the submasks of one such piece at a time.  An unknot
    marker is no such piece: it and every sub-cable of its cable have
    P = 0, so it adds nothing to either sum.
    """

    def __init__(self, d: LinkDiagram):
        largest = max((piece.bit_count() for piece in d.pieces), default=0)
        _check_budget(2 ** largest - 1, "alternating sum over {} sublinks of one piece")
        self._d = d
        self._split_rule = not d._linking_numbers
        self._alts: dict[int, HalfLaurent] = {}

    def alt(self, mask: int) -> HalfLaurent:
        """P(L) = sum over sublinks L' of (-s)^(#L - #L') V(L'), where the
        empty sublink has V = 1/s, for the nonempty sublink L on ``mask``.

        P is s^(#L - 1) times the alternating sum of X, so it has integer
        coefficients and no truncation order.  V(L1 u L2) = s V(L1) V(L2)
        gives P(L1 u L2) = s P(L1) P(L2); an unknot piece has
        P = V(O) - 1 = 0.
        """
        p = self._alts.get(mask)
        if p is None:
            pieces = self._d.piece_masks(mask)
            if len(pieces) == 1:
                comps = self._d.mask_components(mask)
                piece = self._d if len(comps) == self._d.components else sublink(self._d, comps)
                p = memo.lookup("alt", piece.canonical_key(), self._alt_piece, comps, piece)
            else:
                p = math.prod(map(self.alt, pieces), start=HALF_SUM ** (len(pieces) - 1))
            self._alts[mask] = p
        return p

    def _alt_piece(self, comps: list[int], piece: LinkDiagram) -> HalfLaurent:
        # Horner's rule in sublink size: P = V - T_(n-1), where T_0 = 1 and
        # T_k = s (T_(k-1) + the sum of P over the k-component sublinks).
        # Most submasks of an ASL cable hold a piece with P = 0.
        bits = [1 << c for c in comps]
        total = HalfLaurent.one()
        for size in range(1, len(bits)):
            for keep in combinations(bits, size):
                p = self.alt(sum(keep))
                if not p.is_zero():
                    total = total + p
            total = HALF_SUM * total
        return jones(piece) - total

    def __call__(self, mask: int, i: int) -> Fraction:
        pieces = self._d.piece_masks(mask)
        # The empty mask's alternating sum is 1.  A split mask takes the
        # split rule, which holds on an algebraically split d and i <= 2.
        if not pieces or len(pieces) > 1 and i <= 2 and self._split_rule:
            if len(pieces) == 2 and i == 2:
                return self(pieces[0], 1) * self(pieces[1], 1)
            return Fraction(not pieces and i == 0)
        n = mask.bit_count()
        return (-2) ** n * self.series(mask, n + i).coeff(n + i)

    def series(self, mask: int, order: int) -> TruncSeries:
        """The alternating sum P / s^(n - 1) of the nonempty ``mask`` of n
        components, about t = 1, to ``order``.  The inverse power of s is
        memoized per (n, order)."""
        n = mask.bit_count()
        inverse = memo.lookup("inverse", (n, order),
                              lambda: laurent_to_series(HALF_SUM ** (n - 1), order).invert())
        return laurent_to_series(self.alt(mask), order) * inverse


def casson_invariant(sp: SurgeryPresentation) -> Fraction:
    """lambda_C = sum over nonempty sublinks L' of f(L') phi_1(L') / 6.

    A sublink that meets two split pieces of L is split, so it has
    phi_1 = 0 (the split rule of the module docstring): the sum walks the
    submasks of one piece at a time and weighs only the connected ones.
    These sublinks are lambda2's copy-0 sub-cables, so their P is in the
    ``alt`` memo that lambda2 fills: either sum leaves the other one
    series coefficient per sublink and the framings.
    """
    return memo.lookup("casson", sp.canonical_key(), _casson_sum, sp.diagram)


def _casson_sum(d: LinkDiagram) -> Fraction:
    weights = _Sublinks(d)
    total = Fraction(0)
    for piece in d.pieces:
        mask = piece
        while mask:
            phi1 = weights(mask, 1)
            if phi1 != 0:
                total += phi1 * math.prod(d.framings[c] for c in d.mask_components(mask))
            mask = (mask - 1) & piece
    return total / 6


def ohtsuki_lambda1(sp: SurgeryPresentation) -> Fraction:
    """lambda_1 = 6 lambda_C."""
    return 6 * casson_invariant(sp)


def ohtsuki_lambda2(sp: SurgeryPresentation) -> Fraction:
    """The order-6 invariant via the two-part surgery formula, summed over
    the sub-cables of the 0-framed 2-parallel, indexed by tuples in
    {0,1,2}^#L recording how many copies of each component are taken; a
    doubled component contributes its framing squared.  A tuple without a
    2 takes copy 0 of each kept component, and that sub-cable equals the
    sublink of L on those components (the copy-0 identity), so it also
    carries the first sum's phi_1 term.

    The sum walks one split piece L_k of L at a time (the regrouping of
    the module docstring): A_k is the sum over the sub-cables of L_k's
    cable, and B_k = sum f phi_1 / 2^(s2) over the same sub-cables, so

        lambda2 = sum_k A_k + sum_{j<k} B_j B_k.

    Each piece's sums are kept without framings, as alpha_S and beta_S by
    the sign mask S of the components taken once, since f^k is f^S for
    framings +-1.  They are memoized per piece by its framing-free key, so
    the framings of L are applied afresh on each presentation, and a piece
    met before (alone, in another union or under other framings) costs
    one lookup.  Within a piece the split rule weighs a split sub-cable
    from the phi_1 of its connected pieces, so only connected sub-cables
    are weighed, and every sub-cable is built at most once per piece, as
    a sublink of the piece's cable.
    """
    return memo.lookup("lambda2", sp.canonical_key(), _lambda2_sum, sp.diagram)


def _lambda2_sum(d: LinkDiagram) -> Fraction:
    total = crossed = Fraction(0)
    for mask in d.pieces:
        piece = d if mask.bit_count() == d.components else sublink(d, d.mask_components(mask))
        a = b = Fraction(0)
        for signs, alpha, beta in memo.lookup(
                "lambda2_piece", piece.canonical_key(), _lambda2_piece, piece):
            sign = math.prod(piece.framings[c] for c in piece.mask_components(signs))
            a += sign * alpha
            b += sign * beta
        total += a + crossed * b
        crossed += b
    return total


def _lambda2_piece(d: LinkDiagram) -> tuple[tuple[int, Fraction, Fraction], ...]:
    """The nonzero (S, alpha_S, beta_S) of one split piece d: its sums A and
    B with the framings taken out, by sign mask S (bit c set when the
    tuple takes one copy of component c), so that A = sum_S f^S alpha_S
    and B = sum_S f^S beta_S."""
    weights = _Sublinks(parallel(d, 2))
    sums: dict[int, list[Fraction]] = {}
    # The empty sub-cable has no pieces, so the table weighs it 0.
    for counts in product((0, 1, 2), repeat=d.components):
        # Copies 2 c and 2 c + 1 of the cable run beside component c.
        mask = sum(((1 << k) - 1) << 2 * c for c, k in enumerate(counts))
        # Only the first sum, over the tuples without a 2 (the copy-0
        # sub-cables), reads phi_1, so beta_S is phi_1 of the sublink on S.
        phi1 = Fraction(0) if 2 in counts else weights(mask, 1)
        phi2 = weights(mask, 2)
        # Most weights vanish; Fraction arithmetic on them would dominate the loop.
        if phi1 != 0 or phi2 != 0:
            entry = sums.setdefault(sum(1 << c for c, k in enumerate(counts) if k == 1), [0, 0])
            entry[0] += phi2 / 2 ** counts.count(2) + phi1 * mask.bit_count() / 2
            entry[1] += phi1
    return tuple((signs, alpha, beta) for signs, (alpha, beta) in sums.items() if alpha or beta)


def jones_exp_derivative(d: LinkDiagram, i: int) -> Fraction:
    """i-th derivative of V(L; e^h) at h = 0."""
    if i < 0:
        raise ValueError("derivative order must be non-negative")
    in_h = compose_exp_minus_one(jones_series(d, i))
    return math.factorial(i) * in_h.coeff(i)


def _check_knot(d: LinkDiagram) -> LinkDiagram:
    """d itself, once it is checked to be a knot, the domain of psi2."""
    if d.components != 1:
        raise DiagramError("psi2 is a knot invariant; diagram must have one component")
    return d


def psi2_knot_invariant(d: LinkDiagram) -> Fraction:
    """The knot invariant induced by lambda2 through +1-framed surgery,
    in closed form, the reference for the ``psi2`` row (which reads lambda2
    of the surgery):

        psi2 = (3/2) v2 - (1/3) v3 + (5/3) v2^2 - 60 a4,

    with v_i the i-th derivative of V(K; e^h) at h = 0 and a4 the z^4
    Conway coefficient.  The coefficients are pinned by the defining
    identity psi2(K) = lambda2(S^3 obtained by +1-surgery on K): psi2 has
    order <= 4 as a Vassiliev invariant, the five functionals v2, v3,
    v2^2, a4, v4 span the order-<=4 invariants vanishing on the unknot,
    and fitting the surgery values over a spanning family of knots
    determines the expression uniquely (the v4 coefficient comes out 0).
    The identity is re-verified exhaustively by the cross-formula suite.

    A frequently reproduced variant of this formula reads
    v2/3 - v3/3 - v4/6 + (2/3) v2^2; it agrees on torus-type anchors
    (unknot, trefoils) but differs from the surgery definition by exactly
    (7/6) v2 + (1/6) v4 + v2^2 - 60 a4 (e.g. 21 instead of 69 on the
    figure-eight knot), so it is not used here.
    """
    _check_knot(d)
    v2 = jones_exp_derivative(d, 2)
    v3 = jones_exp_derivative(d, 3)
    a4 = conway(d).coeff(4)
    return (
        Fraction(3, 2) * v2
        - Fraction(1, 3) * v3
        + Fraction(5, 3) * v2 * v2
        - 60 * a4
    )
