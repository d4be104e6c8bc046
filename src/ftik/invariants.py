"""Surgery-formula invariants of homology spheres presented by +-1-framed
algebraically split links.

The Casson invariant is computed from Hoste's sublink formula

    lambda_C(S^3_L) = sum over sublinks L' of f(L') a2(L'),

with f the product of framings and a2 the Conway coefficient.  The order-6
invariant lambda2 comes from the Jones-side surgery formula

    lambda2(S^3_L) = sum_{L' in L}   phi_1(L') f(L') #L'/2
                   + sum_{L' in L^2} phi_2(L') f(L') / 2^(s2(L')),

where L^2 is the 0-framed 2-parallel, the inner weights phi_i are scaled
derivatives at t = 1 of the alternating sublink sum of the normalized Jones
polynomial X = V / (t^{1/2} + t^{-1/2})^(#L - 1), and s2 counts components
taken with both copies.  The induced knot invariant psi2 evaluates lambda2
on +1-surgery and has a closed form in derivatives of V(e^h) at h = 0
together with the z^4 Conway coefficient.

Everything is exact rational arithmetic.  Each series is expanded exactly
as far as its formula reads it: order #L + i for phi_i, i for v_i, and
2n + 2 for lambda2 on n components.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from . import memo
from .diagram import LinkDiagram, SurgeryPresentation, parallel, sublink
from .errors import TruncationError
from .series import TruncSeries, compose_exp_minus_one, laurent_to_series
from .skein import HALF_SUM, conway, conway_a2, jones_series

clear_caches = memo.clear


def normalized_jones_series(d: LinkDiagram, order: int) -> TruncSeries:
    """X(L) = V(L) / (t^{1/2} + t^{-1/2})^(#L - 1), expanded about t = 1.

    The empty link gives exactly 1: its Jones value cancels the inverse
    power of the denominator.
    """
    if d.components == 0:
        return TruncSeries.one(order)
    return memo.lookup("X", (d.canonical_key(), order), _normalized_jones_series, d, order)


def _normalized_jones_series(d: LinkDiagram, order: int) -> TruncSeries:
    numerator = jones_series(d, order)
    denom = laurent_to_series(HALF_SUM, order) ** (d.components - 1)
    return numerator * denom.invert()


def sublink_alternating_series_naive(d: LinkDiagram, order: int) -> TruncSeries:
    """Alternating sum of X over all 2^#L sublinks, empty link included.

    Brute-force enumeration; kept as the independent oracle for the
    factored evaluation below.
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
    """Alternating sum of X over all sublinks, evaluated piece by piece.

    X is multiplicative over split unions (an exact consequence of the
    bracket evaluation: V(L1 u L2) = (t^{1/2}+t^{-1/2}) V(L1) V(L2)), so
    the sublink sum factors over split pieces.  A split unknot piece has
    X(O) - X(empty) = 0, killing the whole product.
    """
    pieces = d.split_pieces()
    if len(pieces) <= 1:
        return sublink_alternating_series_naive(d, order)
    total = TruncSeries.one(order)
    for comps, _indices in pieces:
        total = total * sublink_alternating_series_naive(sublink(d, comps), order)
        if total.is_zero():
            break
    return total


def jones_sublink_weight(d: LinkDiagram, i: int, order: int | None = None) -> Fraction:
    """The scaled derivative phi_i = (-2)^#L / (#L + i)! * Phi_(#L + i),
    where Phi_k is the k-th t-derivative of the alternating sum at t = 1.

    The sum is expanded to ``order``, by default exactly #L + i.  lambda2
    passes one order for every sublink it weighs, so those sublinks share
    their memoized X series.
    """
    needed = d.components + i
    if order is None:
        order = needed
    if needed > order:
        # Checked before the memo, whose key does not hold the order.
        raise TruncationError(needed, order)
    return memo.lookup("phi", (d.canonical_key(), i), _sublink_weight, d, needed, order)


def _sublink_weight(d: LinkDiagram, needed: int, order: int) -> Fraction:
    phi = sublink_alternating_series(d, order)
    return Fraction((-2) ** d.components) * phi.coeff(needed)


def casson_invariant(sp: SurgeryPresentation) -> Fraction:
    """Hoste's surgery formula; the empty sublink contributes a2 = 0."""
    d = sp.diagram
    n = d.components
    total = Fraction(0)
    for size in range(1, n + 1):
        for keep in combinations(range(n), size):
            sub = sublink(d, keep)
            a2 = memo.lookup("a2", sub.canonical_key(), conway_a2, sub)
            if a2 != 0:
                f = 1
                for c in keep:
                    f *= d.framings[c]
                total += f * a2
    return total


def ohtsuki_lambda1(sp: SurgeryPresentation) -> Fraction:
    """lambda_1 = 6 lambda_C."""
    return 6 * casson_invariant(sp)


def ohtsuki_lambda2(sp: SurgeryPresentation) -> Fraction:
    """The order-6 invariant via the two-part surgery formula.

    The first sum runs over nonempty sublinks of L (the empty term carries
    the factor #L'/2 = 0 anyway); the second over sublinks of the 0-framed
    2-parallel, indexed by tuples in {0,1,2}^#L recording how many copies
    of each component are taken.  Framings of copies are inherited, so a
    doubled component contributes its framing squared.
    """
    return memo.lookup("lambda2", sp.canonical_key(), _lambda2_sum, sp.diagram)


def _lambda2_sum(d: LinkDiagram) -> Fraction:
    n = d.components
    # phi2 of the fully doubled cable (2n circles) reads order 2n + 2.
    order = 2 * n + 2
    total = Fraction(0)
    for size in range(1, n + 1):
        for keep in combinations(range(n), size):
            phi1 = jones_sublink_weight(sublink(d, keep), 1, order)
            if phi1 != 0:
                f = 1
                for c in keep:
                    f *= d.framings[c]
                total += phi1 * f * Fraction(size, 2)
    if n > 0:
        cable = parallel(d, 2)
        for counts in product((0, 1, 2), repeat=n):
            if not any(counts):
                continue
            circles: list[int] = []
            f = 1
            s2 = 0
            for comp, k in enumerate(counts):
                if k >= 1:
                    circles.append(2 * comp)
                    f *= d.framings[comp]
                if k == 2:
                    circles.append(2 * comp + 1)
                    f *= d.framings[comp]
                    s2 += 1
            phi2 = jones_sublink_weight(sublink(cable, circles), 2, order)
            if phi2 != 0:
                total += phi2 * f * Fraction(1, 2**s2)
    return total


def jones_exp_derivative(d: LinkDiagram, i: int) -> Fraction:
    """i-th derivative of V(L; e^h) at h = 0."""
    if i < 0:
        raise ValueError("derivative order must be non-negative")
    in_h = compose_exp_minus_one(jones_series(d, i))
    return math.factorial(i) * in_h.coeff(i)


def psi2_knot_invariant(d: LinkDiagram) -> Fraction:
    """The knot invariant induced by lambda2 through +1-framed surgery,
    in closed form:

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
    if d.components != 1:
        raise ValueError("psi2 is a knot invariant; diagram must have one component")
    v2 = jones_exp_derivative(d, 2)
    v3 = jones_exp_derivative(d, 3)
    a4 = conway(d).coeff(4)
    return (
        Fraction(3, 2) * v2
        - Fraction(1, 3) * v3
        + Fraction(5, 3) * v2 * v2
        - 60 * a4
    )
