"""Finite-type machinery for homology-sphere invariants.

An invariant lambda of integral homology spheres, evaluated on surgery
presentations, extends to alternating sums over sublinks:

    (M, L) = sum over sublinks L' of (-1)^(#L') M_(L'),

and lambda has order <= k when this sum vanishes for every algebraically
split +-1-framed link with at least k+1 components.  This module provides
the table of invariants, the alternating sum and a reporting harness that
checks the vanishing on a suite of presentations.  A suite of passes is
evidence for the order bound, not a proof; the report says so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .diagram import SurgeryPresentation, with_framings
from .invariants import (
    _check_budget,
    _check_knot,
    casson_invariant,
    jones_exp_derivative,
    jones_sublink_weight,
    ohtsuki_lambda1,
    ohtsuki_lambda2,
)
from .series import format_rational
from .skein import conway, conway_a2, jones


@dataclass(frozen=True)
class InvariantFunction:
    """A named, pure evaluation from surgery presentations to rationals."""

    name: str
    evaluate: Callable[[SurgeryPresentation], Fraction]

    def __call__(self, sp: SurgeryPresentation) -> Fraction:
        value = self.evaluate(sp)
        return value if isinstance(value, Fraction) else Fraction(value)


CASSON = InvariantFunction("casson", casson_invariant)
LAMBDA1 = InvariantFunction("lambda1", ohtsuki_lambda1)
LAMBDA2 = InvariantFunction("lambda2", ohtsuki_lambda2)

#: The invariant table behind ``compute`` and the verify suites: name ->
#: (evaluate(diagram), polynomial variable or None for a rational).  The
#: surgery rows call through ``CASSON``, ``LAMBDA1`` and ``LAMBDA2``, psi2
#: too (lambda2 of +1 surgery on a knot), and the other rows look their
#: function up at call time, so a function rebound on this module or on
#: those objects (e.g. by a tracer) sees every call.
INVARIANTS = {
    "casson": (lambda d: CASSON(SurgeryPresentation(d)), None),
    "lambda1": (lambda d: LAMBDA1(SurgeryPresentation(d)), None),
    "lambda2": (lambda d: LAMBDA2(SurgeryPresentation(d)), None),
    "psi2": (lambda d: LAMBDA2(SurgeryPresentation(with_framings(_check_knot(d), (1,)))), None),
    "a2": (lambda d: conway_a2(d), None),
    "jones": (lambda d: jones(d), "t"),
    "conway": (lambda d: conway(d), "z"),
    "phi1": (lambda d: jones_sublink_weight(d, 1), None),
    "phi2": (lambda d: jones_sublink_weight(d, 2), None),
    "v2": (lambda d: jones_exp_derivative(d, 2), None),
    "v3": (lambda d: jones_exp_derivative(d, 3), None),
    "v4": (lambda d: jones_exp_derivative(d, 4), None),
}


def difference_sum(
    invariant: InvariantFunction, sp: SurgeryPresentation
) -> Fraction:
    """Alternating sum of lambda over all 2^#L sub-presentations.

    The walk is checked against the sublink budget before it starts.  The
    sub-presentations are walked from the largest down, so an invariant
    whose own budget refuses the whole presentation raises before any
    smaller one is evaluated.
    """
    n = sp.diagram.components
    _check_budget(2 ** n, "difference sum over {} sub-presentations")
    total = Fraction(0)
    for size in range(n, -1, -1):
        sign = (-1) ** size
        for keep in combinations(range(n), size):
            value = invariant(sp.sub_presentation(keep))
            total += value if sign > 0 else -value
    return total


def order_check(
    invariant: InvariantFunction,
    suite: Sequence[tuple[str, SurgeryPresentation]],
    k: int,
) -> dict:
    """Evaluate difference_sum on each named presentation; vanishing on all
    of them is the order-<= k evidence.  Entries with too few components are
    rejected up front since they cannot witness anything about order k."""
    entries = []
    failures = 0
    for name, sp in suite:
        if sp.diagram.components < k + 1:
            raise ValueError(
                f"presentation {name!r} has {sp.diagram.components} components; "
                f"order-{k} evidence needs at least {k + 1}"
            )
        value = difference_sum(invariant, sp)
        ok = value == 0
        failures += 0 if ok else 1
        entries.append(
            {"presentation": name, "value": format_rational(value), "pass": ok}
        )
    return {
        "invariant": invariant.name,
        "order": k,
        "note": (
            f"{failures} failures over {len(entries)} presentations; "
            "a clean run is evidence for the order bound, not a proof"
        ),
        "entries": entries,
    }
