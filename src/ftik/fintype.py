"""Finite-type machinery for homology-sphere invariants.

An invariant lambda of integral homology spheres, evaluated on surgery
presentations, extends to alternating sums over sublinks:

    (M, L) = sum over sublinks L' of (-1)^(#L') M_(L'),

and lambda has order <= k when this sum vanishes for every algebraically
split +-1-framed link with at least k+1 components.  This module provides
the alternating sum and a reporting harness that checks the vanishing on a
suite of presentations.  A suite of passes is
evidence for the order bound, not a proof; the report says so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .diagram import SurgeryPresentation
from .invariants import casson_invariant, ohtsuki_lambda1, ohtsuki_lambda2
from .series import format_rational


@dataclass(frozen=True)
class InvariantFunction:
    """A named, pure evaluation from surgery presentations to rationals."""

    name: str
    evaluate: Callable[[SurgeryPresentation], Fraction]

    def __call__(self, sp: SurgeryPresentation) -> Fraction:
        return Fraction(self.evaluate(sp))


CASSON = InvariantFunction("casson", casson_invariant)
LAMBDA1 = InvariantFunction("lambda1", ohtsuki_lambda1)
LAMBDA2 = InvariantFunction("lambda2", ohtsuki_lambda2)


def difference_sum(
    invariant: InvariantFunction, sp: SurgeryPresentation
) -> Fraction:
    """Alternating sum of lambda over all 2^#L sub-presentations."""
    n = sp.diagram.components
    total = Fraction(0)
    for size in range(n + 1):
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
