"""Built-in diagrams for standard small links, with expected values.

PD codes for the knots are transcribed from the standard tables; the Hopf
and Borromean links are built as braid closures.  Correctness is not
asserted here but established by the verification suites (Conway and Jones
values, linking matrices, skein checks).

Handedness of the trefoils is fixed by calibration, not guessed: with the
sign conventions used in this package, the all-positive-crossing closure
of the 2-braid word s^3 is the trefoil whose +1-surgery has lambda2 = 39,
so that diagram is named "trefoil-right" and its mirror "trefoil-left"
(lambda2 = 63).  The cross-checks in the acceptance suite would fail if
the two values ever swapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .diagram import (
    LinkDiagram,
    SurgeryPresentation,
    closed_braid,
    disjoint_union,
    mirror,
    with_framings,
)
from .errors import DiagramError

@dataclass(frozen=True)
class CatalogEntry:
    """A named diagram plus provenance notes and tagged expected values."""

    name: str
    diagram: LinkDiagram
    note: str
    expected: dict[str, Fraction] = field(default_factory=dict)


def _empty() -> LinkDiagram:
    return LinkDiagram((), (), (), ())


def _unknot() -> LinkDiagram:
    return LinkDiagram((), (), ((),), (0,))


def _trefoil_right() -> LinkDiagram:
    # Closure of the positive 2-braid s^3; three positive crossings.  By the
    # calibration above this all-positive diagram is the RIGHT trefoil: its
    # +1-surgery yields lambda2 = 39, the mirror's yields 63.
    return closed_braid(2, [(0, 1)] * 3)


def _trefoil_left() -> LinkDiagram:
    return mirror(_trefoil_right())


def _figure_eight() -> LinkDiagram:
    # Closure of the 3-braid (s1 s2^-1)^2: the 4-crossing amphichiral knot.
    return closed_braid(3, [(0, 1), (1, -1)] * 2)


def _hopf_positive() -> LinkDiagram:
    # Closure of the positive 2-braid s^2; linking number +1.
    return closed_braid(2, [(0, 1)] * 2)


def _whitehead() -> LinkDiagram:
    # Closure of the 3-braid s1 s2^-1 s1 s2^-1 s1: the 5-crossing
    # 2-component link with linking number 0 and Conway polynomial -z^3.
    return closed_braid(3, [(0, 1), (1, -1), (0, 1), (1, -1), (0, 1)])


def _borromean() -> LinkDiagram:
    # Closure of the 3-braid (s1 s2^-1)^3; all pairwise linking numbers 0.
    return closed_braid(3, [(0, 1), (1, -1)] * 3)


def _split_seven() -> LinkDiagram:
    d = _trefoil_right()
    for _ in range(6):
        d = disjoint_union(d, _unknot())
    return d


def _framed(d: LinkDiagram, f: int) -> LinkDiagram:
    return with_framings(d, (f,) * d.components)


def _build() -> dict[str, CatalogEntry]:
    fr = Fraction
    entries = [
        CatalogEntry("empty", _empty(), "no components; surgery gives S^3 itself",
                     {"casson": fr(0), "lambda1": fr(0), "lambda2": fr(0)}),
        CatalogEntry("unknot", _unknot(),
                     "zero-crossing unknot marker; psi2 = 0, a2 = 0",
                     {"psi2": fr(0), "a2": fr(0)}),
        CatalogEntry("trefoil-right", _trefoil_right(),
                     "trefoil; named by the lambda2 = 39 calibration of its "
                     "+1-framed variant; a2 = 1",
                     {"psi2": fr(39), "a2": fr(1)}),
        CatalogEntry("trefoil-left", _trefoil_left(),
                     "mirror trefoil; +1-framed variant has lambda2 = 63",
                     {"psi2": fr(63), "a2": fr(1)}),
        CatalogEntry("figure-eight", _figure_eight(),
                     "4-crossing amphichiral knot; a2 = -1",
                     {"psi2": fr(69), "a2": fr(-1)}),
        CatalogEntry("hopf-positive", _hopf_positive(),
                     "positive Hopf link; linking number +1 (not an ASL)"),
        CatalogEntry("whitehead", _whitehead(),
                     "5-crossing 2-component link with linking number 0"),
        CatalogEntry("borromean", _borromean(),
                     "braid closure of (s1 s2^-1)^3; zero linking matrix; "
                     "every 2-component sublink is an unlink"),
        CatalogEntry("unknot-plus1", _framed(_unknot(), 1),
                     "+1-surgery on the unknot gives S^3 back",
                     {"casson": fr(0), "lambda1": fr(0), "lambda2": fr(0)}),
        CatalogEntry("unknot-minus1", _framed(_unknot(), -1),
                     "-1-surgery on the unknot gives S^3 back",
                     {"casson": fr(0), "lambda1": fr(0), "lambda2": fr(0)}),
        CatalogEntry("trefoil-right-plus1", _framed(_trefoil_right(), 1),
                     "+1-surgery on the right trefoil: the Poincare sphere",
                     {"casson": fr(1), "lambda1": fr(6), "lambda2": fr(39)}),
        CatalogEntry("trefoil-right-minus1", _framed(_trefoil_right(), -1),
                     "-1-surgery on the right trefoil",
                     {"casson": fr(-1), "lambda1": fr(-6)}),
        CatalogEntry("trefoil-left-plus1", _framed(_trefoil_left(), 1),
                     "+1-surgery on the left trefoil",
                     {"casson": fr(1), "lambda1": fr(6), "lambda2": fr(63)}),
        CatalogEntry("figure-eight-plus1", _framed(_figure_eight(), 1),
                     "+1-surgery on the figure-eight knot",
                     {"casson": fr(-1), "lambda1": fr(-6), "lambda2": fr(69)}),
        CatalogEntry("whitehead-plus1", _framed(_whitehead(), 1),
                     "2-component ASL presentation; +1-surgery on one "
                     "component turns the other into a trefoil, so this is "
                     "an alternative presentation of the trefoil-right-plus1 "
                     "manifold",
                     {"casson": fr(1), "lambda1": fr(6), "lambda2": fr(39)}),
        CatalogEntry("borromean-plus1", _framed(_borromean(), 1),
                     "3-component ASL; canonical witness that the Casson "
                     "invariant has order exactly 3"),
        CatalogEntry("borromean-unknot-plus1",
                     _framed(disjoint_union(_borromean(), _unknot()), 1),
                     "4-component ASL for order-3 vanishing evidence"),
        CatalogEntry("trefoils-two-plus1",
                     _framed(disjoint_union(_trefoil_right(), _trefoil_right()), 1),
                     "connected sum of two Poincare spheres via a split "
                     "presentation",
                     {"casson": fr(2), "lambda1": fr(12)}),
        CatalogEntry("split-seven-plus1", _framed(_split_seven(), 1),
                     "7-component split union (trefoil and six unknots) for "
                     "order-6 vanishing evidence"),
    ]
    return {e.name: e for e in entries}


_ENTRIES = _build()


def names() -> list[str]:
    return list(_ENTRIES)


def get(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog entry {name!r}; available: {', '.join(_ENTRIES)}"
        ) from None


def entries() -> list[CatalogEntry]:
    return list(_ENTRIES.values())


def presentation(name: str) -> SurgeryPresentation:
    return SurgeryPresentation(get(name).diagram)


def asl_entries(min_components: int = 0) -> list[CatalogEntry]:
    """Catalog entries whose diagrams form valid surgery presentations."""
    out = []
    for e in entries():
        if e.diagram.components < min_components:
            continue
        try:
            SurgeryPresentation(e.diagram)
        except DiagramError:
            continue
        out.append(e)
    return out
