"""Test-only links, strategies and oracles.

``braid_words(max_strands, max_size)`` draws (strands, word) with 2 to
``max_strands`` strands and 1 to ``max_size`` letters; its closures have one
crossing per letter.

``chain(n)`` is the closure of the n-strand pure braid
prod_{p=0}^{n-3} [A_(p,p+1), A_(p+1,p+2)] with A_(p,p+1) = sigma_p^2, all
framings +1.  It has 8(n - 2) crossings, its pairwise linking numbers
vanish, it is not split, and removing an end component leaves chain n - 1.

``hoste_casson`` is Hoste's surgery formula, the sum of f(L') a2(L') over
nonempty sublinks, with a2 read from the Conway resolution tree.  The
library sums phi_1 / 6 on the Jones side instead, so the two are
independent engines for the Casson invariant.
"""

import math
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from ftik.diagram import (
    LinkDiagram,
    SurgeryPresentation,
    closed_braid,
    sublink,
    with_framings,
)
from ftik.errors import DiagramError
from ftik.skein import conway_a2


def braid_words(max_strands: int, max_size: int):
    return st.integers(min_value=2, max_value=max_strands).flatmap(lambda n: st.lists(
        st.tuples(st.integers(min_value=0, max_value=n - 2), st.sampled_from((1, -1))),
        min_size=1,
        max_size=max_size,
    ).map(lambda word: (n, word)))


braid_closures = braid_words(4, 12).map(lambda w: closed_braid(*w))


def chain(n: int) -> SurgeryPresentation:
    word = []
    for p in range(n - 2):
        word += [(p, 1)] * 2 + [(p + 1, 1)] * 2 + [(p, -1)] * 2 + [(p + 1, -1)] * 2
    return SurgeryPresentation(with_framings(closed_braid(n, word), (1,) * n))


def hoste_casson(sp: SurgeryPresentation) -> Fraction:
    d = sp.diagram
    total = Fraction(0)
    for size in range(1, d.components + 1):
        for keep in combinations(range(d.components), size):
            total += math.prod(d.framings[c] for c in keep) * conway_a2(sublink(d, keep))
    return total


def is_algebraically_split(d: LinkDiagram) -> bool:
    try:
        SurgeryPresentation(with_framings(d, (1,) * d.components))
    except DiagramError:
        return False
    return True
