"""Finite-type invariants of integral homology 3-spheres presented by
surgery on +-1-framed algebraically split links: the Casson invariant via
the sublink surgery formula, the order-6 invariant lambda2 via the Jones
side, the induced knot invariant psi2, and a harness that checks the
finite-type vanishing properties empirically."""

from .diagram import (
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
from .errors import (
    DiagramError,
    FtikError,
    ResourceLimitError,
    SingularSeriesError,
    TruncationError,
)
from .fintype import (
    CASSON,
    LAMBDA1,
    LAMBDA2,
    InvariantFunction,
    difference_sum,
    order_check,
)
from .invariants import (
    casson_invariant,
    jones_exp_derivative,
    jones_sublink_weight,
    normalized_jones_series,
    ohtsuki_lambda1,
    ohtsuki_lambda2,
    psi2_knot_invariant,
    sublink_alternating_series,
)
from .series import HalfLaurent, IntLaurent, TruncSeries
from .skein import conway, conway_a2, jones, jones_series, kauffman_bracket

__version__ = "0.1.0"

__all__ = [
    "LinkDiagram", "SurgeryPresentation", "closed_braid", "disjoint_union",
    "mirror", "parallel", "smooth_crossing", "sublink", "switch_crossing",
    "with_framings", "DiagramError", "FtikError", "ResourceLimitError",
    "SingularSeriesError", "TruncationError", "CASSON", "LAMBDA1", "LAMBDA2",
    "InvariantFunction", "difference_sum", "order_check",
    "casson_invariant",
    "jones_exp_derivative", "jones_sublink_weight", "normalized_jones_series",
    "ohtsuki_lambda1", "ohtsuki_lambda2", "psi2_knot_invariant",
    "sublink_alternating_series", "HalfLaurent", "IntLaurent", "TruncSeries",
    "conway", "conway_a2", "jones", "jones_series", "kauffman_bracket",
]
