"""Exception types shared across the package."""


class FtikError(Exception):
    """Base class for all package errors."""


class TruncationError(FtikError):
    """A derivative of higher order than the series truncation was requested.

    Extraction fails loudly instead of extrapolating.  Every computation
    expands its series as far as its formula reads them, so this signals a
    bug, not a user setting.
    """

    def __init__(self, requested: int, available: int):
        self.requested = requested
        self.available = available
        super().__init__(
            f"derivative of order {requested} needs truncation order >= {requested}, "
            f"series has order {available}"
        )


class SingularSeriesError(FtikError):
    """Inversion of a truncated series with vanishing constant term."""


class DiagramError(FtikError, ValueError):
    """A structurally invalid link diagram or surgery presentation, or a
    diagram outside an invariant's domain (psi2 of a link, the Jones
    polynomial of the empty link)."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ResourceLimitError(FtikError):
    """An exponential stage exceeded its budget: the Conway resolution
    node budget or recursion depth, the bracket contraction state budget,
    or the sublink budget of an alternating or difference sum."""
