"""Exception hierarchy shared by all confvol modules."""


class ConfvolError(Exception):
    """Base class for all toolkit errors."""


# -- metric / curvature -------------------------------------------------

class NonPositiveDefinite(ConfvolError):
    """Metric components are degenerate or indefinite at a sampled point."""


class DimensionTooSmall(ConfvolError):
    """Operation undefined below the minimum dimension (e.g. Schouten at n=2)."""


class DimensionFour(ConfvolError):
    """The third volume coefficient formula is singular in dimension four."""


class KOutOfRange(ConfvolError):
    """Symmetric-function index outside 0..n."""


class GridResolutionInsufficient(ConfvolError):
    """Quadrature failed to reach the requested tolerance before the cap."""


# -- series engine ------------------------------------------------------

class NotEinstein(ConfvolError):
    """Closed-form Einstein expansion requested for a non-Einstein metric."""


class TruncationTooShort(ConfvolError):
    """Series truncation order below what the operation needs."""


class GeneralFGUnavailable(ConfvolError):
    """Higher-order expansion coefficients unavailable for generic metrics."""


class InvalidRange(ConfvolError):
    """Requested coefficient order outside the admissible range."""


# -- variation ----------------------------------------------------------

class HalfDimension(ConfvolError):
    """k = n/2 with n even: the functional is conformally invariant."""


class NotCritical(ConfvolError):
    """Background fails the constant-coefficient criticality gate."""


# -- renormalized volume ------------------------------------------------

class OddDimension(ConfvolError):
    """Operation requires even boundary dimension."""


class EvenDimension(ConfvolError):
    """Operation requires odd boundary dimension."""


class NotTotallyGeodesic(ConfvolError):
    """Compactification has nonvanishing boundary second fundamental form."""


class CoefficientUnavailable(ConfvolError):
    """Needed volume coefficient beyond the implemented direct formulas."""


class EpsilonOutOfRange(ConfvolError):
    """Truncation parameter outside the radial domain."""


class IllConditionedFit(ConfvolError):
    """Expansion fit matrix condition number over threshold."""


class WrongDimension(ConfvolError):
    """Gauss-Bonnet identity is four-dimensional only."""


# -- flow ---------------------------------------------------------------

class StepRejected(ConfvolError):
    """Flow step increased the constraint violation; caller should halve dt."""


class NoConvergence(ConfvolError):
    """Flow hit the step budget before reaching tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# -- CLI ----------------------------------------------------------------

class UnknownCommand(ConfvolError):
    """Unrecognized CLI subcommand."""


class ConfigInvalid(ConfvolError):
    """Malformed or unknown configuration key/value."""
