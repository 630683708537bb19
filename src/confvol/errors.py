"""Exception hierarchy shared by all confvol modules."""


class ConfvolError(Exception):
    """Base class for all toolkit errors; exit_code is the CLI's exit status."""

    exit_code = 1


class NumericalFailure(ConfvolError):
    """A computation ran on valid input but did not produce a trusted result."""

    exit_code = 2


# -- metric / curvature -------------------------------------------------

class NonPositiveDefinite(NumericalFailure):
    """Metric components are degenerate or indefinite at a sampled point,
    or a basis Gram matrix is not positive definite."""


class DimensionTooSmall(ConfvolError):
    """Operation undefined below the minimum dimension (e.g. Schouten at n=2)."""


class DimensionFour(ConfvolError):
    """The third volume coefficient formula is singular in dimension four."""


class KOutOfRange(ConfvolError):
    """Coefficient or symmetric-function index outside its range."""


class GridResolutionInsufficient(NumericalFailure):
    """Quadrature failed to reach the requested tolerance before the cap."""


# -- series engine ------------------------------------------------------

class NotEinstein(ConfvolError):
    """Closed-form Einstein expansion requested for a non-Einstein metric."""


class GeneralFGUnavailable(ConfvolError):
    """Higher-order expansion coefficients unavailable for generic metrics."""


class InvalidRange(ConfvolError):
    """Requested coefficient order outside the admissible range."""


# -- variation ----------------------------------------------------------

class HalfDimension(ConfvolError):
    """k = n/2 with n even: the functional is conformally invariant."""


class NotCritical(NumericalFailure):
    """Background fails the constant-coefficient criticality gate."""


# -- renormalized volume ------------------------------------------------

class OddDimension(ConfvolError):
    """Operation requires even boundary dimension."""


class EvenDimension(ConfvolError):
    """Operation requires odd boundary dimension."""


class NotTotallyGeodesic(NumericalFailure):
    """Compactification has nonvanishing boundary second fundamental form."""


class EpsilonOutOfRange(ConfvolError):
    """Truncation parameter outside the radial domain."""


class IllConditionedFit(NumericalFailure):
    """Expansion fit matrix condition number over threshold."""


# -- flow ---------------------------------------------------------------

class StepRejected(NumericalFailure):
    """Flow step increased the constraint violation; caller should halve dt."""


class NoConvergence(NumericalFailure):
    """Flow hit the step budget before reaching tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# -- CLI ----------------------------------------------------------------

class UnknownCommand(ConfvolError):
    """Unrecognized CLI subcommand."""


class ConfigInvalid(ConfvolError):
    """Malformed or unknown configuration key/value."""


class NonFiniteResult(NumericalFailure):
    """A result record, a flow start or a chart metric holds a NaN or an
    infinity."""
