"""Exceptions shared by all confvol modules.

An error's class is its CLI exit code: ConfvolError (exit 1) refuses an
input, NumericalFailure (exit 2) reports a computation on valid input that
gave no trusted result.  The three subclasses exist only because callers
catch them (StepRejected, NonFiniteResult) or read what they carry
(NoConvergence.report).
"""


class ConfvolError(Exception):
    """An input outside the toolkit's domain or budget; exit_code is the
    CLI's exit status."""

    exit_code = 1


class NumericalFailure(ConfvolError):
    """A computation ran on valid input but did not produce a trusted result."""

    exit_code = 2


class StepRejected(NumericalFailure):
    """Flow step increased the constraint violation; caller should halve dt."""


class NonFiniteResult(NumericalFailure):
    """A result record, a flow start or a chart metric holds a NaN or an
    infinity."""


class NoConvergence(NumericalFailure):
    """Flow hit the step budget before reaching tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def check_size(what: str, size: int, limit: int) -> None:
    """Refuse a size over its budget before anything of that size is built."""
    if size > limit:
        # a size of more than 4,300 digits cannot be printed
        shown = size if size < 10 ** 15 else "over 10^15"
        raise ConfvolError(f"{what} is {shown}; it must be at most {limit}")
