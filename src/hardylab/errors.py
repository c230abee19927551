"""Exception and warning types shared across the workbench."""


class WorkbenchError(ValueError):
    """Base class for domain and precondition violations."""


class InvalidExponentError(WorkbenchError):
    """The exponent p sits where the conjugate q = p/(p-1) is undefined."""


class NonpositiveWeightError(WorkbenchError):
    """A weight recurrence would leave the positive domain."""


class ParameterMismatchError(WorkbenchError):
    """An operator input is shorter than the operator's truncation."""


class OutOfDomainError(WorkbenchError):
    """Numeric argument outside the domain of the requested quantity."""


class PreconditionError(WorkbenchError):
    """A lemma hypothesis (ordering, positivity, range) is violated."""


class UndefinedRatioError(WorkbenchError):
    """A norm ratio was requested for an identically zero input."""


class TailTruncationWarning(RuntimeWarning):
    """The truncated tail of a nominally infinite sum may not be negligible."""
