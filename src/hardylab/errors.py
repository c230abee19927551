"""Exception and warning types shared across the workbench."""


class WorkbenchError(ValueError):
    """An input outside the domain or the hypotheses of the requested quantity."""


class TailTruncationWarning(RuntimeWarning):
    """The truncated tail of a nominally infinite sum may not be negligible."""
