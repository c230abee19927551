"""Exception and warning types shared across the workbench, and the one
check of a horizon."""

import numpy as np


class WorkbenchError(ValueError):
    """An input outside the domain or the hypotheses of the requested quantity."""


class TailTruncationWarning(RuntimeWarning):
    """The truncated tail of a nominally infinite sum may not be negligible."""


def check_horizon(name: str, value, least: int = 1, message: str = "") -> None:
    """Reject a horizon that is not an integer >= least: a numpy integer is
    one, a bool is not.  ``message``, if given, names the rule a value
    below least breaks; else it is "<name> must be >= <least>"."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise WorkbenchError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise WorkbenchError(message or f"{name} must be >= {least}")
