"""Compensated (Neumaier) summation for long series of floats.

Criterion slacks near equality are the quantity of interest downstream,
so running partial sums keep a first-order error term instead of relying
on plain accumulation.

The scan is Neumaier's sequential recurrence written as numpy array
operations, and it returns the same bits as the element-by-element loop.
``np.cumsum`` accumulates strictly left to right, so it yields the loop's
running sums ``s_k`` exactly.  Each step's rounding error is then an
elementwise function of ``s_{k-1}``, ``s_k`` and ``x_k``, and a second
``cumsum`` of those errors yields the loop's compensation ``c_k``.  The work
runs over fixed-size blocks that carry ``s`` and ``c`` across, so the
temporaries stay at block size whatever the input length.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 1 << 14


def neumaier_prefix_sums(values) -> np.ndarray:
    """Prefix sums out[k] = values[0] + ... + values[k] with compensation."""
    x = np.asarray(values, dtype=float)
    out = np.empty(len(x))
    s = c = 0.0
    # the loop form never warned on overflow or inf - inf; neither does this
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(x), _BLOCK):
            xb = x[lo : lo + _BLOCK]
            run = np.cumsum(np.concatenate(([s], xb)))
            prev, cur = run[:-1], run[1:]
            err = np.where(
                np.abs(prev) >= np.abs(xb), (prev - cur) + xb, (xb - cur) + prev
            )
            comp = np.cumsum(np.concatenate(([c], err)))[1:]
            out[lo : lo + len(xb)] = cur + comp
            s, c = cur[-1], comp[-1]
    return out


def neumaier_suffix_sums(values) -> np.ndarray:
    """Suffix sums out[k] = values[k] + ... + values[-1] with compensation."""
    rev = np.asarray(values, dtype=float)[::-1]
    return neumaier_prefix_sums(rev)[::-1].copy()
