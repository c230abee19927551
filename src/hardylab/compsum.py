"""Compensated (Neumaier) scans and exactly rounded sums of long series of floats.

Criterion slacks near equality are the quantity of interest downstream,
so running partial sums keep a first-order error term instead of relying
on plain accumulation, and one-shot sums are rounded once, exactly.

The scan is Neumaier's sequential recurrence written as numpy array
operations, and it returns the same bits as the element-by-element loop.
``np.cumsum`` accumulates strictly left to right, so it yields the loop's
running sums ``s_k`` exactly.  Each step's rounding error comes from Knuth's
branch-free TwoSum of ``s_{k-1}`` and ``x_k``, and a second ``cumsum`` of
those errors yields the loop's compensation ``c_k``.  A finite TwoSum error
is exact, as the loop's ``abs`` branch is, so it has the loop's bits (a
zero's sign cannot show: ``c`` starts at +0.0).  An inf or NaN, or
``s_k - s_{k-1}`` overflowing next to DBL_MAX, leaves the block's ``c``
non-finite, and such a block is redone with the branch.  Blocks carry ``s``
and ``c`` across in three buffers allocated once per call: each ``cumsum``
runs in place in one of two, and the third holds TwoSum's terms.  A block
is read in full before its sums are written, so the output may be the
input array itself.

``exact_sum`` returns ``math.fsum``'s float by Rump, Ogita and Oishi's
error-free extraction ("Accurate floating-point summation", SIAM J. Sci.
Comput. 31, 2008).  With ``|x_i| <= 2**-L * sigma``, ``n < 2**L`` and
``sigma`` a power of two, ``q = (x + sigma) - sigma`` rounds x onto the grid
of ``2**-53 * sigma`` exactly and ``x - q`` is x's exact remainder, at most
``2**-53 * sigma``.  Any partial sum of the q's is then a multiple of the
grid below ``sigma``, so ``np.sum`` adds them exactly in whatever order its
SIMD loop takes, and so does one float per pass across the blocks.  Three
passes on grids ``2**(52 - L)`` apart leave a remainder whose sum is below
a known ``bound``; when the sum of the passes' totals minus ``bound`` rounds
to the same float as that sum plus ``bound``, that float is the exactly
rounded sum.  Only IEEE additions and subtractions and exact sums are used,
so the bits do not depend on numpy's dispatch level.  A bracket that
straddles a rounding boundary, an exactly zero sum, inf or NaN, or a grid
out of the normal range falls back to ``math.fsum``, which gives the same
float and raises the same exceptions.  Two block buffers are allocated once
per call; no n-length array is formed.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 1 << 14


def neumaier_prefix_sums(values, out: np.ndarray | None = None) -> np.ndarray:
    """Prefix sums out[k] = values[0] + ... + values[k] with compensation.

    ``out``, if given, is a float array of the same length that receives
    the sums; it may be ``values`` itself.
    """
    x = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty(len(x))
    # run = [s, s_lo, ..., s_hi] and err = [c, c_lo, ..., c_hi] once summed
    run = np.empty(min(len(x), _BLOCK) + 1)
    err = np.empty_like(run)
    tmp = np.empty(len(run) - 1)
    run[0] = err[0] = 0.0
    # the loop form never warned on overflow or inf - inf; neither does this
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(x), _BLOCK):
            xb = x[lo : lo + _BLOCK]
            r, e, bp = run[: len(xb) + 1], err[: len(xb) + 1], tmp[: len(xb)]
            r[1:] = xb
            np.cumsum(r, out=r)
            prev, cur, d = r[:-1], r[1:], e[1:]
            # d = (prev - (cur - bp)) + (xb - bp) with bp = cur - prev
            np.subtract(cur, prev, out=bp)
            np.subtract(cur, bp, out=d)
            np.subtract(prev, d, out=d)
            np.subtract(xb, bp, out=bp)
            d += bp
            np.cumsum(e, out=e)
            if not math.isfinite(e[-1]):  # redo the block with the branch
                big = np.abs(prev) >= np.abs(xb)
                np.subtract(np.where(big, prev, xb), cur, out=d)
                d += np.where(big, xb, prev)
                np.cumsum(e, out=e)
            np.add(cur, d, out=out[lo : lo + len(xb)])
            run[0], err[0] = cur[-1], d[-1]
    return out


def neumaier_suffix_sums(values) -> np.ndarray:
    """Suffix sums out[k] = values[k] + ... + values[-1] with compensation."""
    x = np.asarray(values, dtype=float)
    out = np.empty(len(x))
    neumaier_prefix_sums(x[::-1], out=out[::-1])
    return out


def exact_sum(values) -> float:
    """math.fsum(values), bit for bit, exceptions included."""
    x = np.asarray(values, dtype=float)
    if len(x):
        top = max(float(x.max()), -float(x.min()))  # no np.abs(x) temporary
        if 0.0 < top < math.inf:  # neither zero nor inf nor NaN
            width = (len(x) + 1).bit_length()  # 2**width >= n + 2
            exp = math.frexp(top)[1] + width  # sigma_1 = 2**exp >= 2**width * top
            step = width - 52  # sigma_{k+1} = sigma_k * 2**step
            # every grid normal, and x + sigma_1 finite
            if exp <= 1023 and exp + 2 * step >= -1021:
                totals = _extract(x, [math.ldexp(1.0, exp + k * step) for k in range(3)])
                bound = math.ldexp(1.0, exp + 3 * step)
                low = math.fsum(totals + [-bound])
                if low == math.fsum(totals + [bound]):
                    return low
    return math.fsum(memoryview(x))


def _extract(x: np.ndarray, sigmas: list[float]) -> list[float]:
    """The exact sums of x's parts on the grids of sigmas, block by block."""
    totals = [0.0] * len(sigmas)
    q = np.empty(min(len(x), _BLOCK))
    r = np.empty_like(q)
    last = len(sigmas) - 1
    for lo in range(0, len(x), _BLOCK):
        rest = x[lo : lo + _BLOCK]
        qb, rb = q[: len(rest)], r[: len(rest)]
        for k, sigma in enumerate(sigmas):
            np.add(rest, sigma, out=qb)
            qb -= sigma
            totals[k] += float(qb.sum())
            if k < last:  # the last remainder is only bounded
                rest = np.subtract(rest, qb, out=rb)
    return totals
