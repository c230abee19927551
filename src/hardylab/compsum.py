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
non-finite, and such a block is redone with the branch.  ``NeumaierScan``
runs one block per call and carries ``s`` and ``c`` from one call to the
next in three buffers allocated once: each ``cumsum`` runs in place in one
of two, and the third holds TwoSum's terms.  A block is read in full before
its sums are written, so the output may be the input block itself.  A
caller that forms a series block by block scans it with no n-length array;
``neumaier_prefix_sums`` is that loop over the blocks of an array.  A block
may also be a stack of series as columns, each scanned along axis 0 with a
carry of its own: every operation is elementwise or a ``cumsum`` down a
column, so each column gets the bits of its own scan.

``ExactSum`` returns ``math.fsum``'s float for each column of a stack of
series, a series being a stack of one column, by Rump, Ogita and Oishi's
error-free extraction ("Accurate floating-point summation", SIAM J. Sci.
Comput. 31, 2008), applied to each block on each column's grids.  With
``|x_i| <= 2**-L * sigma``, ``n < 2**L`` and ``sigma`` a power of two,
``q = (x + sigma) - sigma`` rounds x onto the grid of ``2**-53 * sigma``
exactly and ``x - q`` is x's exact remainder, at most ``2**-53 * sigma``.
Any partial sum of the q's is then a multiple of the grid below ``sigma``,
so ``np.sum`` adds a column's q's exactly in whatever order its SIMD loop
takes.  Three passes on grids ``2**(52 - L)`` apart leave a remainder whose
sum is below a known bound; it keeps each block's three exact totals and
its bound per column, and when the sum of every total minus every bound
rounds to the same float as that sum plus every bound (both by
``math.fsum`` of those few floats), that float is the exactly rounded sum.
Only IEEE additions and subtractions and exact sums are used, so the bits
do not depend on numpy's dispatch level.  A bracket that straddles a
rounding boundary, an exactly zero sum, inf or NaN, or a block whose grid
is out of the normal range falls back to ``math.fsum`` of the column's
values formed again, which gives the same float and raises the same
ValueError; a column whose finite terms' sum overflows reads inf where
``math.fsum`` raises OverflowError.  Each block's remainders overwrite the
block, so one column-major block buffer, allocated once, holds the q's: a
column's reductions read contiguous memory, and no n-length array is
formed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import chain

import numpy as np

BLOCK = 1 << 14


class NeumaierScan:
    """Neumaier's running sums over consecutive blocks of one series, or of
    the columns of a stack of series.

    Each call takes the next block of at most ``shape[0]`` rows and writes
    its compensated prefix sums along axis 0, resuming from the carry
    ``(s, c)`` the previous block left, one per column; ``out`` may be the
    block itself.  ``shape`` is the largest block's: an int for a series,
    ``(rows, columns)`` for a stack.  Any split of the series into blocks
    gives the sums of one call on the whole series, in each column.
    """

    def __init__(self, shape):
        # run = [s, s_lo, ..., s_hi] and err = [c, c_lo, ..., c_hi] once summed
        self._run = np.empty(
            (shape[0] + 1, *shape[1:]) if isinstance(shape, tuple) else shape + 1
        )
        self._err = np.empty_like(self._run)
        self._tmp = None  # TwoSum's terms, when out cannot hold them
        self.s = self.c = 0.0

    def another(self) -> NeumaierScan:
        """A scan of another series that shares this one's work buffers, so
        that calls of the two may alternate."""
        twin = object.__new__(NeumaierScan)
        twin._run, twin._err, twin._tmp = self._run, self._err, self._tmp
        twin.s = twin.c = 0.0
        return twin

    def __call__(self, xb: np.ndarray, out: np.ndarray) -> np.ndarray:
        if not len(xb):
            return out
        r, e = self._run[: len(xb) + 1], self._err[: len(xb) + 1]
        # out, written last from cur and d, holds the terms unless xb, read
        # after them, may share its memory, or it is not laid out as they are
        if out.flags.c_contiguous and not np.may_share_memory(xb, out):
            bp = out
        else:
            if self._tmp is None:
                self._tmp = np.empty_like(self._run[1:])
            bp = self._tmp[: len(xb)]
        r[0], e[0] = self.s, self.c
        # the loop form never warned on overflow or inf - inf; neither does this
        with np.errstate(over="ignore", invalid="ignore"):
            r[1:] = xb
            np.cumsum(r, axis=0, out=r)
            prev, cur, d = r[:-1], r[1:], e[1:]
            # d = (prev - (cur - bp)) + (xb - bp) with bp = cur - prev
            np.subtract(cur, prev, out=bp)
            np.subtract(cur, bp, out=d)
            np.subtract(prev, d, out=d)
            np.subtract(xb, bp, out=bp)
            d += bp
            np.cumsum(e, axis=0, out=e)
            # redo the block with the branch should a carry not be finite
            # (needlessly, with the same bits, should finite ones sum to inf)
            if not math.isfinite(sum(e[-1:].ravel().tolist())):
                big = np.abs(prev) >= np.abs(xb)
                np.subtract(np.where(big, prev, xb), cur, out=d)
                d += np.where(big, xb, prev)
                np.cumsum(e, axis=0, out=e)
            np.add(cur, d, out=out)
        # a float for a series, a list for a stack
        self.s, self.c = cur[-1].tolist(), d[-1].tolist()
        return out


def neumaier_prefix_sums(values, out: np.ndarray | None = None) -> np.ndarray:
    """Prefix sums out[k] = values[0] + ... + values[k] with compensation,
    down each column of a stack of series.

    ``out``, if given, is a float array of the same shape that receives
    the sums; it may be ``values`` itself.
    """
    x = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty(x.shape)
    scan = NeumaierScan((min(len(x), BLOCK), *x.shape[1:]))
    for lo in range(0, len(x), BLOCK):
        scan(x[lo : lo + BLOCK], out[lo : lo + BLOCK])
    return out


def neumaier_suffix_sums(values) -> np.ndarray:
    """Suffix sums out[k] = values[k] + ... + values[-1] with compensation,
    down each column of a stack of series."""
    x = np.asarray(values, dtype=float)
    out = np.empty(x.shape)
    neumaier_prefix_sums(x[::-1], out=out[::-1])
    return out


class ExactSum:
    """math.fsum of each column of a stack of series given block by block,
    from each block's extraction on each column's own grids.

    ``shape`` is the largest block's, ``(rows, columns)``.  ``add`` takes
    the blocks in turn and leaves each block's remainders in it; ``total``
    returns the list of the columns' sums, inf for a column whose finite
    terms' sum overflows.
    """

    def __init__(self, shape: tuple[int, int]):
        self._q = np.empty(shape, order="F")
        # per block, row by row: each column's three exact totals and the
        # bound on its last remainder, 0 where it adds nothing
        self._terms, self._bounds = [], []
        self._certified = [True] * shape[1]

    def add(self, x: np.ndarray) -> None:
        if not len(x):
            return
        width = (len(x) + 1).bit_length()  # 2**width >= n + 2
        step = width - 52  # sigma_{k+1} = sigma_k * 2**step
        sigma, bounds = [], []
        for j, (hi, lo) in enumerate(zip(x.max(axis=0).tolist(), x.min(axis=0).tolist())):
            top = max(hi, -lo)  # no np.abs(x) temporary
            exp = math.frexp(top)[1] + width  # sigma_1 = 2**exp >= 2**width * top
            # not inf or NaN, every grid normal, and x + sigma_1 finite
            if not (top < math.inf and exp <= 1023 and exp + 2 * step >= -1021):
                self._certified[j] = False
            if not self._certified[j]:  # summed again at the end
                sigma.append((math.nan,) * 3)
                bounds.append(0.0)
            elif top == 0.0:  # zeros add nothing
                sigma.append((0.0,) * 3)
                bounds.append(0.0)
            else:
                sigma.append((math.ldexp(1.0, exp), math.ldexp(1.0, exp + step),
                              math.ldexp(1.0, exp + 2 * step)))
                bounds.append(math.ldexp(1.0, exp + 3 * step))
        if not any(bounds):
            return
        sigma = np.array(sigma).T
        q = self._q[: len(x)]
        # an uncertified column's quiet NaN grid turns even its inf - inf
        # into NaN without a warning; its terms are never read
        for k in range(3):
            np.add(x, sigma[k], out=q)
            q -= sigma[k]
            self._terms += q.sum(axis=0).tolist()
            if k < 2:  # the last remainder is only bounded
                x -= q
        self._bounds += bounds

    def total(self, again: Iterable[np.ndarray]) -> list[float]:
        """The columns' sums; ``again`` holds the same blocks anew, lazily,
        and is read once for each column no certificate holds for (so it
        is re-iterable)."""
        m = len(self._certified)
        sums = []
        for j, certified in enumerate(self._certified):
            bounds = [b for b in self._bounds[j::m] if b]
            if certified and bounds:
                terms = self._terms[j::m]
                try:
                    low = math.fsum(terms + [-b for b in bounds])
                    if low == math.fsum(terms + bounds):
                        sums.append(low)
                        continue
                except OverflowError:  # let math.fsum decide
                    pass
            try:
                sums.append(math.fsum(chain.from_iterable(
                    memoryview(block[:, j]) for block in again
                )))
            except OverflowError:  # finite terms whose sum overflows
                sums.append(math.inf)
        return sums
