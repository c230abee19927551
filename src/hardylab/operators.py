"""Truncated mean and tail operators with norm-ratio bracketing.

The weighted-mean operator maps a to A_n = (sum_{i<=n} i**(alpha-1) a_i) /
(sum_{i<=n} i**(alpha-1)); alpha = 1 is the Cesaro mean.  The tail operator
maps a to T_n = (1/n) sum_{k>=n} a_k.  Norm ratios of concrete trial
families bracket the sharp constants from below (forward, p > 1) or from
above (reverse, 0 < p < 1).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compsum import BLOCK, ExactSum, NeumaierScan
from .errors import WorkbenchError, check_horizon
from .sequences import power_sum_blocks, power_weights


@dataclass(frozen=True)
class OperatorSpec:
    """Operator kind plus truncation horizon.

    kind "weighted_mean" uses weights i**(alpha-1); kind "copson_tail" is
    the tail mean and takes no alpha.
    """

    kind: str
    truncation: int
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("weighted_mean", "copson_tail"):
            raise WorkbenchError(f"unknown operator kind {self.kind!r}")
        check_horizon("truncation", self.truncation)
        if self.kind == "weighted_mean" and not (
            self.alpha is not None and math.isfinite(self.alpha)
        ):
            raise WorkbenchError("weighted_mean needs a finite alpha")
        if self.kind == "copson_tail" and self.alpha is not None:
            raise WorkbenchError("copson_tail takes no alpha")


def cesaro(truncation: int) -> OperatorSpec:
    return OperatorSpec("weighted_mean", truncation, alpha=1.0)


def copson_tail(truncation: int) -> OperatorSpec:
    return OperatorSpec("copson_tail", truncation)


@dataclass(frozen=True)
class SequenceFamily:
    """Named nonnegative trial family.

    kinds: power_decay (a_k = k**-param), delta, geometric (a_k =
    param**(k-1)), random (uniform entries, param is the seed).
    """

    kind: str
    length: int
    param: float | int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("power_decay", "delta", "geometric", "random"):
            raise WorkbenchError(f"unknown family kind {self.kind!r}")
        check_horizon("length", self.length)
        if self.kind == "geometric" and not (
            self.param is not None and 0.0 <= float(self.param) < 1.0
        ):
            raise WorkbenchError("geometric needs 0 <= r < 1")
        if self.kind == "power_decay" and not (
            self.param is not None and math.isfinite(self.param)
        ):
            raise WorkbenchError("power_decay needs a finite exponent")
        if self.kind == "random" and not (
            isinstance(self.param, (int, np.integer))
            and not isinstance(self.param, bool)
            and self.param >= 0
        ):
            raise WorkbenchError(
                f"random needs an integer seed >= 0, got {self.param!r}"
            )
        if self.kind == "delta" and self.param is not None:
            raise WorkbenchError("delta takes no parameter")

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Entries lo..hi - 1 of the family in a new array, formed without
        the entries before lo: a random family seeks its generator past them."""
        if self.kind == "power_decay":
            return power_weights(-float(self.param), hi, lo)
        if self.kind == "delta":
            out = np.zeros(hi - lo)
            if lo == 0 < hi:
                out[0] = 1.0
            return out
        if self.kind == "geometric":
            return float(self.param) ** np.arange(lo, hi, dtype=float)
        rng = np.random.default_rng(int(self.param))
        rng.bit_generator.advance(lo)  # one step per double drawn
        return rng.random(hi - lo)

    def label(self) -> str:
        if self.param is None:
            return f"{self.kind}[N={self.length}]"
        return f"{self.kind}({self.param})[N={self.length}]"


def _spans(N: int, rows: int, reverse: bool = False) -> list[tuple[int, int]]:
    """The blocks [lo, hi) of 0..N - 1, ``rows`` long but the last, from the
    start or from the end."""
    if reverse:
        return [(max(hi - rows, 0), hi) for hi in range(N, 0, -rows)]
    return [(lo, min(lo + rows, N)) for lo in range(0, N, rows)]


def _source(a, N: int, outputs: int):
    """(block, shape, stacked) for an input holding at least N rows:
    block(lo, hi) holds its rows lo..hi - 1 as an (hi - lo, m) array, one
    column per series (a series is one column), and shape is the largest
    block's: BLOCK // (outputs * m) rows (one once outputs * m exceeds
    BLOCK), so that a block of the input, and one of an output with
    ``outputs`` columns per series, holds at most BLOCK elements.  Rows
    past N are never read, so never validated."""
    if isinstance(a, SequenceFamily):
        length, m, stacked = a.length, 1, False
        block = lambda lo, hi: a.block(lo, hi)[:, None]
    else:
        arr = np.asarray(a, dtype=float)
        stacked = arr.ndim == 2
        if not (arr.ndim == 1 or stacked and arr.shape[1]):
            raise WorkbenchError(
                "an input is a series or a stack of one or more series as "
                f"columns, got shape {arr.shape}"
            )
        if not stacked:
            arr = arr[:, None]
        length, m = arr.shape
        block = lambda lo, hi: arr[lo:hi]
    if length < N:
        raise WorkbenchError(f"input length {length} < truncation {N}")
    return block, (min(N, max(BLOCK // (outputs * m), 1)), m), stacked


def power_decay_tail_bounds(s: float, N: int) -> tuple[float, float]:
    """Integral bracket for sum_{k>N} k**-s, s > 1 and N >= 1 an integer:

        N**(1-s)/(s-1) - N**(-s)  <=  tail  <=  N**(1-s)/(s-1).
    """
    if not s > 1.0:
        raise WorkbenchError("tail converges only for s > 1")
    check_horizon("N", N)
    hi = N ** (1.0 - s) / (s - 1.0)
    return max(hi - N ** (-1.0 * s), 0.0), hi


def _pow_p(x: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise x**p for nonnegative x; exp/log route for non-integer p,
    where log(+-0) = -inf has exp +0.0.

    A NaN entry stays NaN.  ``out``, if given, is x itself or does not
    overlap it.
    """
    if p == round(p):
        return np.power(x, float(p), out=out)
    with np.errstate(divide="ignore"):
        out = np.log(x, out=out)
    np.multiply(p, out, out=out)
    return np.exp(out, out=out)


def _check_exponent(p: float) -> None:
    if not p > 0.0:
        raise WorkbenchError(f"p must be positive, got {p}")
    if p == math.inf:
        raise WorkbenchError(f"p must be finite, got {p}")


def _weighted_means(
    alpha: float, block, N: int, shape, out: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(a, A) block by block from the start, with A_n = (sum_{i<=n}
    i**(alpha-1) a_i) / (sum_{i<=n} i**(alpha-1)) in each column, in the
    rows of ``out``; NaN or 0 where the weights' sums overflow (see
    _weight_sums_finite)."""
    scan = NeumaierScan(shape)
    blocks = power_sum_blocks(alpha - 1.0, N, shape[0])
    for (lo, hi), (lam, total) in zip(_spans(N, shape[0]), blocks):
        x = block(lo, hi)
        m = np.multiply(lam[:, None], x, out=out[: hi - lo])
        scan(m, m)
        np.divide(m, total[:, None], out=m)
        yield x, m


def _weight_sums_finite(alpha: float, N: int) -> bool:
    """Whether the sums of the weights i**(alpha-1), i <= N, that the
    weighted means divide by stay finite: surely so while N**max(alpha, 1)
    is below 2**1000, else as the means' own pass forms them."""
    if max(alpha, 1.0) * math.log2(N) < 1000.0:
        return True
    with np.errstate(over="ignore"):
        for _, total in power_sum_blocks(alpha - 1.0, N):
            pass
    return math.isfinite(total[-1])  # the sums never decrease


def _tail_mean_blocks(
    block, N: int, shape, masses: tuple[float, ...], out: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(a, T) block by block from the end, with T_n = (1/n) (sum_{k=n}^{N}
    a_k + mass) for each column's suffix sums broadcast against the row of
    tail masses, in the rows of ``out``; the plain truncation (mass 0) of
    nonnegative input is itself a valid finite-support instance."""
    scan = NeumaierScan(shape)
    sums = np.empty(shape, order="F")
    for lo, hi in _spans(N, shape[0], reverse=True):
        x, s = block(lo, hi), sums[: hi - lo]
        scan(x[::-1], s[::-1])
        means = np.add(s, masses, out=out[: hi - lo])
        means /= np.arange(lo + 1, hi + 1, dtype=float)[:, None]
        yield x, means


def _output(
    op: OperatorSpec, block, N: int, shape, masses: tuple[float, ...], out: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(a, op a) block by block over the same indices, for the input
    block(lo, hi) holds, op a in the rows of ``out``: the weighted means
    from the start, the tail means (one column per mass) from the end."""
    if op.kind == "weighted_mean":
        return _weighted_means(float(op.alpha), block, N, shape, out)
    return _tail_mean_blocks(block, N, shape, masses, out)


class _PowerBlocks:
    """The blocks [a**p | (op a)**p] of one pass, in the rows of a
    column-major workspace: the input's m columns, then the output's, one
    per series and mass.  They are formed anew each time they are read,
    and reading them records whether the input has a negative or NaN
    entry."""

    def __init__(
        self, op: OperatorSpec, block, N: int, shape, p: float, masses: tuple[float, ...]
    ):
        self._args = op, block, N, shape, masses
        self.p, self.m = p, shape[1]
        self.work = np.empty((shape[0], self.m * (1 + len(masses))), order="F")
        self.negative = self.nan = False

    def __iter__(self) -> Iterator[np.ndarray]:
        m = self.m
        for x, _ in _output(*self._args, self.work[:, m:]):
            if not np.all(x >= 0.0):  # one pass; NaN fails the comparison too
                self.negative = True
                self.nan = self.nan or bool(np.isnan(x).any())
            w = self.work[: len(x)]
            w[:, :m] = x
            yield _pow_p(w, self.p, w)


def _check_finite(sums: list[float], p: float) -> None:
    """Sums of p-th powers are out of domain once they leave the float range."""
    if not all(map(math.isfinite, sums)):
        raise WorkbenchError(
            f"the sum of p-th powers (p={p}) overflows; "
            "choose a smaller family exponent or horizon"
        )


def _ratios(op: OperatorSpec, a, p: float, masses: tuple[float, ...] = (0.0,)):
    """(ratios, stacked): the ratio sum (op a)_n**p / sum a_n**p of each
    column of ``a`` (see constant_ratio), from one pass that adds each
    block of both sides' powers to one exact sum, and whether ``a`` is a
    stack.  A tail operator adds each of the masses to its suffix sums,
    one ratio per mass; more than one mass takes a single series."""
    _check_exponent(p)
    N = op.truncation
    block, shape, stacked = _source(a, N, len(masses))
    powers = _PowerBlocks(op, block, N, shape, p, masses)
    acc = ExactSum(powers.work.shape)
    # an entry that overflows is inf, and its powers' sum is rejected;
    # an input rejected once it is read in full may meet log's domain first
    with np.errstate(over="ignore", invalid="ignore"):
        for w in powers:
            acc.add(w)
        if powers.nan:
            raise WorkbenchError("inputs must not be NaN")
        if powers.negative:
            raise WorkbenchError("inputs must be nonnegative")
        # sums of nonnegative terms: none depends on the blocks' order
        sums = acc.total(powers)
    denoms, numers = sums[: shape[1]], sums[shape[1] :]
    _check_finite(denoms, p)
    if 0.0 in denoms:
        j = denoms.index(0.0)
        for lo, hi in _spans(N, shape[0]):
            if block(lo, hi)[:, j].any():
                raise WorkbenchError(f"every a_n**p underflows to 0 (p={p})")
        raise WorkbenchError("input is identically zero on the truncation")
    if op.kind == "weighted_mean" and not _weight_sums_finite(float(op.alpha), N):
        raise WorkbenchError(
            f"the weights i**(alpha-1) overflow at alpha={float(op.alpha)}"
        )
    _check_finite(numers, p)
    return [n / d for n, d in zip(numers, denoms * len(masses))], stacked


def constant_ratio(op: OperatorSpec, a, p: float):
    """Ratio in the constant convention, sum (op a)_n**p / sum a_n**p.

    ``a`` is one series, or a column stack of shape (N, m), one series per
    column, whose m ratios come back as an array, each with the bits of its
    column's own call.  p is checked, then the input's length; then one
    pass reads the input and forms the operator's output block by block,
    checking the input and adding both sides' powers, as the columns of one
    block, to one exact sum.  The input errors come first, then the
    denominator's (its overflow, then a zero), then the weights', then the
    numerator's; a stack raises the first of these any column meets.
    """
    ratios, stacked = _ratios(op, a, p)
    return np.array(ratios) if stacked else ratios[0]


def _root(ratio: float, p: float) -> float:
    """ratio**(1/p), out of domain once it leaves the float range."""
    try:
        root = ratio ** (1.0 / p)
    except OverflowError:  # a ratio above 1 under a tiny p
        root = math.inf
    if not math.isfinite(root):
        raise WorkbenchError(
            f"the ratio's (1/p)-th power overflows (p={p}); choose a larger p"
        )
    return root


def norm_ratio(op: OperatorSpec, a, p: float):
    """Ratio in the norm convention, (sum (op a)_n**p / sum a_n**p)**(1/p),
    of one series, or an array of the m ratios of a column stack (see
    constant_ratio).

    For p > 1 this lower-bounds the operator norm; for 0 < p < 1 on the
    tail operator it upper-bounds the best reverse constant (p-th root
    convention).
    """
    ratios = constant_ratio(op, a, p)
    if isinstance(ratios, np.ndarray):
        return np.array([_root(r, p) for r in ratios.tolist()])
    return _root(ratios, p)


class TailCorrectedRatio(NamedTuple):
    uncorrected: float
    corrected_low: float
    corrected_high: float


def copson_ratio_with_tail(s: float, p: float, N: int) -> TailCorrectedRatio:
    """Constant-convention tail-operator ratio for a_k = k**-s, with and
    without the analytic correction for the dropped tail mass beyond N (both
    bracket ends).

    This is constant_ratio's pass with the three tail masses (0, low, high)
    as a row against the family's suffix sums: it forms the family and its
    suffix sums once, block by block from the end, and adds the four
    columns of powers to one exact sum.  Each ratio has the bits of its
    mass's own sum over constant_ratio's denominator, the uncorrected one
    constant_ratio's own.
    """
    fam = SequenceFamily("power_decay", N, s)
    lo, hi = power_decay_tail_bounds(s, N)
    ratios, _ = _ratios(copson_tail(N), fam, p, (0.0, lo, hi))
    return TailCorrectedRatio(*ratios)


class ExtremalResult(NamedTuple):
    best_ratio: float
    best_family: SequenceFamily
    ratios: tuple


def extremal_search(op: OperatorSpec, p: float, family_grid) -> ExtremalResult:
    """Best norm ratio over a family grid.

    For p > 1 returns the maximum (a lower bound on the operator norm);
    for 0 < p < 1 returns the minimum (an upper bound on the best reverse
    constant in the p-th root convention).
    """
    if not (p > 1.0 or 0.0 < p < 1.0):
        raise WorkbenchError(f"extremal search needs p > 1 or 0 < p < 1, got {p}")
    _check_exponent(p)
    families = list(family_grid)
    if not families:
        raise WorkbenchError("family grid must be nonempty")
    ratios = tuple(norm_ratio(op, fam, p) for fam in families)
    pick = max if p > 1.0 else min
    idx = ratios.index(pick(ratios))
    return ExtremalResult(ratios[idx], families[idx], ratios)


def default_power_grid(p: float, N: int) -> list[SequenceFamily]:
    """Near-extremal power families, exponents just above 1/p."""
    _check_exponent(p)
    return [
        SequenceFamily("power_decay", N, 1.0 / p + eps)
        for eps in (1e-4, 1e-3, 1e-2)
    ]
