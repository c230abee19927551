"""Truncated mean and tail operators with norm-ratio bracketing.

The weighted-mean operator maps a to A_n = (sum_{i<=n} i**(alpha-1) a_i) /
(sum_{i<=n} i**(alpha-1)); alpha = 1 is the Cesaro mean.  The tail operator
maps a to T_n = (1/n) sum_{k>=n} a_k.  Norm ratios of concrete trial
families bracket the sharp constants from below (forward, p > 1) or from
above (reverse, 0 < p < 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .compsum import exact_sum, neumaier_prefix_sums, neumaier_suffix_sums
from .errors import WorkbenchError
from .sequences import power_sums, power_weights


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
        if self.truncation < 1:
            raise WorkbenchError("truncation must be >= 1")
        if self.kind == "weighted_mean" and not (
            self.alpha is not None and math.isfinite(self.alpha)
        ):
            raise WorkbenchError("weighted_mean needs a finite alpha")
        if self.kind == "copson_tail" and self.alpha is not None:
            raise WorkbenchError("copson_tail takes no alpha")

    @cached_property
    def mean_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights i**(alpha-1), i <= truncation, and their compensated prefix sums."""
        alpha = float(self.alpha)
        lam = power_weights(alpha - 1.0, self.truncation)
        total = power_sums(alpha - 1.0, self.truncation)
        if math.isfinite(total[-1]):  # else the means would be NaN or 0
            return lam, total
        raise WorkbenchError(f"the weights i**(alpha-1) overflow at alpha={alpha}")


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
        if self.length < 1:
            raise WorkbenchError("length must be >= 1")
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

    def values(self) -> np.ndarray:
        if self.kind == "power_decay":
            return power_weights(-float(self.param), self.length)
        if self.kind == "delta":
            out = np.zeros(self.length)
            out[0] = 1.0
            return out
        if self.kind == "geometric":
            return float(self.param) ** np.arange(self.length, dtype=float)
        rng = np.random.default_rng(int(self.param))
        return rng.random(self.length)

    def label(self) -> str:
        if self.param is None:
            return f"{self.kind}[N={self.length}]"
        return f"{self.kind}({self.param})[N={self.length}]"


def _values(a) -> np.ndarray:
    return a.values() if isinstance(a, SequenceFamily) else np.asarray(a, dtype=float)


def _materialize(a, N: int) -> np.ndarray:
    """The first N input values, checked."""
    arr = _values(a)
    if len(arr) < N:
        raise WorkbenchError(f"input length {len(arr)} < truncation {N}")
    arr = arr[:N]  # entries past N are never read, so never validated
    if not np.all(arr >= 0.0):  # one pass; NaN fails the comparison too
        if np.isnan(arr).any():
            raise WorkbenchError("inputs must not be NaN")
        raise WorkbenchError("inputs must be nonnegative")
    return arr


def _tail_means(
    suffix: np.ndarray, tail_mass: float, out: np.ndarray | None = None
) -> np.ndarray:
    """T_n = (suffix_n + tail_mass) / n from the suffix sums; ``out`` may be
    suffix itself."""
    means = np.add(suffix, tail_mass, out=out)
    means /= np.arange(1, len(suffix) + 1, dtype=float)
    return means


def power_decay_tail_bounds(s: float, N: int) -> tuple[float, float]:
    """Integral bracket for sum_{k>N} k**-s, s > 1:

        N**(1-s)/(s-1) - N**(-s)  <=  tail  <=  N**(1-s)/(s-1).
    """
    if not s > 1.0:
        raise WorkbenchError("tail converges only for s > 1")
    hi = N ** (1.0 - s) / (s - 1.0)
    return max(hi - N ** (-1.0 * s), 0.0), hi


def _pow_p(x: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise x**p for nonnegative x; exp/log route for non-integer p.

    A NaN entry stays NaN.  ``out`` may be x itself.
    """
    if p == round(p):
        return np.power(x, float(p), out=out)
    nonzero = x != 0.0
    if out is None:
        out = np.zeros_like(x)
    else:
        out[~nonzero] = 0.0
    np.log(x, out=out, where=nonzero)
    np.multiply(p, out, out=out, where=nonzero)
    return np.exp(out, out=out, where=nonzero)


def _apply(op: OperatorSpec, arr: np.ndarray) -> np.ndarray:
    """op applied, in a new array, to an input _materialize has checked:
    A_n = (sum_{i<=n} i**(alpha-1) a_i) / (sum_{i<=n} i**(alpha-1)), or
    T_n = (1/n) sum_{k=n}^{N} a_k, whose plain truncation is for nonnegative
    input itself a valid finite-support instance."""
    if op.kind == "weighted_mean":
        lam, total = op.mean_weights
        means = np.multiply(lam, arr)
        neumaier_prefix_sums(means, out=means)
        return np.divide(means, total, out=means)
    suffix = neumaier_suffix_sums(arr)
    return _tail_means(suffix, 0.0, out=suffix)


def _power_sum(x: np.ndarray, p: float, out: np.ndarray | None = None) -> float:
    """Exactly rounded sum of x**p; out of domain once it leaves the float range.

    The powers, inf where they overflow, are formed in ``out``, which may be x.
    """
    with np.errstate(over="ignore"):
        powers = _pow_p(x, p, out)
    try:
        total = exact_sum(powers)
    except OverflowError:  # finite terms whose sum overflows
        total = math.inf
    if not math.isfinite(total):
        raise WorkbenchError(
            f"the sum of p-th powers (p={p}) overflows; "
            "choose a smaller family exponent or horizon"
        )
    return total


def _check_exponent(p: float) -> None:
    if not p > 0.0:
        raise WorkbenchError(f"p must be positive, got {p}")


def constant_ratio(op: OperatorSpec, a, p: float) -> float:
    """Ratio in the constant convention, sum (op a)_n**p / sum a_n**p.

    p is checked, then the input, once, then the denominator, all before
    the operator runs, once; the numerator's powers are formed in the
    means' own buffer.
    """
    _check_exponent(p)
    # an entry that overflows is inf, and _power_sum rejects its powers' sum
    with np.errstate(over="ignore"):
        arr = _materialize(a, op.truncation)
        denom = _power_sum(arr, p)
        if denom == 0.0:
            if arr.any():
                raise WorkbenchError(f"every a_n**p underflows to 0 (p={p})")
            raise WorkbenchError("input is identically zero on the truncation")
        means = _apply(op, arr)
    return _power_sum(means, p, out=means) / denom


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


def norm_ratio(op: OperatorSpec, a, p: float) -> float:
    """Ratio in the norm convention, (sum (op a)_n**p / sum a_n**p)**(1/p).

    For p > 1 this lower-bounds the operator norm; for 0 < p < 1 on the
    tail operator it upper-bounds the best reverse constant (p-th root
    convention).
    """
    return _root(constant_ratio(op, a, p), p)


class TailCorrectedRatio(NamedTuple):
    uncorrected: float
    corrected_low: float
    corrected_high: float


def copson_ratio_with_tail(s: float, p: float, N: int) -> TailCorrectedRatio:
    """Constant-convention tail-operator ratio for a_k = k**-s, with and
    without the analytic correction for the dropped tail mass beyond N (both
    bracket ends).

    The family, its denominator and its suffix sums are formed once, for
    all three tail masses; each ratio has constant_ratio's bits.
    """
    fam = SequenceFamily("power_decay", N, s)
    lo, hi = power_decay_tail_bounds(s, N)
    _check_exponent(p)
    arr = fam.values()  # k**-s lies in [0, 1] for s > 1: nothing to check
    denom = _power_sum(arr, p)  # >= 1, the k = 1 term
    suffix = neumaier_suffix_sums(arr)
    ratios = []
    for tail_mass in (0.0, lo, hi):
        means = _tail_means(suffix, tail_mass)
        ratios.append(_power_sum(means, p, out=means) / denom)
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
    families = list(family_grid)
    if not families:
        raise WorkbenchError("family grid must be nonempty")
    ratios = tuple(norm_ratio(op, fam, p) for fam in families)
    pick = max if p > 1.0 else min
    idx = ratios.index(pick(ratios))
    return ExtremalResult(ratios[idx], families[idx], ratios)


def default_power_grid(p: float, N: int) -> list[SequenceFamily]:
    """Near-extremal power families, exponents just above 1/p."""
    if not p > 0.0:
        raise WorkbenchError(f"p must be positive, got {p}")
    return [
        SequenceFamily("power_decay", N, 1.0 / p + eps)
        for eps in (1e-4, 1e-3, 1e-2)
    ]
