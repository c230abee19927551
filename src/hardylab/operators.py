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
from typing import NamedTuple

import numpy as np

from .compsum import neumaier_prefix_sums, neumaier_suffix_sums
from .errors import OutOfDomainError, ParameterMismatchError, UndefinedRatioError


@dataclass(frozen=True)
class OperatorSpec:
    """Operator kind plus truncation horizon.

    kind "weighted_mean" uses weights i**(alpha-1); kind "copson_tail" is
    the tail mean and ignores alpha.
    """

    kind: str
    truncation: int
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("weighted_mean", "copson_tail"):
            raise OutOfDomainError(f"unknown operator kind {self.kind!r}")
        if self.truncation < 1:
            raise OutOfDomainError("truncation must be >= 1")
        if self.kind == "weighted_mean" and not (
            self.alpha is not None and math.isfinite(self.alpha)
        ):
            raise OutOfDomainError("weighted_mean needs a finite alpha")


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
            raise OutOfDomainError(f"unknown family kind {self.kind!r}")
        if self.length < 1:
            raise OutOfDomainError("length must be >= 1")
        if self.kind == "geometric" and not (
            self.param is not None and 0.0 <= float(self.param) < 1.0
        ):
            raise OutOfDomainError("geometric needs 0 <= r < 1")
        if self.kind == "power_decay" and not (
            self.param is not None and math.isfinite(self.param)
        ):
            raise OutOfDomainError("power_decay needs a finite exponent")

    def values(self) -> np.ndarray:
        k = np.arange(1, self.length + 1, dtype=float)
        if self.kind == "power_decay":
            return k ** (-float(self.param))
        if self.kind == "delta":
            out = np.zeros(self.length)
            out[0] = 1.0
            return out
        if self.kind == "geometric":
            return float(self.param) ** (k - 1.0)
        rng = np.random.default_rng(int(self.param or 0))
        return rng.random(self.length)

    def label(self) -> str:
        if self.param is None:
            return f"{self.kind}[N={self.length}]"
        return f"{self.kind}({self.param})[N={self.length}]"


def _materialize(a, N: int) -> np.ndarray:
    arr = a.values() if isinstance(a, SequenceFamily) else np.asarray(a, dtype=float)
    if len(arr) < N:
        raise ParameterMismatchError(f"input length {len(arr)} < truncation {N}")
    arr = arr[:N]  # entries past N are never read, so never validated
    if not np.all(arr >= 0.0):  # one pass; NaN fails the comparison too
        if np.isnan(arr).any():
            raise OutOfDomainError("inputs must not be NaN")
        raise OutOfDomainError("inputs must be nonnegative")
    return arr


def apply_weighted_mean(alpha: float, a, N: int) -> np.ndarray:
    """A_n = (sum_{i<=n} i**(alpha-1) a_i) / (sum_{i<=n} i**(alpha-1)), n <= N."""
    arr = _materialize(a, N)
    lam = np.arange(1, N + 1, dtype=float) ** (alpha - 1.0)
    total = neumaier_prefix_sums(lam)
    if not math.isfinite(total[-1]):  # the means would be NaN or 0
        raise OutOfDomainError(f"the weights i**(alpha-1) overflow at alpha={alpha}")
    lam *= arr  # in place: no more arrays alive at once than lam * arr needed
    return neumaier_prefix_sums(lam) / total


def apply_copson_tail(a, N: int, tail_mass: float = 0.0) -> np.ndarray:
    """T_n = (sum_{k=n}^{N} a_k + tail_mass) / n for n <= N.

    ``tail_mass`` is an analytic estimate of the dropped sum beyond N
    (see power_decay_tail_bounds); zero means plain truncation, which for
    nonnegative input is itself a valid finite-support instance.
    """
    if tail_mass < 0.0:
        raise OutOfDomainError("tail mass must be nonnegative")
    arr = _materialize(a, N)
    return (neumaier_suffix_sums(arr) + tail_mass) / np.arange(1, N + 1, dtype=float)


def power_decay_tail_bounds(s: float, N: int) -> tuple[float, float]:
    """Integral bracket for sum_{k>N} k**-s, s > 1:

        N**(1-s)/(s-1) - N**(-s)  <=  tail  <=  N**(1-s)/(s-1).
    """
    if not s > 1.0:
        raise OutOfDomainError("tail converges only for s > 1")
    hi = N ** (1.0 - s) / (s - 1.0)
    return max(hi - N ** (-1.0 * s), 0.0), hi


def _pow_p(x: np.ndarray, p: float) -> np.ndarray:
    """Elementwise x**p for nonnegative x; exp/log route for non-integer p."""
    if p == round(p):
        return x ** float(p)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = np.exp(p * np.log(x[pos]))
    return out


def _apply(op: OperatorSpec, arr: np.ndarray, tail_mass: float) -> np.ndarray:
    if op.kind == "weighted_mean":
        return apply_weighted_mean(float(op.alpha), arr, op.truncation)
    return apply_copson_tail(arr, op.truncation, tail_mass)


def _power_sum(x: np.ndarray, p: float) -> float:
    """Exactly rounded sum of x**p; out of domain once it leaves the float range."""
    try:
        total = math.fsum(memoryview(_pow_p(x, p)))  # the doubles, no list
    except OverflowError:  # finite terms whose sum overflows
        total = math.inf
    if not math.isfinite(total):
        raise OutOfDomainError(
            f"the sum of p-th powers (p={p}) overflows; "
            "choose a smaller family exponent or horizon"
        )
    return total


def constant_ratio(op: OperatorSpec, a, p: float, tail_mass: float = 0.0) -> float:
    """Ratio in the constant convention, sum (op a)_n**p / sum a_n**p."""
    if not p > 0.0:
        raise OutOfDomainError(f"p must be positive, got {p}")
    # overflowed terms become inf, and _power_sum rejects their sum
    with np.errstate(over="ignore"):
        arr = _materialize(a, op.truncation)
        denom = _power_sum(arr, p)
        if denom == 0.0:
            raise UndefinedRatioError("input is identically zero on the truncation")
        return _power_sum(_apply(op, arr, tail_mass), p) / denom


def norm_ratio(op: OperatorSpec, a, p: float) -> float:
    """Ratio in the norm convention, (sum (op a)_n**p / sum a_n**p)**(1/p).

    For p > 1 this lower-bounds the operator norm; for 0 < p < 1 on the
    tail operator it upper-bounds the best reverse constant (p-th root
    convention).
    """
    ratio = constant_ratio(op, a, p)
    try:
        root = ratio ** (1.0 / p)
    except OverflowError:  # a ratio above 1 under a tiny p
        root = math.inf
    if not math.isfinite(root):
        raise OutOfDomainError(
            f"the ratio's (1/p)-th power overflows (p={p}); choose a larger p"
        )
    return root


class TailCorrectedRatio(NamedTuple):
    uncorrected: float
    corrected_low: float
    corrected_high: float


def copson_ratio_with_tail(s: float, p: float, N: int) -> TailCorrectedRatio:
    """Constant-convention tail-operator ratio for a_k = k**-s, with and
    without the analytic correction for the dropped tail mass beyond N (both
    bracket ends)."""
    fam = SequenceFamily("power_decay", N, s)
    lo, hi = power_decay_tail_bounds(s, N)
    op = copson_tail(N)
    return TailCorrectedRatio(
        constant_ratio(op, fam, p),
        constant_ratio(op, fam, p, tail_mass=lo),
        constant_ratio(op, fam, p, tail_mass=hi),
    )


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
        raise OutOfDomainError(f"extremal search needs p > 1 or 0 < p < 1, got {p}")
    families = list(family_grid)
    if not families:
        raise OutOfDomainError("family grid must be nonempty")
    ratios = tuple(norm_ratio(op, fam, p) for fam in families)
    pick = max if p > 1.0 else min
    idx = ratios.index(pick(ratios))
    return ExtremalResult(ratios[idx], families[idx], ratios)


def default_power_grid(p: float, N: int) -> list[SequenceFamily]:
    """Near-extremal power families, exponents just above 1/p."""
    if not p > 0.0:
        raise OutOfDomainError(f"p must be positive, got {p}")
    return [
        SequenceFamily("power_decay", N, 1.0 / p + eps)
        for eps in (1e-4, 1e-3, 1e-2)
    ]
