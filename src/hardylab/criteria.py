"""Per-index criterion checks for forward and reverse mean inequalities.

The forward (Knopp) criterion ties an auxiliary sequence w to weights
lambda: for every n,

    W_n**(p-1) < U * Lam_n**p * (w_n**(p-1)/lam_n**p - w_{n+1}**(p-1)/lam_{n+1}**p)

and summation by parts then yields the weighted-mean bound with constant U.
The reverse (Levin-Steckin) criterion plays the same role for tail means
with 0 < p < 1.  Both sides decay polynomially, so every comparison here is
carried out on logarithms, with the small difference of near-equal terms
computed through expm1 of a log-ratio.  A nonpositive bracket is reported
as a failure at that index (slack -inf), never as an exception.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import WorkbenchError
from .reports import Tolerances, Verdict, build_report
from .sequences import (
    AuxSequence,
    conjugate_exponent,
    knopp_sequence,
    power_aux_sequence,
    power_sums,
)


def weighted_mean_constant(p: float, alpha: float) -> float:
    """((alpha+1)p / ((alpha+1)p - 1))**p for power weights lambda_n = n**alpha."""
    ap = (alpha + 1.0) * p
    if ap <= 1.0:
        raise WorkbenchError(f"(alpha+1)p must exceed 1, got {ap}")
    try:
        return (ap / (ap - 1.0)) ** p
    except OverflowError:  # a Python float power raises where numpy gives inf
        raise WorkbenchError(
            f"weighted mean constant ((alpha+1)p / ((alpha+1)p - 1))**p "
            f"overflows at p={p}, alpha={alpha}"
        ) from None


def _require_finite(values: np.ndarray) -> None:
    # the extremes are finite exactly when every value is, NaN included,
    # and finding them forms no n-length mask
    if values.size and not (
        math.isfinite(values.min()) and math.isfinite(values.max())
    ):
        raise WorkbenchError(
            "values left the representable range at this horizon; reduce n_max"
        )


# Length of the blocks that stand in for n-length temporaries.
_BLOCK = 1 << 14


def _bracket_slacks(
    w: AuxSequence,
    coef: float,
    scales: tuple[float, ...],
    log_rhs: np.ndarray,
) -> np.ndarray:
    """Slacks of  W_n**coef <= rhs_n * (t_n - t_{n+1}),  all in logs, with

        log t_k = coef * log w_k - scales[-1] * (... * (scales[0] * log k)),

    for n = 1..len(log_rhs), which is w.n_max - 1.  log_rhs holds the logs
    of rhs_n; the bracket's log is added into it, so it becomes the log of
    the whole bounding side.  Where t fails to decrease the bracket is
    nonpositive: the slack is -inf there and the bounding side +inf.

    Each block forms its log t one index past its end, so the slacks are
    the only n-length array formed.
    """
    n = len(log_rhs)
    slacks = np.empty(n)
    m = min(n, _BLOCK)
    idx = np.arange(1, m + 2, dtype=float)
    log_t, log_k = np.empty(m + 1), np.empty(m + 1)
    bracket, rising = np.empty(m), np.empty(m, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            t, k = log_t[: hi - lo + 1], log_k[: hi - lo + 1]
            np.multiply(coef, w.log_w[lo : hi + 1], out=t)
            np.add(idx[: len(k)], lo, out=k)
            np.log(k, out=k)
            for scale in scales:
                np.multiply(scale, k, out=k)
            np.subtract(t, k, out=t)
            _require_finite(t)
            b, up = bracket[: hi - lo], rising[: hi - lo]
            np.subtract(t[1:], t[:-1], out=b)
            np.greater_equal(b, 0.0, out=up)
            np.expm1(b, out=b)
            np.negative(b, out=b)
            np.log(b, out=b)
            np.add(t[:-1], b, out=b)
            rhs, slack = log_rhs[lo:hi], slacks[lo:hi]
            np.add(rhs, b, out=rhs)
            np.log(w.W[lo:hi], out=slack)
            np.multiply(coef, slack, out=slack)
            _require_finite(slack)
            np.subtract(slack, rhs, out=slack)
            np.expm1(slack, out=slack)
            np.negative(slack, out=slack)
            rhs[up] = math.inf
            slack[up] = -math.inf
    return slacks


def knopp_criterion_check(
    w: AuxSequence,
    p: float,
    tol: Tolerances = Tolerances(),
    *,
    alpha: float = 0.0,
    U: float | None = None,
    name: str | None = None,
    ref: str = "eq7",
    exploratory: bool = False,
) -> Verdict:
    """Forward criterion check (strict inequality) of the auxiliary
    sequence w against the power weights lambda_n = n**alpha.

    The bracket looks one index ahead, so the check runs over
    n = 1..w.n_max - 1.  U defaults to weighted_mean_constant(p, alpha);
    it must be positive and finite.  Besides w it holds two n-length
    arrays: log_rhs, which starts as Lam, and the slacks.
    """
    if not p > 1.0:
        raise WorkbenchError(f"forward regime needs p > 1, got {p}")
    if U is None:
        U = weighted_mean_constant(p, alpha)
    if not U > 0.0:
        raise WorkbenchError("target constant must be positive")
    if not math.isfinite(U):
        raise WorkbenchError(f"target constant must be finite, got {U}")
    # Lam_n = sum_{i<=n} i**alpha, whose buffer takes log(U Lam_n**p); the
    # bracket's t_n = w_n**(p-1) / lam_n**p.  A huge p overflows the logs to
    # inf, which is rejected
    log_rhs = power_sums(alpha, w.n_max - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        np.log(log_rhs, out=log_rhs)
        np.multiply(p, log_rhs, out=log_rhs)
        _require_finite(log_rhs)
        np.add(math.log(U), log_rhs, out=log_rhs)
    slacks = _bracket_slacks(w, p - 1.0, (alpha, p), log_rhs)
    label = name or f"knopp[p={p},U={U}]"
    return build_report(
        label,
        ref,
        1,
        slacks,
        strict=True,
        tol=tol,
        exploratory=exploratory,
        log_rhs=log_rhs,
    )


# Parameter region where the forward samples are established rather than
# exploratory (alpha here is the shifted exponent of the n**alpha weights).
def _forward_established(p: float, alpha: float) -> bool:
    return (p >= 2.0 and alpha <= 1.0 / p) or (p <= 4.0 / 3.0 and alpha >= 1.0 / p)


def criterion_2_20_check(
    alpha: float,
    p: float,
    n_max: int,
    tol: Tolerances = Tolerances(),
) -> Verdict:
    """Forward criterion with lambda_n = n**alpha and the matching Knopp w
    (knopp_sequence rejects p <= 1)."""
    if not 0.0 <= alpha <= 1.0:
        raise WorkbenchError(f"alpha must lie in [0, 1], got {alpha}")
    return knopp_criterion_check(
        knopp_sequence(p, alpha, n_max + 1),
        p,
        tol,
        alpha=alpha,
        name=f"2.20[p={p},alpha={alpha}]",
        ref="2.20",
        exploratory=not _forward_established(p, alpha),
    )


class FAlpha(NamedTuple):
    f_value: float
    fprime_at_inv_p: float


def f_alpha_analysis(alpha: float, p: float, n: int) -> FAlpha:
    """Scalar reduction of the forward criterion at fixed n.

    f(a) = a log(1 + 1/n) - (1/p) log(1 + (a + 1/q)/n)
                          - (1/q) log(1 + (a - 1/p)/n)

    f(alpha) > 0 is the reduced per-index inequality; f(1/p) = 0 always,
    and the sign of f'(1/p) = log(1 + 1/n) - 1/n + 1/(p n (n+1)) decides
    which side of 1/p stays positive.
    """
    if not p > 1.0:
        raise WorkbenchError(f"forward regime needs p > 1, got {p}")
    q = conjugate_exponent(p)
    if n < 1:
        raise WorkbenchError("n must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise WorkbenchError(f"alpha must lie in [0, 1], got {alpha}")
    args = ((alpha + 1.0 / q) / n, (alpha - 1.0 / p) / n)
    if any(a <= -1.0 for a in args):
        raise WorkbenchError("logarithm argument is nonpositive")
    f_value = (
        alpha * math.log1p(1.0 / n)
        - math.log1p(args[0]) / p
        - math.log1p(args[1]) / q
    )
    fprime = math.log1p(1.0 / n) - 1.0 / n + 1.0 / (p * n * (n + 1.0))
    return FAlpha(f_value, fprime)


def reverse_criterion_check(
    w: AuxSequence,
    p: float,
    tol: Tolerances = Tolerances(),
) -> Verdict:
    """Reverse criterion check (non-strict inequality) of the auxiliary
    sequence w, levin_steckin_sequence(p, n_max + 1):

        W_n**(-1/(1-p)) <= ((1-p)/p)**(p/(1-p))
                           * (u_n - u_{n+1}),   u_n = w_n**(-1/(1-p)) / n**(p/(1-p))

    The bracket looks one index ahead, so the check runs over
    n = 1..w.n_max - 1.  Established for 0 < p <= 1/3; larger p (up to
    1/2) runs as exploratory.
    """
    if not 0.0 < p < 0.5:
        raise WorkbenchError(f"reverse regime needs 0 < p < 1/2, got {p}")
    s = p / (1.0 - p)
    log_rhs = np.full(w.n_max - 1, s * math.log((1.0 - p) / p))
    slacks = _bracket_slacks(w, -1.0 / (1.0 - p), (s,), log_rhs)
    return build_report(
        f"reverse[p={p}]",
        "3.1",
        1,
        slacks,
        strict=False,
        tol=tol,
        exploratory=p > 1.0 / 3.0,
        log_rhs=log_rhs,
    )


def check_2_30(
    p: float,
    n_max: int,
    tol: Tolerances = Tolerances(),
) -> Verdict:
    """Forward criterion for the power choice w_n = n**(-1/p), lambda = 1:

        (sum_{i<=n} i**(-1/p))**(p-1) < (p/(p-1))**p n**p (n**(-1/q) - (n+1)**(-1/q))

    Established for p >= 3; smaller p runs as exploratory (it fails at
    n = 1 once p is close enough to 1).
    """
    if not p > 1.0:
        raise WorkbenchError(f"forward regime needs p > 1, got {p}")
    return knopp_criterion_check(
        power_aux_sequence(-1.0 / p, n_max + 1),
        p,
        tol,
        name=f"2.30[p={p}]",
        ref="2.30",
        exploratory=p < 3.0,
    )


def check_2_4(
    p: float,
    count: int,
    tol: Tolerances = Tolerances(),
) -> Verdict:
    """Scalar family behind the n = 1 case of the power-choice criterion:

        1 - 2**(-(p-1)/p - alpha) > (1 - 1/((alpha+1)p))**p

    on ``count`` evenly spaced alphas over [0, 1/p], for p >= 3.  Grid
    positions stand in for indices in the verdict.
    """
    if not p >= 3.0:
        raise WorkbenchError(f"established range needs p >= 3, got {p}")
    if count < 1:
        raise WorkbenchError("empty grid")
    alphas = np.linspace(0.0, 1.0 / p, count)
    log_lhs = p * np.log1p(-1.0 / ((alphas + 1.0) * p))
    with np.errstate(divide="ignore"):
        log_rhs = np.log(-np.expm1(-((p - 1.0) / p + alphas) * math.log(2.0)))
    slacks = -np.expm1(log_lhs - log_rhs)
    return build_report(
        f"2.4[p={p}]",
        "2.4",
        1,
        slacks,
        strict=True,
        tol=tol,
        log_rhs=log_rhs,
    )


def check_2_3(
    alpha: float,
    p: float,
    n_max: int,
    tol: Tolerances = Tolerances(),
) -> Verdict:
    """Forward criterion for the power choice w_n = n**(alpha - 1/p) against
    weights lambda_n = n**alpha, established for 1 <= alpha <= 1 + 1/p."""
    if not p > 1.0:
        raise WorkbenchError(f"forward regime needs p > 1, got {p}")
    if not 1.0 <= alpha <= 1.0 + 1.0 / p:
        raise WorkbenchError(
            f"established range is 1 <= alpha <= 1 + 1/p, got alpha={alpha}"
        )
    return knopp_criterion_check(
        power_aux_sequence(alpha - 1.0 / p, n_max + 1),
        p,
        tol,
        alpha=alpha,
        name=f"2.3[p={p},alpha={alpha}]",
        ref="2.3",
    )
