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
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

from .errors import WorkbenchError, check_horizon
from .compsum import BLOCK
from .reports import Tolerances, Verdict, build_report, fold_report
from .sequences import (
    AuxSequence,
    conjugate_exponent,
    knopp_sequence,
    power_aux_sequence,
    power_sum_blocks,
    require_forward_p,
)


def weighted_mean_constant(p: float, alpha: float) -> float:
    """((alpha+1)p / ((alpha+1)p - 1))**p for power weights lambda_n = n**alpha."""
    ap = (alpha + 1.0) * p
    if ap <= 1.0:
        raise WorkbenchError(f"(alpha+1)p must exceed 1, got {ap}")
    if ap == math.inf:
        raise WorkbenchError(f"(alpha+1)p must be finite, got {ap}")
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


def _bracket_slacks(
    w: AuxSequence,
    coef: float,
    scales: tuple[float, ...],
    log_rhs: Iterable[np.ndarray],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Slacks of  W_n**coef <= rhs_n * (t_n - t_{n+1}),  all in logs, with

        log t_k = coef * log w_k - scales[-1] * (... * (scales[0] * log k)),

    for n = 1..w.n_max - 1, block by block: for each block of w.blocks(),
    log_rhs yields the logs of rhs_n there, and the bracket's log is added
    into that block, so it becomes the log of the whole bounding side.
    Where t fails to decrease the bracket is nonpositive: the slack is -inf
    there and the bounding side +inf.

    Yields (slacks, log_rhs) per block.  Each block forms its log t one
    index past its end from w's log_w, which looks one index ahead; the
    slacks and the work arrays are buffers of one block, reused by the
    next, so the pass holds no n-length array.
    """
    m = min(max(w.n_max - 1, 0), BLOCK)
    idx = np.arange(1, m + 2, dtype=float)
    log_t, log_k = np.empty(m + 1), np.empty(m + 1)
    bracket, rising = np.empty(m), np.empty(m, dtype=bool)
    for lo, (log_w, W), rhs in zip(range(0, w.n_max - 1, BLOCK), w.blocks(), log_rhs):
        k = len(W)
        t, logk = log_t[: k + 1], log_k[: k + 1]
        b, up, slack = bracket[:k], rising[:k], log_k[:k]  # slacks once t is formed
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.multiply(coef, log_w, out=t)
            np.add(idx[: k + 1], lo, out=logk)
            np.log(logk, out=logk)
            for scale in scales:
                np.multiply(scale, logk, out=logk)
            np.subtract(t, logk, out=t)
            _require_finite(t)
            np.subtract(t[1:], t[:-1], out=b)
            np.greater_equal(b, 0.0, out=up)
            np.expm1(b, out=b)
            np.negative(b, out=b)
            np.log(b, out=b)
            np.add(t[:-1], b, out=b)
            np.add(rhs, b, out=rhs)
            np.log(W, out=slack)
            np.multiply(coef, slack, out=slack)
            _require_finite(slack)
            np.subtract(slack, rhs, out=slack)
            np.expm1(slack, out=slack)
            np.negative(slack, out=slack)
            rhs[up] = math.inf
            slack[up] = -math.inf
        yield slack, rhs


def _knopp_log_rhs(alpha: float, p: float, U: float, n: int) -> Iterator[np.ndarray]:
    """log(U Lam_k**p) for k in each block of 1..n, Lam_k = sum_{i<=k} i**alpha,
    formed in the buffer of Lam's block.  A huge p overflows the logs to
    inf, which is rejected."""
    log_U = math.log(U)
    for _, rhs in power_sum_blocks(alpha, n):
        with np.errstate(over="ignore", invalid="ignore"):
            np.log(rhs, out=rhs)
            np.multiply(p, rhs, out=rhs)
            _require_finite(rhs)
            np.add(log_U, rhs, out=rhs)
        yield rhs


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
    it must be positive and finite.  One pass forms w, Lam, the bracket
    and the verdict block by block.
    """
    require_forward_p(p)
    if U is None:
        U = weighted_mean_constant(p, alpha)
    if not U > 0.0:
        raise WorkbenchError("target constant must be positive")
    if not math.isfinite(U):
        raise WorkbenchError(f"target constant must be finite, got {U}")
    # the bracket's t_n = w_n**(p-1) / lam_n**p
    log_rhs = _knopp_log_rhs(alpha, p, U, w.n_max - 1)
    return fold_report(
        name or f"knopp[p={p},U={U}]",
        ref,
        1,
        _bracket_slacks(w, p - 1.0, (alpha, p), log_rhs),
        strict=True,
        tol=tol,
        exploratory=exploratory,
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
    require_forward_p(p)
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
    return fold_report(
        f"reverse[p={p}]",
        "3.1",
        1,
        _bracket_slacks(w, -1.0 / (1.0 - p), (s,), _constant_blocks(
            s * math.log((1.0 - p) / p), w.n_max - 1)),
        strict=False,
        tol=tol,
        exploratory=p > 1.0 / 3.0,
    )


def _constant_blocks(value: float, n: int) -> Iterator[np.ndarray]:
    """One buffer filled with value for each block of n indices."""
    buf = np.empty(min(n, BLOCK))
    for lo in range(0, n, BLOCK):
        block = buf[: min(BLOCK, n - lo)]
        block.fill(value)
        yield block


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
    require_forward_p(p)
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
    if p == math.inf:
        raise WorkbenchError(f"established range needs a finite p, got {p}")
    check_horizon("count", count, message="empty grid")
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
    require_forward_p(p)
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
