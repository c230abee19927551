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

from .compsum import neumaier_prefix_sums
from .errors import OutOfDomainError, PreconditionError
from .reports import CriterionReport, Tolerances, build_report
from .sequences import (
    AuxSequence,
    conjugate_exponent,
    knopp_sequence,
    power_aux_sequence,
)


def weighted_mean_constant(p: float, alpha: float) -> float:
    """((alpha+1)p / ((alpha+1)p - 1))**p for power weights lambda_n = n**alpha."""
    ap = (alpha + 1.0) * p
    if ap <= 1.0:
        raise OutOfDomainError(f"(alpha+1)p must exceed 1, got {ap}")
    return (ap / (ap - 1.0)) ** p


def _require_finite(values: np.ndarray) -> None:
    # the extremes are finite exactly when every value is, NaN included,
    # and finding them forms no n-length mask
    if values.size and not (
        math.isfinite(values.min()) and math.isfinite(values.max())
    ):
        raise OutOfDomainError(
            "values left the representable range at this horizon; reduce n_max"
        )


def _log_power(power: float, sums: np.ndarray, out: np.ndarray) -> None:
    """power * log(sums), written into out and checked finite."""
    np.log(sums, out=out)
    np.multiply(power, out, out=out)
    _require_finite(out)


# Length of the blocks that stand in for n-length temporaries.
_BLOCK = 1 << 14


def _log_t(coef: float, log_w: np.ndarray, *scales: float) -> np.ndarray:
    """coef * log_w[k] - scales[-1] * (... * (scales[0] * log(k + 1))) for
    every k, in a new array: log(k + 1) and its multiples pass through one
    reused block, so the result is the only n-length array formed.
    """
    log_t = np.multiply(coef, log_w)
    idx = np.arange(1, min(len(log_t), _BLOCK) + 1, dtype=float)
    block = np.empty_like(idx)
    for lo in range(0, len(log_t), _BLOCK):
        rows = log_t[lo : lo + _BLOCK]
        b = block[: len(rows)]
        np.add(idx[: len(rows)], lo, out=b)
        np.log(b, out=b)
        for scale in scales:
            np.multiply(scale, b, out=b)
        np.subtract(rows, b, out=rows)
    return log_t


def _bracket_slacks(
    log_t: np.ndarray,
    log_rhs: np.ndarray,
    lhs: tuple[float, np.ndarray],
):
    """Slacks of  LHS <= scale * factor_n * (t_n - t_{n+1}), all in logs.

    log_t has n + 1 entries, and log_rhs holds the n logs of
    scale * factor_n.  ``lhs`` is a (power, sums) pair standing for the n
    logs power * log(sums).  Where t fails to decrease the bracket is
    nonpositive and the slack is -inf.

    The bracket's log is added into log_rhs one block at a time, so
    log_rhs becomes the log of the whole bounding side.  log_t is then
    spent, and its first n entries take the slacks, which come back with
    log_rhs.
    """
    n = len(log_rhs)
    _require_finite(log_t)
    rising = np.empty(n, dtype=bool)
    block = np.empty(min(n, _BLOCK))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            bracket = block[: hi - lo]
            np.subtract(log_t[lo + 1 : hi + 1], log_t[lo:hi], out=bracket)
            np.greater_equal(bracket, 0.0, out=rising[lo:hi])
            np.expm1(bracket, out=bracket)
            np.negative(bracket, out=bracket)
            np.log(bracket, out=bracket)
            np.add(log_t[lo:hi], bracket, out=bracket)
            np.add(log_rhs[lo:hi], bracket, out=log_rhs[lo:hi])
        slacks = log_t[:n]
        _log_power(*lhs, out=slacks)
        np.subtract(slacks, log_rhs, out=slacks)
        np.expm1(slacks, out=slacks)
        np.negative(slacks, out=slacks)
    log_rhs[rising] = math.inf
    slacks[rising] = -math.inf
    return slacks, log_rhs


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
) -> CriterionReport:
    """Forward criterion check (strict inequality) of the auxiliary
    sequence w against the power weights lambda_n = n**alpha.

    The bracket looks one index ahead, so the check runs over
    n = 1..w.n_max - 1.  U defaults to weighted_mean_constant(p, alpha).
    Besides w it holds two n-length arrays, Lam's and log_t's.
    """
    if not p > 1.0:
        raise PreconditionError(f"forward regime needs p > 1, got {p}")
    if U is None:
        U = weighted_mean_constant(p, alpha)
    if not U > 0.0:
        raise OutOfDomainError("target constant must be positive")
    n_max = w.n_max - 1
    # Lam_n = sum_{i<=n} i**alpha, which is n itself at alpha = 0 (integer
    # sums below 2**53 are exact, so a scan would return the same bits);
    # its buffer then takes log(U Lam_n**p)
    log_rhs = np.arange(1, n_max + 1, dtype=float)
    if alpha != 0.0:
        log_rhs **= alpha
        neumaier_prefix_sums(log_rhs, out=log_rhs)
    # log t_n = (p-1) log w_n - p (alpha log n), the log of
    # w_n**(p-1) / lam_n**p; a huge p overflows the logs to inf, which is
    # rejected
    with np.errstate(over="ignore", invalid="ignore"):
        _log_power(p, log_rhs, out=log_rhs)
        np.add(math.log(U), log_rhs, out=log_rhs)
        log_t = _log_t(p - 1.0, w.log_w, alpha, p)
    slacks, log_rhs = _bracket_slacks(log_t, log_rhs, (p - 1.0, w.W[:n_max]))
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
) -> CriterionReport:
    """Forward criterion with lambda_n = n**alpha and the matching Knopp w
    (knopp_sequence rejects p <= 1)."""
    if not 0.0 <= alpha <= 1.0:
        raise OutOfDomainError(f"alpha must lie in [0, 1], got {alpha}")
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
        raise PreconditionError(f"forward regime needs p > 1, got {p}")
    q = conjugate_exponent(p)
    if n < 1:
        raise OutOfDomainError("n must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise OutOfDomainError(f"alpha must lie in [0, 1], got {alpha}")
    args = ((alpha + 1.0 / q) / n, (alpha - 1.0 / p) / n)
    if any(a <= -1.0 for a in args):
        raise OutOfDomainError("logarithm argument is nonpositive")
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
) -> CriterionReport:
    """Reverse criterion check (non-strict inequality) of the auxiliary
    sequence w, levin_steckin_sequence(p, n_max + 1):

        W_n**(-1/(1-p)) <= ((1-p)/p)**(p/(1-p))
                           * (u_n - u_{n+1}),   u_n = w_n**(-1/(1-p)) / n**(p/(1-p))

    The bracket looks one index ahead, so the check runs over
    n = 1..w.n_max - 1.  Established for 0 < p <= 1/3; larger p (up to
    1/2) runs as exploratory.
    """
    if not 0.0 < p < 0.5:
        raise PreconditionError(f"reverse regime needs 0 < p < 1/2, got {p}")
    n_max = w.n_max - 1
    e = 1.0 / (1.0 - p)
    s = p / (1.0 - p)
    slacks, log_rhs = _bracket_slacks(
        _log_t(-e, w.log_w, s),
        np.full(n_max, s * math.log((1.0 - p) / p)),
        (-e, w.W[:n_max]),
    )
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
) -> CriterionReport:
    """Forward criterion for the power choice w_n = n**(-1/p), lambda = 1:

        (sum_{i<=n} i**(-1/p))**(p-1) < (p/(p-1))**p n**p (n**(-1/q) - (n+1)**(-1/q))

    Established for p >= 3; smaller p runs as exploratory (it fails at
    n = 1 once p is close enough to 1).
    """
    if not p > 1.0:
        raise PreconditionError(f"forward regime needs p > 1, got {p}")
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
) -> CriterionReport:
    """Scalar family behind the n = 1 case of the power-choice criterion:

        1 - 2**(-(p-1)/p - alpha) > (1 - 1/((alpha+1)p))**p

    on ``count`` evenly spaced alphas over [0, 1/p], for p >= 3.  Grid
    positions stand in for indices in the report.
    """
    if not p >= 3.0:
        raise OutOfDomainError(f"established range needs p >= 3, got {p}")
    if count < 1:
        raise OutOfDomainError("empty grid")
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
) -> CriterionReport:
    """Forward criterion for the power choice w_n = n**(alpha - 1/p) against
    weights lambda_n = n**alpha, established for 1 <= alpha <= 1 + 1/p."""
    if not p > 1.0:
        raise PreconditionError(f"forward regime needs p > 1, got {p}")
    if not 1.0 <= alpha <= 1.0 + 1.0 / p:
        raise OutOfDomainError(
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
