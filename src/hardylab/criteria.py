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

from .errors import OutOfDomainError, ParameterMismatchError, PreconditionError
from .reports import CriterionReport, Tolerances, build_report
from .sequences import (
    AuxSequence,
    conjugate_exponent,
    knopp_sequence,
    levin_steckin_sequence,
    power_aux_sequence,
)


def classic_forward_constant(p: float) -> float:
    """q**p, the constant attached to Knopp's choice when lambda = 1."""
    return conjugate_exponent(p) ** p


def weighted_mean_constant(p: float, alpha: float) -> float:
    """((alpha+1)p / ((alpha+1)p - 1))**p for power weights lambda_n = n**alpha."""
    ap = (alpha + 1.0) * p
    if ap <= 1.0:
        raise OutOfDomainError(f"(alpha+1)p must exceed 1, got {ap}")
    return (ap / (ap - 1.0)) ** p


def _bracket_slacks(
    log_lhs_all: np.ndarray,
    log_scale: float,
    log_factor: np.ndarray,
    log_t: np.ndarray,
):
    """Slacks of  LHS <= scale * factor_n * (t_n - t_{n+1}), all in logs.

    log_t has one extra trailing entry.  Where t fails to decrease the
    bracket is nonpositive and the slack is -inf.
    """
    if not all(np.all(np.isfinite(x)) for x in (log_t, log_lhs_all, log_factor)):
        raise OutOfDomainError(
            "values left the representable range at this horizon; reduce n_max"
        )
    delta = np.diff(log_t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_bracket = log_t[:-1] + np.log(-np.expm1(delta))
        log_rhs = log_scale + log_factor + log_bracket
        slacks = -np.expm1(log_lhs_all - log_rhs)
    rising = delta >= 0.0
    log_rhs[rising] = math.inf
    slacks[rising] = -math.inf
    return slacks, log_rhs


def knopp_criterion_check(
    w: AuxSequence,
    weights: AuxSequence,
    p: float,
    U: float,
    n_max: int,
    tol: Tolerances = Tolerances(),
    *,
    name: str | None = None,
    ref: str = "eq7",
    exploratory: bool = False,
) -> CriterionReport:
    """Forward criterion check over n = 1..n_max (strict inequality), with
    the auxiliary sequence w and the weights lambda (``weights``).

    Both sequences must be generated through n_max + 1, since the bracket
    looks one index ahead.
    """
    if not p > 1.0:
        raise PreconditionError(f"forward regime needs p > 1, got {p}")
    if w.n_max < n_max + 1 or weights.n_max < n_max + 1:
        raise ParameterMismatchError(
            f"sequences must be generated through n_max+1={n_max + 1}"
        )
    if not U > 0.0:
        raise OutOfDomainError("target constant must be positive")
    # a huge p overflows these to inf, which _bracket_slacks rejects
    with np.errstate(over="ignore", invalid="ignore"):
        log_t = (p - 1.0) * w.log_w[: n_max + 1] - p * weights.log_w[: n_max + 1]
        log_lhs = (p - 1.0) * np.log(w.W[:n_max])
        log_factor = p * np.log(weights.W[:n_max])
    slacks, log_rhs = _bracket_slacks(log_lhs, math.log(U), log_factor, log_t)
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
        power_aux_sequence(alpha, n_max + 1),
        p,
        weighted_mean_constant(p, alpha),
        n_max,
        tol,
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
    p: float,
    n_max: int,
    tol: Tolerances = Tolerances(),
) -> CriterionReport:
    """Reverse criterion check over n = 1..n_max (non-strict inequality):

        W_n**(-1/(1-p)) <= ((1-p)/p)**(p/(1-p))
                           * (u_n - u_{n+1}),   u_n = w_n**(-1/(1-p)) / n**(p/(1-p))

    with w the reverse recurrence weights.  Established for 0 < p <= 1/3;
    larger p (up to 1/2) runs as exploratory.
    """
    seq = levin_steckin_sequence(p, n_max + 1)
    e = 1.0 / (1.0 - p)
    s = p / (1.0 - p)
    log_n = np.log(np.arange(1, n_max + 2, dtype=float))
    log_u = -e * seq.log_w[: n_max + 1] - s * log_n
    log_lhs = -e * np.log(seq.W[:n_max])
    slacks, log_rhs = _bracket_slacks(
        log_lhs, s * math.log((1.0 - p) / p), np.zeros(n_max), log_u
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
        power_aux_sequence(0.0, n_max + 1),
        p,
        classic_forward_constant(p),
        n_max,
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
        power_aux_sequence(alpha, n_max + 1),
        p,
        weighted_mean_constant(p, alpha),
        n_max,
        tol,
        name=f"2.3[p={p},alpha={alpha}]",
        ref="2.3",
    )
