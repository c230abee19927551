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
    levin_steckin_sequence,
    power_aux_sequence,
)


def weighted_mean_constant(p: float, alpha: float) -> float:
    """((alpha+1)p / ((alpha+1)p - 1))**p for power weights lambda_n = n**alpha."""
    ap = (alpha + 1.0) * p
    if ap <= 1.0:
        raise OutOfDomainError(f"(alpha+1)p must exceed 1, got {ap}")
    return (ap / (ap - 1.0)) ** p


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise OutOfDomainError(
            "values left the representable range at this horizon; reduce n_max"
        )


def _log_power(power: float, sums: np.ndarray, out: np.ndarray) -> None:
    """power * log(sums), written into out and checked finite."""
    np.log(sums, out=out)
    np.multiply(power, out, out=out)
    _require_finite(out)


def _bracket_slacks(
    log_t: np.ndarray,
    work: np.ndarray,
    log_scale: float,
    lhs: tuple[float, np.ndarray],
    factor: tuple[float, np.ndarray] | None = None,
):
    """Slacks of  LHS <= scale * factor_n * (t_n - t_{n+1}), all in logs.

    log_t has one extra trailing entry.  ``lhs`` and ``factor`` are
    (power, sums) pairs standing for the n logs power * log(sums); no
    factor means factor_n = 1.  Where t fails to decrease the bracket is
    nonpositive and the slack is -inf.

    The whole computation runs in place in log_t and ``work`` (at least n
    entries, its contents ignored): both are overwritten, and the slacks
    and log_rhs come back as views of their first n entries.
    """
    n = len(log_t) - 1
    _require_finite(log_t)
    bracket, log_rhs = work[:n], log_t[:n]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.subtract(log_t[1:], log_t[:-1], out=bracket)
        rising = bracket >= 0.0
        np.expm1(bracket, out=bracket)
        np.negative(bracket, out=bracket)
        np.log(bracket, out=bracket)
        np.add(log_t[:-1], bracket, out=bracket)
        # log_t is spent: its buffer takes the bounding side
        if factor is None:
            np.add(log_scale, bracket, out=log_rhs)
        else:
            _log_power(*factor, out=log_rhs)
            np.add(log_scale, log_rhs, out=log_rhs)
            np.add(log_rhs, bracket, out=log_rhs)
        # and the bracket's buffer takes the LHS, then the slacks
        slacks = bracket
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
    """
    if not p > 1.0:
        raise PreconditionError(f"forward regime needs p > 1, got {p}")
    if U is None:
        U = weighted_mean_constant(p, alpha)
    if not U > 0.0:
        raise OutOfDomainError("target constant must be positive")
    n_max = w.n_max - 1
    Lam = neumaier_prefix_sums(np.arange(1, n_max + 1, dtype=float) ** alpha)
    # work takes log lam_n**p = p * (alpha * log n), over n_max + 1 entries;
    # a huge p overflows these to inf, which _bracket_slacks rejects
    work = np.arange(1, n_max + 2, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        np.log(work, out=work)
        np.multiply(alpha, work, out=work)
        np.multiply(p, work, out=work)
        log_t = np.multiply(p - 1.0, w.log_w)
        log_t -= work
    slacks, log_rhs = _bracket_slacks(
        log_t, work, math.log(U), (p - 1.0, w.W[:n_max]), (p, Lam)
    )
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
    log_u = np.multiply(-e, seq.log_w[: n_max + 1])
    work = np.arange(1, n_max + 2, dtype=float)
    np.log(work, out=work)
    np.multiply(s, work, out=work)
    log_u -= work
    slacks, log_rhs = _bracket_slacks(
        log_u, work, s * math.log((1.0 - p) / p), (-e, seq.W[:n_max])
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
