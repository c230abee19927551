"""Recurrent-inequality route: multiplier lemmas and the (c, beta) family.

Redheffer-style recurrent inequalities bound weighted partial or tail sums
through telescoping multiplier sequences (mu_i, eta_i); unlike the forward
criterion route they never require the auxiliary quantity to decay.  With
lambda = 1 and nu_n = (n - beta)/c the whole construction reduces to a
two-branch feasibility condition

    max((1 + c - beta)**(1-p),
        n**p ((n + c - beta)**(1-p) - (n - 1 - beta)**(1-p)))  <=  c**(1-p) k(p)

over n >= 2, whose smallest admissible k(p) controls the reverse-inequality
constant 1/k.  This module evaluates the lemmas on concrete sequences,
checks the feasibility conditions, solves the p = 1/2 balancing equation in
closed form, and scans (c, beta) grids for the best k.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .compsum import neumaier_prefix_sums, neumaier_suffix_sums
from .errors import TailTruncationWarning, WorkbenchError
from .reports import Tolerances, Verdict, build_report
from .sequences import conjugate_exponent, libm_map


@dataclass(frozen=True)
class RedhefferParams:
    """Parameters (p, c, beta) of the nu_n = (n - beta)/c multiplier family.

    At beta = 1 the n = 1 multiplier degenerates to zero; every worked
    configuration keeps beta < 1.
    """

    p: float
    c: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise WorkbenchError(f"p must lie in (0, 1), got {self.p}")
        if not self.c > 0.0:
            raise WorkbenchError(f"c must be positive, got {self.c}")
        if not self.beta <= 1.0:  # written so that a NaN beta fails it
            raise WorkbenchError(f"beta must be <= 1, got {self.beta}")
        if self.c < self.beta:
            raise WorkbenchError(f"need c >= beta, got c={self.c} < {self.beta}")


def _positive_input(x, length: int, name: str) -> np.ndarray:
    """The first ``length`` entries of 1-d x, checked finite and positive."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise WorkbenchError(f"{name} must be a 1-d array")
    arr = arr[:length]
    if len(arr) < length or np.any(arr <= 0.0):
        raise WorkbenchError(f"{name} must be positive and long enough")
    if not np.isfinite(arr).all():
        raise WorkbenchError(f"{name} must be finite")
    return arr


def _weighted_terms(
    lam_arr: np.ndarray, a_arr: np.ndarray, scan
) -> tuple[np.ndarray, np.ndarray]:
    """The products lam_i a_i and their compensated ``scan`` (prefix or
    suffix sums).  An overflowed or underflowed product, or a sum past the
    float range, would put an inf, NaN or zero term into the lemma."""
    with np.errstate(over="ignore"):
        lam_a = lam_arr * a_arr
    sums = scan(lam_a)
    if not (np.all(lam_a > 0.0) and np.isfinite(sums).all()):
        raise WorkbenchError(
            "each lam_i a_i and their sum must be positive and finite floats"
        )
    return lam_a, sums


def lemma_6_1_residual(lam, a, mu, eta, p: float, n: int) -> float:
    """RHS - LHS of the partial-sum recurrent inequality at horizon n >= 2:

        sum_{i=2}^{n-1} (mu_i - (mu_{i+1}**q - eta_{i+1}**q)**(1/q)) S_i**(1/p)
            + mu_n S_n**(1/p)
        <= (mu_2**q - eta_2**q)**(1/q) (lam_1 a_1)**(1/p)
            + sum_{i=2}^{n} eta_i (lam_i a_i)**(1/p)

    with S_n the weighted partial sums, for mu_i <= eta_i when 0 < p < 1 and
    mu_i >= eta_i when p < 0; only mu_i, eta_i with i <= n are read.  A
    nonnegative return confirms the instance.  When mu_i = eta_i the
    coefficient degenerates (for 0 < p < 1 it blows up to +inf) and the
    inequality holds trivially.  The terms are Python floats, so a power that
    leaves the float range raises.
    """
    if n < 2:
        raise WorkbenchError("horizon must satisfy n >= 2")
    if not math.isfinite(p):
        raise WorkbenchError(f"p must be finite, got {p}")
    mu = _positive_input(mu, n, "mu")
    eta = _positive_input(eta, n, "eta")
    if 0.0 < p < 1.0:
        if np.any(mu > eta):
            raise WorkbenchError("0 < p < 1 requires mu_i <= eta_i")
    elif p < 0.0:
        if np.any(mu < eta):
            raise WorkbenchError("p < 0 requires mu_i >= eta_i")
    else:
        raise WorkbenchError(f"lemma regime needs p < 1, p != 0; got {p}")
    q = conjugate_exponent(p)
    lam_arr = _positive_input(lam, n, "lambda")
    a_arr = _positive_input(a, n, "a")
    mu, eta = mu.tolist(), eta.tolist()
    lam_a, S = _weighted_terms(lam_arr, a_arr, neumaier_prefix_sums)
    lam_a, S = lam_a.tolist(), S.tolist()

    def coef(i: int) -> float:
        d = mu[i - 1] ** q - eta[i - 1] ** q
        if d < 0.0:
            raise WorkbenchError("multiplier ordering violated numerically")
        if d == 0.0:
            return math.inf if q < 0.0 else 0.0
        return d ** (1.0 / q)

    inv_p = 1.0 / p
    try:
        lhs = mu[n - 1] * S[n - 1] ** inv_p
        for i in range(2, n):
            lhs += (mu[i - 1] - coef(i + 1)) * S[i - 1] ** inv_p
        rhs = coef(2) * lam_a[0] ** inv_p
        rhs += math.fsum(eta[i - 1] * lam_a[i - 1] ** inv_p for i in range(2, n + 1))
    except OverflowError:
        raise WorkbenchError(
            f"a power of the multipliers or of the sums overflows the float "
            f"range (p={p})"
        ) from None
    return rhs - lhs


def _gap(mu: np.ndarray, eta: np.ndarray, p) -> np.ndarray:
    """(mu**(1/(1-p)) - eta**(1/(1-p)))**(1-p) per element through libm_map,
    for a float p or an array as long as mu.  A negative rounded base is
    clamped to 0, whose power is +0.0."""
    e = 1.0 / (1.0 - p)
    try:
        base = libm_map(pow, mu, e) - libm_map(pow, eta, e)
    except OverflowError:
        raise WorkbenchError("mu**(1/(1-p)) overflows the float range") from None
    return libm_map(pow, np.maximum(base, 0.0), 1.0 - p)


def lemma_6_2_step(mu, eta, p, t) -> np.ndarray:
    """Residual LHS - RHS of the single-step tail-sum bound: for
    mu >= eta > 0, 0 < p < 1, t >= 0,

        mu (1+t)**p - eta t**p >= (mu**(1/(1-p)) - eta**(1/(1-p)))**(1-p).

    The arguments are 1-d arrays of one length, and the residual is formed
    elementwise; a nonnegative element confirms that instance.  Every value
    must be finite.  Each element has the bits of the Python float
    expression above: the powers come from the C library per element, the
    rest is IEEE arithmetic.
    """
    mu, eta, p, t = (np.asarray(x, dtype=float) for x in (mu, eta, p, t))
    if mu.ndim != 1 or not mu.shape == eta.shape == p.shape == t.shape:
        raise WorkbenchError("mu, eta, p and t must be 1-d arrays of one length")
    if not all(np.isfinite(a).all() for a in (mu, eta, p, t)):
        raise WorkbenchError("mu, eta, p and t must be finite")
    bad = ~((0.0 < p) & (p < 1.0))
    if bad.any():
        raise WorkbenchError(f"needs 0 < p < 1, got {p[bad][0]}")
    if not ((mu >= eta) & (eta > 0.0)).all():
        raise WorkbenchError("needs mu >= eta > 0")
    if (t < 0.0).any():
        raise WorkbenchError("t must be nonnegative")
    # the gap first: where mu**(1/(1-p)) is a float, mu (1+t)**p is too
    gap = _gap(mu, eta, p)
    lhs = mu * libm_map(pow, 1.0 + t, p) - eta * libm_map(pow, t, p)
    return lhs - gap


def lemma_6_2_residual(lam, a, mu, eta, p: float, n: int) -> float:
    """LHS - RHS of the tail-sum recurrent inequality at horizon n >= 2:

        mu_1 S_1**p
          + sum_{i=2}^{n} (mu_i - D_{i-1}) S_i**p - D_n S_{n+1}**p
        >= sum_{i=1}^{n} eta_i lam_i**p a_i**p,

    D_i = (mu_i**(1/(1-p)) - eta_i**(1/(1-p)))**(1-p) and S_k the tail sums
    of lam*a, for mu_i >= eta_i; only mu_i, eta_i with i <= n are read.
    Inputs are finite-support truncations; if the last retained term is not
    negligible a TailTruncationWarning is emitted.
    """
    if not 0.0 < p < 1.0:
        raise WorkbenchError(f"needs 0 < p < 1, got {p}")
    if n < 2:
        raise WorkbenchError("horizon must satisfy n >= 2")
    mu = _positive_input(mu, n, "mu")
    eta = _positive_input(eta, n, "eta")
    if np.any(mu < eta):
        raise WorkbenchError("tail-sum regime requires mu_i >= eta_i")
    a_arr = _positive_input(a, np.size(a), "a")
    length = len(a_arr)
    if n > length:
        raise WorkbenchError("horizon exceeds the truncated input")
    lam_arr = _positive_input(lam, length, "lambda")
    _, tails = _weighted_terms(lam_arr, a_arr, neumaier_suffix_sums)
    if lam_arr[-1] * a_arr[-1] > 1e-8 * tails[0]:
        warnings.warn(
            "last retained term is not negligible; tail truncation may bias S",
            TailTruncationWarning,
            stacklevel=2,
        )

    def S(k: int) -> float:
        return float(tails[k - 1]) if k <= length else 0.0

    D = _gap(mu, eta, p)  # D[i - 1] is D_i
    lhs = mu[0] * S(1) ** p - D[n - 1] * S(n + 1) ** p
    lhs += math.fsum((mu[i - 1] - D[i - 2]) * S(i) ** p for i in range(2, n + 1))
    rhs = math.fsum(
        eta[i - 1] * lam_arr[i - 1] ** p * a_arr[i - 1] ** p for i in range(1, n + 1)
    )
    return lhs - rhs


def _first_branch(p: float, c, beta):
    value = 1.0 + c - beta
    value **= 1.0 - p  # in place for an array
    return value


def _second_branch(p: float, c, beta, n) -> np.ndarray:
    """n**p ((n + c - beta)**(1-p) - (n - 1 - beta)**(1-p)), cancellation-safe.

    c, beta and n broadcast to an array, which is formed in place in two
    buffers of its size.  n**p is the C library's pow for a float n and
    numpy's for an array n; the two differ in the last bit for some p.
    """
    e = 1.0 - p
    low = n - 1.0 - beta
    pos = low > 0.0
    safe_low = np.where(pos, low, 1.0)
    with np.errstate(over="ignore"):  # an inf ratio gives an inf branch
        diff = (c + 1.0) / safe_low
    np.log1p(diff, out=diff)
    diff *= e
    np.expm1(diff, out=diff)
    diff *= safe_low**e
    # where low <= 0 (or is NaN), the difference's first term alone
    first = low + c + 1.0
    first **= e
    np.copyto(diff, first, where=~pos)
    del first
    diff *= n**p
    return diff


def _branch_values(params: RedhefferParams, n_max: int) -> np.ndarray:
    """The larger of the two branches at each n = 2..n_max."""
    if n_max < 2:
        raise WorkbenchError("need n_max >= 2")
    p, c, beta = params.p, params.c, params.beta
    ns = np.arange(2, n_max + 1)
    return np.maximum(_first_branch(p, c, beta), _second_branch(p, c, beta, ns))


def condition_6_49_check(
    params: RedhefferParams,
    n_max: int,
    k: float,
    tol: Tolerances = Tolerances(),
) -> Verdict:
    """Two-branch feasibility condition over 2 <= n <= n_max (non-strict)
    for the constant k.

    Whenever the slope condition (see condition_6_50_check) holds, the
    supremum of the n-branch over n >= 2 is attained at n = 2, so the
    whole family follows from the n = 2 case.
    """
    if not k > 0.0:
        raise WorkbenchError(f"k must be positive, got {k}")
    values = _branch_values(params, n_max)
    p, c, beta = params.p, params.c, params.beta
    rhs = c ** (1.0 - p) * k
    if not 0.0 < rhs < math.inf:  # every slack would be NaN or -inf
        raise WorkbenchError(f"c**(1-p) k must be positive and finite, got {rhs}")
    with np.errstate(over="ignore"):  # an overflowing slack is -inf
        slacks = (rhs - values) / rhs
    return build_report(
        f"6.49[p={p},c={c},beta={beta}]",
        "6.49",
        2,
        slacks,
        strict=False,
        tol=tol,
        log_rhs=math.log(rhs),
    )


def condition_6_50_check(p: float, c, k, tol: Tolerances = Tolerances()):
    """Slope condition (1 - p)(1 + c) < c**(1-p) k, strict, beyond the
    tolerance (elementwise for arrays of c and k, which broadcast).

    Decided with the standard relative tolerance so an exact-equality
    configuration (the boundary route) reports False deterministically.
    """
    rhs = c ** (1.0 - p) * k
    threshold = abs(rhs)  # formed in place for arrays
    threshold *= tol.tol_rel
    threshold += tol.tol_abs
    rhs -= (1.0 - p) * (1.0 + c)
    return rhs > threshold


def condition_6_54_check(p: float, beta):
    """Curvature condition beta < 1/(2p) - 1 for the equality route, 0 < p < 1/2
    (elementwise for an array of beta)."""
    if not 0.0 < p < 0.5:
        raise WorkbenchError(f"needs 0 < p < 1/2, got {p}")
    return beta < 1.0 / (2.0 * p) - 1.0


def solve_x_half(c_prime: float) -> float:
    """Root x = (1 - beta)/c of the p = 1/2 balancing equation

        (1 + x)**(1/2) = 2**(1/2) ((1 + c' + x)**(1/2) - x**(1/2)),

    in closed form: x = (sqrt((10+4c')**2 + 28 (1+2c')**2) - (10+4c'))/14.
    """
    if c_prime < 0.0:
        raise WorkbenchError("c' must be nonnegative")
    u = 10.0 + 4.0 * c_prime
    v = 1.0 + 2.0 * c_prime
    disc = u * u + 28.0 * v * v
    if not math.isfinite(disc):
        raise WorkbenchError(f"the closed-form root overflows at c' = 1/c = {c_prime}")
    return (math.sqrt(disc) - u) / 14.0


class BalanceSolution(NamedTuple):
    params: RedhefferParams
    k: float
    x: float
    residual: float


def balance_solution_half(c: float, n_max: int) -> BalanceSolution:
    """The p = 1/2 configuration for c: x = (1 - beta)/c from solve_x_half,
    beta = 1 - c x, k = k(1/2) over 2 <= n <= n_max, and the residual of
    the balancing equation at x."""
    if not c > 0.0:
        raise WorkbenchError("c must be positive")
    x = solve_x_half(1.0 / c)
    residual = abs(
        math.sqrt(1.0 + x)
        - math.sqrt(2.0) * (math.sqrt(1.0 + 1.0 / c + x) - math.sqrt(x))
    )
    params = RedhefferParams(p=0.5, c=c, beta=1.0 - c * x)
    return BalanceSolution(params, k_of_p(params, n_max), x, residual)


def k_of_p(params: RedhefferParams, n_max: int) -> float:
    """Smallest k making the feasibility condition pass over 2 <= n <= n_max."""
    sup = float(np.max(_branch_values(params, n_max)))
    return sup / params.c ** (1.0 - params.p)


def default_c_grid() -> np.ndarray:
    return np.round(np.arange(0.1, 10.0 + 1e-9, 0.01), 10)


def default_beta_grid(p: float) -> np.ndarray:
    cap = min(1.0, 1.0 / (2.0 * p) - 1.0) if p < 0.5 else 1.0
    return np.round(np.arange(-1.0, cap - 1e-12, 0.005), 10)


@dataclass(eq=False)
class ScanResult:
    """Grid scan outcome: k and feasibility per (c, beta) point, the best
    feasible point (None if there is none) and the ``scan-best`` verdict,
    whose value is the best k."""

    c_grid: np.ndarray = field(repr=False)
    beta_grid: np.ndarray = field(repr=False)
    k: np.ndarray = field(repr=False)
    feasible: np.ndarray = field(repr=False)
    best: RedhefferParams | None = None
    verdict: Verdict | None = None

    @property
    def feasible_count(self) -> int:
        return int(np.count_nonzero(self.feasible))

    @property
    def n_points(self) -> int:
        return int(self.feasible.size)


def scan_params(
    p: float,
    c_grid=None,
    beta_grid=None,
    *,
    n_max: int,
    tol: Tolerances = Tolerances(),
) -> ScanResult:
    """Scan (c, beta) for the smallest k among feasible points.

    Per point, k is the supremum of the feasibility condition over all n:
    the first branch, the n = 2 value of the second branch, and the
    large-n limit (1-p)(1+c) of the second branch (the reduction argument
    pins the supremum to these).  A point is feasible when the slope
    condition then holds strictly or, on the equality route with
    p < 1/2, the curvature condition does; a point whose k is NaN or
    infinite is not.  The best point is re-verified directly against the
    full n <= n_max family, and that check decides the result's verdict.
    """
    if not 0.0 < p < 1.0:
        raise WorkbenchError(f"p must lie in (0, 1), got {p}")
    if n_max < 2:  # the best point's check needs it; reject before the grid
        raise WorkbenchError("need n_max >= 2")
    c_vals = np.asarray(default_c_grid() if c_grid is None else list(c_grid), float)
    b_vals = np.asarray(
        default_beta_grid(p) if beta_grid is None else list(beta_grid), float
    )
    if len(c_vals) == 0 or len(b_vals) == 0:
        raise WorkbenchError("grids must be nonempty")
    C = c_vals[:, None]
    B = b_vals[None, :]
    valid = (C > 0.0) & (C >= B) & (B <= 1.0)
    e = 1.0 - p
    # a caller's grid may hold points whose branches or k are NaN or
    # infinite (c <= 0, beta past c + 1, c near 1e-300); they are
    # infeasible, and a tolerance past the float range is an inf threshold
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        k = _first_branch(p, C, B)  # k's buffer holds each step in turn
        np.maximum(k, _second_branch(p, C, B, 2.0), out=k)
        np.maximum(k, (1.0 - p) * (1.0 + C), out=k)
        k /= C**e
        slope_ok = condition_6_50_check(p, C, k, tol)
    curvature_ok = condition_6_54_check(p, B) if p < 0.5 else False
    feasible = valid & np.isfinite(k) & (slope_ok | curvature_ok)
    result = ScanResult(c_grid=c_vals, beta_grid=b_vals, k=k, feasible=feasible)
    if not result.feasible_count:
        detail = f"no feasible point among {result.n_points}"
        result.verdict = Verdict("scan-best", "6.49", False, detail=detail)
        return result
    masked = np.where(feasible, k, np.inf)
    i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
    best = result.best = RedhefferParams(p=p, c=float(c_vals[i]), beta=float(b_vals[j]))
    k_best = float(k[i, j])
    check = condition_6_49_check(best, n_max, k_best, tol)
    result.verdict = Verdict(
        "scan-best", "6.49", check.holds, value=k_best, min_slack=check.min_slack,
        detail=f"c={best.c}, beta={best.beta}, "
        f"feasible {result.feasible_count}/{result.n_points}",
    )
    return result
