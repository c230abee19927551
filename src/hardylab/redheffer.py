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
from .errors import TailTruncationWarning, WorkbenchError, check_horizon
from .reports import Tolerances, Verdict, build_report
from .sequences import libm_map


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


def _columns(p, n, length=None):
    """(m, ps, ns, lengths) for a lemma call: m is None for one instance
    (p, n and the support length numbers, the inputs 1-d), else the number
    of instances (p, n and the lengths 1-d arrays of m entries, the inputs
    stacks of m columns); ps, ns and lengths list each instance's value as
    given, lengths None when there is none."""
    if np.ndim(p) == np.ndim(n) == np.ndim(length) == 0:
        return None, [p], [n], None if length is None else [length]
    ps, ns = np.asarray(p), np.asarray(n)
    if not (
        ps.ndim == ns.ndim == 1
        and len(ps) == len(ns) > 0
        and (length is None or np.shape(length) == ns.shape)
    ):
        raise WorkbenchError(
            "p, n and a support length are numbers, or 1-d arrays of one length"
        )
    lengths = None if length is None else np.asarray(length).tolist()
    return len(ps), ps.tolist(), ns.tolist(), lengths


def _stack(x, name: str, m: int | None) -> np.ndarray:
    """x with one column per instance: a 1-d x is one (m None)."""
    arr = np.asarray(x, dtype=float)
    if m is None:
        if arr.ndim != 1:
            raise WorkbenchError(f"{name} must be a 1-d array")
        return arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != m:
        raise WorkbenchError(f"{name} must be a 2-d stack of {m} columns")
    return arr


def _rows(counts: list[int]) -> np.ndarray:
    """The mask of rows r < counts[j] in each column j."""
    return np.arange(max(counts))[:, None] < np.array(counts)


def _positive_input(x, live: np.ndarray, name: str, m: int | None) -> np.ndarray:
    """The rows of x (see _stack) that ``live`` spans, checked finite and
    positive where it holds and 1.0 where it does not: entries past an
    instance's horizon are never read."""
    arr = _stack(x, name, m)[: len(live)]
    if len(arr) < len(live) or (live & (arr <= 0.0)).any():
        raise WorkbenchError(f"{name} must be positive and long enough")
    if not (np.isfinite(arr) | ~live).all():
        raise WorkbenchError(f"{name} must be finite")
    return np.where(live, arr, 1.0)


def _weighted_terms(
    lam: np.ndarray, a: np.ndarray, live: np.ndarray, scan
) -> tuple[np.ndarray, np.ndarray]:
    """The products lam_i a_i, 0 where ``live`` does not hold, and their
    compensated ``scan`` (prefix or suffix sums) down each column.  An
    overflowed or underflowed product, or a sum past the float range, would
    put an inf, NaN or zero term into the lemma."""
    with np.errstate(over="ignore"):
        lam_a = lam * a
    positive = (lam_a > 0.0) | ~live
    lam_a[~live] = 0.0
    sums = scan(lam_a)
    if not (positive.all() and (np.isfinite(sums) | ~live).all()):
        raise WorkbenchError(
            "each lam_i a_i and their sum must be positive and finite floats"
        )
    return lam_a, sums


def _powers(x: np.ndarray, e, where: np.ndarray, overflow_inf=False) -> np.ndarray:
    """x**e through the C library at the entries ``where`` holds, with one
    exponent per column, and 1.0 elsewhere.  An overflow raises
    OverflowError, or reads inf with ``overflow_inf``, by numpy's scalar
    power (libm's pow too, with the same bits)."""
    out = np.ones(x.shape)
    base, exponent = x[where], np.broadcast_to(e, x.shape)[where]
    if overflow_inf:
        with np.errstate(over="ignore"):
            powers = map(np.float64.__pow__, base, exponent)
            out[where] = np.fromiter(powers, float, len(base))
    else:
        out[where] = libm_map(pow, base, exponent)
    return out


def _column_fsums(terms: np.ndarray, counts):
    """math.fsum of the first counts[j] entries of each column j, in turn."""
    for column, k in zip(np.ascontiguousarray(terms.T), counts):
        yield math.fsum(memoryview(column[:k]))


_OVERFLOW = "a power of the multipliers or of the sums overflows the float range (p={})"


def _partial_sum_powers(mu, eta, S, lam_a, q, inv_p, live, inner, overflow_inf=False):
    """(d, C, S**(1/p), (lam a)**(1/p)) with d_i = mu_i**q - eta_i**q and
    C_i = d_i**(1/q) (inf or 0 where d_i = 0, for q < 0 or q > 0), at the
    rows the partial-sum lemma reads: i = 2..n (``inner``) but i = 1..n
    (``live``) for lam a."""
    with np.errstate(invalid="ignore"):  # inf - inf, where an overflow is inf
        d = _powers(mu, q, inner, overflow_inf) - _powers(eta, q, inner, overflow_inf)
    C = _powers(d, 1.0 / q, inner & (d > 0.0), overflow_inf)
    C = np.where(d > 0.0, C, np.where(q < 0.0, math.inf, 0.0))
    S_power = _powers(S, inv_p, inner, overflow_inf)
    return d, C, S_power, _powers(lam_a, inv_p, live, overflow_inf)


def _first_power_failure(d, C, P, L, live, inner, ns) -> tuple[int, bool] | None:
    """(j, ordering) for the first column j whose one-instance call fails
    among the powers that _partial_sum_powers forms, an overflow read as
    inf, or None.  ``ordering`` is whether that call meets a negative d_i
    before any overflow.  Each event's rank in that call's order: S_n**(1/p)
    first; then, for i = 2..n-1, C_{i+1} (an overflowing mu or eta power,
    then a negative d, then an overflowing d**(1/q)) and S_i**(1/p); then
    C_2; then (lam_i a_i)**(1/p) for i = 1..n."""
    coef_over = ~np.isfinite(d) | ((d > 0.0) & (C == math.inf))
    coef_bad = inner & (coef_over | (d < 0.0))
    power_bad = inner & (P == math.inf)
    last_bad = live & (L == math.inf)
    if not (coef_bad.any() or power_bad.any() or last_bad.any()):
        return None
    i = np.arange(len(live))[:, None] + 1  # row i - 1 holds index i
    never = 4 * len(live)
    coef = np.where(coef_bad, np.where(i == 2, 2 * ns - 3, 2 * i - 5), never)
    rank = np.minimum(coef, np.where(power_bad, np.where(i == ns, 0, 2 * i - 2), never))
    rank = np.minimum(rank, np.where(last_bad, 2 * ns - 3 + i, never))
    j = int(np.argmax(rank.min(axis=0) < never))
    row = int(np.argmin(rank[:, j]))
    return j, bool(coef[row, j] == rank[row, j] and not coef_over[row, j])


def lemma_6_1_residual(lam, a, mu, eta, p, n):
    """RHS - LHS of the partial-sum recurrent inequality at horizon n >= 2:

        sum_{i=2}^{n-1} (mu_i - (mu_{i+1}**q - eta_{i+1}**q)**(1/q)) S_i**(1/p)
            + mu_n S_n**(1/p)
        <= (mu_2**q - eta_2**q)**(1/q) (lam_1 a_1)**(1/p)
            + sum_{i=2}^{n} eta_i (lam_i a_i)**(1/p)

    with S_n the weighted partial sums, for mu_i <= eta_i when 0 < p < 1 and
    mu_i >= eta_i when p < 0; only mu_i, eta_i with i <= n are read.  A
    nonnegative return confirms the instance.  When mu_i = eta_i the
    coefficient degenerates (for 0 < p < 1 it blows up to +inf) and the
    inequality holds trivially.

    With numbers p and n, lam, a, mu and eta are 1-d and the residual is a
    float.  With 1-d arrays of m entries, they are stacks of m columns, one
    instance per column, whose rows past the column's n are never read, and
    the m residuals come back as an array, each with the bits of its
    column's own call.  Every power is the C library's pow per element, the
    left side is added term by term in the order above (the n-th term
    first), and the right side's sum is math.fsum's.  A power that leaves
    the float range raises.  A stack raises the first check any column
    fails, in the order of the one-instance call, with its message; among
    the powers, the first failing column's.
    """
    m, ps, ns, _ = _columns(p, n)
    for k in ns:
        check_horizon("n", k, 2, "horizon must satisfy n >= 2")
    bad = [x for x in ps if not math.isfinite(x)]
    if bad:
        raise WorkbenchError(f"p must be finite, got {bad[0]}")
    p_arr, n_arr = np.array(ps, dtype=float), np.array(ns)
    live = _rows(ns)
    mu = _positive_input(mu, live, "mu", m)
    eta = _positive_input(eta, live, "eta", m)
    regime = (0.0 < p_arr) & (p_arr < 1.0)
    wrong = (live & np.where(regime, mu > eta, mu < eta)).any(axis=0)
    wrong |= ~(regime | (p_arr < 0.0))
    if wrong.any():
        j = int(np.argmax(wrong))
        if regime[j]:
            raise WorkbenchError("0 < p < 1 requires mu_i <= eta_i")
        if p_arr[j] < 0.0:
            raise WorkbenchError("p < 0 requires mu_i >= eta_i")
        raise WorkbenchError(f"lemma regime needs p < 1, p != 0; got {ps[j]}")
    q = p_arr / (p_arr - 1.0)
    lam = _positive_input(lam, live, "lambda", m)
    a = _positive_input(a, live, "a", m)
    lam_a, S = _weighted_terms(lam, a, live, neumaier_prefix_sums)

    inner = live.copy()
    inner[0] = False
    args = mu, eta, S, lam_a, q, 1.0 / p_arr, live, inner
    try:
        d, C, P, L = _partial_sum_powers(*args)
    except OverflowError:  # formed again to find the column, an overflow read as inf
        d, C, P, L = _partial_sum_powers(*args, overflow_inf=True)
    failure = _first_power_failure(d, C, P, L, live, inner, n_arr)
    if failure:
        j, ordering = failure
        if ordering:
            raise WorkbenchError("multiplier ordering violated numerically")
        raise WorkbenchError(_OVERFLOW.format(ps[j]))
    cols = np.arange(len(ps))
    # IEEE arithmetic as on Python floats: inf - inf is NaN, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = mu[n_arr - 1, cols] * P[n_arr - 1, cols]
        for i, term in enumerate((mu[1:-1] - C[2:]) * P[1:-1], start=1):
            np.add(lhs, term, out=lhs, where=i <= n_arr - 2)
        sums = []
        try:
            for s in _column_fsums(eta[1:] * L[1:], n_arr - 1):
                sums.append(s)
        except OverflowError:
            raise WorkbenchError(_OVERFLOW.format(ps[len(sums)])) from None
        residuals = C[1] * L[0] + sums - lhs
    return residuals if m else float(residuals[0])


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


def lemma_6_2_residual(lam, a, mu, eta, p, n, length=None):
    """LHS - RHS of the tail-sum recurrent inequality at horizon n >= 2:

        mu_1 S_1**p
          + sum_{i=2}^{n} (mu_i - D_{i-1}) S_i**p - D_n S_{n+1}**p
        >= sum_{i=1}^{n} eta_i lam_i**p a_i**p,

    D_i = (mu_i**(1/(1-p)) - eta_i**(1/(1-p)))**(1-p) and S_k the tail sums
    of lam*a, for mu_i >= eta_i; only mu_i, eta_i with i <= n are read.
    Inputs are finite-support truncations of ``length`` entries (all of a
    by default); if the last retained term is not negligible a
    TailTruncationWarning is emitted, once per call.

    With numbers p and n (and length), lam, a, mu and eta are 1-d and the
    residual is a float.  With 1-d arrays of m entries, they are stacks of
    m columns, one instance per column, whose rows past the column's n (mu
    and eta) or length (lam and a) are never read, and the m residuals come
    back as an array, each with the bits of its column's own call.  Every
    power is the C library's pow per element and each sum is math.fsum's.
    A stack raises the first check any column fails, in the order of the
    one-instance call, with its message.
    """
    m, ps, ns, lengths = _columns(p, n, length)
    bad = [x for x in ps if not 0.0 < x < 1.0]
    if bad:
        raise WorkbenchError(f"needs 0 < p < 1, got {bad[0]}")
    for k in ns:
        check_horizon("n", k, 2, "horizon must satisfy n >= 2")
    p_arr, n_arr = np.array(ps, dtype=float), np.array(ns)
    live = _rows(ns)
    mu = _positive_input(mu, live, "mu", m)
    eta = _positive_input(eta, live, "eta", m)
    if (live & (mu < eta)).any():
        raise WorkbenchError("tail-sum regime requires mu_i >= eta_i")
    if lengths is None:
        lengths = [len(_stack(a, "a", m))] * len(ps)
    else:
        for k in lengths:
            check_horizon("length", k)
    support = _rows(lengths)
    a = _positive_input(a, support, "a", m)
    if any(k > length for k, length in zip(ns, lengths)):
        raise WorkbenchError("horizon exceeds the truncated input")
    lam = _positive_input(lam, support, "lambda", m)
    lam_a, tails = _weighted_terms(lam, a, support, neumaier_suffix_sums)
    cols, l_arr = np.arange(len(ps)), np.array(lengths)
    if (lam_a[l_arr - 1, cols] > 1e-8 * tails[0]).any():
        warnings.warn(
            "last retained term is not negligible; tail truncation may bias S",
            TailTruncationWarning,
            stacklevel=2,
        )

    D = np.ones(mu.shape)  # D[i - 1] is D_i
    D[live] = _gap(mu[live], eta[live], np.broadcast_to(p_arr, mu.shape)[live])
    # S_k**p for k = 1..n + 1 <= length, and S_{n+1}**p = 0 past the support
    Sp = _powers(tails, p_arr, support & (np.arange(len(tails))[:, None] <= n_arr))
    last = np.where(n_arr < l_arr, Sp[np.minimum(n_arr, len(Sp) - 1), cols], 0.0)
    k = len(mu)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = mu[0] * Sp[0] - D[n_arr - 1, cols] * last
        lhs += list(_column_fsums((mu[1:] - D[:-1]) * Sp[1:k], n_arr - 1))
        terms = eta * _powers(lam[:k], p_arr, live) * _powers(a[:k], p_arr, live)
        residuals = lhs - list(_column_fsums(terms, n_arr))
    return residuals if m else float(residuals[0])


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
    check_horizon("n_max", n_max, 2, "need n_max >= 2")
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
    # the best point's check needs it; reject before the grid
    check_horizon("n_max", n_max, 2, "need n_max >= 2")
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
