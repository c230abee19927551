"""The array forms of the criterion checks and operator ratios: the oracles
the block-streamed forms in src/ must reproduce bit for bit.

Each forms whole n-length arrays, as the package did before its passes
were streamed: the auxiliary sequence's log_w and W, the bounding side
and the slacks of a check, and an operator's input, output and powers.
The numerical kernels they call (the compensated scan, libm_map, numpy's
ufuncs) are the package's own, tested against their loops elsewhere.  The
claim loops at the end make one ratio call per input, as the claims did
before they stacked their inputs as columns.
"""

from __future__ import annotations

import math

import numpy as np

from hardylab import operators, redheffer
from hardylab.compsum import neumaier_prefix_sums, neumaier_suffix_sums
from hardylab.criteria import _require_finite, weighted_mean_constant
from hardylab.errors import WorkbenchError
from hardylab.operators import OperatorSpec, SequenceFamily
from hardylab.reports import Tolerances, Verdict
from hardylab.sequences import _triangular_sums_exact, conjugate_exponent, libm_map
from hardylab.verify import HARDY_TEST_FAMILIES, THEOREM6_FLOOR

BLOCK = 1 << 14


# -- auxiliary sequences ----------------------------------------------------

def exp_weights(log_w: np.ndarray) -> np.ndarray:
    w = np.minimum(log_w, 709.0)
    np.exp(w, out=w)
    w[~(log_w < 709.0)] = math.inf
    return w


def power_weights(exponent: float, n_max: int) -> np.ndarray:
    w = np.arange(1, n_max + 1, dtype=float)
    w **= exponent
    return w


def power_sums(a: float, n_max: int) -> np.ndarray:
    if a == 0.0:
        return np.arange(1, n_max + 1, dtype=float)
    terms = power_weights(a, n_max)
    if a == 1.0 and _triangular_sums_exact(n_max):
        return np.cumsum(terms, out=terms)
    return neumaier_prefix_sums(terms, out=terms)


def ratio_recurrence(shift: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(log_w, W) of w_{n+1} = ((n + shift)/n) w_n, n_max entries each."""
    if shift == 0.0:
        return np.zeros(n_max), power_sums(0.0, n_max)
    ratios = np.arange(n_max, dtype=float)
    np.divide(shift, ratios[1:], out=ratios[1:])
    log_w = libm_map(math.log1p, ratios)
    neumaier_prefix_sums(log_w, out=log_w)
    w = exp_weights(log_w)
    return log_w, neumaier_prefix_sums(w, out=w)


def power_law(exponent: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(log_w, W) of w_n = n**exponent."""
    log_w = np.arange(1, n_max + 1, dtype=float)
    np.log(log_w, out=log_w)
    np.multiply(exponent, log_w, out=log_w)
    return log_w, power_sums(exponent, n_max)


def law_arrays(law: tuple[str, float], n_max: int) -> tuple[np.ndarray, np.ndarray]:
    kind, param = law
    return (power_law if kind == "power" else ratio_recurrence)(param, n_max)


# -- criterion checks --------------------------------------------------------

def bracket_slacks(log_w, W, coef, scales, log_rhs) -> np.ndarray:
    """The slacks of W_n**coef <= rhs_n (t_n - t_{n+1}) over whole arrays;
    the bracket's log is added into log_rhs."""
    n = len(log_rhs)
    slacks = np.empty(n)
    m = min(n, BLOCK)
    idx = np.arange(1, m + 2, dtype=float)
    log_t, log_k = np.empty(m + 1), np.empty(m + 1)
    bracket, rising = np.empty(m), np.empty(m, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, n, BLOCK):
            hi = min(lo + BLOCK, n)
            t, k = log_t[: hi - lo + 1], log_k[: hi - lo + 1]
            np.multiply(coef, log_w[lo : hi + 1], out=t)
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
            np.log(W[lo:hi], out=slack)
            np.multiply(coef, slack, out=slack)
            _require_finite(slack)
            np.subtract(slack, rhs, out=slack)
            np.expm1(slack, out=slack)
            np.negative(slack, out=slack)
            rhs[up] = math.inf
            slack[up] = -math.inf
    return slacks


def build_report(name, ref, n_lo, slacks, *, strict, log_rhs,
                 tol=Tolerances(), exploratory=False) -> Verdict:
    """The verdict of whole arrays of slacks and bounding-side logs."""
    slacks = np.asarray(slacks, dtype=float)
    if len(slacks) == 0:
        raise WorkbenchError("no index to check: the index range is empty")
    sign = 1.0 if strict else -1.0
    thr = sign * tol.tol_rel
    if tol.tol_abs > 0.0:
        thr = np.asarray(log_rhs, dtype=float)
        with np.errstate(over="ignore"):
            np.negative(thr, out=thr)
            np.exp(thr, out=thr)
            np.multiply(sign * tol.tol_abs, thr, out=thr)
            np.add(sign * tol.tol_rel, thr, out=thr)
    ok = slacks > thr if strict else slacks >= thr
    holds = bool(np.all(ok))
    first_failure = None if holds else int(n_lo + np.argmin(ok))
    n_hi = n_lo + len(slacks) - 1
    min_slack = float(np.min(slacks))
    verdict = "holds" if holds else f"fails first at n={first_failure}"
    tag = " [exploratory]" if exploratory else ""
    return Verdict(
        claim=name, ref=ref, holds=holds, min_slack=min_slack,
        first_failure=first_failure, exploratory=exploratory,
        detail=f"{name}: {verdict} (verified up to n_max={n_hi}, "
        f"min_slack={min_slack:.3e}){tag}",
        n_lo=n_lo, n_hi=n_hi,
    )


def knopp_check(log_w, W, p, tol=Tolerances(), *, alpha=0.0, U=None,
                name=None, ref="eq7", exploratory=False) -> Verdict:
    """The forward check of the sequence with these n_max-entry arrays."""
    if U is None:
        U = weighted_mean_constant(p, alpha)
    log_rhs = power_sums(alpha, len(W) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        np.log(log_rhs, out=log_rhs)
        np.multiply(p, log_rhs, out=log_rhs)
        _require_finite(log_rhs)
        np.add(math.log(U), log_rhs, out=log_rhs)
    slacks = bracket_slacks(log_w, W, p - 1.0, (alpha, p), log_rhs)
    return build_report(name or f"knopp[p={p},U={U}]", ref, 1, slacks,
                        strict=True, tol=tol, exploratory=exploratory,
                        log_rhs=log_rhs)


def reverse_check(log_w, W, p, tol=Tolerances()) -> Verdict:
    """The reverse check of the sequence with these n_max-entry arrays."""
    s = p / (1.0 - p)
    log_rhs = np.full(len(W) - 1, s * math.log((1.0 - p) / p))
    slacks = bracket_slacks(log_w, W, -1.0 / (1.0 - p), (s,), log_rhs)
    return build_report(f"reverse[p={p}]", "3.1", 1, slacks, strict=False,
                        tol=tol, exploratory=p > 1.0 / 3.0, log_rhs=log_rhs)


# -- operator ratios ----------------------------------------------------------

def exact_sum(values) -> float:
    """math.fsum(values) by one extraction on grids set by the whole array."""
    x = np.asarray(values, dtype=float)
    if len(x):
        top = max(float(x.max()), -float(x.min()))
        if 0.0 < top < math.inf:
            width = (len(x) + 1).bit_length()
            exp = math.frexp(top)[1] + width
            step = width - 52
            if exp <= 1023 and exp + 2 * step >= -1021:
                sigmas = [math.ldexp(1.0, exp + k * step) for k in range(3)]
                totals = [0.0] * 3
                rest = x
                for k, sigma in enumerate(sigmas):
                    q = (rest + sigma) - sigma
                    totals[k] = float(q.sum())
                    rest = rest - q
                bound = math.ldexp(1.0, exp + 3 * step)
                low = math.fsum(totals + [-bound])
                if low == math.fsum(totals + [bound]):
                    return low
    return math.fsum(memoryview(x))


def pow_p(x: np.ndarray, p: float) -> np.ndarray:
    if p == round(p):
        return np.power(x, float(p))
    nonzero = x != 0.0
    out = np.zeros_like(x)
    np.log(x, out=out, where=nonzero)
    np.multiply(p, out, out=out, where=nonzero)
    return np.exp(out, out=out, where=nonzero)


def power_sum(x: np.ndarray, p: float) -> float:
    with np.errstate(over="ignore"):
        powers = pow_p(x, p)
    try:
        total = exact_sum(powers)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise WorkbenchError(
            f"the sum of p-th powers (p={p}) overflows; "
            "choose a smaller family exponent or horizon"
        )
    return total


def family_values(fam: SequenceFamily) -> np.ndarray:
    """The family's values drawn whole."""
    if fam.kind == "power_decay":
        return power_weights(-float(fam.param), fam.length)
    if fam.kind == "delta":
        out = np.zeros(fam.length)
        out[0] = 1.0
        return out
    if fam.kind == "geometric":
        return float(fam.param) ** np.arange(fam.length, dtype=float)
    return np.random.default_rng(int(fam.param)).random(fam.length)


def materialize(a, N: int) -> np.ndarray:
    arr = family_values(a) if isinstance(a, SequenceFamily) else np.asarray(a, dtype=float)
    if len(arr) < N:
        raise WorkbenchError(f"input length {len(arr)} < truncation {N}")
    arr = arr[:N]
    if not np.all(arr >= 0.0):
        if np.isnan(arr).any():
            raise WorkbenchError("inputs must not be NaN")
        raise WorkbenchError("inputs must be nonnegative")
    return arr


def tail_means(suffix: np.ndarray, tail_mass: float) -> np.ndarray:
    return (suffix + tail_mass) / np.arange(1, len(suffix) + 1, dtype=float)


def apply(op: OperatorSpec, arr: np.ndarray) -> np.ndarray:
    """The operator's output on a checked input, as one array."""
    if op.kind == "weighted_mean":
        alpha = float(op.alpha)
        lam = power_weights(alpha - 1.0, op.truncation)
        total = power_sums(alpha - 1.0, op.truncation)
        if not math.isfinite(total[-1]):
            raise WorkbenchError(f"the weights i**(alpha-1) overflow at alpha={alpha}")
        means = neumaier_prefix_sums(lam * arr)
        return means / total
    return tail_means(neumaier_suffix_sums(arr), 0.0)


def constant_ratio(op: OperatorSpec, a, p: float) -> float:
    """sum (op a)_n**p / sum a_n**p over whole arrays."""
    if not p > 0.0:
        raise WorkbenchError(f"p must be positive, got {p}")
    with np.errstate(over="ignore"):
        arr = materialize(a, op.truncation)
        denom = power_sum(arr, p)
        if denom == 0.0:
            if arr.any():
                raise WorkbenchError(f"every a_n**p underflows to 0 (p={p})")
            raise WorkbenchError("input is identically zero on the truncation")
        means = apply(op, arr)
        return power_sum(means, p) / denom


def copson_ratios_with_tail(s: float, p: float, N: int, masses) -> list[float]:
    """The tail operator's ratios for k**-s with each dropped tail mass."""
    arr = power_weights(-s, N)
    denom = power_sum(arr, p)
    suffix = neumaier_suffix_sums(arr)
    return [power_sum(tail_means(suffix, m), p) / denom for m in masses]


# -- claims, one ratio or lemma call per input ----------------------------------

def tail_floor_random(seed: int) -> Verdict:
    """Claim 2.1: the tail ratio at p = 1/2 of 200 seeded inputs."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    ok = True
    for i in range(200):
        if i % 3 == 0:
            a = rng.random(1000)
        elif i % 3 == 1:
            a = -np.log(1.0 - rng.random(1000))
        else:
            a = rng.random(1000) * (rng.random(1000) < 0.2)
            if not a.any():
                a[0] = 1.0
        r = operators.constant_ratio(operators.copson_tail(len(a)), a, 0.5)
        worst = min(worst, r)
        ok = ok and r >= THEOREM6_FLOOR - 1e-9
    return Verdict("2.1-tail-floor-random", "thm6", ok, value=worst,
                   detail="200 seeded nonnegative sequences, length 1000")


def cesaro_cap() -> Verdict:
    """Claim 7.3: the Cesaro norm ratios of the test families under q."""
    cap_ok = True
    worst_gap = math.inf
    for fam in HARDY_TEST_FAMILIES:
        for p in (1.25, 2.0, 3.0):
            r = operators.norm_ratio(operators.cesaro(fam.length), fam, p)
            q = conjugate_exponent(p)
            cap_ok = cap_ok and r <= q + 1e-9
            worst_gap = min(worst_gap, q - r)
    return Verdict("7.3-cesaro-cap", "(1)", cap_ok, value=worst_gap)


def lemma_claims(seed: int) -> list[Verdict]:
    """Claims 8.4 and 8.5: the partial-sum and tail-sum lemmas on 100
    seeded instances each, drawn from one generator in that order."""
    rng = np.random.default_rng(seed)
    residuals = []
    for i in range(100):
        n = int(rng.integers(2, 25))
        lam = rng.uniform(0.5, 1.5, n)
        a = rng.uniform(0.5, 1.5, n)
        if i % 4 == 3:
            p = float(rng.uniform(-2.0, -0.2))
            eta = rng.uniform(0.1, 1.0, n)
            mu = eta + rng.uniform(0.0, 1.0, n)
        else:
            p = float(rng.uniform(0.15, 0.85))
            eta = rng.uniform(0.1, 1.1, n)
            mu = eta * rng.uniform(0.05, 1.0, n)
        residuals.append(redheffer.lemma_6_1_residual(lam, a, mu, eta, p, n))
    worst61 = float(np.min(residuals))
    rows = [Verdict("8.4-partial-sum-lemma", "6.1", worst61 >= -1e-12, value=worst61)]
    residuals = []
    for _ in range(100):
        n = int(rng.integers(2, 25))
        length = n + int(rng.integers(30, 45))
        lam = rng.uniform(0.5, 1.5, length)
        a = rng.uniform(0.5, 1.5, length) * 0.5 ** np.arange(length)
        p = float(rng.uniform(0.1, 0.9))
        eta = rng.uniform(0.1, 1.1, n)
        mu = eta + rng.uniform(0.0, 1.0, n)
        residuals.append(redheffer.lemma_6_2_residual(lam, a, mu, eta, p, n))
    worst62 = float(np.min(residuals))
    rows.append(Verdict("8.5-tail-sum-lemma", "6.5", worst62 >= -1e-12, value=worst62))
    return rows
