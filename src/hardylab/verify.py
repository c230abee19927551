"""Claim registry: every quantitative target as a one-line verdict.

Each claim function checks one group of target values or finite criterion
families at pinned tolerances and returns Verdict rows.  The CLI
aggregates them under ``verify-paper``; the acceptance test suite drives
the same functions.  All verdicts are finite-horizon evidence, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .criteria import (
    check_2_3,
    check_2_4,
    check_2_30,
    criterion_2_20_check,
    f_alpha_analysis,
    knopp_criterion_check,
    reverse_criterion_check,
)
from .operators import (
    SequenceFamily,
    cesaro,
    constant_ratio,
    copson_ratio_with_tail,
    copson_tail,
    extremal_search,
    norm_ratios,
)
from .redheffer import (
    RedhefferParams,
    balance_solution_half,
    condition_6_49_check,
    condition_6_54_check,
    lemma_6_1_residual,
    lemma_6_2_residual,
    lemma_6_2_step,
)
from .reports import Tolerances, Verdict
from .sequences import (
    conjugate_exponent,
    knopp_sequence,
    levin_steckin_sequence,
    power_sum_bounds,
)

DEFAULT_SEED = 12345
THEOREM6_FLOOR = 0.8967


def redheffer_constant_claims(n_max: int) -> list[Verdict]:
    """Closed-form solver output and the derived constant at p = 1/2."""
    sol = balance_solution_half(2.5, n_max)
    x, beta, k = sol.x, sol.params.beta, sol.k
    return [
        Verdict(
            "1.1-balance-root-x",
            "x(c')",
            abs(x - 0.2435) < 5e-4 and sol.residual < 1e-12,
            value=x,
            detail=f"balance residual {sol.residual:.2e}",
        ),
        Verdict("1.2-balance-beta", "x(c')", abs(beta - 0.3912) < 5e-4, value=beta),
        Verdict("1.3-k-at-half", "k(p)", abs(k - 1.1151) < 1e-3, value=k),
        Verdict(
            "1.4-reciprocal-floor", "thm6", 1.0 / k > THEOREM6_FLOOR, value=1.0 / k
        ),
    ]


def theorem6_floor_claims(seed: int) -> list[Verdict]:
    """Constant-convention tail ratio at p = 1/2 stays above the floor."""
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
        # sum_n T_n**(1/2) / sum_n a_n**(1/2), exact for finite-support a
        r = constant_ratio(copson_tail(len(a)), a, 0.5)
        worst = min(worst, r)
        ok = ok and r >= THEOREM6_FLOOR - 1e-9
    rows = [
        Verdict(
            "2.1-tail-floor-random",
            "thm6",
            ok,
            value=worst,
            detail="200 seeded nonnegative sequences, length 1000",
        )
    ]
    for s in (1.5, 2.0, 3.0):
        ratios = copson_ratio_with_tail(s, 0.5, 10000)
        r_min = min(ratios)
        rows.append(
            Verdict(
                f"2.2-tail-floor-power-s{s}",
                "thm6",
                r_min >= THEOREM6_FLOOR - 1e-9,
                value=r_min,
                detail=f"uncorrected {ratios.uncorrected:.6f}, "
                f"corrected [{ratios.corrected_low:.6f}, {ratios.corrected_high:.6f}]",
            )
        )
    return rows


def reverse_machinery_claims(n_max: int) -> list[Verdict]:
    """Reverse criterion families and the reverse partial-sum identity."""
    rows = []
    for p in (0.1, 0.2, 0.25, 1.0 / 3.0):
        # the claim is min_slack >= 0: a non-strict check at tol_rel 0
        seq = levin_steckin_sequence(p, n_max + 1)
        verdict = reverse_criterion_check(seq, p, Tolerances(tol_rel=0.0))
        rows.append(replace(verdict, claim=f"3.1-reverse-p{p:.6g}"))
        # 3.2 reads the first n_max entries: the same bits as a sequence
        # built to n_max, since the maps are elementwise and the scan causal
        W = seq.W[:n_max]
        n = np.arange(1, n_max + 1, dtype=float)
        shift = seq.law[1]
        ident = (n + shift) / (1.0 + shift) * seq.weights()[:n_max]
        worst = float(np.max(np.abs(W - ident) / W))
        rows.append(
            Verdict(
                f"3.2-identity-p{p:.6g}",
                "3.3",
                worst <= 1e-12,
                value=worst,
            )
        )
    return rows


def boundary_algebra_claims() -> list[Verdict]:
    """Exact boundary configuration at p = 1/3 and the p = 0.34 instance."""
    p3 = 1.0 / 3.0
    beta3 = 3.0 - 2.0 * math.sqrt(2.0)
    k3 = 2.0 ** (1.0 / 3.0)
    params3 = RedhefferParams(p=p3, c=2.0, beta=beta3)
    rhs = 2.0 ** (2.0 / 3.0) * k3
    first = (1.0 + 2.0 - beta3) ** (2.0 / 3.0)
    n2 = 2.0**p3 * ((2.0 + 2.0 - beta3) ** (2.0 / 3.0) - (1.0 - beta3) ** (2.0 / 3.0))
    report3 = condition_6_49_check(params3, 2, k3)
    p34 = 0.34
    c34 = 1.0 / p34 - 1.0
    k34 = c34**p34
    params34 = RedhefferParams(p=p34, c=c34, beta=0.21)
    report34 = condition_6_49_check(params34, 2, k34)
    return [
        Verdict(
            "4.1-third-equality",
            "6.49",
            abs(first - rhs) <= 1e-12 * rhs,
            value=first,
            detail=f"first branch {first!r} vs c**(1-p) k = {rhs!r}",
        ),
        Verdict(
            "4.2-third-n2-branch",
            "6.51",
            abs(n2 - 1.97199) < 1e-4 and n2 <= rhs,
            value=n2,
        ),
        Verdict(
            "4.3-third-n2-holds", "6.51", report3.holds, min_slack=report3.min_slack
        ),
        Verdict(
            "4.4-third-curvature", "6.54", condition_6_54_check(p3, beta3), value=beta3
        ),
        Verdict(
            "4.5-p034-n2-holds",
            "6.51",
            report34.holds,
            min_slack=report34.min_slack,
            detail=f"c = 1/p - 1 = {c34!r}, k = c**p = {k34!r}",
        ),
        Verdict(
            "4.6-p034-curvature", "6.54", condition_6_54_check(p34, 0.21), value=0.21
        ),
    ]


FORWARD_SAMPLES = (
    (2.0, 0.0),
    (2.0, 0.3),
    (2.0, 0.5),
    (3.0, 0.2),
    (4.0 / 3.0, 0.75),
    (1.25, 0.9),
    (1.1, 1.0),
)


def forward_sample_claims(n_max: int) -> list[Verdict]:
    """Shifted weighted-mean criterion samples plus the slope sign table."""
    rows = []
    for p, alpha in FORWARD_SAMPLES:
        verdict = criterion_2_20_check(alpha, p, n_max)
        rows.append(replace(verdict, claim=f"5.1-forward-p{p:.6g}-a{alpha:.6g}"))
    neg = all(
        f_alpha_analysis(0.5, 2.0, n).fprime_at_inv_p < 0.0 for n in range(1, 101)
    )
    pos = all(
        f_alpha_analysis(0.75, 4.0 / 3.0, n).fprime_at_inv_p > 0.0
        for n in range(1, 101)
    )
    rows.append(Verdict("5.2-slope-negative-p2", "2.23", neg))
    rows.append(Verdict("5.3-slope-positive-p4by3", "2.23", pos))
    return rows


def power_choice_claims(n_max: int) -> list[Verdict]:
    """Alternative power-sequence checks."""
    rows = []
    for p in (3.0, 4.0, 10.0):
        verdict = check_2_30(p, n_max)
        rows.append(replace(verdict, claim=f"6.1-power-choice-p{p:.6g}"))
    fail = check_2_30(1.05, 1)
    rows.append(
        Verdict(
            "6.2-power-choice-fails-near-1",
            "2.30",
            (not fail.holds) and fail.first_failure == 1,
            min_slack=fail.min_slack,
            first_failure=fail.first_failure,
            exploratory=True,
        )
    )
    for p in (3.0, 5.0, 10.0):
        verdict = check_2_4(p, 50)
        rows.append(replace(verdict, claim=f"6.3-scalar-family-p{p:.6g}"))
    for p, alpha in ((2.0, 1.0), (2.0, 1.5), (3.0, 4.0 / 3.0)):
        verdict = check_2_3(alpha, p, n_max)
        claim = f"6.4-shifted-power-p{p:.6g}-a{alpha:.6g}"
        rows.append(replace(verdict, claim=claim))
    return rows


HARDY_TEST_FAMILIES = (
    SequenceFamily("delta", 2000),
    SequenceFamily("geometric", 2000, 0.5),
    SequenceFamily("power_decay", 2000, 0.6),
    SequenceFamily("power_decay", 2000, 1.5),
    SequenceFamily("random", 2000, 7),
    SequenceFamily("random", 2000, 8),
)


def hardy_bracketing_claims(n_max: int) -> list[Verdict]:
    """Classic forward criterion, extremal bracketing, and the norm cap."""
    rows = []
    for p in (1.25, 2.0, 3.0):
        verdict = knopp_criterion_check(
            knopp_sequence(p, 0.0, n_max + 1), p, name=f"knopp[p={p}]"
        )
        rows.append(replace(verdict, claim=f"7.1-classic-knopp-p{p:.6g}"))
    grid = [SequenceFamily("power_decay", 100000, s) for s in (0.5001, 0.501, 0.51)]
    best = extremal_search(cesaro(100000), 2.0, grid)
    rows.append(
        Verdict(
            "7.2-cesaro-extremal",
            "(1)",
            1.9 < best.best_ratio < 2.0,
            value=best.best_ratio,
            detail=(
                f"best family {best.best_family.label()}; the truncated section "
                "norm at N=100000 is about 1.8626, so the (1.9, 2.0) target is "
                "out of reach at this horizon (convergence to 2 is logarithmic)"
            ),
        )
    )
    cap_ok = True
    worst_gap = math.inf
    ops = {f.length: cesaro(f.length) for f in HARDY_TEST_FAMILIES}  # weights once
    ps = (1.25, 2.0, 3.0)
    for fam in HARDY_TEST_FAMILIES:
        for p, r in zip(ps, norm_ratios(ops[fam.length], fam, ps)):
            q = conjugate_exponent(p)
            cap_ok = cap_ok and r <= q + 1e-9
            worst_gap = min(worst_gap, q - r)
    rows.append(
        Verdict("7.3-cesaro-cap", "(1)", cap_ok, value=worst_gap)
    )
    return rows


def lemma_suite_claims(seed: int) -> list[Verdict]:
    """Power-sum bound grids, recurrent-inequality residuals, step bound."""
    product = [("product", float(r)) for r in np.linspace(0.0, 1.0, 11)]
    ratio = [("ratio", r) for r in (1.0, 1.5, 2.0, 3.0)]
    reverse = [("ratio", r) for r in (-0.9, -0.5, 0.0, 0.5, 1.0)]
    holds = [
        bool(b.holds.all())
        for b in power_sum_bounds(product + ratio + reverse, 1000)
    ]
    k, m = len(product), len(product) + len(ratio)
    rows = [
        Verdict("8.1-power-sum-product", "lem0.4", all(holds[:k])),
        Verdict("8.2-power-sum-ratio", "lem0.201", all(holds[k:m])),
        Verdict("8.3-power-sum-ratio-reverse", "lem0.201", all(holds[m:])),
    ]

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
        residuals.append(lemma_6_1_residual(lam, a, mu, eta, p, n))
    worst61 = float(np.min(residuals))  # a NaN residual propagates
    rows.append(
        Verdict("8.4-partial-sum-lemma", "6.1", worst61 >= -1e-12, value=worst61)
    )

    residuals = []
    for _ in range(100):
        n = int(rng.integers(2, 25))
        length = n + int(rng.integers(30, 45))
        lam = rng.uniform(0.5, 1.5, length)
        a = rng.uniform(0.5, 1.5, length) * 0.5 ** np.arange(length)
        p = float(rng.uniform(0.1, 0.9))
        eta = rng.uniform(0.1, 1.1, n)
        mu = eta + rng.uniform(0.0, 1.0, n)
        residuals.append(lemma_6_2_residual(lam, a, mu, eta, p, n))
    worst62 = float(np.min(residuals))
    rows.append(
        Verdict("8.5-tail-sum-lemma", "6.5", worst62 >= -1e-12, value=worst62)
    )

    eta = rng.uniform(0.01, 5.0, 10000)
    mu = eta + rng.uniform(0.0, 5.0, 10000)
    t = rng.uniform(1e-6, 10.0, 10000)
    ps = rng.uniform(0.01, 0.99, 10000)
    worst_step = float(np.min(lemma_6_2_step(mu, eta, ps, t).residual))
    rows.append(
        Verdict(
            "8.6-single-step-grid", "6.6", worst_step >= -1e-12, value=worst_step
        )
    )
    return rows


def run_verification(n_max: int, seed: int) -> list[Verdict]:
    """Run every claim group and return their verdicts."""
    rows: list[Verdict] = []
    rows += redheffer_constant_claims(n_max)
    rows += theorem6_floor_claims(seed)
    rows += reverse_machinery_claims(n_max)
    rows += boundary_algebra_claims()
    rows += forward_sample_claims(n_max)
    rows += power_choice_claims(n_max)
    rows += hardy_bracketing_claims(n_max)
    rows += lemma_suite_claims(seed)
    return rows
