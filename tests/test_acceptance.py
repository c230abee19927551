"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
quantified-over-all-n criterion is checked at the stated finite horizon;
this is property-based evidence, not a proof.

Known red: claim ``7.2-cesaro-extremal`` asks the family search for a
Cesaro ratio in (1.9, 2.0) at p = 2 and truncation N = 100000.  No input
can beat the norm of the N x N section, and that norm reaches the sharp
constant 2 only logarithmically in N.  Criterion 7's test therefore does
not ask 7.2 to hold; it certifies why it cannot.
``cesaro_section_norm_bracket`` computes ``[L, U]`` around the section norm
by power iteration with Collatz-Wielandt bounds (independently of
``hardylab``), and the test asserts that 7.2 is red with ``U < 1.9``, that
the found ratio stays below both ``U`` and 2, and that it comes within 5 %
of ``L``.  The stated lower end 1.9 is 0.95 times the supremum 2; at a
finite horizon the supremum is the section norm, so the 5 % is carried
over to ``L``.
"""

import time
from dataclasses import astuple

import numpy as np
import pytest

from hardylab.redheffer import RedhefferParams, k_of_p, solve_x_half
from hardylab.sequences import levin_steckin_sequence
from hardylab.verify import (
    DEFAULT_SEED,
    boundary_algebra_claims,
    forward_sample_claims,
    hardy_bracketing_claims,
    lemma_suite_claims,
    power_choice_claims,
    redheffer_constant_claims,
    reverse_machinery_claims,
    run_verification,
    theorem6_floor_claims,
)

N_MAX = 10000
# claim 7.2's stated truncation and the rounding margin of the section-norm
# bracket; the worst-case relative error of the two cumsums of positive terms
# is about 2 * N * eps, 2e-11 at N = 1e5, far inside the margin (the helper
# refuses any n for which twice that bound exceeds it)
EXTREMAL_N = 100000
SECTION_NORM_RTOL = 1e-12
SECTION_NORM_MAX_ITER = 500
ROUNDING_MARGIN = 1e-9


def cesaro_section_norm_bracket(n):
    """Certified bracket ``(L, U)`` for the l2 norm of the n x n Cesaro section.

    Power iteration on ``M = C^T C``, whose entries are all positive:
    ``C x`` is ``cumsum(x) / k`` and ``C^T y`` the reversed suffix sums of
    ``y / k``.  For a positive iterate ``x`` the Collatz-Wielandt bounds
    ``min_i (M x)_i / x_i <= ||C||_2**2 <= max_i (M x)_i / x_i`` hold (the
    upper one is the Schur test with ``x`` as weights).  Iteration stops
    once the bracket is closed to ``SECTION_NORM_RTOL`` and raises if it is
    not closed within ``SECTION_NORM_MAX_ITER`` steps; both ends are then
    widened by ``ROUNDING_MARGIN``.
    """
    if 4.0 * n * np.finfo(float).eps > ROUNDING_MARGIN:
        raise ValueError(f"rounding margin too small for n={n}")
    k = np.arange(1, n + 1, dtype=float)
    x = np.ones(n)
    for _ in range(SECTION_NORM_MAX_ITER):
        cx = np.cumsum(x) / k
        mx = np.cumsum((cx / k)[::-1])[::-1]
        ratios = mx / x
        lo, hi = np.sqrt(ratios.min()), np.sqrt(ratios.max())
        if hi - lo <= SECTION_NORM_RTOL * lo:
            return (
                float(lo) * (1.0 - ROUNDING_MARGIN),
                float(hi) * (1.0 + ROUNDING_MARGIN),
            )
        x = mx / mx.max()
    raise RuntimeError(
        f"section-norm bracket [{lo!r}, {hi!r}] not closed in "
        f"{SECTION_NORM_MAX_ITER} steps"
    )


def _report(number, label, rows, elapsed, limit=None, note=""):
    ok = all(r.holds for r in rows)
    if limit is not None:
        ok = ok and elapsed < limit
    status = "PASS" if ok else "FAIL"
    failing = ", ".join(r.claim for r in rows if not r.holds)
    suffix = f" failing: {failing}" if failing else ""
    suffix += f"; {note}" if note else ""
    print(f"[acceptance] criterion {number} ({label}): {status} "
          f"({elapsed:.2f}s){suffix}")
    return ok, failing


def test_criterion_1_redheffer_constants():
    start = time.perf_counter()
    rows = redheffer_constant_claims(N_MAX)
    x = solve_x_half(0.4)
    beta = 1.0 - 2.5 * x
    k = k_of_p(RedhefferParams(p=0.5, c=2.5, beta=beta), N_MAX)
    elapsed = time.perf_counter() - start
    ok, failing = _report(1, "recurrent-route constants", rows, elapsed, limit=1.0)
    assert abs(x - 0.2435) < 5e-4
    assert abs(beta - 0.3912) < 5e-4
    assert abs(k - 1.1151) < 1e-3
    assert 1.0 / k > 0.8967
    assert elapsed < 1.0
    assert ok, failing


def test_criterion_2_tail_mean_floor():
    start = time.perf_counter()
    rows = theorem6_floor_claims(DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    ok, failing = _report(2, "tail-mean floor at one half", rows, elapsed, limit=30.0)
    for row in rows:
        assert row.value >= 0.8967 - 1e-9
    assert elapsed < 30.0
    assert ok, failing


def test_criterion_3_reverse_machinery():
    start = time.perf_counter()
    rows = reverse_machinery_claims(N_MAX)
    # identity residual across every index, not a sample
    for p in (0.1, 0.2, 0.25, 1.0 / 3.0):
        seq = levin_steckin_sequence(p, N_MAX).materialize()  # built once
        n = np.arange(1, N_MAX + 1, dtype=float)
        shift = 1.0 / p - 2.0
        ident = (n + shift) / (1.0 + shift) * seq.weights()
        residual = np.max(np.abs(seq.W - ident) / seq.W)
        assert residual <= 1e-12
    elapsed = time.perf_counter() - start
    ok, failing = _report(3, "reverse criterion machinery", rows, elapsed, limit=10.0)
    assert elapsed < 10.0
    assert ok, failing


def test_criterion_4_boundary_algebra():
    start = time.perf_counter()
    rows = boundary_algebra_claims()
    elapsed = time.perf_counter() - start
    ok, failing = _report(4, "feasibility boundary algebra", rows, elapsed)
    by_claim = {r.claim: r for r in rows}
    assert by_claim["4.1-third-equality"].value == pytest.approx(2.0, rel=1e-12)
    assert by_claim["4.2-third-n2-branch"].value == pytest.approx(1.97199, abs=1e-4)
    assert by_claim["4.2-third-n2-branch"].value <= 2.0
    assert ok, failing


def test_criterion_5_forward_samples():
    start = time.perf_counter()
    rows = forward_sample_claims(N_MAX)
    elapsed = time.perf_counter() - start
    ok, failing = _report(5, "forward criterion samples", rows, elapsed, limit=10.0)
    assert elapsed < 10.0
    assert ok, failing


def test_criterion_6_power_choices():
    start = time.perf_counter()
    rows = power_choice_claims(N_MAX)
    elapsed = time.perf_counter() - start
    ok, failing = _report(6, "alternative power choices", rows, elapsed)
    assert ok, failing


def test_criterion_7_hardy_bracketing():
    start = time.perf_counter()
    rows = hardy_bracketing_claims(N_MAX)
    elapsed = time.perf_counter() - start
    lo, hi = cesaro_section_norm_bracket(EXTREMAL_N)
    by_claim = {r.claim: r for r in rows}
    extremal = by_claim.pop("7.2-cesaro-extremal")
    ratio = extremal.value
    certificate = (
        f"best_ratio={ratio:.12f}, ||C_N||_2 in [{lo:.12f}, {hi:.12f}] "
        f"at N={EXTREMAL_N}"
    )
    _report(7, "classic Hardy bracketing", rows, elapsed, limit=60.0,
            note=f"certified red: {certificate}, U < 1.9")
    assert elapsed < 60.0
    assert sorted(by_claim) == [
        "7.1-classic-knopp-p1.25",
        "7.1-classic-knopp-p2",
        "7.1-classic-knopp-p3",
        "7.3-cesaro-cap",
    ]
    failing = [c for c, r in by_claim.items() if not r.holds]
    assert not failing, failing
    # 7.2 asks for a ratio in (1.9, 2.0): within 5 % of the supremum 2.  At
    # a finite horizon the supremum over all inputs is the section norm
    # ||C_N||_2, so the same 5 % is asked of the found ratio against L,
    # while U < 1.9 shows that no input can meet the stated bracket.
    assert ratio < 2.0, certificate
    assert ratio <= hi, certificate
    assert hi < 1.9, certificate
    assert not extremal.holds, certificate
    assert ratio >= 0.95 * lo, certificate


def test_section_norm_bracket_matches_dense_norm():
    for n in (8, 1000):
        lo, hi = cesaro_section_norm_bracket(n)
        section = np.tril(np.ones((n, n))) / np.arange(1, n + 1)[:, None]
        dense = np.linalg.norm(section, 2)
        assert lo <= dense <= hi, (n, lo, dense, hi)
        assert hi - lo <= 3 * ROUNDING_MARGIN * lo
    # the dense-section constant that TestFreeSearchOracle pins
    assert cesaro_section_norm_bracket(8)[0] == pytest.approx(1.37977904, abs=1e-8)


def test_section_norm_rises_below_two():
    # the horizon effect behind 7.2's red verdict: ||C_N||_2 grows with N
    # but stays well below the sharp constant 2
    brackets = [cesaro_section_norm_bracket(n) for n in (10**3, 10**4, 10**5)]
    for (_, hi_a), (lo_b, _) in zip(brackets, brackets[1:]):
        assert hi_a < lo_b
    lo, hi = brackets[-1]
    assert hi < 2.0
    # the section norm the README quotes
    assert round(lo, 4) == round(hi, 4) == 1.8626


def test_criterion_8_lemma_suites():
    start = time.perf_counter()
    rows = lemma_suite_claims(DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    ok, failing = _report(8, "lemma property suites", rows, elapsed, limit=10.0)
    for row in rows:
        if row.value is not None:
            assert row.value >= -1e-12
    assert elapsed < 10.0
    assert ok, failing


def test_verdict_rows_hold_no_arrays_and_render_their_fields():
    # a verdict keeps no per-index array alive until it is rendered, and
    # its index range is not rendered
    rendered = {"claim", "paper_ref", "holds", "value", "min_slack",
                "first_failure", "exploratory", "detail"}
    for row in run_verification(N_MAX, DEFAULT_SEED):
        assert not any(isinstance(v, np.ndarray) for v in astuple(row)), row.claim
        assert row.to_dict().keys() == rendered, row.claim
