import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab.errors import (
    OutOfDomainError,
    PreconditionError,
    TailTruncationWarning,
)
from hardylab.redheffer import (
    RecurrentSequences,
    RedhefferParams,
    balance_solution_half,
    condition_6_49_check,
    condition_6_50_check,
    condition_6_54_check,
    default_beta_grid,
    default_c_grid,
    k_of_p,
    lemma_6_1_residual,
    lemma_6_2_residual,
    lemma_6_2_step,
    scan_params,
    solve_x_half,
)

SQRT2 = math.sqrt(2.0)
BETA_THIRD = 3.0 - 2.0 * SQRT2
THIRD = RedhefferParams(p=1.0 / 3.0, c=2.0, beta=BETA_THIRD)


def first_branch(params):
    return (1.0 + params.c - params.beta) ** (1.0 - params.p)


def second_branch(params, n):
    """n**p ((n + c - beta)**(1-p) - (n - 1 - beta)**(1-p)), evaluated directly."""
    p, c, beta = params.p, params.c, params.beta
    return n**p * ((n + c - beta) ** (1.0 - p) - (n - 1.0 - beta) ** (1.0 - p))


class TestParams:
    def test_validation(self):
        with pytest.raises(OutOfDomainError):
            RedhefferParams(p=1.2, c=1.0, beta=0.0)
        with pytest.raises(OutOfDomainError):
            RedhefferParams(p=0.5, c=-1.0, beta=-1.5)
        with pytest.raises(OutOfDomainError):
            RedhefferParams(p=0.5, c=1.0, beta=1.5)
        with pytest.raises(OutOfDomainError):
            RedhefferParams(p=0.5, c=0.1, beta=0.5)

    def test_derived_quantities(self):
        # the p = 1/2 configuration at c = 2.5: c' = 1/c = 0.4, x = (1 - beta)/c
        sol = balance_solution_half(2.5, 2000)
        assert (sol.params.p, sol.params.c) == (0.5, 2.5)
        assert sol.x == solve_x_half(0.4)
        assert (1.0 - sol.params.beta) / sol.params.c == pytest.approx(sol.x, rel=1e-14)
        assert sol.params.beta == pytest.approx(0.39119099438661153, rel=1e-12)
        assert sol.k == k_of_p(sol.params, 2000)
        assert sol.residual <= 1e-14

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, 1e-300])
    def test_balance_solution_domain(self, c):
        with pytest.raises(OutOfDomainError):
            balance_solution_half(c, 100)


class TestMultiplierSequences:
    def test_ordering_requirements(self):
        mult = RecurrentSequences(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
        mult.require_ordering(0.5)
        with pytest.raises(PreconditionError):
            mult.require_ordering(-1.0)
        rev = RecurrentSequences(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        rev.require_ordering(-1.0)
        with pytest.raises(PreconditionError):
            rev.require_ordering(0.5)
        with pytest.raises(PreconditionError):
            mult.require_ordering(2.0)

    def test_positivity_enforced(self):
        with pytest.raises(PreconditionError):
            RecurrentSequences(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


class TestPartialSumLemma:
    def test_equal_multipliers_hold_trivially(self):
        mult = RecurrentSequences(np.ones(3), np.ones(3))
        res = lemma_6_1_residual(np.ones(3), np.ones(3), mult, 0.5, 3)
        assert res == math.inf

    def test_strictly_ordered_instance(self):
        rng = np.random.default_rng(42)
        a = rng.random(10) + 0.1
        mult = RecurrentSequences(np.full(10, 0.5), np.ones(10))
        assert lemma_6_1_residual(np.ones(10), a, mult, 0.5, 10) >= 0.0

    def test_negative_exponent_regime(self):
        mult = RecurrentSequences(np.full(5, 2.0), np.ones(5))
        res = lemma_6_1_residual(np.ones(5), 1.0 / np.arange(1, 6), mult, -1.0, 5)
        assert res >= 0.0

    def test_hypothesis_ordering_violation_raises(self):
        mult = RecurrentSequences(np.full(4, 2.0), np.ones(4))
        with pytest.raises(PreconditionError):
            lemma_6_1_residual(np.ones(4), np.ones(4), mult, 0.5, 4)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_randomized_instances_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        lam = rng.uniform(0.5, 1.5, n)
        a = rng.uniform(0.5, 1.5, n)
        if seed % 3 == 0:
            p = float(rng.uniform(-2.0, -0.2))
            eta = rng.uniform(0.1, 1.0, n)
            mult = RecurrentSequences(eta + rng.uniform(0.0, 1.0, n), eta)
        else:
            p = float(rng.uniform(0.15, 0.85))
            eta = rng.uniform(0.1, 1.1, n)
            mult = RecurrentSequences(eta * rng.uniform(0.05, 1.0, n), eta)
        assert lemma_6_1_residual(lam, a, mult, p, n) >= -1e-12


class TestTailSumLemma:
    def test_single_step_spot_values(self):
        step = lemma_6_2_step(1.0, 1.0, 0.5, 1.0)
        assert step.lhs == pytest.approx(SQRT2 - 1.0, rel=1e-14)
        assert step.rhs == 0.0
        step = lemma_6_2_step(2.0, 1.0, 0.5, 0.5)
        assert step.lhs == pytest.approx(1.7423829615966304, rel=1e-12)
        assert step.rhs == pytest.approx(math.sqrt(3.0), rel=1e-14)
        assert step.residual >= 0.0

    def test_single_step_preconditions(self):
        with pytest.raises(PreconditionError):
            lemma_6_2_step(1.0, 2.0, 0.5, 1.0)
        with pytest.raises(PreconditionError):
            lemma_6_2_step(2.0, 1.0, 1.5, 1.0)
        with pytest.raises(OutOfDomainError):
            lemma_6_2_step(2.0, 1.0, 0.5, -1.0)

    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=1e-6, max_value=10.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_single_step_property(self, eta, bump, t, p):
        assert lemma_6_2_step(eta + bump, eta, p, t).residual >= -1e-12

    def test_full_inequality_geometric_example(self):
        length = 40
        a = 0.5 ** np.arange(1, length + 1)
        mult = RecurrentSequences(1.0 + 1.0 / np.arange(1, 9), np.ones(8))
        res = lemma_6_2_residual(np.ones(length), a, mult, 1.0 / 3.0, 8)
        assert res == pytest.approx(0.10153373779005515, rel=1e-10)
        assert res >= 0.0

    def test_truncation_warning(self):
        a = 0.5 ** np.arange(1, 7)
        mult = RecurrentSequences(np.full(4, 2.0), np.ones(4))
        with pytest.warns(TailTruncationWarning):
            lemma_6_2_residual(np.ones(6), a, mult, 0.5, 4)

    def test_no_warning_when_tail_negligible(self):
        a = 0.5 ** np.arange(1, 60)
        mult = RecurrentSequences(np.full(4, 2.0), np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", TailTruncationWarning)
            lemma_6_2_residual(np.ones(59), a, mult, 0.5, 4)

    def test_ordering_violation_raises(self):
        a = 0.5 ** np.arange(1, 30)
        mult = RecurrentSequences(np.ones(4), np.full(4, 2.0))
        with pytest.raises(PreconditionError):
            lemma_6_2_residual(np.ones(29), a, mult, 0.5, 4)


class TestFeasibilityConditions:
    def test_slope_condition_cases(self):
        half = RedhefferParams(p=0.5, c=2.5, beta=0.39119099438661153)
        assert condition_6_50_check(half, 1.1152)
        assert not condition_6_50_check(THIRD, 2.0 ** (1.0 / 3.0))
        c34 = 1.0 / 0.34 - 1.0
        p34 = RedhefferParams(p=0.34, c=c34, beta=0.21)
        assert not condition_6_50_check(p34, c34**0.34)

    def test_curvature_condition_cases(self):
        assert condition_6_54_check(1.0 / 3.0, BETA_THIRD)
        assert condition_6_54_check(0.34, 0.21)
        assert not condition_6_54_check(0.34, 0.48)
        with pytest.raises(OutOfDomainError):
            condition_6_54_check(0.6, 0.1)

    def test_two_branch_boundary_configuration(self):
        k3 = 2.0 ** (1.0 / 3.0)
        rep = condition_6_49_check(THIRD, 10000, k3)
        assert rep.holds
        rhs = THIRD.c ** (1.0 - THIRD.p) * k3
        assert abs(first_branch(THIRD) - rhs) <= 1e-12 * rhs
        n2 = second_branch(THIRD, 2.0)
        assert n2 == pytest.approx(1.9720173102012157, rel=1e-9)
        assert n2 <= rhs
        assert not condition_6_50_check(THIRD, k3)

    def test_two_branch_half_configuration(self):
        half = RedhefferParams(p=0.5, c=2.5, beta=0.39119099438661153)
        rep = condition_6_49_check(half, 10000, 1.1152)
        assert rep.holds
        assert condition_6_50_check(half, 1.1152)
        # under the slope condition the n-branch peaks at n = 2, so the
        # n = 2 case decides the whole family
        assert int(np.argmax(second_branch(half, np.arange(2, 10001.0)))) == 0
        assert k_of_p(half, 2) == k_of_p(half, 10000)

    def test_requires_constant(self):
        # k has no default and no second source
        for check in (condition_6_49_check, condition_6_50_check):
            k = inspect.signature(check).parameters["k"]
            assert k.default is inspect.Parameter.empty

    def test_domain_errors(self):
        for k in (0.0, -1.0, math.nan):
            with pytest.raises(OutOfDomainError):
                condition_6_49_check(THIRD, 100, k)
        with pytest.raises(OutOfDomainError):
            condition_6_49_check(THIRD, 1, 1.26)
        with pytest.raises(OutOfDomainError):
            k_of_p(THIRD, 1)


class TestClosedFormSolver:
    def test_reference_values(self):
        x = solve_x_half(0.4)
        assert x == pytest.approx(0.2435, abs=5e-4)
        assert x == pytest.approx(0.24352360224535538, rel=1e-12)
        beta = 1.0 - 2.5 * x
        assert beta == pytest.approx(0.3912, abs=5e-4)
        assert solve_x_half(0.0) == pytest.approx((math.sqrt(128.0) - 10.0) / 14.0)
        with pytest.raises(OutOfDomainError):
            solve_x_half(-0.1)
        # u * u overflows for c' above about 3e153 (c below about 3e-154)
        with pytest.raises(OutOfDomainError, match="overflows"):
            solve_x_half(1e200)

    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_root_satisfies_balance_equation(self, c_prime):
        x = solve_x_half(c_prime)
        lhs = math.sqrt(1.0 + x)
        rhs = SQRT2 * (math.sqrt(1.0 + c_prime + x) - math.sqrt(x))
        assert abs(lhs - rhs) < 1e-12


class TestSmallestConstant:
    def test_half_value(self):
        x = solve_x_half(0.4)
        params = RedhefferParams(p=0.5, c=2.5, beta=1.0 - 2.5 * x)
        k = k_of_p(params, 10000)
        assert k == pytest.approx(1.1151, abs=1e-3)
        assert k == pytest.approx(1.1151338943128557, rel=1e-10)
        assert 1.0 / k > 0.8967

    def test_boundary_value_matches_reverse_constant(self):
        k = k_of_p(THIRD, 10000)
        assert k == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
        assert 1.0 / k == pytest.approx((1.0 / 2.0) ** (1.0 / 3.0), rel=1e-12)

    def test_horizon_stable_under_strict_slope_condition(self):
        x = solve_x_half(0.4)
        params = RedhefferParams(p=0.5, c=2.5, beta=1.0 - 2.5 * x)
        ks = [k_of_p(params, n) for n in (2, 10, 100, 10000)]
        assert max(ks) - min(ks) <= 1e-14


class TestScanner:
    def test_half_grid_reproduces_reference_choice(self):
        res = scan_params(
            0.5,
            c_grid=np.arange(2.3, 2.71, 0.01),
            beta_grid=np.arange(0.30, 0.50, 0.005),
            n_max=2000,
        )
        assert res.best is not None
        assert res.best_k <= 1.1152
        assert res.best_report.holds
        assert res.feasible_count > 0

    def test_p034_grid_recovers_equality_route(self):
        c34 = 1.0 / 0.34 - 1.0
        res = scan_params(
            0.34,
            c_grid=np.arange(c34 - 0.1, c34 + 0.1, 0.005),
            beta_grid=np.arange(0.1, 0.3, 0.005),
            n_max=2000,
        )
        assert res.best is not None
        assert res.best_k == pytest.approx(c34**0.34, rel=1e-9)
        assert res.best_report.holds

    def test_exploratory_scan_records_verdict(self):
        res = scan_params(0.45, n_max=500)
        assert res.best is not None
        assert res.best_report.holds
        assert 0 < res.feasible_count <= res.n_points

    def test_no_feasible_point_is_reported_not_raised(self):
        res = scan_params(0.45, c_grid=[0.05], beta_grid=[0.9], n_max=100)
        assert res.best is None and res.best_k is None
        assert res.feasible_count == 0

    def test_library_grids_run_without_warnings(self):
        # beta above c + 1 makes a branch NaN and c = 0 divides by zero;
        # c = 1e-300 with beta = -1e300 at p = 0.01 overflows k to inf, and
        # such a point must not win the scan and reach the re-check
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nan_k = scan_params(
                0.45, c_grid=[0.5, 2.0, 0.0], beta_grid=[-0.5, 0.5, 3.0], n_max=100
            )
            inf_k = scan_params(0.01, c_grid=[1e-300], beta_grid=[-1e300], n_max=100)
        assert [str(w.message) for w in caught] == []
        assert np.isnan(nan_k.k[0, 2]) and not nan_k.feasible[0, 2]
        assert not nan_k.feasible[2].any()
        assert nan_k.best_report.holds
        assert np.isinf(inf_k.k[0, 0]) and inf_k.feasible_count == 0
        assert inf_k.best is None and inf_k.best_k is None

    def test_row_iteration(self):
        res = scan_params(0.45, c_grid=[1.0, 2.0], beta_grid=[0.0, 0.5], n_max=100)
        betas, *rows = res.iter_rows()
        assert betas == [0.0, 0.5]
        assert [c for c, _, _ in rows] == [1.0, 2.0]
        assert [feasible for _, feasible, _ in rows] == res.feasible.tolist()
        assert [k for _, _, k in rows] == res.k.tolist()
        # plain Python values, whose str is what the CSV rows print
        assert {type(beta) for beta in betas} == {float}
        assert {type(c) for c, _, _ in rows} == {float}
        assert {type(ok) for _, feasible, _ in rows for ok in feasible} == {bool}
        assert {type(k) for _, _, ks in rows for k in ks} == {float}

    @pytest.mark.parametrize("p", [0.34, 0.45, 0.46, 0.5, 0.66, 0.9])
    def test_k_grid_matches_inline_branches(self, p):
        # the scan's k, bit for bit against the n = 2 branches written out
        # inline, on the default grid plus beta at and just above 1; at
        # p = 0.46 and 0.66 numpy's power of 2.0 differs from 2.0**p
        betas = np.concatenate([default_beta_grid(p), [1.0, 1.05]])
        res = scan_params(p, beta_grid=betas, n_max=10)
        C = default_c_grid()[:, None]
        B = betas[None, :]
        e = 1.0 - p
        low = 1.0 - B
        safe_low = np.where(low > 0.0, low, 1.0)
        diff = np.where(
            low > 0.0,
            safe_low**e * np.expm1(e * np.log1p((C + 1.0) / safe_low)),
            (low + C + 1.0) ** e,
        )
        b2 = 2.0**p * diff
        limit = (1.0 - p) * (1.0 + C)
        with np.errstate(invalid="ignore"):
            k = np.maximum(np.maximum((1.0 + C - B) ** e, b2), limit) / C**e
        assert res.k.tobytes() == k.tobytes()

    def test_default_grids(self):
        cs = default_c_grid()
        assert cs[0] == pytest.approx(0.1)
        assert cs[-1] == pytest.approx(10.0)
        betas = default_beta_grid(0.34)
        assert betas[0] == pytest.approx(-1.0)
        assert betas[-1] < 1.0 / 0.68 - 1.0
        assert default_beta_grid(0.5)[-1] < 1.0


class TestRouteEquivalence:
    @pytest.mark.parametrize("p", [1.25, 2.0])
    def test_per_index_criterion_yields_finite_mean_bound(self, p):
        # once the per-index criterion holds with constant U, the plain
        # finite inequality sum A_i**p <= U sum a_i**p must follow
        from hardylab.criteria import classic_forward_constant, knopp_criterion_check
        from hardylab.sequences import knopp_sequence, power_aux_sequence

        U = classic_forward_constant(p)
        rep = knopp_criterion_check(
            knopp_sequence(p, 0.0, 101), power_aux_sequence(0.0, 101), p, U, 100
        )
        assert rep.holds
        rng = np.random.default_rng(7)
        for _ in range(100):
            length = int(rng.integers(1, 51))
            a = rng.random(length)
            A = np.cumsum(a) / np.arange(1, length + 1)
            lhs = math.fsum((A**p).tolist())
            rhs = U * math.fsum((a**p).tolist())
            assert lhs <= rhs * (1.0 + 1e-12)


class TestTailMeanFloorConsequence:
    def test_seeded_random_sequences(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            a = rng.random(1000)
            tails = np.cumsum(a[::-1])[::-1]
            lhs = math.fsum(np.sqrt(tails / np.arange(1, 1001)).tolist())
            rhs = 0.8967 * math.fsum(np.sqrt(a).tolist())
            assert lhs >= rhs * (1.0 - 1e-12)
