import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardylab.compsum import neumaier_prefix_sums, neumaier_suffix_sums
from hardylab.errors import TailTruncationWarning, WorkbenchError
from hardylab.redheffer import (
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
from hardylab.reports import Tolerances, build_report

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
        with pytest.raises(WorkbenchError, match=r"p must lie in \(0, 1\), got 1.2"):
            RedhefferParams(p=1.2, c=1.0, beta=0.0)
        with pytest.raises(WorkbenchError, match="c must be positive, got -1.0"):
            RedhefferParams(p=0.5, c=-1.0, beta=-1.5)
        with pytest.raises(WorkbenchError, match="beta must be <= 1, got 1.5"):
            RedhefferParams(p=0.5, c=1.0, beta=1.5)
        with pytest.raises(WorkbenchError, match="need c >= beta, got c=0.1 < 0.5"):
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
        with pytest.raises(WorkbenchError, match="c must be positive|root overflows"):
            balance_solution_half(c, 100)


class TestMultiplierSequences:
    def test_ordering_requirements(self):
        ones, low, high = np.ones(3), np.full(2, 0.5), np.full(2, 2.0)
        lemma_6_1_residual(ones, ones, low, ones, 0.5, 2)
        with pytest.raises(WorkbenchError, match="p < 0 requires mu_i >= eta_i"):
            lemma_6_1_residual(ones, ones, low, ones, -1.0, 2)
        lemma_6_1_residual(ones, ones, high, ones, -1.0, 2)
        with pytest.raises(WorkbenchError, match="0 < p < 1 requires mu_i <= eta_i"):
            lemma_6_1_residual(ones, ones, high, ones, 0.5, 2)
        with pytest.raises(WorkbenchError, match="regime needs p < 1, p != 0; got 2.0"):
            lemma_6_1_residual(ones, ones, low, ones, 2.0, 2)
        with pytest.raises(WorkbenchError, match="regime needs p < 1, p != 0; got 0.0"):
            lemma_6_1_residual(ones, ones, low, ones, 0.0, 2)
        # entries past the horizon are not read
        longer = np.array([0.5, 0.5, 2.0])
        lemma_6_1_residual(ones, ones, longer, ones, 0.5, 2)
        with pytest.raises(WorkbenchError, match="0 < p < 1 requires mu_i <= eta_i"):
            lemma_6_1_residual(ones, ones, longer, ones, 0.5, 3)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (0.0, "must be positive and long enough"),
            (-1.0, "must be positive and long enough"),
            (None, "must be positive and long enough"),  # one entry short
            (math.nan, "must be finite"),
            (math.inf, "must be finite"),
        ],
        ids=["zero", "negative", "short", "nan", "inf"],
    )
    @pytest.mark.parametrize("which", ["mu", "eta"])
    def test_positivity_enforced(self, which, bad, message):
        # the multipliers are checked like lambda and a, in both lemmas
        for lemma, lam, a, mu in (
            (lemma_6_1_residual, np.ones(3), np.ones(3), [0.5, 0.5, 0.5]),
            (lemma_6_2_residual, np.ones(40), 0.5 ** np.arange(40), [2.0, 2.0, 2.0]),
        ):
            mult = {"mu": mu, "eta": [1.0, 1.0, 1.0]}
            mult[which] = mult[which][:2] if bad is None else [1.0, bad, 1.0]
            with pytest.raises(WorkbenchError, match=f"^{which} {message}$"):
                lemma(lam, a, mult["mu"], mult["eta"], 0.5, 3)


class TestPartialSumLemma:
    def test_equal_multipliers_hold_trivially(self):
        ones = np.ones(3)
        res = lemma_6_1_residual(ones, ones, ones, ones, 0.5, 3)
        assert res == math.inf

    def test_strictly_ordered_instance(self):
        rng = np.random.default_rng(42)
        a = rng.random(10) + 0.1
        mu, eta = np.full(10, 0.5), np.ones(10)
        assert lemma_6_1_residual(np.ones(10), a, mu, eta, 0.5, 10) >= 0.0

    def test_negative_exponent_regime(self):
        a = 1.0 / np.arange(1, 6)
        res = lemma_6_1_residual(np.ones(5), a, np.full(5, 2.0), np.ones(5), -1.0, 5)
        assert res >= 0.0

    def test_hypothesis_ordering_violation_raises(self):
        ones = np.ones(4)
        with pytest.raises(WorkbenchError, match="0 < p < 1 requires mu_i <= eta_i"):
            lemma_6_1_residual(ones, ones, np.full(4, 2.0), ones, 0.5, 4)

    def test_multipliers_past_the_horizon_are_not_read(self):
        # mu_3 > eta_3 breaks the ordering, a NaN mu_3 or a missing eta_3
        # is no multiplier, but horizon 2 reads and checks only i <= 2
        ones = np.ones(3)
        want = lemma_6_1_residual(ones, ones, [0.5, 0.5], [1.0, 1.0], 0.5, 2)
        assert want.hex() == (0.0).hex()
        for mu, eta in (
            ([0.5, 0.5, 2.0], [1.0, 1.0, 1.0]),
            ([0.5, 0.5, math.nan], [1.0, 1.0]),
        ):
            got = lemma_6_1_residual(ones, ones, mu, eta, 0.5, 2)
            assert got.hex() == want.hex()

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
            mu = eta + rng.uniform(0.0, 1.0, n)
        else:
            p = float(rng.uniform(0.15, 0.85))
            eta = rng.uniform(0.1, 1.1, n)
            mu = eta * rng.uniform(0.05, 1.0, n)
        assert lemma_6_1_residual(lam, a, mu, eta, p, n) >= -1e-12

    def test_residual_matches_python_float_expression(self):
        # both regimes, some with mu = eta: a +inf coefficient for 0 < p < 1
        # and a zero one for p < 0
        rng = np.random.default_rng(5)
        for i in range(40):
            n = int(rng.integers(2, 20))
            lam = rng.uniform(0.5, 1.5, n)
            a = rng.uniform(0.5, 1.5, n)
            eta = rng.uniform(0.1, 1.1, n)
            bump = rng.uniform(0.0, 1.0, n) * (i % 3 != 0)  # some mu = eta
            if i % 2:
                p, mu = float(rng.uniform(-2.0, -0.2)), eta + bump
            else:
                p, mu = float(rng.uniform(0.15, 0.85)), eta / (1.0 + bump)
            got = lemma_6_1_residual(lam, a, mu, eta, p, n)
            assert got.hex() == partial_residual_oracle(lam, a, mu, eta, p, n).hex()


def partial_residual_oracle(lam, a, mu, eta, p, n):
    """lemma_6_1_residual as Python float expressions, with the coefficient
    C_i = (mu_i**q - eta_i**q)**(1/q) formed once per i."""
    lam_a = (lam * a).tolist()
    S = neumaier_prefix_sums(lam * a).tolist()
    q = p / (p - 1.0)
    mu, eta = mu.tolist(), eta.tolist()
    C = [m**q - h**q for m, h in zip(mu, eta)]  # C[i - 1] is C_i
    C = [d ** (1.0 / q) if d else (math.inf if q < 0.0 else 0.0) for d in C]
    lhs = mu[n - 1] * S[n - 1] ** (1.0 / p)
    for i in range(2, n):
        lhs += (mu[i - 1] - C[i]) * S[i - 1] ** (1.0 / p)
    rhs = C[1] * lam_a[0] ** (1.0 / p)
    rhs += math.fsum(eta[i] * lam_a[i] ** (1.0 / p) for i in range(1, n))
    return rhs - lhs


class TestTailSumLemma:
    def test_single_step_spot_values(self):
        step = lemma_6_2_step(1.0, 1.0, 0.5, 1.0)
        assert step.lhs[0] == pytest.approx(SQRT2 - 1.0, rel=1e-14)
        assert step.rhs[0] == 0.0
        step = lemma_6_2_step(2.0, 1.0, 0.5, 0.5)
        assert step.lhs[0] == pytest.approx(1.7423829615966304, rel=1e-12)
        assert step.rhs[0] == pytest.approx(math.sqrt(3.0), rel=1e-14)
        assert step.residual[0] >= 0.0

    def test_single_step_preconditions(self):
        with pytest.raises(WorkbenchError, match="needs mu >= eta > 0"):
            lemma_6_2_step(1.0, 2.0, 0.5, 1.0)
        with pytest.raises(WorkbenchError, match="needs 0 < p < 1, got 1.5"):
            lemma_6_2_step(2.0, 1.0, 1.5, 1.0)
        with pytest.raises(WorkbenchError, match="t must be nonnegative"):
            lemma_6_2_step(2.0, 1.0, 0.5, -1.0)

    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=1e-6, max_value=10.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_single_step_property(self, eta, bump, t, p):
        assert lemma_6_2_step(eta + bump, eta, p, t).residual[0] >= -1e-12

    def test_full_inequality_geometric_example(self):
        length = 40
        a = 0.5 ** np.arange(1, length + 1)
        mu = 1.0 + 1.0 / np.arange(1, 9)
        res = lemma_6_2_residual(np.ones(length), a, mu, np.ones(8), 1.0 / 3.0, 8)
        assert res == pytest.approx(0.10153373779005515, rel=1e-10)
        assert res >= 0.0

    def test_truncation_warning(self):
        a = 0.5 ** np.arange(1, 7)
        with pytest.warns(TailTruncationWarning):
            lemma_6_2_residual(np.ones(6), a, np.full(4, 2.0), np.ones(4), 0.5, 4)

    def test_no_warning_when_tail_negligible(self):
        a = 0.5 ** np.arange(1, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TailTruncationWarning)
            lemma_6_2_residual(np.ones(59), a, np.full(4, 2.0), np.ones(4), 0.5, 4)

    def test_ordering_violation_raises(self):
        a = 0.5 ** np.arange(1, 30)
        with pytest.raises(WorkbenchError, match="tail-sum regime requires mu_i >="):
            lemma_6_2_residual(np.ones(29), a, np.ones(4), np.full(4, 2.0), 0.5, 4)

    def test_multipliers_past_the_horizon_are_not_read(self):
        # mu_3 < eta_3 breaks the ordering, a missing mu_3 or a zero eta_3
        # is no multiplier, but horizon 2 reads and checks only i <= 2
        lam, a = np.ones(40), 0.5 ** np.arange(40)
        want = lemma_6_2_residual(lam, a, [2.0, 2.0], [1.0, 1.0], 0.5, 2)
        assert want.hex() == (0.16452466459987436).hex()
        for mu, eta in (
            ([2.0, 2.0, 0.5], [1.0, 1.0, 1.0]),
            ([2.0, 2.0], [1.0, 1.0, 0.0]),
        ):
            got = lemma_6_2_residual(lam, a, mu, eta, 0.5, 2)
            assert got.hex() == want.hex()
        with pytest.raises(WorkbenchError, match="mu_i >= eta_i"):
            lemma_6_2_residual(lam, a, [2.0, 2.0, 0.5], [1.0, 1.0, 1.0], 0.5, 3)

    def test_residual_matches_python_float_expression(self):
        # D_1..D_n come from one array pass with the bits of the scalar
        # expression, a negative rounded base clamped to 0
        rng = np.random.default_rng(3)
        for i in range(40):
            n = int(rng.integers(2, 20))
            length = n + 40
            lam = rng.uniform(0.5, 1.5, length)
            a = rng.uniform(0.5, 1.5, length) * 0.5 ** np.arange(length)
            p = float(rng.uniform(0.05, 0.95))
            eta = rng.uniform(0.1, 1.1, n)
            mu = eta + rng.uniform(0.0, 1.0, n) * (i % 3 != 0)  # some mu = eta
            got = lemma_6_2_residual(lam, a, mu, eta, p, n)
            assert got.hex() == tail_residual_oracle(lam, a, mu, eta, p, n).hex()

    @pytest.mark.parametrize("mu, p", [(1e4, 0.99), (1e300, 0.5)])
    def test_gap_overflow_is_a_domain_error(self, mu, p):
        a = 0.5 ** np.arange(1, 60)
        with pytest.raises(WorkbenchError, match="overflows"):
            lemma_6_2_residual(np.ones(59), a, np.full(3, mu), np.ones(3), p, 3)
        with pytest.raises(WorkbenchError, match="overflows"):
            lemma_6_2_step(mu, 1.0, p, 1.0)


def tail_residual_oracle(lam, a, mu, eta, p, n):
    """lemma_6_2_residual as Python float expressions, D_i one at a time."""
    tails = neumaier_suffix_sums(lam * a).tolist()
    S = [*tails, 0.0]  # S[k - 1] is S_k
    e = 1.0 / (1.0 - p)
    mu, eta, lam, a = mu.tolist(), eta.tolist(), lam.tolist(), a.tolist()
    D = [max(m**e - h**e, 0.0) ** (1.0 - p) for m, h in zip(mu, eta)]
    lhs = mu[0] * S[0] ** p - D[n - 1] * S[n] ** p
    lhs += math.fsum((mu[i - 1] - D[i - 2]) * S[i - 1] ** p for i in range(2, n + 1))
    rhs = math.fsum(eta[i] * lam[i] ** p * a[i] ** p for i in range(n))
    return lhs - rhs


def step_oracle(mu, eta, p, t):
    """The single-step bound as one Python float expression: the reference
    every element of an array lemma_6_2_step must reproduce bit for bit."""
    lhs = mu * (1.0 + t) ** p - eta * t**p
    base = mu ** (1.0 / (1.0 - p)) - eta ** (1.0 / (1.0 - p))
    rhs = max(base, 0.0) ** (1.0 - p)
    return lhs, rhs, lhs - rhs


# mu = eta + bump stays below 2, so mu**(1/(1-p)) is finite for p <= 0.999
STEP_CASES = st.lists(
    st.tuples(
        st.floats(0.01, 1.0),
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)),  # 0 is mu == eta
        st.one_of(
            st.floats(1e-12, 1e-3), st.floats(0.01, 0.99), st.floats(0.99, 0.999)
        ),
        st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    ),
    min_size=1,
    max_size=40,
)


class TestStepArrays:
    @settings(max_examples=200, deadline=None)
    @given(STEP_CASES)
    @example([(0.5, 0.0, 0.5, 0.0)])  # length 1: mu == eta at t = 0
    @example([(1.0, 1.0, 1e-12, 3.0), (0.3, 0.0, 0.999, 10.0)])
    def test_array_matches_scalar_oracle(self, cases):
        eta = np.array([c[0] for c in cases])
        mu = eta + np.array([c[1] for c in cases])
        p = np.array([c[2] for c in cases])
        t = np.array([c[3] for c in cases])
        got = lemma_6_2_step(mu, eta, p, t)
        for field in got:
            assert isinstance(field, np.ndarray) and field.shape == (len(cases),)
        for i, args in enumerate(zip(mu.tolist(), eta.tolist(), p.tolist(), t.tolist())):
            want = step_oracle(*args)
            assert [float(f[i]).hex() for f in got] == [w.hex() for w in want], args

    def test_float_input_returns_length_one_arrays(self):
        step = lemma_6_2_step(2.0, 1.0, 0.5, 0.5)
        assert all(isinstance(f, np.ndarray) and f.shape == (1,) for f in step)
        assert [f[0].hex() for f in step] == [w.hex() for w in step_oracle(2.0, 1.0, 0.5, 0.5)]

    def test_floats_broadcast_against_arrays(self):
        t = np.array([0.0, 0.5, 2.0])
        got = lemma_6_2_step(2.0, 1.0, 0.5, t)
        for i, tt in enumerate(t.tolist()):
            assert got.residual[i].hex() == lemma_6_2_step(2.0, 1.0, 0.5, tt).residual[0].hex()

    def test_shape_errors(self):
        with pytest.raises(WorkbenchError, match="equal lengths"):
            lemma_6_2_step(np.full(3, 2.0), np.ones(2), 0.5, 1.0)
        with pytest.raises(WorkbenchError, match="1-d arrays"):
            lemma_6_2_step(np.full((2, 2), 2.0), 1.0, 0.5, 1.0)

    def test_array_preconditions_name_the_value(self):
        with pytest.raises(WorkbenchError, match="got 1.5"):
            lemma_6_2_step(2.0, 1.0, np.array([0.5, 1.5]), 1.0)
        with pytest.raises(WorkbenchError, match="mu >= eta"):
            lemma_6_2_step(np.array([2.0, 0.5]), 1.0, 0.5, 1.0)
        with pytest.raises(WorkbenchError, match="nonnegative"):
            lemma_6_2_step(2.0, 1.0, 0.5, np.array([1.0, -1e-300]))


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 0.5, 0.5, math.nan),
            (math.inf, 1.0, 0.5, 1.0),
            (2.0, 1.0, 0.5, math.inf),
            (2.0, 1.0, math.nan, 1.0),
            (np.array([2.0, math.nan]), 1.0, 0.5, 1.0),
        ],
    )
    def test_step(self, args):
        with pytest.raises(WorkbenchError, match="finite"):
            lemma_6_2_step(*args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("which", ["lam", "a"])
    def test_partial_sum_lemma(self, which, bad):
        x = np.ones(4)
        x[2] = bad
        lam, a = (x, np.ones(4)) if which == "lam" else (np.ones(4), x)
        with pytest.raises(WorkbenchError, match="finite"):
            lemma_6_1_residual(lam, a, np.full(4, 0.5), np.ones(4), 0.5, 4)

    @pytest.mark.parametrize(
        "lam, mu, eta, p",
        [
            (1.0, 1e-5, 2e-5, 0.99),  # mu**q with q = -99
            (1e10, 0.5, 1.0, 0.01),  # S**(1/p) with 1/p = 100
        ],
        ids=["multiplier-power", "sum-power"],
    )
    def test_partial_sum_lemma_power_overflow(self, lam, mu, eta, p):
        # these powers used to overflow to inf inside numpy, with warnings,
        # and the residual came out NaN
        x, mu, eta = np.full(4, lam), np.full(4, mu), np.full(4, eta)
        with pytest.raises(WorkbenchError, match="overflows the float range"):
            lemma_6_1_residual(x, x, mu, eta, p, 4)

    @pytest.mark.parametrize(
        "x, mu",
        [
            (1e200, 0.5),  # lam a overflows: inf - inf
            (1e-200, 1.0),  # lam a underflows to 0 under an inf coefficient
        ],
        ids=["product-overflow", "product-underflow"],
    )
    def test_partial_sum_lemma_product_out_of_range(self, x, mu):
        x, mu = np.full(4, x), np.full(4, mu)
        with pytest.raises(WorkbenchError, match="positive and finite"):
            lemma_6_1_residual(x, x, mu, np.ones(4), 0.5, 4)

    def test_partial_sum_lemma_exponent(self):
        ones = np.ones(4)
        with pytest.raises(WorkbenchError, match="finite"):
            lemma_6_1_residual(ones, ones, np.full(4, 2.0), ones, -math.inf, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("which", ["lam", "a"])
    def test_tail_sum_lemma(self, which, bad):
        x = 0.5 ** np.arange(1, 60)
        x[2] = bad
        lam, a = (x, 0.5 ** np.arange(1, 60)) if which == "lam" else (np.ones(59), x)
        with pytest.raises(WorkbenchError, match="finite"):
            lemma_6_2_residual(lam, a, np.full(4, 2.0), np.ones(4), 0.5, 4)

    @pytest.mark.parametrize(
        "lam, scale",
        [
            (1e200, 1e200),  # lam a overflows: NaN, after a numpy warning
            (1e300, 1e10),  # lam a overflows from a small a: NaN
            (1e-200, 1e-200),  # lam a underflows to 0: a false violation
        ],
        ids=["product-overflow", "large-lambda", "product-underflow"],
    )
    def test_tail_sum_lemma_product_out_of_range(self, lam, scale):
        a = scale * 0.5 ** np.arange(40)
        lam, mu, eta = np.full(40, lam), np.full(4, 2.0), np.ones(4)
        with pytest.raises(WorkbenchError, match="lam_i a_i and their sum must be"):
            lemma_6_2_residual(lam, a, mu, eta, 0.5, 4)

    def test_step_gap_overflow_comes_before_the_powers(self):
        # mu (1+t)**p used to overflow in numpy, with a warning, first
        with pytest.raises(WorkbenchError, match=r"mu\*\*\(1/\(1-p\)\) overflows"):
            lemma_6_2_step(1e300, 1e300, 0.5, 1e300)


class TestFeasibilityConditions:
    def test_slope_condition_cases(self):
        half = RedhefferParams(p=0.5, c=2.5, beta=0.39119099438661153)
        assert condition_6_50_check(half.p, half.c, 1.1152)
        assert not condition_6_50_check(THIRD.p, THIRD.c, 2.0 ** (1.0 / 3.0))
        c34 = 1.0 / 0.34 - 1.0
        p34 = RedhefferParams(p=0.34, c=c34, beta=0.21)
        assert not condition_6_50_check(p34.p, p34.c, c34**0.34)

    def test_curvature_condition_cases(self):
        assert condition_6_54_check(1.0 / 3.0, BETA_THIRD)
        assert condition_6_54_check(0.34, 0.21)
        assert not condition_6_54_check(0.34, 0.48)
        with pytest.raises(WorkbenchError, match="needs 0 < p < 1/2, got 0.6"):
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
        assert not condition_6_50_check(THIRD.p, THIRD.c, k3)

    def test_two_branch_half_configuration(self):
        half = RedhefferParams(p=0.5, c=2.5, beta=0.39119099438661153)
        rep = condition_6_49_check(half, 10000, 1.1152)
        assert rep.holds
        assert condition_6_50_check(half.p, half.c, 1.1152)
        # under the slope condition the n-branch peaks at n = 2, so the
        # n = 2 case decides the whole family
        assert int(np.argmax(second_branch(half, np.arange(2, 10001.0)))) == 0
        assert k_of_p(half, 2) == k_of_p(half, 10000)

    def test_scalar_bound_matches_per_index_bound(self, with_slacks):
        # the check converts tol_abs through one log of its constant bound;
        # the verdicts equal those of that log repeated per index, over
        # tol_abs values on both sides of the one that clears n = 2
        half = RedhefferParams(p=0.5, c=2.5, beta=0.39119099438661153)
        k = k_of_p(half, 200) * (1.0 - 1e-9)
        log_rhs = math.log(half.c ** (1.0 - half.p) * k)
        verdicts = []
        for tol_abs in np.linspace(1.7e-9, 1.8e-9, 41).tolist():
            tol = Tolerances(tol_abs=tol_abs)
            got, slacks = with_slacks(condition_6_49_check, half, 200, k, tol)
            want = build_report(
                got.claim, "6.49", 2, slacks, strict=False, tol=tol,
                log_rhs=np.full(len(slacks), log_rhs),
            )
            assert got == want
            assert got.min_slack.hex() == want.min_slack.hex()
            verdicts.append(got.holds)
        assert False in verdicts and True in verdicts

    def test_requires_constant(self):
        # k has no default and no second source
        for check in (condition_6_49_check, condition_6_50_check):
            k = inspect.signature(check).parameters["k"]
            assert k.default is inspect.Parameter.empty

    def test_domain_errors(self):
        for k in (0.0, -1.0, math.nan):
            with pytest.raises(WorkbenchError, match=f"k must be positive, got {k}"):
                condition_6_49_check(THIRD, 100, k)
        with pytest.raises(WorkbenchError, match="need n_max >= 2"):
            condition_6_49_check(THIRD, 1, 1.26)
        with pytest.raises(WorkbenchError, match="need n_max >= 2"):
            k_of_p(THIRD, 1)


class TestClosedFormSolver:
    def test_reference_values(self):
        x = solve_x_half(0.4)
        assert x == pytest.approx(0.2435, abs=5e-4)
        assert x == pytest.approx(0.24352360224535538, rel=1e-12)
        beta = 1.0 - 2.5 * x
        assert beta == pytest.approx(0.3912, abs=5e-4)
        assert solve_x_half(0.0) == pytest.approx((math.sqrt(128.0) - 10.0) / 14.0)
        with pytest.raises(WorkbenchError, match="c' must be nonnegative"):
            solve_x_half(-0.1)
        # u * u overflows for c' above about 3e153 (c below about 3e-154)
        with pytest.raises(WorkbenchError, match="overflows"):
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
        from hardylab.criteria import knopp_criterion_check, weighted_mean_constant
        from hardylab.sequences import knopp_sequence

        U = weighted_mean_constant(p, 0.0)
        rep = knopp_criterion_check(knopp_sequence(p, 0.0, 101), p, U=U)
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
