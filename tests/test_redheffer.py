import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import array_oracles as oracle
from hardylab import redheffer, verify
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

    @pytest.mark.parametrize(
        "lemma, inputs",
        [
            (lemma_6_1_residual, (np.ones(3), np.ones(3), np.full(3, 0.5), np.ones(3))),
            (
                lemma_6_2_residual,
                (np.ones(40), 0.5 ** np.arange(40), np.full(3, 2.0), np.ones(3)),
            ),
        ],
        ids=["6.1", "6.5"],
    )
    @pytest.mark.parametrize("shape", ["float", "2-d"])
    @pytest.mark.parametrize("which", ["lam", "a", "mu", "eta"])
    def test_non_1d_input_is_rejected(self, which, shape, lemma, inputs):
        # named by the lemma, not left to numpy's indexing or broadcasting
        args = dict(zip(("lam", "a", "mu", "eta"), inputs))
        x = args[which]
        args[which] = float(x[0]) if shape == "float" else np.stack([x, x], axis=1)
        name = "lambda" if which == "lam" else which
        with pytest.raises(WorkbenchError, match=f"^{name} must be a 1-d array$"):
            lemma(*args.values(), 0.5, 3)


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


def step_at(mu, eta, p, t):
    """lemma_6_2_step at one point, each float passed as a length-1 array."""
    return lemma_6_2_step(*(np.array([x]) for x in (mu, eta, p, t)))


class TestTailSumLemma:
    def test_single_step_spot_values(self):
        # mu = eta: the gap is 0 and the residual is the whole LHS
        assert step_at(1.0, 1.0, 0.5, 1.0)[0] == pytest.approx(SQRT2 - 1.0, rel=1e-14)
        # LHS 1.7423829615966304 against the gap sqrt(3)
        residual = step_at(2.0, 1.0, 0.5, 0.5)[0]
        assert residual == pytest.approx(1.7423829615966304 - math.sqrt(3.0), rel=1e-9)
        assert residual >= 0.0

    def test_single_step_preconditions(self):
        with pytest.raises(WorkbenchError, match="needs mu >= eta > 0"):
            step_at(1.0, 2.0, 0.5, 1.0)
        with pytest.raises(WorkbenchError, match="needs mu >= eta > 0"):
            step_at(1.0, 0.0, 0.5, 1.0)
        with pytest.raises(WorkbenchError, match="needs 0 < p < 1, got 1.5"):
            step_at(2.0, 1.0, 1.5, 1.0)
        with pytest.raises(WorkbenchError, match="t must be nonnegative"):
            step_at(2.0, 1.0, 0.5, -1.0)

    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=1e-6, max_value=10.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_single_step_property(self, eta, bump, t, p):
        assert step_at(eta + bump, eta, p, t)[0] >= -1e-12

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
            step_at(mu, 1.0, p, 1.0)


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
    """The single-step residual as one Python float expression: the
    reference every element of lemma_6_2_step must reproduce bit for bit."""
    lhs = mu * (1.0 + t) ** p - eta * t**p
    base = mu ** (1.0 / (1.0 - p)) - eta ** (1.0 / (1.0 - p))
    rhs = max(base, 0.0) ** (1.0 - p)
    return lhs - rhs


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
        assert isinstance(got, np.ndarray) and got.shape == (len(cases),)
        for i, args in enumerate(zip(mu.tolist(), eta.tolist(), p.tolist(), t.tolist())):
            assert float(got[i]).hex() == step_oracle(*args).hex(), args

    @pytest.mark.parametrize(
        "args",
        [
            (2.0, 1.0, 0.5, 0.5),
            (np.array(2.0), np.array(1.0), np.array(0.5), np.array(0.5)),
            (np.full(2, 2.0), np.ones(2), np.full(2, 0.5), np.ones((2, 1))),
            (np.full((2, 2), 2.0), np.ones((2, 2)), np.full((2, 2), 0.5),
             np.ones((2, 2))),
            (np.full(3, 2.0), np.ones(2), np.full(3, 0.5), np.ones(3)),
        ],
        ids=["floats", "0-d", "one-2-d", "all-2-d", "unequal-lengths"],
    )
    def test_shape_errors(self, args):
        with pytest.raises(WorkbenchError, match="1-d arrays of one length"):
            lemma_6_2_step(*args)

    def test_array_preconditions_name_the_value(self):
        two, one, half = np.full(2, 2.0), np.ones(2), np.full(2, 0.5)
        with pytest.raises(WorkbenchError, match="got 1.5"):
            lemma_6_2_step(two, one, np.array([0.5, 1.5]), one)
        with pytest.raises(WorkbenchError, match="mu >= eta"):
            lemma_6_2_step(np.array([2.0, 0.5]), one, half, one)
        with pytest.raises(WorkbenchError, match="nonnegative"):
            lemma_6_2_step(two, one, half, np.array([1.0, -1e-300]))


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "args",
        [
            ([1.0], [0.5], [0.5], [math.nan]),
            ([math.inf], [1.0], [0.5], [1.0]),
            ([2.0], [1.0], [0.5], [math.inf]),
            ([2.0], [1.0], [math.nan], [1.0]),
            ([2.0, math.nan], [1.0, 1.0], [0.5, 0.5], [1.0, 1.0]),
        ],
    )
    def test_step(self, args):
        with pytest.raises(WorkbenchError, match="finite"):
            lemma_6_2_step(*(np.array(x) for x in args))

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
            step_at(1e300, 1e300, 0.5, 1e300)


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
        assert res.verdict.value <= 1.1152
        assert res.verdict.holds
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
        assert res.verdict.value == pytest.approx(c34**0.34, rel=1e-9)
        assert res.verdict.holds

    def test_exploratory_scan_records_verdict(self):
        res = scan_params(0.45, n_max=500)
        assert res.best is not None
        assert res.verdict.holds
        assert 0 < res.feasible_count <= res.n_points

    def test_no_feasible_point_is_reported_not_raised(self):
        res = scan_params(0.45, c_grid=[0.05], beta_grid=[0.9], n_max=100)
        assert res.best is None and res.verdict.value is None
        assert not res.verdict.holds
        assert res.verdict.detail == "no feasible point among 1"
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
        assert nan_k.verdict.holds
        assert np.isinf(inf_k.k[0, 0]) and inf_k.feasible_count == 0
        assert inf_k.best is None and inf_k.verdict.value is None

    @pytest.mark.parametrize(
        "p, tol", [(0.45, Tolerances()), (0.7, Tolerances(tol_rel=1e10))],
        ids=["feasible", "no-feasible-point"],
    )
    def test_n_max_is_checked_before_the_grid(self, monkeypatch, p, tol):
        # n_max = 1 is rejected whether or not a point would reach the
        # re-check, and before any branch of the grid is formed
        formed = []

        def spy(*args):
            formed.append(args)
            return second_branch(*args)

        second_branch = redheffer._second_branch
        monkeypatch.setattr(redheffer, "_second_branch", spy)
        with pytest.raises(WorkbenchError, match="need n_max >= 2"):
            scan_params(p, n_max=1, tol=tol)
        assert formed == []
        scan_params(p, n_max=2, tol=tol)
        assert formed  # the spy sees the grid's branch

    @pytest.mark.parametrize("p", [0.34, 0.45])
    def test_peak_memory(self, traced_peak, p):
        # k's buffer holds each step of the grid in turn, and a branch or
        # the slope threshold is formed in two more; the masks add about a
        # quarter: 3.26 x k's bytes on the default grid (6.26 with a new
        # array per step)
        k = scan_params(p, n_max=100).k
        peak = traced_peak(scan_params, p, n_max=100)
        assert peak <= 3.5 * k.nbytes

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


def stack_of(columns, rows: int, fill: float) -> np.ndarray:
    """The 1-d arrays as the columns of a (rows, m) stack, ``fill`` past
    each one's end."""
    out = np.full((rows, len(columns)), fill)
    for j, x in enumerate(columns):
        out[: len(x), j] = x
    return out


def partial_instance(n: int, seed: int, negative: bool, equal: bool):
    """(lam, a, mu, eta, p) of the partial-sum lemma at horizon n: p < 0 or
    0 < p < 1, and mu = eta (a zero or an inf coefficient) if ``equal``."""
    rng = np.random.default_rng(seed)
    lam, a = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
    eta = rng.uniform(0.1, 1.1, n)
    bump = 0.0 if equal else rng.uniform(0.0, 1.0, n)
    if negative:
        return lam, a, eta + bump, eta, float(rng.uniform(-2.0, -0.2))
    return lam, a, eta / (1.0 + bump), eta, float(rng.uniform(0.15, 0.85))


def tail_instance(n: int, extra: int, seed: int, equal: bool):
    """(lam, a, mu, eta, p) of the tail-sum lemma at horizon n, with a
    support of n + extra entries."""
    rng = np.random.default_rng(seed)
    length = n + extra
    lam = rng.uniform(0.5, 1.5, length)
    a = rng.uniform(0.5, 1.5, length) * 0.5 ** np.arange(length)
    eta = rng.uniform(0.1, 1.1, n)
    mu = eta + (0.0 if equal else rng.uniform(0.0, 1.0, n))
    return lam, a, mu, eta, float(rng.uniform(0.05, 0.95))


# past a column's horizon: never read, so any value, NaN included
FILLS = st.sampled_from([math.nan, math.inf, 0.0, -1.0, 1.0])


class TestLemmaStacks:
    """A column stack of lemma instances against each column's own call and
    its Python float oracle, bit for bit, and the error a stack raises."""

    @given(
        st.lists(
            st.tuples(st.integers(2, 12), st.integers(0, 2**32 - 1), st.booleans(),
                      st.booleans()),
            min_size=1,
            max_size=8,
        ),
        st.integers(0, 3),
        FILLS,
    )
    @example([(2, 1, False, False), (12, 2, True, True), (5, 3, False, True)], 0,
             math.nan)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_partial_sum_stack_matches_each_call(self, cases, extra, fill):
        # both regimes in one stack, n = 2 up to n = rows, mu = eta
        insts = [partial_instance(*case) for case in cases]
        rows = max(n for n, *_ in cases) + extra
        stacks = [stack_of([x[k] for x in insts], rows, fill) for k in range(4)]
        p = np.array([x[4] for x in insts])
        n = np.array([case[0] for case in cases])
        got = lemma_6_1_residual(*stacks, p, n)
        assert isinstance(got, np.ndarray) and got.shape == (len(cases),)
        for j, (lam, a, mu, eta, p_j) in enumerate(insts):
            want = lemma_6_1_residual(lam, a, mu, eta, p_j, int(n[j]))
            assert isinstance(want, float)
            assert want.hex() == partial_residual_oracle(lam, a, mu, eta, p_j, n[j]).hex()
            assert float(got[j]).hex() == want.hex()

    @given(
        st.lists(
            st.tuples(st.integers(2, 12), st.integers(0, 40), st.integers(0, 2**32 - 1),
                      st.booleans()),
            min_size=1,
            max_size=8,
        ),
        st.integers(0, 3),
        FILLS,
    )
    @example([(2, 0, 1, False), (12, 40, 2, True), (7, 0, 3, False)], 0, math.nan)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_tail_sum_stack_matches_each_call(self, cases, extra, fill):
        # ragged supports, n = 2 up to n = length (where S_{n+1} = 0)
        insts = [tail_instance(*case) for case in cases]
        n = np.array([case[0] for case in cases])
        length = np.array([len(x[0]) for x in insts])
        rows = [max(n) + extra, max(length) + extra]
        stacks = [stack_of([x[k] for x in insts], rows[k < 2], fill) for k in range(4)]
        p = np.array([x[4] for x in insts])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailTruncationWarning)
            got = lemma_6_2_residual(*stacks, p, n, length=length)
            assert got.shape == (len(cases),)
            for j, (lam, a, mu, eta, p_j) in enumerate(insts):
                want = lemma_6_2_residual(lam, a, mu, eta, p_j, int(n[j]))
                assert isinstance(want, float)
                assert want.hex() == tail_residual_oracle(lam, a, mu, eta, p_j, n[j]).hex()
                assert float(got[j]).hex() == want.hex()

    def test_a_stack_raises_the_first_check_any_column_fails(self):
        # column 0 fails eta's check, column 1 mu's, which comes first
        ones = np.ones((3, 2))
        mu, eta = np.full((3, 2), 0.5), ones.copy()
        eta[1, 0], mu[2, 1] = 0.0, -1.0
        p, n = np.array([0.5, 0.5]), np.array([3, 3])
        with pytest.raises(WorkbenchError, match="^mu must be positive and long enough$"):
            lemma_6_1_residual(ones, ones, mu, eta, p, n)
        # among the regime checks, the first failing column's message
        mu[2, 1], eta[1, 0] = 0.5, 1.0
        mu[0, 0] = 2.0
        with pytest.raises(WorkbenchError, match="0 < p < 1 requires mu_i <= eta_i"):
            lemma_6_1_residual(ones, ones, mu, eta, np.array([0.5, 2.0]), n)
        with pytest.raises(WorkbenchError, match="regime needs p < 1, p != 0; got 2.0"):
            lemma_6_1_residual(ones, ones, mu, eta, np.array([2.0, 0.5]), n)
        # the tail-sum lemma: a horizon past its support (column 0) comes
        # before a zero lambda (column 1)
        lam, a = np.ones((40, 2)), 0.5 ** np.arange(40)[:, None] * ones[:1]
        lam[5, 1] = 0.0
        mu, eta = np.full((4, 2), 2.0), np.ones((4, 2))
        with pytest.raises(WorkbenchError, match="^horizon exceeds the truncated input$"):
            lemma_6_2_residual(lam, a, mu, eta, np.array([0.5, 0.5]), np.array([4, 4]),
                               length=np.array([3, 40]))
        with pytest.raises(WorkbenchError, match="^lambda must be positive and long"):
            lemma_6_2_residual(lam, a, mu, eta, np.array([0.5, 0.5]), np.array([4, 4]))

    def test_an_overflowing_column_raises_its_own_error(self):
        # columns 1 and 2 overflow (the sum's and the multipliers' powers):
        # the stack raises column 1's message, with its p
        cols = [(1.0, 0.5, 1.0, 0.5), (1e10, 0.5, 1.0, 0.01), (1.0, 1e-5, 2e-5, 0.99)]
        lam = np.array([[x] * 4 for x, *_ in cols]).T
        mu = np.array([[m] * 4 for _, m, _, _ in cols]).T
        eta = np.array([[e] * 4 for _, _, e, _ in cols]).T
        p, n = np.array([c[3] for c in cols]), np.array([4, 4, 4])
        errors = []
        for j in (1, 2):
            with pytest.raises(WorkbenchError, match="overflows the float range") as exc:
                lemma_6_1_residual(lam[:, j], lam[:, j], mu[:, j], eta[:, j], p[j], 4)
            errors.append(str(exc.value))
        assert errors[0] != errors[1]
        with pytest.raises(WorkbenchError) as exc:
            lemma_6_1_residual(lam, lam, mu, eta, p, n)
        assert str(exc.value) == errors[0]
        with pytest.raises(WorkbenchError) as exc:
            lemma_6_1_residual(lam[:, 2:], lam[:, 2:], mu[:, 2:], eta[:, 2:], p[2:], n[2:])
        assert str(exc.value) == errors[1]

    @pytest.mark.parametrize(
        "bad, ordering",
        [
            ([("d", 2, -1.0), ("P", 1, math.inf)], True),  # C_3 before S_2
            ([("d", 2, -1.0), ("P", 3, math.inf)], False),  # S_n first of all
            ([("d", 1, -1.0), ("P", 2, math.inf)], False),  # S_3 before C_2
            ([("d", 1, -1.0), ("L", 0, math.inf)], True),  # C_2 before lam_1 a_1
            ([("d", 2, math.inf), ("d", 3, -1.0)], False),  # C_3 overflows before C_4
            ([("C", 2, math.inf), ("d", 3, -1.0)], False),  # d_3**(1/q) before C_4
            ([("d", 3, -1.0), ("L", 3, math.inf)], True),
        ],
    )
    def test_power_failures_keep_the_one_instance_order(self, bad, ordering):
        # rows i - 1 = 0..3 of one column at n = 4, every power finite but
        # the ones named; a negative d is the ordering error
        arrays = {name: np.ones((4, 1)) for name in ("d", "C", "P", "L")}
        for name, row, value in bad:
            arrays[name][row, 0] = value
        live = np.ones((4, 1), dtype=bool)
        inner = live.copy()
        inner[0] = False
        got = redheffer._first_power_failure(*arrays.values(), live, inner, np.array([4]))
        assert got == (0, ordering)
        no_failure = {name: np.ones((4, 1)) for name in arrays}
        assert redheffer._first_power_failure(*no_failure.values(), live, inner,
                                              np.array([4])) is None

    def test_truncation_warning_is_raised_once(self):
        a = 0.5 ** np.arange(1, 7)[:, None] * np.ones((1, 3))
        lam, mu, eta = np.ones((6, 3)), np.full((4, 3), 2.0), np.ones((4, 3))
        with pytest.warns(TailTruncationWarning) as record:
            lemma_6_2_residual(lam, a, mu, eta, np.full(3, 0.5), np.full(3, 4))
        assert len(record) == 1

    @pytest.mark.parametrize(
        "p, n, length",
        [
            (np.array([0.5, 0.5]), 3, None),
            (0.5, np.array([3, 3]), None),
            (np.array([0.5, 0.5]), np.array([3, 3, 3]), None),
            (np.array([[0.5]]), np.array([[3]]), None),
            (np.array([0.5, 0.5]), np.array([3, 3]), 40),
        ],
        ids=["p-only", "n-only", "unequal", "2-d", "scalar-length"],
    )
    def test_form_errors(self, p, n, length):
        lam, a = np.ones((40, 2)), 0.5 ** np.arange(40)[:, None] * np.ones((1, 2))
        mu, eta = np.full((3, 2), 2.0), np.ones((3, 2))
        message = "^p, n and a support length are numbers, or 1-d arrays of one length$"
        with pytest.raises(WorkbenchError, match=message):
            lemma_6_2_residual(lam, a, mu, eta, p, n, length=length)
        if length is None:
            with pytest.raises(WorkbenchError, match=message):
                lemma_6_1_residual(lam, a, mu * 0.25, eta, p, n)

    @pytest.mark.parametrize("which", ["lam", "a", "mu", "eta"])
    def test_stack_columns_must_match(self, which):
        args = {"lam": np.ones((3, 2)), "a": np.ones((3, 2)), "mu": np.full((3, 2), 0.5),
                "eta": np.ones((3, 2))}
        args[which] = args[which][:, :1] if which != "a" else args[which][:, 0]
        name = "lambda" if which == "lam" else which
        with pytest.raises(WorkbenchError, match=f"^{name} must be a 2-d stack of 2 columns$"):
            lemma_6_1_residual(*args.values(), np.full(2, 0.5), np.full(2, 3))


class TestIntegerHorizons:
    """A horizon is an integer: a float or a bool is rejected by name, where
    it used to end in a TypeError or be read as its floor."""

    @pytest.mark.parametrize("n", [3.5, 3.0, True])
    def test_partial_sum_lemma(self, n):
        ones = np.ones(4)
        with pytest.raises(WorkbenchError, match=f"^n must be an integer, got {n!r}$"):
            lemma_6_1_residual(ones, ones, np.full(4, 0.5), ones, 0.5, n)
        with pytest.raises(WorkbenchError, match="^n must be an integer"):
            lemma_6_1_residual(ones[:, None], ones[:, None], np.full((4, 1), 0.5),
                               ones[:, None], np.array([0.5]), np.array([n]))

    @pytest.mark.parametrize("n", [3.5, 3.0, True])
    def test_tail_sum_lemma(self, n):
        a = 0.5 ** np.arange(40)
        with pytest.raises(WorkbenchError, match=f"^n must be an integer, got {n!r}$"):
            lemma_6_2_residual(np.ones(40), a, np.full(4, 2.0), np.ones(4), 0.5, n)
        with pytest.raises(WorkbenchError, match="^length must be an integer, got 40.0$"):
            lemma_6_2_residual(np.ones((40, 1)), a[:, None], np.full((4, 1), 2.0),
                               np.ones((4, 1)), np.array([0.5]), np.array([4]),
                               length=np.array([40.0]))
        with pytest.raises(WorkbenchError, match="^length must be >= 1$"):
            lemma_6_2_residual(np.ones((40, 1)), a[:, None], np.full((4, 1), 2.0),
                               np.ones((4, 1)), np.array([0.5]), np.array([4]),
                               length=np.array([0]))

    def test_two_branch_condition(self):
        with pytest.raises(WorkbenchError, match="^n_max must be an integer, got 10.5$"):
            condition_6_49_check(THIRD, 10.5, 1.26)
        with pytest.raises(WorkbenchError, match="^n_max must be an integer, got 10.5$"):
            k_of_p(THIRD, 10.5)

    def test_scan(self):
        with pytest.raises(WorkbenchError, match="^n_max must be an integer, got 10.5$"):
            scan_params(0.45, n_max=10.5)

    def test_numpy_integers_accepted(self):
        ones = np.ones(4)
        want = lemma_6_1_residual(ones, ones, np.full(4, 0.5), ones, 0.5, 4)
        got = lemma_6_1_residual(ones, ones, np.full(4, 0.5), ones, 0.5, np.int64(4))
        assert got.hex() == want.hex()
        assert condition_6_49_check(THIRD, np.int32(2), 1.26).holds


class TestLemmaClaims:
    """Claims 8.4 and 8.5 make one call per lemma, and their rows are those
    of one call per instance."""

    @pytest.mark.parametrize("seed", [12345, 4242, 777])
    def test_claims_match_one_call_per_instance(self, seed):
        rows = {v.claim: v for v in verify.lemma_suite_claims(seed)}
        for want in oracle.lemma_claims(seed):
            got = rows[want.claim]
            assert got == want and got.value.hex() == want.value.hex()

    def test_one_call_per_lemma(self, monkeypatch):
        calls = {}

        def counted(fn):
            def call(*args, **kwargs):
                calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
                return fn(*args, **kwargs)
            return call

        for name in ("lemma_6_1_residual", "lemma_6_2_residual", "lemma_6_2_step"):
            monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
        verify.lemma_suite_claims(12345)
        assert calls == {"lemma_6_1_residual": 1, "lemma_6_2_residual": 1,
                         "lemma_6_2_step": 1}
