import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab.criteria import (
    _bracket_slacks,
    check_2_3,
    check_2_4,
    check_2_30,
    classic_forward_constant,
    criterion_2_20_check,
    f_alpha_analysis,
    knopp_criterion_check,
    reverse_criterion_check,
    weighted_mean_constant,
)
from hardylab.errors import (
    NonpositiveWeightError,
    OutOfDomainError,
    ParameterMismatchError,
    PreconditionError,
)
from hardylab.reports import Tolerances, Verdict, build_report, classify_tail_trend
from hardylab.sequences import AuxSequence, knopp_sequence, power_aux_sequence


def classic_check(n_max, alpha=0.0, U=4.0, p=2.0):
    w = knopp_sequence(p, alpha, n_max + 1)
    lam = power_aux_sequence(0.0, n_max + 1)
    return knopp_criterion_check(w, lam, p, U, n_max)


class TestForwardCriterion:
    def test_classic_holds_and_matches_closed_form_slack(self):
        # at p=2, lambda=1, the partial-sum identity collapses the slack
        # to exactly 1/(2n)
        rep = classic_check(10000)
        assert rep.holds
        n = np.arange(1, 10001)
        assert np.max(np.abs(rep.slacks - 0.5 / n)) <= 1e-9
        assert rep.min_slack == pytest.approx(5e-5, rel=1e-4)
        assert rep.tail_trend == "degrading"
        assert rep.first_failure is None

    def test_constant_weights_fail_immediately(self):
        rep = knopp_criterion_check(
            power_aux_sequence(0.0, 101), power_aux_sequence(0.0, 101), 2.0, 4.0, 100
        )
        assert not rep.holds
        assert rep.first_failure == 1
        assert rep.min_slack == -math.inf

    def test_power_choice_fails_at_one_for_p_near_one(self):
        p = 1.05
        rep = check_2_30(p, 5)
        assert not rep.holds and rep.first_failure == 1
        U = (p / (p - 1.0)) ** p
        rhs = U * (1.0 - 2.0 ** (-(p - 1.0) / p))
        assert rep.slacks[1 - rep.n_lo] == pytest.approx((rhs - 1.0) / rhs, rel=1e-10)
        assert rhs == pytest.approx(0.7939419675524638, rel=1e-12)

    def test_short_sequences_rejected(self):
        with pytest.raises(ParameterMismatchError):
            knopp_criterion_check(
                knopp_sequence(2.0, 0.0, 100),
                power_aux_sequence(0.0, 100),
                2.0,
                4.0,
                100,
            )

    def test_empty_index_range_rejected(self):
        # n_max = 0 leaves no index to check; it used to report holds with
        # a NaN slack
        with pytest.raises(OutOfDomainError, match="empty"):
            classic_check(0)

    def test_reverse_pair_rejected(self):
        with pytest.raises(PreconditionError):
            knopp_criterion_check(
                power_aux_sequence(0.0, 11),
                power_aux_sequence(0.0, 11),
                0.5,
                4.0,
                10,
            )

    @given(st.floats(min_value=1e-8, max_value=1e8))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance_of_verdicts(self, factor):
        base = knopp_sequence(2.0, 0.0, 201)
        lam = power_aux_sequence(0.0, 201)
        r1 = knopp_criterion_check(base, lam, 2.0, 4.0, 200)
        scaled = AuxSequence(
            n_max=base.n_max,
            w=base.w * factor,
            W=base.W * factor,
            log_w=base.log_w + math.log(factor),
        )
        r2 = knopp_criterion_check(scaled, lam, 2.0, 4.0, 200)
        assert r1.holds == r2.holds
        assert np.max(np.abs(r1.slacks - r2.slacks)) <= 1e-10


class TestShiftedWeightedMeanCriterion:
    SAMPLES = [
        (2.0, 0.0),
        (2.0, 0.3),
        (2.0, 0.5),
        (3.0, 0.2),
        (4.0 / 3.0, 0.75),
        (1.25, 0.9),
        (1.1, 1.0),
    ]

    @pytest.mark.parametrize("p,alpha", SAMPLES)
    def test_established_samples_hold(self, p, alpha):
        rep = criterion_2_20_check(alpha, p, 2000)
        assert rep.holds
        assert not rep.exploratory
        assert rep.min_slack > 0.0

    def test_exploratory_flag_outside_established_region(self):
        rep = criterion_2_20_check(0.9, 2.0, 50)
        assert rep.exploratory

    def test_alpha_domain(self):
        with pytest.raises(OutOfDomainError):
            criterion_2_20_check(1.5, 2.0, 10)
        with pytest.raises(OutOfDomainError):
            criterion_2_20_check(-0.2, 2.0, 10)

    def test_slacks_match_direct_evaluation(self):
        # independent route: closed-form weights through gamma ratios and
        # plain float arithmetic
        p, alpha = 2.0, 0.3
        n_max = 100
        rep = criterion_2_20_check(alpha, p, n_max)
        s = alpha - 1.0 / p
        w = np.array(
            [math.gamma(n + s) / (math.gamma(n) * math.gamma(1.0 + s))
             for n in range(1, n_max + 2)]
        )
        lam = np.arange(1, n_max + 2, dtype=float) ** alpha
        W = np.cumsum(w)
        Lam = np.cumsum(lam)
        U = weighted_mean_constant(p, alpha)
        t = w ** (p - 1.0) / lam**p
        rhs = U * Lam[:n_max] ** p * (t[:n_max] - t[1:])
        direct = (rhs - W[:n_max] ** (p - 1.0)) / rhs
        assert np.max(np.abs(rep.slacks - direct)) <= 1e-10


class TestScalarReduction:
    def test_vanishes_at_inverse_p(self):
        for n in (1, 5, 17, 400):
            res = f_alpha_analysis(0.5, 2.0, n)
            assert abs(res.f_value) <= 1e-15

    def test_slope_spot_values(self):
        assert f_alpha_analysis(0.5, 2.0, 1).fprime_at_inv_p == pytest.approx(
            math.log(2.0) - 1.0 + 0.25, rel=1e-14
        )
        assert f_alpha_analysis(0.75, 4.0 / 3.0, 1).fprime_at_inv_p == pytest.approx(
            math.log(2.0) - 1.0 + 3.0 / 8.0, rel=1e-14
        )

    def test_slope_sign_table(self):
        for n in range(1, 101):
            assert f_alpha_analysis(0.5, 2.0, n).fprime_at_inv_p < 0.0
            assert f_alpha_analysis(0.75, 4.0 / 3.0, n).fprime_at_inv_p > 0.0

    def test_positive_reduction_implies_criterion_passes(self):
        # one-sided implication: f(alpha) > 0 at an index forces the full
        # per-index check to pass there
        tol = Tolerances()
        for p, alpha in ((2.0, 0.3), (2.0, 0.5), (3.0, 0.2), (4.0 / 3.0, 0.9)):
            rep = criterion_2_20_check(alpha, p, 300)
            for n in range(1, 301):
                if f_alpha_analysis(alpha, p, n).f_value > 1e-12:
                    assert rep.slacks[n - rep.n_lo] > tol.tol_rel

    def test_convex_in_alpha(self):
        grid = np.linspace(0.0, 1.0, 100)
        for p, n in ((2.0, 1), (2.0, 10), (1.25, 3), (5.0, 7)):
            vals = np.array([f_alpha_analysis(a, p, n).f_value for a in grid])
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            assert np.min(second) >= -1e-10

    def test_domain_errors(self):
        with pytest.raises(OutOfDomainError):
            f_alpha_analysis(1.2, 2.0, 3)
        with pytest.raises(OutOfDomainError):
            f_alpha_analysis(0.5, 2.0, 0)


class TestLogBounds:
    def test_taylor_sandwich(self):
        xs = np.linspace(0.002, 2.0, 1000)
        lower = xs - xs**2 / 2.0
        upper = xs - xs**2 / 2.0 + xs**3 / 3.0
        logs = np.log1p(xs)
        assert np.all(lower < logs)
        assert np.all(logs < upper)

    def test_midpoint_integral_bound(self):
        # n**(-1/q) - (n+1)**(-1/q) >= (1/q) (n + 1/2)**(-1 - 1/q)
        for p in (1.1, 1.5, 2.0, 3.0, 10.0):
            q = p / (p - 1.0)
            n = np.arange(1, 101, dtype=float)
            lhs = n ** (-1.0 / q) - (n + 1.0) ** (-1.0 / q)
            rhs = (1.0 / q) * (n + 0.5) ** (-1.0 - 1.0 / q)
            assert np.all(lhs >= rhs * (1.0 - 1e-12))

    def test_tilted_doubling_map_increasing(self):
        for p in (3.0, 5.0, 10.0):
            grid = np.linspace(0.0, 1.0 / p, 200)
            vals = (1.0 + grid) * 2.0**-grid
            assert np.all(np.diff(vals) > 0.0)


def masked_bracket_slacks(log_lhs, log_scale, log_factor, log_t):
    """Reference for _bracket_slacks: the formula evaluated only where t
    decreases, -inf slack and +inf log_rhs elsewhere."""
    n = len(log_t) - 1
    delta = np.diff(log_t)
    ok = delta < 0.0
    slacks = np.full(n, -math.inf)
    log_rhs = np.full(n, math.inf)
    with np.errstate(divide="ignore", over="ignore"):
        rhs = log_scale + log_factor[ok] + (
            log_t[:-1][ok] + np.log(-np.expm1(delta[ok]))
        )
        slacks[ok] = -np.expm1(log_lhs[ok] - rhs)
    log_rhs[ok] = rhs
    return slacks, log_rhs


class TestBracketSlacks:
    N = 100_000

    @pytest.mark.parametrize("stalls", ["none", "some", "all"])
    def test_matches_masked_formula_bit_for_bit(self, stalls):
        # a Knopp bracket (p = 2, alpha = 0.3); "some" makes t flat at a
        # few indices and rising at a few others, "all" makes it constant
        p, n = 2.0, self.N
        w = knopp_sequence(p, 0.3, n + 1)
        lam = power_aux_sequence(0.3, n + 1)
        log_t = (p - 1.0) * w.log_w - p * lam.log_w
        if stalls == "some":
            idx = np.random.default_rng(5).choice(n, 40, replace=False)
            log_t[idx[:20] + 1] = log_t[idx[:20]]
            log_t[idx[20:] + 1] = log_t[idx[20:]] + 0.5
        elif stalls == "all":
            log_t[:] = log_t[0]
        args = ((p - 1.0) * np.log(w.W[:n]), math.log(4.0),
                p * np.log(lam.W[:n]), log_t)
        slacks, log_rhs = _bracket_slacks(*args)
        want_slacks, want_log_rhs = masked_bracket_slacks(*args)
        assert slacks.tobytes() == want_slacks.tobytes()
        assert log_rhs.tobytes() == want_log_rhs.tobytes()
        if stalls != "none":
            assert np.isneginf(slacks).any() and np.isposinf(log_rhs).any()


class TestReverseCriterion:
    @pytest.mark.parametrize("p", [0.1, 0.2, 0.25, 1.0 / 3.0])
    def test_established_range_holds(self, p):
        rep = reverse_criterion_check(p, 2000)
        assert rep.holds
        assert rep.min_slack >= 0.0
        assert not rep.exploratory

    def test_slacks_match_high_precision_oracle_at_one_third(self):
        # with w_n = n everything is explicit; evaluate both sides with
        # 40-digit arithmetic
        mp.mp.dps = 40
        rep = reverse_criterion_check(1.0 / 3.0, 2000)

        def oracle(n):
            nn = mp.mpf(n)
            lhs = (nn * (nn + 1) / 2) ** mp.mpf("-1.5")
            rhs = mp.sqrt(2) * (nn**-2 - (nn + 1) ** -2)
            return float(1 - lhs / rhs)

        for n in (1, 2, 10, 100):
            assert rep.slacks[n - rep.n_lo] == pytest.approx(oracle(n), rel=1e-8)
        for n in (1000, 2000):
            assert rep.slacks[n - rep.n_lo] == pytest.approx(oracle(n), rel=1e-4)

    def test_exploratory_range_fails_and_is_flagged(self):
        rep = reverse_criterion_check(0.45, 500)
        assert rep.exploratory
        assert not rep.holds
        assert rep.first_failure == 1

    @pytest.mark.parametrize("p", [0.0, -0.1, 0.5, 0.75])
    def test_domain_errors(self, p):
        with pytest.raises(NonpositiveWeightError):
            reverse_criterion_check(p, 10)


class TestPowerChoiceChecks:
    def test_first_index_direct_evaluation(self):
        rep = check_2_30(3.0, 10)
        rhs = 3.375 * (1.0 - 2.0 ** (-2.0 / 3.0))
        assert rhs == pytest.approx(1.2488832283024415, rel=1e-12)
        assert rep.slacks[1 - rep.n_lo] == pytest.approx((rhs - 1.0) / rhs, rel=1e-10)

    @pytest.mark.parametrize("p", [3.0, 4.0, 10.0])
    def test_established_range_holds(self, p):
        rep = check_2_30(p, 2000)
        assert rep.holds and not rep.exploratory

    def test_slacks_match_plain_float_route(self):
        p = 3.0
        n_max = 500
        rep = check_2_30(p, n_max)
        q = p / (p - 1.0)
        i = np.arange(1, n_max + 1, dtype=float)
        W = np.cumsum(i ** (-1.0 / p))
        lhs = W ** (p - 1.0)
        rhs = (
            (p / (p - 1.0)) ** p
            * i**p
            * (i ** (-1.0 / q) - (i + 1.0) ** (-1.0 / q))
        )
        direct = (rhs - lhs) / rhs
        assert np.max(np.abs(rep.slacks - direct)) <= 1e-6


class TestScalarPowerFamily:
    def test_spot_values(self):
        rep = check_2_4(3.0, 2)  # the points 0 and 1/3
        lhs0 = (1.0 - 1.0 / 3.0) ** 3
        rhs0 = 1.0 - 2.0 ** (-2.0 / 3.0)
        assert rep.slacks[1 - rep.n_lo] == pytest.approx((rhs0 - lhs0) / rhs0, rel=1e-12)
        lhs1 = (1.0 - 0.25) ** 3
        rhs1 = 0.5
        assert rep.slacks[2 - rep.n_lo] == pytest.approx((rhs1 - lhs1) / rhs1, rel=1e-12)
        assert rep.holds

    @pytest.mark.parametrize("p", [3.0, 5.0, 10.0])
    def test_grid_holds(self, p):
        rep = check_2_4(p, 50)
        assert rep.holds

    def test_point_count_spans_zero_to_inverse_p(self):
        p, alpha = 5.0, np.linspace(0.0, 1.0 / 5.0, 7)
        lhs = (1.0 - 1.0 / ((alpha + 1.0) * p)) ** p
        rhs = 1.0 - 2.0 ** (-(p - 1.0) / p - alpha)
        assert check_2_4(p, 7).slacks == pytest.approx((rhs - lhs) / rhs, rel=1e-12)
        # the regime is checked before 1/p is formed
        with pytest.raises(OutOfDomainError, match="p >= 3"):
            check_2_4(0.0, 7)

    def test_domain_errors(self):
        with pytest.raises(OutOfDomainError):
            check_2_4(2.5, 1)
        with pytest.raises(OutOfDomainError, match="empty grid"):
            check_2_4(3.0, 0)


class TestShiftedPowerChoice:
    def test_first_index_direct_evaluation(self):
        rep = check_2_3(1.0, 2.0, 10)
        rhs = (4.0 / 3.0) ** 2 * (1.0 - 2.0**-1.5)
        assert rhs == pytest.approx(1.1492384167230689, rel=1e-12)
        assert rep.slacks[1 - rep.n_lo] == pytest.approx((rhs - 1.0) / rhs, rel=1e-10)

    @pytest.mark.parametrize(
        "p,alpha", [(2.0, 1.0), (2.0, 1.5), (3.0, 4.0 / 3.0)]
    )
    def test_established_range_holds(self, p, alpha):
        rep = check_2_3(alpha, p, 2000)
        assert rep.holds

    def test_domain_errors(self):
        with pytest.raises(OutOfDomainError):
            check_2_3(0.5, 2.0, 10)
        with pytest.raises(OutOfDomainError):
            check_2_3(1.6, 2.0, 10)


# Every function that takes a forward exponent p, called with a valid rest.
FORWARD_CALLS = {
    "knopp-criterion": lambda p: knopp_criterion_check(
        power_aux_sequence(0.0, 11), power_aux_sequence(0.0, 11), p, 4.0, 10
    ),
    "criterion-2-20": lambda p: criterion_2_20_check(0.5, p, 10),
    "check-2-3": lambda p: check_2_3(1.0, p, 10),
    "check-2-30": lambda p: check_2_30(p, 10),
    "f-alpha": lambda p: f_alpha_analysis(0.5, p, 3),
}


@pytest.mark.parametrize("call", FORWARD_CALLS.values(), ids=list(FORWARD_CALLS))
@pytest.mark.parametrize("p", [math.nan, 1.0, 0.5])
def test_forward_exponent_rejected(call, p):
    # NaN fails the p > 1 test like any p <= 1, with the message the CLI prints
    message = f"^forward regime needs p > 1, got {p}$"
    with pytest.raises(PreconditionError, match=message):
        call(p)


class TestReportAssembly:
    def test_first_failure_is_first_failing_index(self):
        rep = build_report(
            "x", "0", 3, [0.5, -0.1, 0.2, -0.3], strict=False, log_rhs=np.zeros(4)
        )
        assert (rep.n_lo, rep.n_hi) == (3, 6)
        assert not rep.holds
        assert rep.first_failure == 4
        assert rep.min_slack == -0.3
        assert rep.summary().startswith("x: fails first at n=4 (verified up to n_max=6")

    def test_strict_rejects_zero_slack(self):
        slacks = np.array([0.5, 0.0, 0.25])
        loose = build_report("x", "0", 1, slacks, strict=False, log_rhs=np.zeros(3))
        strict = build_report("x", "0", 1, slacks, strict=True, log_rhs=np.zeros(3))
        assert loose.holds and loose.first_failure is None
        assert not strict.holds and strict.first_failure == 2
        with pytest.raises(OutOfDomainError):
            build_report("x", "0", 1, [], strict=False, log_rhs=np.zeros(0))

    def test_tail_trend_classes(self):
        rising = np.linspace(0.1, 0.2, 100)
        assert classify_tail_trend(rising[:9], 1) == "flat"
        assert classify_tail_trend(rising, 1) == "improving"
        assert classify_tail_trend(rising[::-1], 1) == "degrading"
        assert classify_tail_trend(np.full(100, 0.3), 1) == "flat"

    def test_nonfinite_slack_is_degrading_and_serializes_as_none(self):
        slacks = np.linspace(0.1, 0.2, 20)
        slacks[-1] = -np.inf
        rep = build_report("x", "9.9", 1, slacks, strict=False, log_rhs=np.zeros(20))
        assert rep.tail_trend == "degrading"
        row = Verdict.from_report(rep, claim="9.9-x").to_dict()
        assert row["claim"] == "9.9-x" and row["paper_ref"] == "9.9"
        assert "ref" not in row
        assert row["min_slack"] is None
        assert row["first_failure"] == 20 and row["holds"] is False


class TestTolerances:
    @pytest.mark.parametrize(
        "kwargs",
        [{"tol_abs": math.inf}, {"tol_abs": math.nan},
         {"tol_rel": math.inf}, {"tol_rel": math.nan}],
    )
    def test_nonfinite_rejected(self, kwargs):
        with pytest.raises(OutOfDomainError, match="finite"):
            Tolerances(**kwargs)

    def test_infinite_tol_abs_cannot_turn_a_failure_into_a_pass(self):
        assert not reverse_criterion_check(0.45, 1000).holds
        with pytest.raises(OutOfDomainError):
            reverse_criterion_check(0.45, 1000, Tolerances(tol_abs=math.inf))


class TestConstants:
    def test_classic_constant(self):
        assert classic_forward_constant(2.0) == pytest.approx(4.0)
        assert classic_forward_constant(1.25) == pytest.approx(5.0**1.25)

    def test_weighted_mean_constant(self):
        assert weighted_mean_constant(2.0, 0.0) == pytest.approx(4.0)
        assert weighted_mean_constant(2.0, 1.0) == pytest.approx((4.0 / 3.0) ** 2)
        with pytest.raises(OutOfDomainError):
            weighted_mean_constant(1.5, -0.5)
