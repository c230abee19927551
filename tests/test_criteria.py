import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab.criteria import (
    _bracket_slacks,
    check_2_3,
    check_2_4,
    check_2_30,
    criterion_2_20_check,
    f_alpha_analysis,
    knopp_criterion_check,
    reverse_criterion_check,
    weighted_mean_constant,
)
from hardylab.compsum import BLOCK
from hardylab.errors import WorkbenchError
from hardylab.reports import Tolerances, build_report, fold_report
from hardylab.sequences import (
    AuxSequence,
    knopp_sequence,
    levin_steckin_sequence,
    power_aux_sequence,
)
from hardylab.verify import reverse_machinery_claims


def classic_check(n_max, alpha=0.0, U=4.0, p=2.0):
    return knopp_criterion_check(knopp_sequence(p, alpha, n_max + 1), p, U=U)


def reverse_check(p, n_max, tol=Tolerances()):
    return reverse_criterion_check(levin_steckin_sequence(p, n_max + 1), p, tol)


class TestForwardCriterion:
    def test_classic_holds_and_matches_closed_form_slack(self, with_slacks):
        # at p=2, lambda=1, the partial-sum identity collapses the slack
        # to exactly 1/(2n)
        rep, slacks = with_slacks(classic_check, 10000)
        assert rep.holds
        n = np.arange(1, 10001)
        assert np.max(np.abs(slacks - 0.5 / n)) <= 1e-9
        assert rep.min_slack == pytest.approx(5e-5, rel=1e-4)
        assert rep.first_failure is None

    def test_constant_weights_fail_immediately(self):
        rep = knopp_criterion_check(power_aux_sequence(0.0, 101), 2.0)
        assert not rep.holds
        assert rep.first_failure == 1
        assert rep.min_slack == -math.inf

    def test_power_choice_fails_at_one_for_p_near_one(self, with_slacks):
        p = 1.05
        rep, slacks = with_slacks(check_2_30, p, 5)
        assert not rep.holds and rep.first_failure == 1
        U = (p / (p - 1.0)) ** p
        rhs = U * (1.0 - 2.0 ** (-(p - 1.0) / p))
        assert slacks[1 - rep.n_lo] == pytest.approx((rhs - 1.0) / rhs, rel=1e-10)
        assert rhs == pytest.approx(0.7939419675524638, rel=1e-12)

    @pytest.mark.parametrize(
        "make_w,p,alpha",
        [
            (lambda n: knopp_sequence(2.0, 0.0, n), 2.0, 0.0),
            (lambda n: knopp_sequence(1.25, 0.9, n), 1.25, 0.9),
            (lambda n: power_aux_sequence(-1.0 / 1.05, n), 1.05, 0.0),
            (lambda n: power_aux_sequence(1.5 - 1.0 / 2.0, n), 2.0, 1.5),
        ],
    )
    @pytest.mark.parametrize("length", [2, 301])
    def test_default_constant_and_horizon(self, make_w, p, alpha, length):
        # U defaults to weighted_mean_constant(p, alpha), and the check runs
        # up to one index short of w
        w = make_w(length)
        default = knopp_criterion_check(w, p, alpha=alpha)
        U = weighted_mean_constant(p, alpha)
        explicit = knopp_criterion_check(w, p, alpha=alpha, U=U)
        assert default.holds == explicit.holds
        assert default.first_failure == explicit.first_failure
        assert default.min_slack.hex() == explicit.min_slack.hex()
        assert default.n_hi == w.n_max - 1

    def test_empty_index_range_rejected(self):
        # n_max = 0 leaves no index to check; it used to report holds with
        # a NaN slack
        with pytest.raises(WorkbenchError, match="empty"):
            classic_check(0)

    @pytest.mark.parametrize("U", [math.inf, math.nan, 0.0, -1.0])
    def test_bounding_constant_rejected(self, U):
        # an infinite U used to pass every index vacuously, at slack 1.0
        message = "finite, got inf" if U == math.inf else "must be positive"
        with pytest.raises(WorkbenchError, match=message):
            classic_check(10, U=U)

    def test_reverse_pair_rejected(self):
        with pytest.raises(WorkbenchError, match="forward regime needs p > 1, got 0.5"):
            knopp_criterion_check(power_aux_sequence(0.0, 11), 0.5)

    @given(st.floats(min_value=1e-8, max_value=1e8))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance_of_verdicts(self, with_slacks, factor):
        base = knopp_sequence(2.0, 0.0, 201)
        r1, s1 = with_slacks(knopp_criterion_check, base, 2.0)
        scaled = AuxSequence(
            n_max=base.n_max,
            law=base.law,
            arrays=(base.log_w + math.log(factor), base.W * factor),
        )
        r2, s2 = with_slacks(knopp_criterion_check, scaled, 2.0)
        assert r1.holds == r2.holds
        assert np.max(np.abs(s1 - s2)) <= 1e-10


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
        with pytest.raises(WorkbenchError, match=r"alpha must lie in \[0, 1\], got 1.5"):
            criterion_2_20_check(1.5, 2.0, 10)
        with pytest.raises(WorkbenchError, match=r"alpha must lie in \[0, 1\], got -0.2"):
            criterion_2_20_check(-0.2, 2.0, 10)

    def test_slacks_match_direct_evaluation(self, with_slacks):
        # independent route: closed-form weights through gamma ratios and
        # plain float arithmetic
        p, alpha = 2.0, 0.3
        n_max = 100
        _, slacks = with_slacks(criterion_2_20_check, alpha, p, n_max)
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
        assert np.max(np.abs(slacks - direct)) <= 1e-10


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

    def test_positive_reduction_implies_criterion_passes(self, with_slacks):
        # one-sided implication: f(alpha) > 0 at an index forces the full
        # per-index check to pass there
        tol = Tolerances()
        for p, alpha in ((2.0, 0.3), (2.0, 0.5), (3.0, 0.2), (4.0 / 3.0, 0.9)):
            rep, slacks = with_slacks(criterion_2_20_check, alpha, p, 300)
            for n in range(1, 301):
                if f_alpha_analysis(alpha, p, n).f_value > 1e-12:
                    assert slacks[n - rep.n_lo] > tol.tol_rel

    def test_convex_in_alpha(self):
        grid = np.linspace(0.0, 1.0, 100)
        for p, n in ((2.0, 1), (2.0, 10), (1.25, 3), (5.0, 7)):
            vals = np.array([f_alpha_analysis(a, p, n).f_value for a in grid])
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            assert np.min(second) >= -1e-10

    def test_domain_errors(self):
        with pytest.raises(WorkbenchError, match=r"alpha must lie in \[0, 1\], got 1.2"):
            f_alpha_analysis(1.2, 2.0, 3)
        with pytest.raises(WorkbenchError, match="n must be >= 1"):
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
    BLOCK = 1 << 14

    @staticmethod
    def knopp_log_t(n):
        # a Knopp bracket (p = 2, alpha = 0.3): its n + 1 logs of t and its
        # W, whose slacks come with coef 1 (that is p - 1) and log scale 4
        p = 2.0
        w = knopp_sequence(p, 0.3, n + 1)
        lam = power_aux_sequence(0.3, n + 1)
        return (p - 1.0) * w.log_w - p * lam.log_w, w.W, lam.W

    def assert_matches_masked_formula(self, log_t, W, log_factor):
        # coef 1 and scales (0,) make the kernel's log t the given log_w
        # exactly, so stalls are injected through log_w
        n = len(log_t) - 1
        want_slacks, want_log_rhs = masked_bracket_slacks(
            np.log(W[:n]), math.log(4.0), log_factor, log_t
        )
        w = AuxSequence(n + 1, ("test", 0.0), (log_t, W))
        log_rhs = math.log(4.0) + log_factor
        # the kernel adds the bracket into each block of log_rhs in place
        blocks = (log_rhs[lo : lo + self.BLOCK] for lo in range(0, n, self.BLOCK))
        slacks = np.concatenate(
            [s.copy() for s, _ in _bracket_slacks(w, 1.0, (0.0,), blocks)]
        )
        assert slacks.tobytes() == want_slacks.tobytes()
        assert log_rhs.tobytes() == want_log_rhs.tobytes()
        return slacks

    def assert_stalls_match_masked_formula(self, stalls, unit_factor):
        # "some" makes t flat at a few indices and rising at a few others,
        # "all" makes it constant
        n = self.N
        log_t, W, Lam = self.knopp_log_t(n)
        if stalls == "some":
            idx = np.random.default_rng(5).choice(n, 40, replace=False)
            log_t[idx[:20] + 1] = log_t[idx[:20]]
            log_t[idx[20:] + 1] = log_t[idx[20:]] + 0.5
        elif stalls == "all":
            log_t[:] = log_t[0]
        log_factor = np.zeros(n) if unit_factor else 2.0 * np.log(Lam[:n])
        slacks = self.assert_matches_masked_formula(log_t, W, log_factor)
        assert np.isneginf(slacks).any() == (stalls != "none")

    @pytest.mark.parametrize("stalls", ["none", "some", "all"])
    def test_matches_masked_formula_bit_for_bit(self, stalls):
        self.assert_stalls_match_masked_formula(stalls, unit_factor=False)

    @pytest.mark.parametrize("stalls", ["none", "some", "all"])
    def test_unit_factor_matches_masked_formula_bit_for_bit(self, stalls):
        # the reverse check's form: no factor sequence
        self.assert_stalls_match_masked_formula(stalls, unit_factor=True)

    @pytest.mark.parametrize("step", ["none", "flat", "rising"])
    def test_stalls_at_block_edges(self, step):
        # each block forms log t one index past its end: the steps from
        # 2**14 - 1 to 2**14 and from 2 * 2**14 - 1 to 2 * 2**14 need it
        n = 2 * self.BLOCK + 3
        log_t, W, Lam = self.knopp_log_t(n)
        ks = [self.BLOCK - 2, self.BLOCK - 1, self.BLOCK, 2 * self.BLOCK - 1]
        if step != "none":
            for k in ks:  # in order: consecutive steps chain
                log_t[k + 1] = log_t[k] + (0.0 if step == "flat" else 0.5)
        slacks = self.assert_matches_masked_formula(
            log_t, W, 2.0 * np.log(Lam[:n])
        )
        stalled = np.flatnonzero(np.isneginf(slacks)).tolist()
        assert stalled == ([] if step == "none" else ks)


class TestCheckMemory:
    # a check streams w, Lam, the bracket and the verdict block by block:
    # about 12 block buffers of 8 * BLOCK bytes (1.45 MiB), at any horizon
    @pytest.mark.parametrize("tol_abs", [0.0, 1e-30])
    def test_knopp_check_holds_block_buffers(self, traced_peak, tol_abs):
        n = 200_000
        w = knopp_sequence(2.0, 0.0, n + 1)
        peak = traced_peak(knopp_criterion_check, w, 2.0, Tolerances(tol_abs))
        assert peak <= 16 * 8 * BLOCK

    @pytest.mark.parametrize("tol_abs", [0.0, 1e-30])
    def test_reverse_check_peak_in_total(self, traced_peak, tol_abs):
        n = 200_000
        peak = traced_peak(reverse_check, 0.25, n, Tolerances(tol_abs))
        assert peak <= 16 * 8 * BLOCK


class TestAbsoluteToleranceVerdicts:
    # tol_abs reaches the slack units through log_rhs, which the checks form
    # in a reused work buffer; each case has an index whose verdict only
    # tol_abs decides (the pinned values agree with an out-of-place
    # evaluation of the same formulas)
    def test_knopp_indices_fail_only_through_tol_abs(self, with_slacks):
        assert classic_check(2000).holds
        w = knopp_sequence(2.0, 0.0, 2001)
        rep, slacks = with_slacks(
            knopp_criterion_check, w, 2.0, Tolerances(tol_abs=0.05)
        )
        assert not rep.holds
        assert rep.first_failure == 129
        assert slacks[128] > 1e-12
        assert rep.min_slack.hex() == "0x1.0624dd34f89f4p-12"

    def test_reverse_index_passes_only_through_tol_abs(self, with_slacks):
        # non-strict: tol_abs loosens, so it moves the first failure from
        # n = 6 to n = 7 at 5e-6 and clears every index at 5.5e-6
        assert reverse_check(0.34, 2000).first_failure == 6
        rep, slacks = with_slacks(reverse_check, 0.34, 2000, Tolerances(tol_abs=5e-6))
        assert not rep.holds
        assert rep.first_failure == 7
        assert slacks[5] < 0.0
        assert rep.min_slack.hex() == "-0x1.0a0dd92a9d82ep-10"
        rep = reverse_check(0.34, 2000, Tolerances(tol_abs=5.5e-6))
        assert rep.holds and rep.first_failure is None
        assert rep.min_slack.hex() == "-0x1.0a0dd92a9d82ep-10"


class TestReverseCriterion:
    def test_claim_names_the_failure_it_reports(self):
        # claim 3.1 asks min_slack >= 0; at n_max = 41500 the p = 1/3 slack
        # dips to -4.6e-13, inside the default tol_rel, and the claim's
        # verdict must still name where it fails
        rows = {r.claim: r for r in reverse_machinery_claims(41500)}
        row = rows["3.1-reverse-p0.333333"]
        assert not row.holds
        assert row.first_failure == 41127
        assert ": fails first at n=41127 " in row.detail
    @pytest.mark.parametrize("p", [0.1, 0.2, 0.25, 1.0 / 3.0])
    def test_established_range_holds(self, p):
        rep = reverse_check(p, 2000)
        assert rep.holds
        assert rep.min_slack >= 0.0
        assert not rep.exploratory

    def test_slacks_match_high_precision_oracle_at_one_third(self, with_slacks):
        # with w_n = n everything is explicit; evaluate both sides with
        # 40-digit arithmetic
        mp.mp.dps = 40
        rep, slacks = with_slacks(reverse_check, 1.0 / 3.0, 2000)

        def oracle(n):
            nn = mp.mpf(n)
            lhs = (nn * (nn + 1) / 2) ** mp.mpf("-1.5")
            rhs = mp.sqrt(2) * (nn**-2 - (nn + 1) ** -2)
            return float(1 - lhs / rhs)

        for n in (1, 2, 10, 100):
            assert slacks[n - rep.n_lo] == pytest.approx(oracle(n), rel=1e-8)
        for n in (1000, 2000):
            assert slacks[n - rep.n_lo] == pytest.approx(oracle(n), rel=1e-4)

    def test_exploratory_range_fails_and_is_flagged(self):
        rep = reverse_check(0.45, 500)
        assert rep.exploratory
        assert not rep.holds
        assert rep.first_failure == 1

    @pytest.mark.parametrize("p", [0.0, -0.1, 0.5, 0.75])
    def test_domain_errors(self, p):
        with pytest.raises(WorkbenchError, match=f"0 < p < 1/2, got p={p}"):
            reverse_check(p, 10)
        with pytest.raises(WorkbenchError, match="reverse regime"):
            reverse_criterion_check(levin_steckin_sequence(0.25, 11), p)

    def test_horizon_is_one_short_of_the_sequence(self):
        rep = reverse_criterion_check(levin_steckin_sequence(0.25, 301), 0.25)
        assert (rep.n_lo, rep.n_hi) == (1, 300)


class TestPowerChoiceChecks:
    def test_first_index_direct_evaluation(self, with_slacks):
        rep, slacks = with_slacks(check_2_30, 3.0, 10)
        rhs = 3.375 * (1.0 - 2.0 ** (-2.0 / 3.0))
        assert rhs == pytest.approx(1.2488832283024415, rel=1e-12)
        assert slacks[1 - rep.n_lo] == pytest.approx((rhs - 1.0) / rhs, rel=1e-10)

    @pytest.mark.parametrize("p", [3.0, 4.0, 10.0])
    def test_established_range_holds(self, p):
        rep = check_2_30(p, 2000)
        assert rep.holds and not rep.exploratory

    def test_slacks_match_plain_float_route(self, with_slacks):
        p = 3.0
        n_max = 500
        _, slacks = with_slacks(check_2_30, p, n_max)
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
        assert np.max(np.abs(slacks - direct)) <= 1e-6


class TestScalarPowerFamily:
    def test_spot_values(self, with_slacks):
        rep, slacks = with_slacks(check_2_4, 3.0, 2)  # the points 0 and 1/3
        lhs0 = (1.0 - 1.0 / 3.0) ** 3
        rhs0 = 1.0 - 2.0 ** (-2.0 / 3.0)
        assert slacks[1 - rep.n_lo] == pytest.approx((rhs0 - lhs0) / rhs0, rel=1e-12)
        lhs1 = (1.0 - 0.25) ** 3
        rhs1 = 0.5
        assert slacks[2 - rep.n_lo] == pytest.approx((rhs1 - lhs1) / rhs1, rel=1e-12)
        assert rep.holds

    @pytest.mark.parametrize("p", [3.0, 5.0, 10.0])
    def test_grid_holds(self, p):
        rep = check_2_4(p, 50)
        assert rep.holds

    def test_point_count_spans_zero_to_inverse_p(self, with_slacks):
        p, alpha = 5.0, np.linspace(0.0, 1.0 / 5.0, 7)
        lhs = (1.0 - 1.0 / ((alpha + 1.0) * p)) ** p
        rhs = 1.0 - 2.0 ** (-(p - 1.0) / p - alpha)
        _, slacks = with_slacks(check_2_4, p, 7)
        assert slacks == pytest.approx((rhs - lhs) / rhs, rel=1e-12)
        # the regime is checked before 1/p is formed
        with pytest.raises(WorkbenchError, match="p >= 3"):
            check_2_4(0.0, 7)

    def test_domain_errors(self):
        with pytest.raises(WorkbenchError, match="range needs p >= 3, got 2.5"):
            check_2_4(2.5, 1)
        with pytest.raises(WorkbenchError, match="empty grid"):
            check_2_4(3.0, 0)

    @pytest.mark.parametrize("count", [2.5, 7.0, True])
    def test_grid_size_must_be_an_integer(self, count):
        # linspace used to end in a TypeError or take a float count
        with pytest.raises(WorkbenchError, match=f"^count must be an integer, got {count!r}$"):
            check_2_4(3.0, count)


class TestShiftedPowerChoice:
    def test_first_index_direct_evaluation(self, with_slacks):
        rep, slacks = with_slacks(check_2_3, 1.0, 2.0, 10)
        rhs = (4.0 / 3.0) ** 2 * (1.0 - 2.0**-1.5)
        assert rhs == pytest.approx(1.1492384167230689, rel=1e-12)
        assert slacks[1 - rep.n_lo] == pytest.approx((rhs - 1.0) / rhs, rel=1e-10)

    @pytest.mark.parametrize(
        "p,alpha", [(2.0, 1.0), (2.0, 1.5), (3.0, 4.0 / 3.0)]
    )
    def test_established_range_holds(self, p, alpha):
        rep = check_2_3(alpha, p, 2000)
        assert rep.holds

    def test_domain_errors(self):
        with pytest.raises(WorkbenchError, match=r"alpha <= 1 \+ 1/p, got alpha=0.5"):
            check_2_3(0.5, 2.0, 10)
        with pytest.raises(WorkbenchError, match=r"alpha <= 1 \+ 1/p, got alpha=1.6"):
            check_2_3(1.6, 2.0, 10)


# Every function that takes a forward exponent p, called with a valid rest.
FORWARD_CALLS = {
    "knopp-criterion": lambda p: knopp_criterion_check(power_aux_sequence(0.0, 11), p),
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
    with pytest.raises(WorkbenchError, match=message):
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
        assert rep.detail == (
            "x: fails first at n=4 (verified up to n_max=6, min_slack=-3.000e-01)"
        )

    def test_strict_rejects_zero_slack(self):
        slacks = np.array([0.5, 0.0, 0.25])
        loose = build_report("x", "0", 1, slacks, strict=False, log_rhs=np.zeros(3))
        strict = build_report("x", "0", 1, slacks, strict=True, log_rhs=np.zeros(3))
        assert loose.holds and loose.first_failure is None
        assert not strict.holds and strict.first_failure == 2
        with pytest.raises(WorkbenchError, match="the index range is empty"):
            build_report("x", "0", 1, [], strict=False, log_rhs=np.zeros(0))

    def test_holding_detail_is_tagged_exploratory(self):
        rep = fold_report(
            "x", "0", 1, [(np.array([0.5, 0.25]), np.zeros(2))], strict=True,
            exploratory=True,
        )
        assert rep.detail == (
            "x: holds (verified up to n_max=2, min_slack=2.500e-01) [exploratory]"
        )

    def test_nonfinite_slack_serializes_as_none(self):
        slacks = np.linspace(0.1, 0.2, 20)
        slacks[-1] = -np.inf
        rep = build_report("x", "9.9", 1, slacks, strict=False, log_rhs=np.zeros(20))
        row = replace(rep, claim="9.9-x").to_dict()
        assert row["claim"] == "9.9-x" and row["paper_ref"] == "9.9"
        assert "ref" not in row and "n_lo" not in row and "n_hi" not in row
        assert row["min_slack"] is None
        assert row["first_failure"] == 20 and row["holds"] is False


class TestTolerances:
    @pytest.mark.parametrize(
        "kwargs",
        [{"tol_abs": math.inf}, {"tol_abs": math.nan},
         {"tol_rel": math.inf}, {"tol_rel": math.nan}],
    )
    def test_nonfinite_rejected(self, kwargs):
        with pytest.raises(WorkbenchError, match="finite"):
            Tolerances(**kwargs)

    def test_infinite_tol_abs_cannot_turn_a_failure_into_a_pass(self):
        assert not reverse_check(0.45, 1000).holds
        with pytest.raises(WorkbenchError, match="tolerances must be finite"):
            reverse_check(0.45, 1000, Tolerances(tol_abs=math.inf))


class TestConstants:
    @given(st.floats(min_value=1.0, max_value=1e6, exclude_min=True))
    def test_unit_weight_constant_is_q_to_the_p(self, p):
        # Knopp's classic constant q**p, bit for bit
        assert weighted_mean_constant(p, 0.0).hex() == ((p / (p - 1.0)) ** p).hex()

    def test_weighted_mean_constant(self):
        assert weighted_mean_constant(2.0, 0.0) == pytest.approx(4.0)
        assert weighted_mean_constant(2.0, 1.0) == pytest.approx((4.0 / 3.0) ** 2)
        with pytest.raises(WorkbenchError, match=r"\)p must exceed 1, got 0.75"):
            weighted_mean_constant(1.5, -0.5)

    def test_weighted_mean_constant_overflow(self):
        # (alpha+1)p = 1.001, so the base is about 1000 and its 1000th power
        # is past the float range
        p, alpha = 1000.0, -0.998999
        match = r"weighted mean constant .* overflows at p=1000.0, alpha=-0.998999"
        with pytest.raises(WorkbenchError, match=match):
            weighted_mean_constant(p, alpha)
        w = knopp_sequence(p, alpha, 20)
        with pytest.raises(WorkbenchError, match=match):
            knopp_criterion_check(w, p, alpha=alpha)
