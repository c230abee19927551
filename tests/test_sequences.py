import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardylab.compsum import _BLOCK
from hardylab.criteria import reverse_criterion_check
from hardylab.errors import (
    InvalidExponentError,
    NonpositiveWeightError,
    OutOfDomainError,
    PreconditionError,
)
from hardylab.sequences import (
    _ratio_recurrence,
    _running_fsums,
    conjugate_exponent,
    knopp_sequence,
    levin_steckin_sequence,
    power_aux_sequence,
    power_sum_bound_checks,
)
from hardylab.reports import Verdict
from hardylab.verify import DEFAULT_SEED, lemma_suite_claims


class TestConjugateExponent:
    def test_known_values(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(3.0) == 1.5
        assert conjugate_exponent(0.5) == -1.0

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_undefined_points_raise(self, p):
        with pytest.raises(InvalidExponentError):
            conjugate_exponent(p)

    @given(st.floats(min_value=-100.0, max_value=100.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_pair_identity(self, p):
        if abs(p) < 1e-6 or abs(p - 1.0) < 1e-6:
            return
        q = conjugate_exponent(p)
        scale = max(abs(1.0 / p), abs(1.0 / q), 1.0)
        assert abs(1.0 / p + 1.0 / q - 1.0) <= 1e-14 * scale

    def test_regime_constructors(self):
        assert conjugate_exponent(2.5) == pytest.approx(5.0 / 3.0)
        for p in (1.0, 0.5, math.nan):
            with pytest.raises(PreconditionError, match="forward regime needs p > 1"):
                knopp_sequence(p, 0.0, 10)


class TestWeightSequence:
    """Weights lambda_n = n**alpha, built by power_aux_sequence(alpha, n)."""

    def test_power_family_basics(self):
        ws = power_aux_sequence(0.5, 100)
        assert ws.w[0] == 1.0
        assert ws.w[3] == pytest.approx(2.0)
        assert np.all(np.diff(ws.W) > 0.0)

    def test_constant_is_power_zero(self):
        ws = power_aux_sequence(0.0, 50)
        assert np.all(ws.w == 1.0)
        assert np.all(ws.log_w == 0.0)
        assert ws.W[49] == 50.0

    def test_index_bounds(self):
        ws = power_aux_sequence(1.0, 10)
        assert ws.n_max == len(ws.w) == len(ws.W) == len(ws.log_w) == 10
        assert ws.W[-1] == 55.0
        with pytest.raises(OutOfDomainError):
            power_aux_sequence(1.0, 0)

    def test_partial_sums_match_direct_summation_at_scale(self):
        n = 1_000_000
        ws = power_aux_sequence(0.7, n)
        direct = math.fsum((np.arange(1, n + 1, dtype=float) ** 0.7).tolist())
        assert abs(ws.W[n - 1] - direct) <= 1e-12 * direct


class TestKnoppSequence:
    def test_hand_evaluated_start(self):
        seq = knopp_sequence(2.0, 0.0, 5)
        expected = [1.0, 0.5, 0.375, 0.3125]
        assert seq.w[:4] == pytest.approx(expected, rel=1e-14)

    def test_alpha_at_inverse_p_is_constant(self):
        seq = knopp_sequence(2.0, 0.5, 6)
        assert seq.w == pytest.approx(np.ones(6), rel=1e-14)

    def test_partial_sum_identity_small(self):
        seq = knopp_sequence(2.0, 0.0, 5)
        assert seq.W[2] == pytest.approx(1.875, rel=1e-14)
        residual = partial_sum_residuals(seq, -0.5)
        assert residual[0] == 0.0
        assert residual[2] <= 1e-14

    def test_partial_sum_identity_larger(self):
        seq = knopp_sequence(3.0, 0.7, 120)
        assert partial_sum_residuals(seq, 0.7 - 1.0 / 3.0)[99] <= 1e-12

    def test_gamma_ratio_closed_form(self):
        # w_n = Gamma(n + s) / (Gamma(n) Gamma(1 + s)) with s = alpha - 1/p
        for p, alpha in ((1.5, 0.0), (2.0, 0.0), (3.0, 0.0), (2.0, 0.3)):
            seq = knopp_sequence(p, alpha, 20)
            s = alpha - 1.0 / p
            for n in range(1, 21):
                ref = math.gamma(n + s) / (math.gamma(n) * math.gamma(1.0 + s))
                assert seq.w[n - 1] == pytest.approx(ref, rel=1e-13)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(NonpositiveWeightError):
            knopp_sequence(2.0, -0.5, 10)
        with pytest.raises(NonpositiveWeightError, match=r"-1/q=-0\.5:"):
            knopp_sequence(2.0, -0.7, 10)


class TestLevinSteckinSequence:
    def test_collapses_to_integers_at_one_third(self):
        seq = levin_steckin_sequence(1.0 / 3.0, 10)
        assert seq.w == pytest.approx(np.arange(1, 11, dtype=float), rel=1e-14)
        assert seq.W[3] == pytest.approx(10.0, rel=1e-14)
        ident = (4 + 1) / 2 * seq.w[3]
        assert ident == pytest.approx(10.0, rel=1e-13)

    def test_hand_evaluated_at_quarter(self):
        seq = levin_steckin_sequence(0.25, 4)
        assert seq.w[1] == pytest.approx(3.0, rel=1e-14)

    def test_partial_sum_identity_over_range(self):
        for p in (0.1, 0.25, 1.0 / 3.0):
            seq = levin_steckin_sequence(p, 5000)
            assert float(np.max(partial_sum_residuals(seq, 1.0 / p - 2.0))) <= 1e-12

    def test_domain_and_flags(self):
        with pytest.raises(NonpositiveWeightError):
            levin_steckin_sequence(0.5, 10)
        with pytest.raises(NonpositiveWeightError):
            levin_steckin_sequence(0.75, 10)
        with pytest.raises(NonpositiveWeightError):
            levin_steckin_sequence(-0.1, 10)
        assert not reverse_criterion_check(1.0 / 3.0, 5).exploratory
        assert reverse_criterion_check(0.4, 5).exploratory


def partial_sum_residuals(seq, shift):
    """Relative residuals of W_n = ((n + shift)/(1 + shift)) w_n for every n,
    the partial-sum identity of the ratio recurrence with this shift."""
    n = np.arange(1, seq.n_max + 1, dtype=float)
    return np.abs(seq.W - (n + shift) / (1.0 + shift) * seq.w) / seq.W


@st.composite
def recurrence_instances(draw):
    kind = draw(st.sampled_from(["knopp", "levin"]))
    n = draw(st.integers(min_value=1, max_value=300))
    if kind == "knopp":
        p = draw(st.floats(min_value=1.01, max_value=10.0))
        lo = 1.0 / p - 1.0
        alpha = draw(st.floats(min_value=lo + 0.01, max_value=2.0))
        # alpha > 1 is outside the criterion range but the recurrence itself
        # is defined there; clamp to the generator's accepted domain
        alpha = min(alpha, 1.0)
        if alpha <= lo:
            alpha = lo + 0.01
        return ("knopp", p, alpha, n)
    p = draw(st.floats(min_value=0.05, max_value=0.49))
    return ("levin", p, None, n)


class TestRecurrenceProperties:
    @given(recurrence_instances())
    @settings(max_examples=60, deadline=None)
    def test_partial_sum_identity_property(self, inst):
        kind, p, alpha, n = inst
        if kind == "knopp":
            seq = knopp_sequence(p, alpha, n)
            shift = alpha - 1.0 / p
        else:
            seq = levin_steckin_sequence(p, n)
            shift = 1.0 / p - 2.0
        assert partial_sum_residuals(seq, shift)[n - 1] <= 1e-12

    @given(recurrence_instances())
    @settings(max_examples=60, deadline=None)
    def test_log_value_consistency(self, inst):
        kind, p, alpha, n = inst
        if kind == "knopp":
            seq = knopp_sequence(p, alpha, n)
        else:
            seq = levin_steckin_sequence(p, n)
        dev = np.abs(np.exp(seq.log_w) - seq.w) / seq.w
        assert float(np.max(dev)) <= 1e-12

    def test_log_value_consistency_at_scale(self):
        seq = knopp_sequence(2.0, 0.7, 1_000_000)
        dev = np.abs(np.exp(seq.log_w) - seq.w) / seq.w
        assert float(np.max(dev)) <= 1e-12

    def test_positivity(self):
        seq = knopp_sequence(1.2, -0.1, 2000)
        assert np.all(seq.w > 0.0)
        assert np.all(np.diff(seq.W) > 0.0)


def loop_ratio_recurrence(shift, n_max):
    """(w, W, log_w) from the recurrence run one index at a time with
    Neumaier compensation: the reference the vectorized generator must
    reproduce bit for bit."""
    w = np.empty(n_max)
    W = np.empty(n_max)
    log_w = np.empty(n_max)
    w[0] = W[0] = 1.0
    log_w[0] = 0.0
    sW, cW = 1.0, 0.0
    sL, cL = 0.0, 0.0
    for n in range(1, n_max):
        x = math.log1p(shift / n)
        t = sL + x
        if abs(sL) >= abs(x):
            cL += (sL - t) + x
        else:
            cL += (x - t) + sL
        sL = t
        lw = sL + cL
        log_w[n] = lw
        wn = math.exp(lw) if lw < 709.0 else math.inf
        w[n] = wn
        t = sW + wn
        if abs(sW) >= abs(wn):
            cW += (sW - t) + wn
        else:
            cW += (wn - t) + sW
        sW = t
        W[n] = sW + cW
    return w, W, log_w


def assert_matches_loop(seq, shift):
    for got, want in zip((seq.w, seq.W, seq.log_w), loop_ratio_recurrence(shift, seq.n_max)):
        assert got.tobytes() == want.tobytes()


class TestRecurrenceBitIdentity:
    N_MAXES = (1, 2, _BLOCK - 1, _BLOCK + 1, 100_000)

    @pytest.mark.parametrize("shift", [-0.999, -0.5, 0.0, 1e-12, 0.5, 2.0, 8.0, 200.0])
    def test_ratio_recurrence(self, shift):
        # the loop is causal, so every shorter horizon is a prefix of the longest
        ref = loop_ratio_recurrence(shift, self.N_MAXES[-1])
        for n_max in self.N_MAXES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                seq = _ratio_recurrence(shift, n_max)
            for got, want in zip((seq.w, seq.W, seq.log_w), ref):
                assert got.tobytes() == want[:n_max].tobytes()
        if shift == 200.0:
            # w_n leaves exp's range near n = 2500 and is stored as inf
            assert np.isinf(seq.w[-1])

    @pytest.mark.parametrize("p, alpha", [(2.0, -0.499), (2.0, 0.5), (3.0, 1.0), (1.25, 0.7)])
    def test_knopp_sequence(self, p, alpha):
        seq = knopp_sequence(p, alpha, 2 * _BLOCK + 3)
        assert_matches_loop(seq, alpha - 1.0 / p)

    @pytest.mark.parametrize("p", [0.1, 0.25, 1.0 / 3.0, 0.45, 1.0 / 202.0])
    def test_levin_steckin_sequence(self, p):
        seq = levin_steckin_sequence(p, 2 * _BLOCK + 3)
        assert_matches_loop(seq, 1.0 / p - 2.0)


class TestPowerAuxSequence:
    def test_values_and_normalization(self):
        seq = power_aux_sequence(-0.5, 10)
        assert seq.w[0] == 1.0
        assert seq.w[3] == pytest.approx(0.5)
        assert seq.W[1] == pytest.approx(1.0 + 2.0**-0.5)

    def test_constant_alias(self):
        # exponent 0 is the constant auxiliary sequence
        seq = power_aux_sequence(0.0, 5)
        assert np.all(seq.w == 1.0)
        assert np.array_equal(seq.W, np.arange(1.0, 6.0))
        assert np.all(seq.log_w == 0.0)
        with pytest.raises(OutOfDomainError):
            power_aux_sequence(0.0, 0)


class TestPowerSumBounds:
    def test_product_form_spot_values(self):
        res = power_sum_bound_checks(1.0, 5, "product")[-1]
        assert res.lhs == pytest.approx(15.0)
        assert res.rhs == pytest.approx(15.0)
        assert res.holds
        res = power_sum_bound_checks(0.5, 10, "product")[-1]
        assert res.lhs == pytest.approx(22.4682781862041, rel=1e-12)
        assert res.rhs == pytest.approx(22.110831935702663, rel=1e-12)
        assert res.holds and res.direction == ">="

    def test_ratio_form_spot_values(self):
        res = power_sum_bound_checks(2.0, 3, "ratio")[-1]
        assert res.lhs == pytest.approx(14.0)
        assert res.rhs == pytest.approx(96.0 / 7.0, rel=1e-12)
        assert res.holds and res.direction == ">="

    def test_ratio_form_equality_at_one(self):
        res = power_sum_bound_checks(1.0, 7, "ratio")[-1]
        assert res.lhs == pytest.approx(res.rhs, rel=1e-12)
        assert res.holds

    def test_ratio_form_reversed_region(self):
        for r in (-0.9, -0.5, 0.0, 0.5):
            res = power_sum_bound_checks(r, 25, "ratio")[-1]
            assert res.direction == "<="
            assert res.holds
            assert res.lhs <= res.rhs * (1.0 + 1e-12)

    def test_grids(self):
        ns = (1, 2, 3, 7, 19, 100, 523, 1000)
        for r in np.linspace(0.0, 1.0, 11):
            for n in ns:
                assert power_sum_bound_checks(float(r), n, "product")[-1].holds
        for r in (1.0, 1.5, 2.0, 3.0):
            for n in ns:
                assert power_sum_bound_checks(r, n, "ratio")[-1].holds
        for r in (-0.9, -0.5, 0.0, 0.5, 1.0):
            for n in ns:
                assert power_sum_bound_checks(r, n, "ratio")[-1].holds

    def test_domain_errors(self):
        with pytest.raises(OutOfDomainError):
            power_sum_bound_checks(-1.0, 5, "ratio")
        with pytest.raises(OutOfDomainError):
            power_sum_bound_checks(1.5, 5, "product")
        with pytest.raises(OutOfDomainError):
            power_sum_bound_checks(0.5, 0)
        with pytest.raises(OutOfDomainError):
            power_sum_bound_checks(0.5, 5, "unknown")


def fsum_bound_row(r, n, form="product"):
    """The bound check re-summing i**r from scratch with math.fsum: the
    reference every row of power_sum_bound_checks must reproduce bit for
    bit."""
    if n < 1:
        raise OutOfDomainError("n must be >= 1")
    lhs = math.fsum(float(i) ** r for i in range(1, n + 1))
    if form == "product":
        if not 0.0 <= r <= 1.0:
            raise OutOfDomainError(f"product form needs 0 <= r <= 1, got r={r}")
        rhs = n * (n + 1.0) ** r / (r + 1.0)
        direction = ">="
    elif form == "ratio":
        if r <= -1.0:
            raise OutOfDomainError(f"ratio form needs r > -1, got r={r}")
        u = math.log1p(1.0 / n)
        factor = 1.0 / u if r * u == 0.0 else r / math.expm1(r * u)
        rhs = (n + 1.0) ** r / (r + 1.0) * factor
        direction = ">=" if r >= 1.0 else "<="
    else:
        raise OutOfDomainError(f"unknown form {form!r}")
    tol = 1e-12 * max(abs(lhs), abs(rhs))
    if direction == ">=":
        holds = lhs - rhs >= -tol
    else:
        holds = rhs - lhs >= -tol
    return lhs, rhs, holds, direction


def assert_rows_match_fsum(r, n_max, form):
    rows = power_sum_bound_checks(r, n_max, form)
    assert len(rows) == n_max
    for n, row in enumerate(rows, start=1):
        lhs, rhs, holds, direction = fsum_bound_row(r, n, form)
        assert (row.lhs.hex(), row.rhs.hex()) == (lhs.hex(), rhs.hex()), (r, n)
        assert (row.holds, row.direction) == (holds, direction), (r, n)


# the exponents of claims 8.1, 8.2 and 8.3 in verify.lemma_suite_claims
LEMMA_GRID = (
    [("product", float(r)) for r in np.linspace(0.0, 1.0, 11)]
    + [("ratio", r) for r in (1.0, 1.5, 2.0, 3.0)]
    + [("ratio", r) for r in (-0.9, -0.5, 0.0, 0.5, 1.0)]
)


class TestPowerSumRunningSums:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(5e-324, 1e300), min_size=1, max_size=40))
    @example([5e-324, 1e300, 5e-324])  # denominator 2**1074 beside a 1e300 term
    @example([sys.float_info.max, 2.0**969])  # below half an ulp: rounds down
    def test_helper_matches_fsum_of_every_prefix(self, terms):
        sums = _running_fsums(terms)
        expected = [math.fsum(terms[:n]) for n in range(1, len(terms) + 1)]
        assert [x.hex() for x in sums] == [x.hex() for x in expected]

    def test_helper_overflow_matches_fsum(self):
        # finite terms whose exact prefix rounds past the float range at n = 3
        terms = [1.0, sys.float_info.max, 2.0**970]
        assert _running_fsums(terms[:2]) == [1.0, sys.float_info.max]
        with pytest.raises(OverflowError):
            math.fsum(terms)
        with pytest.raises(OverflowError):
            _running_fsums(terms)

    @pytest.mark.parametrize("form, r", LEMMA_GRID)
    def test_lemma_grid_matches_fsum(self, form, r):
        assert_rows_match_fsum(r, 1000, form)

    @settings(max_examples=15, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just("product"), st.floats(0.0, 1.0)),
            st.tuples(
                st.just("ratio"), st.floats(-1.0, 4.0, exclude_min=True)
            ),
        ),
        st.integers(1, 3000),
    )
    @example(("product", 0.37), 3000)
    @example(("ratio", 5e-324), 2)  # r u underflows to 0 for n >= 2
    def test_drawn_exponents_match_fsum(self, form_r, n_max):
        form, r = form_r
        assert_rows_match_fsum(r, n_max, form)

    @pytest.mark.parametrize(
        "r, n, form",
        [
            (0.5, 0, "product"),
            (0.5, -3, "ratio"),
            (0.5, 5, "unknown"),
            (-0.1, 5, "product"),
            (1.5, 5, "product"),
            (-1.0, 5, "ratio"),
            (-2.0, 5, "ratio"),
            (math.nan, 5, "product"),
            (math.nan, 5, "ratio"),
            (math.inf, 5, "product"),
            (math.inf, 5, "ratio"),
            (-math.inf, 5, "ratio"),
        ],
    )
    def test_domain_errors(self, r, n, form):
        with pytest.raises(OutOfDomainError):
            power_sum_bound_checks(r, n, form)
        if math.isfinite(r):
            with pytest.raises(OutOfDomainError):
                fsum_bound_row(r, n, form)

    @pytest.mark.parametrize(
        "r, form", [(0.5, "unknown"), (2.0, "product"), (math.inf, "ratio")]
    )
    def test_validates_before_summing(self, r, form):
        # summing 10**12 terms first would not return in any test's lifetime
        with pytest.raises(OutOfDomainError):
            power_sum_bound_checks(r, 10**12, form)

    def test_row_is_independent_of_horizon(self):
        for form, r in (("product", 0.3), ("ratio", 2.5), ("ratio", -0.7)):
            rows = power_sum_bound_checks(r, 57, form)
            for n in (1, 2, 57):
                assert rows[n - 1] == power_sum_bound_checks(r, n, form)[-1]

    def test_overflow_matches_fsum(self):
        # each term 1000**102.5 ~ 3e307 is finite, the prefix at n = 1000 is not
        r = 102.5
        with pytest.raises(OverflowError):
            fsum_bound_row(r, 1000, "ratio")
        with pytest.raises(OverflowError):
            power_sum_bound_checks(r, 1000, "ratio")
        assert_rows_match_fsum(r, 600, "ratio")

    def test_lemma_suite_rows_unchanged(self):
        rows = lemma_suite_claims(DEFAULT_SEED)
        assert rows == [
            Verdict("8.1-power-sum-product", "lem0.4", True),
            Verdict("8.2-power-sum-ratio", "lem0.201", True),
            Verdict("8.3-power-sum-ratio-reverse", "lem0.201", True),
            Verdict(
                "8.4-partial-sum-lemma", "6.1", True, value=0.10204056361975233
            ),
            Verdict(
                "8.5-tail-sum-lemma", "6.5", True, value=0.020252894166175484
            ),
            Verdict(
                "8.6-single-step-grid", "6.6", True, value=7.948649793920737e-08
            ),
        ]
