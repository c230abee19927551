import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab.errors import (
    OutOfDomainError,
    ParameterMismatchError,
    UndefinedRatioError,
    WorkbenchError,
)
from hardylab.operators import (
    OperatorSpec,
    SequenceFamily,
    _pow_p,
    _power_sum,
    apply_copson_tail,
    apply_weighted_mean,
    cesaro,
    constant_ratio,
    copson_ratio_with_tail,
    copson_tail,
    default_power_grid,
    extremal_search,
    norm_ratio,
    power_decay_tail_bounds,
)
from hardylab.redheffer import RedhefferParams

APERY = 1.2020569031595943  # sum of 1/k**3


class TestSpecs:
    def test_operator_validation(self):
        with pytest.raises(OutOfDomainError):
            OperatorSpec("unknown", 10)
        with pytest.raises(OutOfDomainError):
            OperatorSpec("weighted_mean", 10)
        with pytest.raises(OutOfDomainError):
            OperatorSpec("copson_tail", 0)
        assert cesaro(5).alpha == 1.0

    def test_family_validation(self):
        with pytest.raises(OutOfDomainError):
            SequenceFamily("unknown", 5)
        with pytest.raises(OutOfDomainError):
            SequenceFamily("geometric", 5, 1.5)
        with pytest.raises(OutOfDomainError):
            SequenceFamily("power_decay", 5)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RedhefferParams(p=0.5, c=1.0, beta=math.nan),
            lambda: OperatorSpec("weighted_mean", 10, alpha=math.nan),
            lambda: SequenceFamily("power_decay", 10, math.nan),
        ],
        ids=["redheffer-params", "operator-spec", "sequence-family"],
    )
    def test_nan_parameter_rejected(self, make):
        # a NaN used to construct and then turn every ratio into NaN
        with pytest.raises(WorkbenchError):
            make()

    def test_family_values(self):
        assert SequenceFamily("delta", 4).values() == pytest.approx([1, 0, 0, 0])
        assert SequenceFamily("geometric", 3, 0.5).values() == pytest.approx(
            [1.0, 0.5, 0.25]
        )
        assert SequenceFamily("power_decay", 3, 1.0).values() == pytest.approx(
            [1.0, 0.5, 1.0 / 3.0]
        )
        r1 = SequenceFamily("random", 100, 7).values()
        r2 = SequenceFamily("random", 100, 7).values()
        assert np.array_equal(r1, r2)
        assert np.all(r1 >= 0.0)


class TestWeightedMean:
    def test_delta_input_gives_reciprocal_weights(self):
        out = apply_weighted_mean(1.0, np.array([1.0, 0, 0, 0, 0]), 5)
        assert out == pytest.approx(1.0 / np.arange(1, 6))

    def test_rows_sum_to_one(self):
        for alpha in (0.5, 1.0, 1.5, 2.0):
            out = apply_weighted_mean(alpha, np.ones(1000), 1000)
            assert np.max(np.abs(out - 1.0)) <= 1e-12

    def test_quadratic_weights_spot_value(self):
        out = apply_weighted_mean(2.0, np.array([1.0, 0, 0]), 3)
        assert out[2] == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_input_validation(self):
        with pytest.raises(ParameterMismatchError):
            apply_weighted_mean(1.0, np.ones(3), 5)
        with pytest.raises(OutOfDomainError):
            apply_weighted_mean(1.0, np.array([1.0, -2.0]), 2)


class TestCopsonTail:
    def test_finite_support_values(self):
        assert apply_copson_tail(np.array([1.0, 0, 0]), 3) == pytest.approx([1, 0, 0])
        assert apply_copson_tail(np.array([1.0, 1, 0, 0]), 4) == pytest.approx(
            [2.0, 0.5, 0.0, 0.0]
        )

    def test_tail_correction_brackets_infinite_sum(self):
        N = 10000
        lo, hi = power_decay_tail_bounds(3.0, N)
        vals = SequenceFamily("power_decay", N, 3.0).values()
        t_lo = apply_copson_tail(vals, N, lo)[0]
        t_hi = apply_copson_tail(vals, N, hi)[0]
        assert t_lo <= APERY <= t_hi + 1e-15
        assert t_hi - t_lo <= 2e-12

    def test_tail_bounds_domain(self):
        with pytest.raises(OutOfDomainError):
            power_decay_tail_bounds(1.0, 100)
        with pytest.raises(OutOfDomainError):
            apply_copson_tail(np.ones(5), 5, -1.0)


class TestNormRatio:
    def test_delta_ratio_matches_direct_summation(self):
        ref = math.sqrt(math.fsum(1.0 / k**2 for k in range(1, 1001)))
        r = norm_ratio(cesaro(1000), SequenceFamily("delta", 1000), 2.0)
        assert r == pytest.approx(ref, rel=1e-13)
        assert r == pytest.approx(1.2821601174118464, rel=1e-10)

    def test_constant_and_norm_conventions_agree(self):
        fam = SequenceFamily("power_decay", 500, 2.0)
        c = constant_ratio(copson_tail(500), fam, 0.5)
        n = norm_ratio(copson_tail(500), fam, 0.5)
        assert n == pytest.approx(c**2.0, rel=1e-12)

    def test_zero_input_rejected(self):
        with pytest.raises(UndefinedRatioError):
            norm_ratio(cesaro(4), np.zeros(4), 2.0)
        with pytest.raises(OutOfDomainError):
            norm_ratio(cesaro(4), np.ones(4), 0.0)

    def test_forward_cap_over_families(self):
        families = [
            SequenceFamily("delta", 800),
            SequenceFamily("geometric", 800, 0.5),
            SequenceFamily("power_decay", 800, 0.6),
            SequenceFamily("power_decay", 800, 1.5),
            SequenceFamily("random", 800, 3),
        ]
        for p in (1.25, 2.0, 3.0):
            q = p / (p - 1.0)
            for fam in families:
                assert norm_ratio(cesaro(800), fam, p) <= q + 1e-9

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_forward_cap_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random(int(rng.integers(1, 200)))
        if not a.any():
            a[0] = 1.0
        assert norm_ratio(cesaro(len(a)), a, 2.0) <= 2.0 + 1e-9

    def test_reverse_floor_over_families(self):
        families = [
            SequenceFamily("delta", 800),
            SequenceFamily("geometric", 800, 0.5),
            SequenceFamily("power_decay", 800, 1.5),
            SequenceFamily("power_decay", 800, 3.0),
            SequenceFamily("random", 800, 5),
        ]
        for p in (0.25, 1.0 / 3.0):
            floor = p / (1.0 - p)
            for fam in families:
                assert norm_ratio(copson_tail(800), fam, p) >= floor - 1e-9

    def test_half_exponent_constant_floor(self):
        families = [
            SequenceFamily("delta", 800),
            SequenceFamily("geometric", 800, 0.5),
            SequenceFamily("power_decay", 800, 3.0),
            SequenceFamily("random", 800, 5),
        ]
        for fam in families:
            assert constant_ratio(copson_tail(800), fam, 0.5) >= 0.8967 - 1e-9

    def test_truncation_monotonicity_forward(self):
        base = SequenceFamily("power_decay", 8000, 0.6).values()
        ratios = [norm_ratio(cesaro(N), base, 2.0) for N in (100, 500, 2000, 8000)]
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_nan_input_rejected_apart_from_overflow(self):
        with pytest.raises(OutOfDomainError, match="^inputs must not be NaN$"):
            constant_ratio(copson_tail(3), [1.0, math.nan, 1.0], 2.0)
        with pytest.raises(OutOfDomainError, match=r"sum of p-th powers \(p=2.0\) overflows"):
            constant_ratio(copson_tail(3), [1.0, math.inf, 1.0], 2.0)
        with pytest.raises(OutOfDomainError, match="^inputs must be nonnegative$"):
            constant_ratio(copson_tail(3), [1.0, -1.0, 1.0], 2.0)

    @pytest.mark.parametrize("unread", [-1.0, math.nan])
    def test_entries_past_truncation_are_not_validated(self, unread):
        op = copson_tail(3)
        assert constant_ratio(op, [1.0, 1.0, 1.0], 2.0) == 3.3703703703703702
        assert constant_ratio(op, [1.0, 1.0, 1.0, unread], 2.0) == 3.3703703703703702


class TestPowerSum:
    @pytest.mark.parametrize("p", [2.0, 3.0, 0.5, 1.7])
    @pytest.mark.parametrize(
        "layout",
        [lambda x: x, lambda x: x[::-1], lambda x: x[::7], lambda x: x[:0]],
        ids=["contiguous", "reversed", "strided", "empty"],
    )
    def test_matches_fsum_of_list_bit_for_bit(self, layout, p):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 10.0, 20000) * 10.0 ** rng.integers(-3, 3, 20000)
        x[::11] = 0.0
        x = layout(x)
        got = _power_sum(x, p)
        assert got.hex() == math.fsum(_pow_p(x, p).tolist()).hex()

    @pytest.mark.parametrize(
        "x, p",
        [
            (np.full(4, 1e154), 2.0),  # finite terms near 1e308
            (np.full(8, 1e205), 1.5),  # finite terms near 3e307
            (np.array([1.0, math.inf]), 2.0),
            (np.array([1.0, math.inf]), 0.5),
        ],
        ids=["finite-integer-p", "finite-fractional-p", "inf-integer-p",
             "inf-fractional-p"],
    )
    def test_overflow_out_of_domain(self, x, p):
        with pytest.raises(OutOfDomainError, match="overflows"):
            _power_sum(x, p)


class TestTailCorrectedRatio:
    def test_correction_orders(self):
        for s in (1.5, 2.0, 3.0):
            res = copson_ratio_with_tail(s, 0.5, 2000)
            assert res.uncorrected <= res.corrected_low <= res.corrected_high
            assert min(res) >= 0.8967 - 1e-9

    def test_exponent_validation(self):
        # the dropped tail diverges for s <= 1, and the ratio needs p > 0
        for s in (1.0, 0.5, math.nan):
            with pytest.raises(OutOfDomainError):
                copson_ratio_with_tail(s, 0.5, 100)
        with pytest.raises(OutOfDomainError):
            copson_ratio_with_tail(2.0, 0.0, 100)


class TestExtremalSearch:
    def test_forward_picks_maximum(self):
        grid = [SequenceFamily("power_decay", 2000, s) for s in (0.4, 0.6, 1.0)]
        res = extremal_search(cesaro(2000), 2.0, grid)
        assert res.best_ratio == max(res.ratios)
        assert res.best_family in grid

    def test_reverse_picks_minimum_and_respects_floor(self):
        grid = [SequenceFamily("power_decay", 10000, 3.0 + e) for e in (1e-4, 1e-3, 1e-2)]
        res = extremal_search(copson_tail(10000), 1.0 / 3.0, grid)
        assert res.best_ratio == min(res.ratios)
        assert res.best_ratio >= 0.5 - 1e-9

    def test_quadratic_weight_bracketing(self):
        op = OperatorSpec("weighted_mean", 100000, alpha=2.0)
        grid = [SequenceFamily("power_decay", 100000, s) for s in (0.5001, 0.501, 0.51)]
        res = extremal_search(op, 2.0, grid)
        target = 4.0 / 3.0
        assert target * 0.95 < res.best_ratio < target

    def test_empty_grid_rejected(self):
        with pytest.raises(OutOfDomainError):
            extremal_search(cesaro(10), 2.0, [])

    def test_default_grid_exponents(self):
        grid = default_power_grid(2.0, 100)
        assert [f.param for f in grid] == pytest.approx([0.5001, 0.501, 0.51])


class TestFreeSearchOracle:
    def test_small_section_agreement(self):
        # the family search lands within 5% of the dense-section norm of the
        # 8x8 Cesaro matrix, and never above it
        n = np.arange(1, 9)
        section = np.tril(np.ones((8, 8))) / n[:, None]
        norm = np.linalg.norm(section, 2)
        assert norm == pytest.approx(1.37977904, abs=1e-8)
        grid = [SequenceFamily("power_decay", 8, s) for s in np.linspace(0.0, 2.0, 41)]
        fam = extremal_search(cesaro(8), 2.0, grid)
        assert fam.best_ratio >= 0.95 * norm
        assert fam.best_ratio <= norm + 1e-9
