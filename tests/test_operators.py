import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab import operators, sequences
from hardylab.compsum import BLOCK, ExactSum, neumaier_prefix_sums, neumaier_suffix_sums
from hardylab.errors import WorkbenchError
from hardylab.operators import (
    OperatorSpec,
    SequenceFamily,
    _pow_p,
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


def weighted_mean(alpha: float, N: int) -> OperatorSpec:
    return OperatorSpec("weighted_mean", N, alpha=alpha)


def apply(op: OperatorSpec, a) -> np.ndarray:
    """The operator's output on a valid input: its blocks, streamed from the
    start or from the end, joined in index order."""
    N = op.truncation
    block, shape, _ = operators._source(a, N, 1)
    out = np.empty(shape, order="F")
    blocks = [m[:, 0].copy() for _, m in operators._output(op, block, N, shape, (0.0,), out)]
    return np.concatenate(blocks if op.kind == "weighted_mean" else blocks[::-1])


def power_sum(x: np.ndarray, p: float) -> float:
    """The exact sum of the powers of the blocks of one array, under the
    errstate the ratios' pass sets, checked as the pass checks its sums."""
    blocks = [_pow_p(x[lo : lo + BLOCK], p)[:, None] for lo in range(0, len(x), BLOCK)]
    acc = ExactSum((len(x), 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            acc.add(block.copy())
        (total,) = acc.total(blocks)
    operators._check_finite([total], p)
    return total


class TestSpecs:
    def test_operator_validation(self):
        with pytest.raises(WorkbenchError, match="unknown operator kind 'unknown'"):
            OperatorSpec("unknown", 10)
        with pytest.raises(WorkbenchError, match="weighted_mean needs a finite alpha"):
            OperatorSpec("weighted_mean", 10)
        with pytest.raises(WorkbenchError, match="truncation must be >= 1"):
            OperatorSpec("copson_tail", 0)
        # an alpha the tail mean never reads would be accepted as if applied
        with pytest.raises(WorkbenchError, match="copson_tail takes no alpha"):
            OperatorSpec("copson_tail", 3, alpha=7.0)
        assert cesaro(5).alpha == 1.0

    def test_family_validation(self):
        with pytest.raises(WorkbenchError, match="unknown family kind 'unknown'"):
            SequenceFamily("unknown", 5)
        with pytest.raises(WorkbenchError, match="geometric needs 0 <= r < 1"):
            SequenceFamily("geometric", 5, 1.5)
        with pytest.raises(WorkbenchError, match="power_decay needs a finite exponent"):
            SequenceFamily("power_decay", 5)
        # no coerced parameter: 7.9 ran seed 7, None seed 0, -1 failed only
        # in values(), and delta's label showed a parameter it ignored
        for kind, param in [("random", 7.9), ("random", None), ("random", -1),
                            ("random", True), ("delta", 3.0)]:
            rule = "takes no parameter" if kind == "delta" else f"seed >= 0, got {param}"
            with pytest.raises(WorkbenchError, match=rule):
                SequenceFamily(kind, 5, param)

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

    # a horizon that is no integer >= 1 used to fail later with a TypeError,
    # or to run a truncated horizon (length 2.5 read 2 entries)
    @pytest.mark.parametrize("N", [2.5, True, math.nan, np.float64(3.0)])
    def test_truncation_must_be_an_integer(self, N):
        with pytest.raises(WorkbenchError, match="^truncation must be an integer, got"):
            copson_tail(N)

    @pytest.mark.parametrize("N", [2.5, False, np.float64(3.0)])
    def test_length_must_be_an_integer(self, N):
        with pytest.raises(WorkbenchError, match="^length must be an integer, got"):
            SequenceFamily("delta", N)

    def test_tail_ratio_horizon_must_be_an_integer(self):
        with pytest.raises(WorkbenchError, match=r"^length must be an integer, got 100\.5$"):
            copson_ratio_with_tail(2.0, 0.5, 100.5)

    @pytest.mark.parametrize("N, rule", [(0, "^N must be >= 1$"), (-3, "^N must be >= 1$"),
                                         (2.5, r"^N must be an integer, got 2\.5$")])
    def test_tail_bounds_horizon(self, N, rule):
        with pytest.raises(WorkbenchError, match=rule):
            power_decay_tail_bounds(2.0, N)

    def test_numpy_integer_horizons_accepted(self):
        N = np.int64(3)
        assert constant_ratio(copson_tail(N), SequenceFamily("delta", N), 2.0) == \
            constant_ratio(copson_tail(3), SequenceFamily("delta", 3), 2.0)
        assert power_decay_tail_bounds(2.0, N) == power_decay_tail_bounds(2.0, 3)

    def test_family_values(self):
        assert SequenceFamily("delta", 4).block(0, 4) == pytest.approx([1, 0, 0, 0])
        assert SequenceFamily("geometric", 3, 0.5).block(0, 3) == pytest.approx(
            [1.0, 0.5, 0.25]
        )
        assert SequenceFamily("power_decay", 3, 1.0).block(0, 3) == pytest.approx(
            [1.0, 0.5, 1.0 / 3.0]
        )
        r1 = SequenceFamily("random", 100, 7).block(0, 100)
        r2 = SequenceFamily("random", 100, 7).block(0, 100)
        assert np.array_equal(r1, r2)
        assert np.all(r1 >= 0.0)


class TestWeightedMean:
    def test_delta_input_gives_reciprocal_weights(self):
        out = apply(cesaro(5), np.array([1.0, 0, 0, 0, 0]))
        assert out == pytest.approx(1.0 / np.arange(1, 6))

    def test_rows_sum_to_one(self):
        for alpha in (0.5, 1.0, 1.5, 2.0):
            out = apply(weighted_mean(alpha, 1000), np.ones(1000))
            assert np.max(np.abs(out - 1.0)) <= 1e-12

    def test_quadratic_weights_spot_value(self):
        out = apply(weighted_mean(2.0, 3), np.array([1.0, 0, 0]))
        assert out[2] == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_input_validation(self):
        with pytest.raises(WorkbenchError, match="input length 3 < truncation 5"):
            constant_ratio(cesaro(5), np.ones(3), 2.0)
        with pytest.raises(WorkbenchError, match="^inputs must be nonnegative$"):
            constant_ratio(cesaro(2), np.array([1.0, -2.0]), 2.0)


class TestCopsonTail:
    def test_finite_support_values(self):
        assert apply(copson_tail(3), np.array([1.0, 0, 0])) == pytest.approx([1, 0, 0])
        assert apply(copson_tail(4), np.array([1.0, 1, 0, 0])) == pytest.approx(
            [2.0, 0.5, 0.0, 0.0]
        )

    def test_tail_correction_brackets_infinite_sum(self):
        N = 10000
        lo, hi = power_decay_tail_bounds(3.0, N)
        t1 = apply(copson_tail(N), SequenceFamily("power_decay", N, 3.0))[0]
        assert t1 + lo <= APERY <= t1 + hi + 1e-15
        assert hi - lo <= 2e-12

    def test_tail_bounds_domain(self):
        with pytest.raises(WorkbenchError, match="tail converges only for s > 1"):
            power_decay_tail_bounds(1.0, 100)


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
        with pytest.raises(WorkbenchError, match="identically zero"):
            norm_ratio(cesaro(4), np.zeros(4), 2.0)
        with pytest.raises(WorkbenchError, match="p must be positive, got 0.0"):
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
        base = SequenceFamily("power_decay", 8000, 0.6).block(0, 8000)
        ratios = [norm_ratio(cesaro(N), base, 2.0) for N in (100, 500, 2000, 8000)]
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_nan_input_rejected_apart_from_overflow(self):
        with pytest.raises(WorkbenchError, match="^inputs must not be NaN$"):
            constant_ratio(copson_tail(3), [1.0, math.nan, 1.0], 2.0)
        with pytest.raises(WorkbenchError, match=r"sum of p-th powers \(p=2.0\) overflows"):
            constant_ratio(copson_tail(3), [1.0, math.inf, 1.0], 2.0)
        with pytest.raises(WorkbenchError, match="^inputs must be nonnegative$"):
            constant_ratio(copson_tail(3), [1.0, -1.0, 1.0], 2.0)
        # 2 * 1e308 overflows in the mean's scan, which leaves NaN
        with pytest.raises(WorkbenchError, match=r"powers \(p=0.5\) overflows"):
            constant_ratio(weighted_mean(2.0, 3), [1e308, 1e308, 1.0], 0.5)

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
        got = power_sum(x, p)
        assert got.hex() == math.fsum(_pow_p(x, p).tolist()).hex()

    @pytest.mark.parametrize(
        "x, p",
        [
            (np.full(4, 1e154), 2.0),  # finite terms near 1e308
            (np.full(8, 1e205), 1.5),  # finite terms near 3e307
            (np.array([1.0, math.inf]), 2.0),
            (np.array([1.0, math.inf]), 0.5),
            (np.array([1.0, math.nan]), 0.5),  # its power is NaN, not 0
        ],
        ids=["finite-integer-p", "finite-fractional-p", "inf-integer-p",
             "inf-fractional-p", "nan-fractional-p"],
    )
    def test_overflow_out_of_domain(self, x, p):
        with pytest.raises(WorkbenchError, match="overflows"):
            power_sum(x, p)


class TestTailCorrectedRatio:
    def test_correction_orders(self):
        for s in (1.5, 2.0, 3.0):
            res = copson_ratio_with_tail(s, 0.5, 2000)
            assert res.uncorrected <= res.corrected_low <= res.corrected_high
            assert min(res) >= 0.8967 - 1e-9

    def test_exponent_validation(self):
        # the dropped tail diverges for s <= 1, and the ratio needs p > 0
        for s in (1.0, 0.5, math.nan):
            rule = "finite exponent" if math.isnan(s) else "converges only for s > 1"
            with pytest.raises(WorkbenchError, match=rule):
                copson_ratio_with_tail(s, 0.5, 100)
        with pytest.raises(WorkbenchError, match="p must be positive, got 0.0"):
            copson_ratio_with_tail(2.0, 0.0, 100)


class TestOperatorAppliedOnce:
    FAMILIES = [
        SequenceFamily("delta", 2000),
        SequenceFamily("geometric", 2000, 0.5),
        SequenceFamily("power_decay", 2000, 0.6),
        SequenceFamily("random", 2000, 7),
    ]

    def test_one_scan_per_constant_ratio(self, scans):
        for p in (1.25, 2.0, 3.0):
            scans.clear()
            constant_ratio(cesaro(2000), self.FAMILIES[2], p)
            assert scans == [2000]

    @pytest.mark.parametrize(
        "a, p, message",
        [
            ([1.0, math.nan, 1.0], 2.0, "^inputs must not be NaN$"),
            ([0.0, 0.0, 0.0], 2.0,
             "^input is identically zero on the truncation$"),
            # a nonzero entry whose square underflows
            ([5e-324, 0.0, 0.0], 2.0,
             r"^every a_n\*\*p underflows to 0 \(p=2.0\)$"),
            ([1.0, 1.0, 1.0], 0.0, "^p must be positive, got 0.0$"),
        ],
        ids=["nan", "zero", "underflow", "p"],
    )
    def test_norm_ratio_errors(self, a, p, message):
        with pytest.raises(WorkbenchError, match=message):
            norm_ratio(cesaro(3), a, p)

    def test_norm_ratio_overflows(self):
        # the sum of the means' 300th powers overflows, and so does the
        # ratio's 1000th root at p = 1e-3
        op = weighted_mean(-20.0, 10)
        a = [10.59] + [0.0] * 9
        with pytest.raises(WorkbenchError, match=r"p=300.0\) overflows"):
            norm_ratio(op, a, 300.0)
        with pytest.raises(WorkbenchError, match=r"power overflows \(p=0.001\)"):
            norm_ratio(op, a, 1e-3)

    @pytest.mark.parametrize(
        "ratios",
        [
            lambda op, fam: constant_ratio(op, fam, 2.0),
            lambda op, fam: norm_ratio(op, fam, 2.0),
        ],
        ids=["constant_ratio", "norm_ratio"],
    )
    def test_input_read_once(self, monkeypatch, ratios):
        # one pass reads the family, checks it and sums both sides
        reads = []
        block = SequenceFamily.block

        def counted(fam, lo, hi):
            reads.append(hi - lo)
            return block(fam, lo, hi)

        monkeypatch.setattr(SequenceFamily, "block", counted)
        for op in (cesaro(2000), copson_tail(2000)):
            reads.clear()
            ratios(op, self.FAMILIES[2])
            assert reads == [2000]

    @pytest.mark.parametrize(
        "call, blocks",
        [
            # blocks of BLOCK // m rows, BLOCK // 3 with three tail masses
            (lambda: constant_ratio(cesaro(2 * BLOCK + 5),
                                    SequenceFamily("power_decay", 2 * BLOCK + 5, 0.6), 2.0), 3),
            (lambda: constant_ratio(copson_tail(BLOCK),
                                    SequenceFamily("random", BLOCK, 7), 0.5), 1),
            (lambda: constant_ratio(copson_tail(3 * (BLOCK // 4)),
                                    np.ones((3 * (BLOCK // 4), 4)), 2.0), 3),
            (lambda: copson_ratio_with_tail(2.0, 0.5, 2 * (BLOCK // 3) + 5), 3),
        ],
        ids=["cesaro", "tail", "stack", "tail-masses"],
    )
    def test_one_exact_sum_per_ratio(self, monkeypatch, call, blocks):
        # both sides' powers (and every tail mass's) are the columns of one
        # block, added to one sum once per block
        sums = []
        add = ExactSum.add

        def spy(acc, x):
            sums.append(acc)
            return add(acc, x)

        monkeypatch.setattr(ExactSum, "add", spy)
        call()
        assert len(sums) == blocks
        assert all(acc is sums[0] for acc in sums)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_tail_ratios_match_constant_ratio(self, scans, s):
        N = 10000
        fam = SequenceFamily("power_decay", N, s)
        lo, hi = power_decay_tail_bounds(s, N)
        # the exact oracle: the family's suffix sums plus the mass over n,
        # then the same exp/log powers, each sum rounded once by fsum
        vals = fam.block(0, N)
        denom = math.fsum(gather_pow(vals, 0.5).tolist())
        ramp = np.arange(1, N + 1, dtype=float)
        want = [constant_ratio(copson_tail(N), fam, 0.5).hex()] + [
            (math.fsum(gather_pow((neumaier_suffix_sums(vals) + m) / ramp, 0.5)
                       .tolist()) / denom).hex()
            for m in (lo, hi)
        ]
        scans.clear()
        got = copson_ratio_with_tail(s, 0.5, N)
        assert [r.hex() for r in got] == want
        assert scans == [N]  # one pass of suffix sums for the three masses


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
        with pytest.raises(WorkbenchError, match="family grid must be nonempty"):
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


def gather_pow(x: np.ndarray, p: float) -> np.ndarray:
    """The gather/scatter form _pow_p replaced: the bits it must keep."""
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = np.exp(p * np.log(x[pos]))
    return out


def power_grid(N: int) -> list[SequenceFamily]:
    return [SequenceFamily("power_decay", N, s) for s in (0.5001, 0.501, 0.51)]


class TestOperatorMemory:
    N = 200_000

    @pytest.mark.parametrize("p", [0.5, 1.0 / 3.0, 2.5, 1e-3])
    def test_pow_p_bits_match_gather_form(self, p):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 10.0, 5000) * 10.0 ** rng.integers(-300, 300, 5000)
        x[::7] = 0.0
        x[1::11] = 5e-324
        x[2::13] = 2.0**-1060  # subnormal
        x[3::17] = 1e308
        x[4::19] = math.inf
        x[5::23] = -0.0  # log(-0.0) = -inf, whose exp is +0.0
        x[6::29] = math.nan
        with np.errstate(over="ignore"):  # 1e308**2.5 is inf in both forms
            for layout in (x, x[::-1], x[::3]):
                want = gather_pow(layout, p)
                want[np.isnan(layout)] = math.nan  # a NaN entry stays NaN
                assert _pow_p(layout, p).tobytes() == want.tobytes()

    def test_pow_p_peak(self, traced_peak):
        x = SequenceFamily("power_decay", self.N, 1.5).block(0, self.N)
        x[::10] = 0.0
        assert traced_peak(_pow_p, x, 0.5) <= 1.25 * 8 * self.N

    # a ratio is one pass that forms the family, the operator's output and
    # both sides' powers block by block: about 11 block buffers of
    # 8 * BLOCK bytes (1.4 MiB), at any truncation
    def test_copson_ratio_peak(self, traced_peak):
        args = (copson_tail(self.N), SequenceFamily("power_decay", self.N, 3.0), 0.5)
        assert traced_peak(constant_ratio, *args) <= 16 * 8 * BLOCK

    def test_extremal_search_peak(self, traced_peak):
        args = (cesaro(self.N), 2.0, power_grid(self.N))
        assert traced_peak(extremal_search, *args) <= 16 * 8 * BLOCK


def mean_weights(alpha: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights i**(alpha-1), i <= N, and their sums, as the weighted
    mean reads them block by block, joined."""
    blocks = [(t.copy(), S.copy()) for t, S in sequences.power_sum_blocks(alpha - 1.0, N)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


class TestCesaroWeights:
    @pytest.mark.parametrize("N", [1, 2, 16383, 16384, 16385, 10**5, 10**6])
    def test_sums_match_scan(self, N):
        # built as 1..N in closed form, with the scan's bits
        lam, total = mean_weights(1.0, N)
        assert lam.tobytes() == np.ones(N).tobytes()
        assert total.tobytes() == neumaier_prefix_sums(np.ones(N)).tobytes()

    @pytest.mark.parametrize("N", [1, 2, 16383, 16384, 16385, 10**5, 10**6])
    def test_alpha_two_sums_match_scan(self, N):
        # the weights are 1..N, whose sums cumsum forms with the scan's bits
        lam, total = mean_weights(2.0, N)
        assert lam.tobytes() == np.arange(1.0, N + 1).tobytes()
        assert total.tobytes() == neumaier_prefix_sums(lam).tobytes()


class TestWeightsPerFamily:
    @pytest.mark.parametrize(
        "op, scans_made",
        # one scan of the weights' sums and one of the means per family;
        # the Cesaro weights are ones, whose sums 1..N need no scan
        [(weighted_mean(2.5, 2000), 6), (cesaro(2000), 3)],
        ids=["alpha2.5", "cesaro"],
    )
    def test_weights_scanned_with_each_family(self, scans, op, scans_made):
        extremal_search(op, 2.0, power_grid(2000))
        assert scans == [2000] * scans_made

    @pytest.mark.parametrize("alpha", [1.0, 2.5, 0.25])
    def test_shared_weights_same_bits(self, alpha):
        N = 5000
        grid = power_grid(N)
        res = extremal_search(weighted_mean(alpha, N), 2.0, grid)
        fresh = [norm_ratio(weighted_mean(alpha, N), fam, 2.0) for fam in grid]
        assert [r.hex() for r in res.ratios] == [r.hex() for r in fresh]
        assert res.best_ratio.hex() == max(fresh).hex()

    @pytest.mark.parametrize(
        "a, error, message",
        [
            ([1.0, math.nan, 1.0], WorkbenchError, "^inputs must not be NaN$"),
            ([1.0, -1.0, 1.0], WorkbenchError, "^inputs must be nonnegative$"),
            ([1.0, 1.0], WorkbenchError, "input length 2 < truncation 3"),
            ([0.0, 0.0, 0.0], WorkbenchError, "identically zero"),
            ([1e200, 1.0, 1.0], WorkbenchError, r"sum of p-th powers \(p=2.0\)"),
            ([1.0, 1.0, 1.0], WorkbenchError, r"weights i\*\*\(alpha-1\) overflow"),
        ],
        ids=["nan", "negative", "short", "zero", "power-overflow", "weights"],
    )
    def test_input_errors_come_before_weights_overflow(self, a, error, message):
        op = weighted_mean(1.797e308, 3)  # 2**(alpha-1) overflows
        for _ in range(2):  # a failed weights build is not kept
            with pytest.raises(error, match=message):
                extremal_search(op, 2.0, [a, [1.0, 0.0, 0.0]])
