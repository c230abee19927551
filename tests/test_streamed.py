"""The block-streamed checks and ratios against their array forms.

Every criterion check and operator ratio is one pass over blocks of
``compsum.BLOCK`` indices.  ``array_oracles`` keeps the array forms they
replaced, and each case here compares the two bit for bit at horizons one
short of, at, one past and several blocks past a block edge: the verdict's
fields with ``min_slack.hex()``, a ratio by ``hex()``, and an error by type
and message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import array_oracles as oracle
from hardylab.compsum import BLOCK, ExactSum
from hardylab.criteria import (
    check_2_3,
    check_2_4,
    check_2_30,
    criterion_2_20_check,
    f_alpha_analysis,
    knopp_criterion_check,
    reverse_criterion_check,
    weighted_mean_constant,
)
from hardylab.errors import WorkbenchError
from hardylab.operators import (
    OperatorSpec,
    SequenceFamily,
    cesaro,
    constant_ratio,
    copson_ratio_with_tail,
    copson_tail,
    default_power_grid,
    extremal_search,
    norm_ratio,
    power_decay_tail_bounds,
)
from hardylab.reports import Tolerances
from hardylab.verify import hardy_bracketing_claims, theorem6_floor_claims
from hardylab.sequences import (
    AuxSequence,
    knopp_sequence,
    levin_steckin_sequence,
    power_aux_sequence,
)

HORIZONS = [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
TOLERANCES = [Tolerances(), Tolerances(tol_abs=1e-6), Tolerances(tol_abs=3.0, tol_rel=0.0)]


def fields(verdict):
    """A verdict's fields, min_slack by its bits."""
    return (verdict.claim, verdict.ref, verdict.holds, verdict.value,
            verdict.min_slack.hex(), verdict.first_failure, verdict.exploratory,
            verdict.detail, verdict.n_lo, verdict.n_hi)


def outcome(fn, *args, **kwargs):
    """fn's result (a float by its bits), or the type and message of the
    error it raises."""
    try:
        result = fn(*args, **kwargs)
    except (WorkbenchError, OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return result.hex() if isinstance(result, float) else result


class TestChecksMatchArrayForms:
    @pytest.mark.parametrize("n", HORIZONS)
    @pytest.mark.parametrize("tol", TOLERANCES, ids=["default", "tol_abs", "tol_abs_only"])
    @pytest.mark.parametrize("p, alpha, U", [(2.0, 0.0, 4.0), (1.25, 0.7, None), (3.0, 0.2, None)])
    def test_knopp(self, n, tol, p, alpha, U):
        got = knopp_criterion_check(knopp_sequence(p, alpha, n + 1), p, tol, alpha=alpha, U=U)
        want = oracle.knopp_check(*oracle.ratio_recurrence(alpha - 1.0 / p, n + 1), p, tol,
                                  alpha=alpha, U=U)
        assert fields(got) == fields(want)

    @pytest.mark.parametrize("n", HORIZONS)
    @pytest.mark.parametrize("tol", TOLERANCES, ids=["default", "tol_abs", "tol_abs_only"])
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.45])
    def test_reverse(self, n, tol, p):
        got = reverse_criterion_check(levin_steckin_sequence(p, n + 1), p, tol)
        want = oracle.reverse_check(*oracle.ratio_recurrence(1.0 / p - 2.0, n + 1), p, tol)
        assert fields(got) == fields(want)

    @pytest.mark.parametrize("n", HORIZONS)
    @pytest.mark.parametrize("p, alpha", [(2.0, 0.5), (3.0, 0.4)])
    def test_2_20(self, n, p, alpha):
        # at alpha = 1/p the recurrence has shift 0, built in closed form
        got = criterion_2_20_check(alpha, p, n)
        want = oracle.knopp_check(*oracle.ratio_recurrence(alpha - 1.0 / p, n + 1), p,
                                  alpha=alpha, name=got.claim, ref="2.20",
                                  exploratory=got.exploratory)
        assert fields(got) == fields(want)

    @pytest.mark.parametrize("n", HORIZONS)
    @pytest.mark.parametrize("p", [3.0, 1.05])
    def test_2_30(self, n, p):
        # p = 1.05 fails from n = 1 on
        got = check_2_30(p, n, Tolerances(tol_abs=1e-9))
        want = oracle.knopp_check(*oracle.power_law(-1.0 / p, n + 1), p,
                                  Tolerances(tol_abs=1e-9), name=got.claim,
                                  ref="2.30", exploratory=p < 3.0)
        assert fields(got) == fields(want)

    @pytest.mark.parametrize("n", HORIZONS)
    @pytest.mark.parametrize("p, alpha", [(2.0, 1.5), (2.0, 1.0), (3.0, 1.1)])
    def test_2_3(self, n, p, alpha):
        got = check_2_3(alpha, p, n)
        want = oracle.knopp_check(*oracle.power_law(alpha - 1.0 / p, n + 1), p,
                                  alpha=alpha, name=got.claim, ref="2.3")
        assert fields(got) == fields(want)


def stalled_arrays(shift, n, step):
    """A recurrence's arrays with log w moved by ``step`` from its value one
    index before, at and past each block edge, so that the bracket stalls
    or turns there."""
    log_w, W = oracle.ratio_recurrence(shift, n + 1)
    for k in (BLOCK - 2, BLOCK - 1, BLOCK, 2 * BLOCK - 1, n - 1):
        log_w[k + 1] = log_w[k] + step
    return log_w, W


class TestRisingBrackets:
    @pytest.mark.parametrize("step", [0.0, 0.5], ids=["flat", "rising"])
    @pytest.mark.parametrize("tol", TOLERANCES[:2], ids=["default", "tol_abs"])
    def test_knopp(self, step, tol):
        # the classic sequence (p = 2, alpha = 0), whose t is w itself
        n = 2 * BLOCK + 3
        log_w, W = stalled_arrays(-0.5, n, step)
        w = AuxSequence(n + 1, ("recurrence", -0.5), (log_w, W))
        got = knopp_criterion_check(w, 2.0, tol, U=4.0)
        want = oracle.knopp_check(log_w, W, 2.0, tol, U=4.0)
        assert fields(got) == fields(want)
        assert got.min_slack == -math.inf
        assert got.first_failure == BLOCK - 1

    @pytest.mark.parametrize("step", [-0.5, -5.0])
    def test_reverse(self, step):
        # the reverse bracket's t falls with log w, so it rises where log w falls
        n = 2 * BLOCK + 3
        log_w, W = stalled_arrays(2.0, n, step)
        w = AuxSequence(n + 1, ("recurrence", 2.0), (log_w, W))
        got = reverse_criterion_check(w, 0.25)
        want = oracle.reverse_check(log_w, W, 0.25)
        assert fields(got) == fields(want)
        assert got.min_slack == -math.inf
        assert got.first_failure == BLOCK - 1


class TestRejections:
    """A value past the float range is rejected in whichever block it
    appears, with the array form's message."""

    @pytest.mark.parametrize(
        "make",
        [
            # W overflows near n = 25000, in the second block
            lambda n: (power_aux_sequence(70.0, n + 1), 2.0, {}),
            # a huge p takes the logs of Lam past the float range
            lambda n: (knopp_sequence(1e308, 0.0, n + 1), 1e308, {}),
            lambda n: (knopp_sequence(2.0, 0.0, n + 1), 2.0, {"alpha": 1e300}),
        ],
        ids=["W", "p", "Lam"],
    )
    def test_values_out_of_range(self, make):
        n = 3 * BLOCK + 5
        w, p, kwargs = make(n)
        with np.errstate(over="ignore"):
            got = outcome(knopp_criterion_check, w, p, U=4.0, **kwargs)
        want = (WorkbenchError,
                "values left the representable range at this horizon; reduce n_max")
        assert got == want
        with np.errstate(over="ignore"):
            arrays = oracle.law_arrays(w.law, w.n_max)
            assert outcome(oracle.knopp_check, *arrays, p, U=4.0, **kwargs) == want

    def test_nan_in_a_late_block(self):
        n = 3 * BLOCK + 5
        log_w, W = oracle.ratio_recurrence(-0.5, n + 1)
        log_w[2 * BLOCK + 7] = math.nan
        w = AuxSequence(n + 1, ("recurrence", -0.5), (log_w, W))
        got = outcome(knopp_criterion_check, w, 2.0)
        assert got == outcome(oracle.knopp_check, log_w, W, 2.0)
        assert got[0] is WorkbenchError


FAMILIES = [
    lambda N: SequenceFamily("power_decay", N, 0.6),
    lambda N: SequenceFamily("delta", N),
    lambda N: SequenceFamily("geometric", N, 0.9),
    lambda N: SequenceFamily("random", N, 7),
]
OPERATORS = [
    cesaro,
    lambda N: OperatorSpec("weighted_mean", N, alpha=2.5),
    lambda N: OperatorSpec("weighted_mean", N, alpha=2.0),
    copson_tail,
]


class TestRatiosMatchArrayForms:
    @pytest.mark.parametrize("N", [1, 2, *HORIZONS])
    @pytest.mark.parametrize("make_op", OPERATORS, ids=["cesaro", "alpha2.5", "alpha2", "tail"])
    @pytest.mark.parametrize("make_fam", FAMILIES, ids=["power", "delta", "geometric", "random"])
    def test_constant_ratio(self, N, make_op, make_fam):
        op, fam = make_op(N), make_fam(N)
        for p in (0.5, 2.0, 1.0 / 3.0, 3.0):
            assert constant_ratio(op, fam, p).hex() == oracle.constant_ratio(op, fam, p).hex()

    @pytest.mark.parametrize("N", HORIZONS)
    @pytest.mark.parametrize("seed", [7, 12345])
    def test_random_tail_family_seeks_its_blocks(self, N, seed):
        # the tail pass walks from the end: each block seeks the generator
        fam = SequenceFamily("random", N, seed)
        whole = np.random.default_rng(seed).random(N)
        for lo in {0, 1, BLOCK - 1, BLOCK, max(N - BLOCK, 0), N - 1} & set(range(N)):
            assert fam.block(lo, N).tobytes() == whole[lo:].tobytes()
        for p in (0.5, 1.0 / 3.0):
            got = constant_ratio(copson_tail(N), fam, p)
            assert got.hex() == oracle.constant_ratio(copson_tail(N), fam, p).hex()

    @pytest.mark.parametrize("N", HORIZONS)
    @pytest.mark.parametrize("s", [1.5, 3.0])
    def test_copson_ratio_with_tail(self, N, s):
        masses = (0.0, *power_decay_tail_bounds(s, N))
        got = [r.hex() for r in copson_ratio_with_tail(s, 0.5, N)]
        assert got == [r.hex() for r in oracle.copson_ratios_with_tail(s, 0.5, N, masses)]

    @pytest.mark.parametrize(
        "a",
        [
            # NaN in the last block beats a negative entry in the first
            [-1.0] + [1.0] * (2 * BLOCK) + [math.nan] + [1.0] * 5,
            [1.0] * (BLOCK + 3) + [-2.0] + [1.0] * 5,
            [0.0] * (2 * BLOCK + 9),
            [0.0] * (BLOCK + 1) + [5e-324] + [0.0] * 7,
            [1e200] + [1.0] * (BLOCK + 8),
            [1.0] * (BLOCK + 1) + [math.inf] + [1.0] * 7,
        ],
        ids=["nan-after-negative", "negative", "zero", "underflow", "power-overflow", "inf"],
    )
    @pytest.mark.parametrize(
        "make_op",
        [cesaro, copson_tail, lambda N: OperatorSpec("weighted_mean", N, alpha=1.797e308)],
        ids=["cesaro", "tail", "weights-overflow"],
    )
    def test_errors_keep_their_order(self, a, make_op):
        op = make_op(len(a))
        got = outcome(constant_ratio, op, a, 2.0)
        assert got == outcome(oracle.constant_ratio, op, a, 2.0)
        assert got[0] is WorkbenchError


def stack_columns(seed: int, m: int, N: int) -> np.ndarray:
    """m nonnegative inputs of N rows side by side: uniform, zero-heavy
    (a few nonzero entries, or none past the first) and spread over many
    binades, in turn."""
    rng = np.random.default_rng(seed)
    cols = []
    for j in range(m):
        a = rng.random(N)
        if j % 3 == 1:
            a *= rng.random(N) < 0.01
            a[0] = 1.0
        elif j % 3 == 2:
            a *= 10.0 ** rng.uniform(-30.0, 30.0, N)
        cols.append(a)
    return np.array(cols).T


def column_fields(verdict):
    return (verdict.claim, verdict.ref, verdict.holds, verdict.value.hex(),
            verdict.min_slack, verdict.first_failure, verdict.detail)


class TestColumnStacks:
    """A column stack's ratios against each column's own call: the bits of
    every ratio, and the error a stack with a bad column raises."""

    @given(
        st.sampled_from([3, 7, 64, 100]),  # BLOCK // m rows per block
        st.sampled_from([-1, 0, 1, None]),  # N at a block edge, or 2 blocks + 3
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.5, 1.0 / 3.0, 1.25, 2.0, 3.0]),
        st.sampled_from([cesaro, lambda N: OperatorSpec("weighted_mean", N, alpha=2.5),
                         copson_tail]),
    )
    @example(3, None, 1, 0.5, copson_tail)  # three blocks of 5461 rows
    @example(64, 1, 2, 2.0, cesaro)  # two blocks of 256 rows
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_stack_matches_each_column(self, m, edge, seed, p, make_op):
        rows = BLOCK // m
        N = 2 * rows + 3 if edge is None else rows + edge
        stack = stack_columns(seed, m, N)
        op = make_op(N)
        for fn in (constant_ratio, norm_ratio):
            got = fn(op, stack, p)
            assert isinstance(got, np.ndarray) and got.shape == (m,)
            want = [fn(op, a, p).hex() for a in stack.T]
            assert [r.hex() for r in got.tolist()] == want
        # the layout of the stack does not change a bit
        assert constant_ratio(op, np.ascontiguousarray(stack), p).tobytes() == \
            constant_ratio(op, stack, p).tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            lambda a: np.where(np.arange(len(a)) == 300, math.nan, a),
            lambda a: np.where(np.arange(len(a)) == 400, -1.0, a),
            lambda a: np.zeros_like(a),
            lambda a: np.where(np.arange(len(a)) == 7, 5e-324, 0.0),
            lambda a: np.where(np.arange(len(a)) == 9, 1e200, a),
            lambda a: np.where(np.arange(len(a)) == 500, math.inf, a),
        ],
        ids=["nan", "negative", "zero", "underflow", "overflow", "inf"],
    )
    @pytest.mark.parametrize("make_op", [cesaro, copson_tail], ids=["cesaro", "tail"])
    @pytest.mark.parametrize("column", [0, 5, 63])
    def test_bad_column_raises_its_own_error(self, bad, make_op, column):
        m, N = 64, 2 * (BLOCK // 64) + 3  # three blocks
        stack = stack_columns(11, m, N)
        stack[:, column] = bad(stack[:, column])
        op = make_op(N)
        got = outcome(constant_ratio, op, stack, 2.0)
        assert got == outcome(constant_ratio, op, stack[:, column].copy(), 2.0)
        assert got[0] is WorkbenchError

    @pytest.mark.parametrize("a", [np.ones((4, 0)), np.ones((4, 2, 2)), np.float64(1.0)],
                             ids=["no-column", "3-d", "0-d"])
    def test_input_shape_rejected(self, a):
        with pytest.raises(WorkbenchError, match="^an input is a series or a stack"):
            constant_ratio(cesaro(1), a, 2.0)

    @pytest.mark.parametrize("seed", [12345, 4242, 777])
    def test_claims_match_one_call_per_input(self, seed):
        assert column_fields(theorem6_floor_claims(seed)[0]) == \
            column_fields(oracle.tail_floor_random(seed))
        (cap,) = [v for v in hardy_bracketing_claims(300) if v.claim == "7.3-cesaro-cap"]
        assert column_fields(cap) == column_fields(oracle.cesaro_cap())


def split(values, cuts):
    """values cut into blocks at the given positions (sorted, in range)."""
    edges = [0, *cuts, len(values)]
    return [np.array(values[lo:hi], dtype=float) for lo, hi in zip(edges, edges[1:])]


edge_floats = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.0**-53, 2.0**-1074, 2.0**-1022, 1e308, -1e308,
     1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 3.0]
)
wide = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False) | edge_floats


def fsum(values) -> float:
    """math.fsum, with the OverflowError of finite terms read as inf, as
    ExactSum returns it."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def column(acc):
    """The total of a one-column ExactSum as a float."""
    return lambda again: acc.total(again)[0]


class TestBlockedExactSum:
    @given(st.lists(wide, max_size=60), st.lists(st.integers(0, 60), max_size=4))
    @example([1.0, 2.0**-53, 2.0**-300], [2])
    @example([1.7976931348623157e308, 1.7976931348623157e308, -1.0], [1])
    @example([0.5, 1.5, -2.0], [1, 1])
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_fsum(self, xs, cuts):
        # the series cut into blocks, some of them empty
        blocks = [b[:, None] for b in split(xs, sorted(min(c, len(xs)) for c in cuts))]
        acc = ExactSum((max(map(len, blocks)), 1))
        for block in blocks:
            acc.add(block.copy())
        assert outcome(column(acc), blocks) == outcome(fsum, xs)

    @pytest.mark.parametrize(
        "blocks, certified",
        [
            ([[1.0, 2.0**-53], [2.0**-300]], False),  # a tie the bound straddles
            ([[1.0, 2.0**-53], [2.0**-100]], True),
            ([[1.797e308], [1.797e308]], False),  # finite blocks, overflowing sum
            ([[0.0, -0.0], [0.0]], False),
        ],
    )
    def test_fallback_only_without_certificate(self, blocks, certified):
        arrays = [np.array(b)[:, None] for b in blocks]
        read = []

        def again():
            read.append(True)
            yield from arrays

        acc = ExactSum((2, 1))
        for block in arrays:
            acc.add(block.copy())
        got = outcome(column(acc), again())
        assert got == outcome(fsum, [x for b in blocks for x in b])
        assert read == ([] if certified else [True])


class TestNonFiniteExponent:
    """A p of inf is rejected where a library call takes it, with the
    finite-p message; the p <= 1 messages come first and are unchanged."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda p: constant_ratio(cesaro(3), [1.0, 1.0, 1.0], p), "p must be finite, got inf"),
            (lambda p: norm_ratio(cesaro(3), [1.0, 1.0, 1.0], p), "p must be finite, got inf"),
            (lambda p: extremal_search(cesaro(3), p, [[1.0, 1.0, 1.0]]), "p must be finite, got inf"),
            (lambda p: copson_ratio_with_tail(2.0, p, 10), "p must be finite, got inf"),
            (lambda p: default_power_grid(p, 10), "p must be finite, got inf"),
            (lambda p: check_2_4(p, 5), "established range needs a finite p, got inf"),
            (lambda p: knopp_sequence(p, 0.0, 10), "forward regime needs a finite p, got inf"),
            (lambda p: knopp_criterion_check(power_aux_sequence(0.0, 11), p, U=4.0),
             "forward regime needs a finite p, got inf"),
            (lambda p: check_2_30(p, 10), "forward regime needs a finite p, got inf"),
            (lambda p: check_2_3(1.0, p, 10), "forward regime needs a finite p, got inf"),
            (lambda p: f_alpha_analysis(0.5, p, 3), "forward regime needs a finite p, got inf"),
            (lambda p: weighted_mean_constant(p, 0.0), r"\(alpha\+1\)p must be finite, got inf"),
        ],
        ids=["constant_ratio", "norm_ratio", "extremal_search", "copson_ratio_with_tail",
             "default_power_grid", "check_2_4", "knopp_sequence", "knopp_criterion_check",
             "check_2_30", "check_2_3", "f_alpha_analysis", "weighted_mean_constant"],
    )
    def test_inf_rejected(self, call, message):
        with pytest.raises(WorkbenchError, match=f"^{message}$"):
            call(math.inf)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: knopp_sequence(0.5, 0.0, 10), "forward regime needs p > 1, got 0.5"),
            (lambda: knopp_sequence(-math.inf, 0.0, 10), "forward regime needs p > 1, got -inf"),
            (lambda: check_2_4(math.nan, 5), "established range needs p >= 3, got nan"),
            (lambda: constant_ratio(cesaro(3), [1.0] * 3, -math.inf), "p must be positive, got -inf"),
        ],
    )
    def test_other_messages_unchanged(self, call, message):
        with pytest.raises(WorkbenchError, match=f"^{message}$"):
            call()
