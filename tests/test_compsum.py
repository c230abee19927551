import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardylab.compsum import (
    BLOCK,
    ExactSum,
    NeumaierScan,
    neumaier_prefix_sums,
    neumaier_suffix_sums,
)

from conftest import WITHOUT_AVX512, python_output


def exact_sum(values) -> float:
    """ExactSum over the blocks of one array as a column: math.fsum(values),
    bit for bit, exceptions included but OverflowError, which reads inf."""
    x = np.asarray(values, dtype=float)
    acc = ExactSum((min(len(x), BLOCK), 1))
    blocks = [x[lo : lo + BLOCK, None] for lo in range(0, len(x), BLOCK)]
    for block in blocks:
        acc.add(block.copy())
    return acc.total(blocks)[0]


def loop_prefix_sums(values) -> np.ndarray:
    """Neumaier's recurrence one element at a time: the reference the
    blocked kernel must reproduce bit for bit."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    out = np.empty(len(values))
    s = 0.0
    c = 0.0
    for i, x in enumerate(values):
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
        out[i] = s + c
    return out


def loop_suffix_sums(values) -> np.ndarray:
    rev = np.asarray(values, dtype=float)[::-1]
    return loop_prefix_sums(rev)[::-1].copy()


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def wide_range(rng, n):
    """Mixed-sign values spanning 16 decades."""
    return rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-8, 8, n)


# several blocks long, for views of unusual layout
LONG = wide_range(np.random.default_rng(11), 3 * BLOCK + 5)

# sign * mantissa * 10**e with e in [-8, 8]: 16 decades, mixed signs
wide_floats = st.builds(
    lambda sign, m, e: sign * m * 10.0**e,
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1.0, max_value=10.0),
    st.integers(min_value=-8, max_value=8),
)


class TestBitIdentity:
    @given(st.lists(wide_floats, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_prefix_and_suffix_match_loop(self, xs):
        arr = np.array(xs, dtype=float)
        assert_same_bits(neumaier_prefix_sums(arr), loop_prefix_sums(arr))
        assert_same_bits(neumaier_suffix_sums(arr), loop_suffix_sums(arr))

    @pytest.mark.parametrize(
        "n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
    )
    def test_block_boundary_lengths(self, n):
        arr = wide_range(np.random.default_rng(n), n)
        assert_same_bits(neumaier_prefix_sums(arr), loop_prefix_sums(arr))
        assert_same_bits(neumaier_suffix_sums(arr), loop_suffix_sums(arr))

    @pytest.mark.parametrize(
        "n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
    )
    def test_in_place_at_block_boundary_lengths(self, n):
        arr = wide_range(np.random.default_rng(n), n)
        want = loop_prefix_sums(arr)
        assert_same_bits(neumaier_prefix_sums(arr, out=arr), want)
        assert_same_bits(arr, want)

    @pytest.mark.parametrize(
        "values",
        [
            (np.arange(1, 400, dtype=np.float32) / np.float32(7.0)) ** 3,
            np.arange(-500, 500) * 1234567,
            [1, 2.5, -3, 1e-9, 7, 0.1, -0.0],
            [-0.0, -0.0],
            # blocks are copied into reused buffers, whatever the layout
            LONG[::3],
            np.frombuffer(LONG.tobytes()),
            LONG.astype(np.float32)[::-1],
        ],
        ids=["float32", "int64", "list", "negative-zeros", "strided",
             "read-only", "reversed-float32"],
    )
    def test_input_types(self, values):
        assert_same_bits(neumaier_prefix_sums(values), loop_prefix_sums(values))
        assert_same_bits(neumaier_suffix_sums(values), loop_suffix_sums(values))

    @pytest.mark.parametrize(
        "values",
        [
            [1e308, 1e308, -1e308, 1.0],
            [1.0, math.inf, 2.0, -math.inf, 3.0],
            [-math.inf, -1.0],
            [1.0, math.nan, 3.0],
            [math.nan] + [1.0] * (BLOCK + 3),
            [1.0] * (BLOCK - 1) + [1e308, 1e308] + [1.0] * 5,
        ],
        ids=["overflow", "inf", "neg-inf", "nan", "nan-across-blocks",
             "overflow-at-boundary"],
    )
    def test_nonfinite_values_without_warnings(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_prefix = neumaier_prefix_sums(values)
            got_suffix = neumaier_suffix_sums(values)
        assert_same_bits(got_prefix, loop_prefix_sums(values))
        assert_same_bits(got_suffix, loop_suffix_sums(values))


DBL_MAX = 1.7976931348623157e308
# IEEE 754 leaves open which NaN an operation on two NaNs returns, and the
# loop and the numpy kernels pick differently; inputs use the one NaN the
# hardware itself makes (inf - inf), so every NaN in play has one bit pattern
DEFAULT_NAN = math.inf - math.inf

signs = st.sampled_from([-1.0, 1.0])
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, DEFAULT_NAN, DBL_MAX, -DBL_MAX]),
    # DBL_MAX scale, and terms whose sum with it rounds: sums and TwoSum's
    # intermediate cur - prev can overflow
    st.builds(lambda s, m: s * m, signs, st.floats(min_value=2.0**1020, max_value=DBL_MAX)),
    st.builds(lambda s, m: s * m, signs, st.floats(min_value=2.0**970, max_value=2.0**1020)),
    st.builds(lambda s, m: s * m, signs, st.floats(min_value=5e-324, max_value=2.0**-1022)),
    wide_floats,
)
# the finite background that edge values are written into
FILLER = wide_range(np.random.default_rng(17), 2 * BLOCK + 3)


@st.composite
def edge_arrays(draw):
    """A run of edge values written into a finite background, at the start,
    the end, or across a block boundary of the prefix or the suffix scan."""
    head = draw(st.lists(edge_floats, min_size=1, max_size=40))
    n = draw(st.sampled_from([len(head), BLOCK + 7, 2 * BLOCK + 3]))
    starts = {0, n - len(head), BLOCK - len(head) // 2, n - BLOCK - len(head) // 2}
    at = draw(st.sampled_from(sorted(i for i in starts if 0 <= i <= n - len(head))))
    x = FILLER[:n].copy()
    x[at : at + len(head)] = head
    return x


class TestEdgeValues:
    @given(edge_arrays())
    @settings(max_examples=150, deadline=None)
    def test_prefix_and_suffix_match_loop(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_prefix = neumaier_prefix_sums(x)
            got_suffix = neumaier_suffix_sums(x)
        assert_same_bits(got_prefix, loop_prefix_sums(x))
        assert_same_bits(got_suffix, loop_suffix_sums(x))

    @given(edge_arrays())
    @example(np.array([DEFAULT_NAN] + [1.0] * (BLOCK + 3)))
    @example(np.array([1.0] * (BLOCK - 1) + [math.inf, -math.inf] + [1.0] * 5))
    @settings(max_examples=150, deadline=None)
    def test_scan_in_place(self, x):
        # out=x: each block is read in full before its sums are written, the
        # blocks that are redone with the branch included
        want = neumaier_prefix_sums(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = neumaier_prefix_sums(x, out=x)
        assert got is x
        assert_same_bits(got, want)

    @pytest.mark.parametrize("offset", [0, BLOCK - 1])
    def test_finite_sum_next_to_dbl_max(self, offset):
        # s + x rounds to a finite value whose TwoSum intermediate s - x
        # overflows; the exact rounding error is finite, and so is every sum
        x = np.zeros(offset + 3)
        x[offset:] = [1.769313486231558e306, -DBL_MAX, 1.0]
        want = loop_prefix_sums(x)
        assert np.all(np.isfinite(want))
        assert_same_bits(neumaier_prefix_sums(x), want)


@st.composite
def column_stacks(draw):
    """Two to five columns of edge values side by side, and the row blocks
    they are fed in (some empty)."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(0, 40))
    cols = [draw(st.lists(edge_floats, min_size=n, max_size=n)) for _ in range(m)]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    x = np.array(cols, dtype=float).reshape(m, n).T
    edges = [0, *cuts, n]
    return x, [x[lo:hi] for lo, hi in zip(edges, edges[1:])]


class TestColumnStacks:
    """A stack of series as columns: each column scanned and summed with the
    bits of its own series, one carry per column."""

    @given(column_stacks())
    @example((np.array([[1.0, DEFAULT_NAN], [math.inf, 2.0], [-math.inf, 3.0]]), None))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_scan_matches_loop_per_column(self, case):
        x, blocks = case
        blocks = blocks or [x[:1], x[1:]]
        scan = NeumaierScan((max(map(len, blocks)), x.shape[1]))
        out, lo = np.empty_like(x), 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for block in blocks:
                scan(block, out[lo : lo + len(block)])
                lo += len(block)
        for j in range(x.shape[1]):
            assert_same_bits(out[:, j].copy(), loop_prefix_sums(x[:, j]))

    @given(column_stacks())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_exact_sum_matches_fsum_per_column(self, case):
        x, blocks = case
        acc = ExactSum((max(map(len, blocks)), x.shape[1]))
        for block in blocks:
            acc.add(block.copy())
        # the first column whose math.fsum raises raises for the stack
        want = [fsum_outcome(math.fsum, x[:, j].tolist()) for j in range(x.shape[1])]
        raised = [w for w in want if isinstance(w, type)]
        try:
            got = [total.hex() for total in acc.total(blocks)]
        except (OverflowError, ValueError) as exc:
            got = type(exc)
        assert got == (raised[0] if raised else want)

    def test_fallback_reads_each_uncertified_column(self, fallbacks):
        n = BLOCK + 5
        x = np.ones((n, 4))
        x[:, 1] = 0.0  # a zero sum
        x[3, 3] = math.inf
        blocks = [x[:BLOCK], x[BLOCK:]]
        acc = ExactSum((BLOCK, 4))
        for block in blocks:
            acc.add(block.copy())
        assert acc.total(blocks) == [float(n), 0.0, float(n), math.inf]
        assert fallbacks == [n, n]


    @pytest.mark.parametrize("n", [1, 7, BLOCK + 3])
    def test_prefix_and_suffix_sums_of_a_stack(self, n):
        # each column with the bits of its own series, over several blocks
        x = wide_range(np.random.default_rng(n), 3 * n).reshape(n, 3)
        for fn, loop in ((neumaier_prefix_sums, loop_prefix_sums),
                         (neumaier_suffix_sums, loop_suffix_sums)):
            got = fn(x)
            assert got.shape == x.shape
            for j in range(3):
                assert_same_bits(got[:, j].copy(), loop(x[:, j]))
                assert_same_bits(got[:, j].copy(), fn(x[:, j]))

    def test_overflowing_column_reads_inf(self):
        # finite terms whose sum overflows: that column reads inf, and the
        # others keep their sums
        x = wide_range(np.random.default_rng(5), 2 * 40).reshape(40, 2)
        x = np.insert(x, 1, 1e308, axis=1)
        blocks = [x[:25], x[25:]]
        acc = ExactSum((25, 3))
        for block in blocks:
            acc.add(block.copy())
        assert acc.total(blocks) == [math.fsum(x[:, 0].tolist()), math.inf,
                                     math.fsum(x[:, 2].tolist())]


class TestAccuracy:
    @given(st.lists(wide_floats, min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_error_against_fsum(self, xs):
        # Neumaier's bound: |error| <= 2u|S| + O(n^2 u^2) sum|x_i|
        eps = np.finfo(float).eps
        n = len(xs)
        exact = math.fsum(xs)
        got = float(neumaier_prefix_sums(np.array(xs))[-1])
        bound = 2.0 * eps * abs(exact) + n * n * eps * eps * math.fsum(map(abs, xs))
        assert abs(got - exact) <= bound


def fsum_outcome(fn, values):
    """fn(values) as a hex string, or the type of the exception it raises;
    an OverflowError of finite terms reads inf, as ExactSum returns it."""
    try:
        return fn(values).hex()
    except OverflowError:
        return math.inf.hex()
    except ValueError as exc:
        return type(exc)


@pytest.fixture
def fallbacks(monkeypatch):
    """The number of values each fallback of ExactSum hands to math.fsum,
    in order; the certificate's own fsum calls take lists and are not
    recorded."""
    seen = []
    fsum = math.fsum

    def spy(values):
        if not isinstance(values, list):
            values = list(values)
            seen.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", spy)
    return seen


# Hashes exact_sum's results, then math.fsum's, over arrays made with exact
# operations only, so that any difference comes from the sum
DIGEST_SCRIPT = """
import hashlib, math
import numpy as np
from hardylab.compsum import BLOCK, ExactSum
def exact_sum(x):
    acc = ExactSum((min(len(x), BLOCK), 1))
    blocks = [x[lo : lo + BLOCK, None] for lo in range(0, len(x), BLOCK)]
    for block in blocks:
        acc.add(block.copy())
    return acc.total(blocks)[0]
for fn in (exact_sum, lambda x: math.fsum(x.tolist())):
    rng = np.random.default_rng(23)
    h = hashlib.sha256()
    for n in (1, 100, 2**14 + 1, 10**5):
        x = np.ldexp(rng.random(n) - 0.5, rng.integers(-60, 60, n))
        h.update(fn(x).hex().encode() + fn(np.abs(x)).hex().encode())
    print(h.hexdigest())
"""


class TestExactSum:
    @given(st.one_of(st.lists(wide_floats, max_size=300),
                     st.lists(edge_floats, max_size=40)))
    @example([1.0, 2.0**-53, 2.0**-300])
    @example([0.1] * 10 + [-1.0])
    @settings(max_examples=300, deadline=None)
    def test_matches_fsum(self, xs):
        assert fsum_outcome(exact_sum, np.array(xs, dtype=float)) == \
            fsum_outcome(math.fsum, xs)

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_block_boundary_lengths_and_views(self, fallbacks, n):
        x = wide_range(np.random.default_rng(n), n)
        for view in (x, x[::-1], x[::3], np.abs(x)[::-2]):
            assert exact_sum(view).hex() == math.fsum(view.tolist()).hex()
        assert fallbacks == []  # each sum was certified

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 2.0**-53, 2.0**-300],
            [0.5, 1.5, -2.0],
            [5e-324, 2.0**-1050, -(2.0**-1060)],
            [DBL_MAX, -1.0, 2.0**970],
            [1.0, math.inf],
            [1.0, DEFAULT_NAN],
            [math.inf, -math.inf],
            [DBL_MAX, DBL_MAX],
            [],
        ],
        ids=["uncertified-bracket", "zero-sum", "subnormal-grid",
             "grid-above-range", "inf", "nan", "inf-minus-inf", "overflow",
             "empty"],
    )
    def test_fallback_routes(self, fallbacks, values):
        got = fsum_outcome(exact_sum, np.array(values, dtype=float))
        assert fallbacks == [len(values)]
        assert got == fsum_outcome(math.fsum, values)

    def test_near_tie_above_the_bound_is_certified(self, fallbacks):
        # 2**-100 lies on the third grid, so it is no longer under the bound
        assert exact_sum(np.array([1.0, 2.0**-53, 2.0**-100])) == 1.0 + 2.0**-52
        assert fallbacks == []

    def test_peak_is_a_few_block_buffers(self, traced_peak, fallbacks):
        x = np.random.default_rng(3).random(10**6)
        # an n-length temporary would take 8 * 10**6 bytes
        assert traced_peak(exact_sum, x) < 4 * 8 * BLOCK
        assert fallbacks == []

    def test_bits_agree_across_dispatch_levels(self):
        outs = [python_output(DIGEST_SCRIPT, extra) for extra in ({}, WITHOUT_AVX512)]
        exact, fsum = outs[0].split()
        assert len(exact) == 64 and exact == fsum
        assert outs[0] == outs[1]
