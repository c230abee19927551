import functools
import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardylab.compsum import BLOCK, neumaier_prefix_sums
from hardylab.criteria import reverse_criterion_check
from hardylab.errors import WorkbenchError
from hardylab import sequences
from hardylab.sequences import (
    _ratio_recurrence,
    _triangular_sums_exact,
    conjugate_exponent,
    knopp_sequence,
    levin_steckin_sequence,
    libm_map,
    power_aux_sequence,
    power_sum_bound_check,
    power_sums,
)
from hardylab.reports import Verdict
from hardylab.verify import DEFAULT_SEED, lemma_suite_claims, reverse_machinery_claims

from conftest import WITHOUT_AVX512, python_output


class PowerSumBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    direction: str


def power_sum_bound_checks(r, n_max, form="product"):
    """power_sum_bound_check as one row of Python values per n: row n - 1
    holds both sides at n, whether the bound holds there and its
    direction."""
    b = power_sum_bound_check(r, n_max, form)
    return [
        PowerSumBound(lhs, rhs, holds, b.direction)
        for lhs, rhs, holds in zip(b.lhs.tolist(), b.rhs.tolist(), b.holds.tolist())
    ]


class TestConjugateExponent:
    def test_known_values(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(3.0) == 1.5
        assert conjugate_exponent(0.5) == -1.0

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_undefined_points_raise(self, p):
        with pytest.raises(WorkbenchError, match=f"conjugate exponent undefined at p={p}"):
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
            with pytest.raises(WorkbenchError, match="forward regime needs p > 1"):
                knopp_sequence(p, 0.0, 10)


class TestWeightSequence:
    """Weights lambda_n = n**alpha, built by power_aux_sequence(alpha, n)."""

    def test_power_family_basics(self):
        ws = power_aux_sequence(0.5, 100)
        assert ws.weights()[0] == 1.0
        assert ws.weights()[3] == pytest.approx(2.0)
        assert np.all(np.diff(ws.W) > 0.0)

    def test_constant_is_power_zero(self):
        ws = power_aux_sequence(0.0, 50)
        assert np.all(ws.weights() == 1.0)
        assert np.all(ws.log_w == 0.0)
        assert ws.W[49] == 50.0

    def test_index_bounds(self):
        ws = power_aux_sequence(1.0, 10)
        assert ws.n_max == len(ws.weights()) == len(ws.W) == len(ws.log_w) == 10
        assert ws.W[-1] == 55.0
        with pytest.raises(WorkbenchError, match="n_max must be >= 1"):
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
        assert seq.weights()[:4] == pytest.approx(expected, rel=1e-14)

    def test_alpha_at_inverse_p_is_constant(self):
        seq = knopp_sequence(2.0, 0.5, 6)
        assert seq.weights() == pytest.approx(np.ones(6), rel=1e-14)

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
                assert seq.weights()[n - 1] == pytest.approx(ref, rel=1e-13)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(WorkbenchError, match="-1/q=-0.5: weights become nonpositive"):
            knopp_sequence(2.0, -0.5, 10)
        with pytest.raises(WorkbenchError, match=r"-1/q=-0\.5:"):
            knopp_sequence(2.0, -0.7, 10)


class TestLevinSteckinSequence:
    def test_collapses_to_integers_at_one_third(self):
        seq = levin_steckin_sequence(1.0 / 3.0, 10)
        assert seq.weights() == pytest.approx(np.arange(1, 11, dtype=float), rel=1e-14)
        assert seq.W[3] == pytest.approx(10.0, rel=1e-14)
        ident = (4 + 1) / 2 * seq.weights()[3]
        assert ident == pytest.approx(10.0, rel=1e-13)

    def test_hand_evaluated_at_quarter(self):
        seq = levin_steckin_sequence(0.25, 4)
        assert seq.weights()[1] == pytest.approx(3.0, rel=1e-14)

    def test_partial_sum_identity_over_range(self):
        for p in (0.1, 0.25, 1.0 / 3.0):
            seq = levin_steckin_sequence(p, 5000)
            assert float(np.max(partial_sum_residuals(seq, 1.0 / p - 2.0))) <= 1e-12

    def test_domain_and_flags(self):
        with pytest.raises(WorkbenchError, match="defined for 0 < p < 1/2, got p=0.5"):
            levin_steckin_sequence(0.5, 10)
        with pytest.raises(WorkbenchError, match="defined for 0 < p < 1/2, got p=0.75"):
            levin_steckin_sequence(0.75, 10)
        with pytest.raises(WorkbenchError, match="defined for 0 < p < 1/2, got p=-0.1"):
            levin_steckin_sequence(-0.1, 10)
        for p, exploratory in ((1.0 / 3.0, False), (0.4, True)):
            w = levin_steckin_sequence(p, 6)
            assert reverse_criterion_check(w, p).exploratory is exploratory


def partial_sum_residuals(seq, shift):
    """Relative residuals of W_n = ((n + shift)/(1 + shift)) w_n for every n,
    the partial-sum identity of the ratio recurrence with this shift."""
    n = np.arange(1, seq.n_max + 1, dtype=float)
    return np.abs(seq.W - (n + shift) / (1.0 + shift) * seq.weights()) / seq.W


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
        w = seq.weights()
        dev = np.abs(np.exp(seq.log_w) - w) / w
        assert float(np.max(dev)) <= 1e-12

    def test_log_value_consistency_at_scale(self):
        seq = knopp_sequence(2.0, 0.7, 1_000_000)
        w = seq.weights()
        dev = np.abs(np.exp(seq.log_w) - w) / w
        assert float(np.max(dev)) <= 1e-12

    def test_positivity(self):
        seq = knopp_sequence(1.2, -0.1, 2000)
        assert np.all(seq.weights() > 0.0)
        assert np.all(np.diff(seq.W) > 0.0)

    @pytest.mark.parametrize(
        "make",
        [lambda n: knopp_sequence(2.0, 0.0, n), lambda n: levin_steckin_sequence(0.25, n)],
        ids=["knopp", "levin-steckin"],
    )
    def test_peak_memory(self, traced_peak, make):
        # the builder records the law; a check forms the blocks as it reads
        # them, so no array of the horizon's size is made here
        n = 200_000
        assert traced_peak(make, n) <= 1024


def loop_ratio_recurrence(shift, n_max):
    """(w, W, log_w) from the recurrence run one index at a time with
    Neumaier compensation: the reference the vectorized generator must
    reproduce bit for bit.  The log steps are libm's log1p; w is numpy's
    exp of the loop's log_w, inf from 709 up."""
    log_w = np.empty(n_max)
    log_w[0] = 0.0
    sL, cL = 0.0, 0.0
    for n in range(1, n_max):
        x = math.log1p(shift / n)
        t = sL + x
        if abs(sL) >= abs(x):
            cL += (sL - t) + x
        else:
            cL += (x - t) + sL
        sL = t
        log_w[n] = sL + cL
    w = np.exp(np.minimum(log_w, 709.0))
    w[log_w >= 709.0] = math.inf
    W = np.empty(n_max)
    W[0] = 1.0
    sW, cW = 1.0, 0.0
    for n, wn in enumerate(w.tolist()[1:], 1):
        t = sW + wn
        if abs(sW) >= abs(wn):
            cW += (sW - t) + wn
        else:
            cW += (wn - t) + sW
        sW = t
        W[n] = sW + cW
    return w, W, log_w


def assert_matches_loop(seq, shift):
    ref = loop_ratio_recurrence(shift, seq.n_max)
    for got, want in zip((seq.weights(), seq.W, seq.log_w), ref):
        assert got.tobytes() == want.tobytes()


class TestRecurrenceBitIdentity:
    N_MAXES = (1, 2, BLOCK - 1, BLOCK + 1, 100_000)

    @pytest.mark.parametrize("shift", [-0.999, -0.5, 0.0, 1e-12, 0.5, 2.0, 8.0, 200.0])
    def test_ratio_recurrence(self, shift):
        # the loop is causal, so every shorter horizon is a prefix of the longest
        ref = loop_ratio_recurrence(shift, self.N_MAXES[-1])
        for n_max in self.N_MAXES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                seq = _ratio_recurrence(shift, n_max)
            for got, want in zip((seq.weights(), seq.W, seq.log_w), ref):
                assert got.tobytes() == want[:n_max].tobytes()
        if shift == 200.0:
            # w_n leaves exp's range near n = 2500 and is formed as inf
            assert np.isinf(seq.weights()[-1])

    @pytest.mark.parametrize("p, alpha", [(2.0, -0.499), (2.0, 0.5), (3.0, 1.0), (1.25, 0.7)])
    def test_knopp_sequence(self, p, alpha):
        seq = knopp_sequence(p, alpha, 2 * BLOCK + 3)
        assert_matches_loop(seq, alpha - 1.0 / p)

    @pytest.mark.parametrize("p", [0.1, 0.25, 1.0 / 3.0, 0.45, 1.0 / 202.0])
    def test_levin_steckin_sequence(self, p):
        seq = levin_steckin_sequence(p, 2 * BLOCK + 3)
        assert_matches_loop(seq, 1.0 / p - 2.0)


class TestLibmMap:
    """libm_map against one C library call per element, by bits."""

    X = np.array([0.0, 5e-324, 1e-300, 1e-8, 0.3, 1.0, 2.5, 7.0, 123.456, 700.0])

    @pytest.mark.parametrize("fn", [math.log1p, math.expm1, math.exp])
    def test_one_argument(self, fn):
        got = libm_map(fn, self.X)
        assert [x.hex() for x in got] == [fn(x).hex() for x in self.X.tolist()]

    def test_pow_with_float_and_array_exponents(self):
        x = self.X[self.X < 100.0]
        exps = np.linspace(0.1, 3.7, len(x))
        for args, calls in (
            ((0.37,), [pow(v, 0.37) for v in x.tolist()]),
            ((exps,), [pow(v, e) for v, e in zip(x.tolist(), exps.tolist())]),
        ):
            assert [v.hex() for v in libm_map(pow, x, *args)] == [
                v.hex() for v in calls
            ]
        # a float exponent equals the same exponent repeated as an array
        same = np.full(len(x), 0.37)
        assert libm_map(pow, x, same).tobytes() == libm_map(pow, x, 0.37).tobytes()

    @pytest.mark.parametrize("args", [(), (0.5,), (np.empty(0),)])
    def test_empty_input(self, args):
        fn = pow if args else math.exp
        got = libm_map(fn, np.empty(0), *args)
        assert got.dtype == np.float64 and got.shape == (0,)

    @pytest.mark.parametrize("shift", [-0.5, 1e-12, 2.0])
    def test_recurrence_log_w_starts_at_positive_zero(self, shift):
        # entry 0 of the steps is log1p(+0.0), sign bit included
        seq = _ratio_recurrence(shift, 50)
        assert seq.log_w[0].hex() == "0x0.0p+0"
        assert math.copysign(1.0, seq.log_w[0]) == 1.0


CLOSED_FORM_NS = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 10**5, 10**6)


@functools.lru_cache(maxsize=1)
def loop_shift_zero():
    # the loop is causal: every shorter horizon is a prefix of this one
    return loop_ratio_recurrence(0.0, CLOSED_FORM_NS[-1])


class TestClosedFormLaws:
    """The exact-integer laws, built in closed form, carry the bits of the
    general path: the loop, or the compensated scan of the same weights."""

    @pytest.mark.parametrize("n", CLOSED_FORM_NS)
    @pytest.mark.parametrize("shift", [0.0, -0.0])
    def test_shift_zero_matches_loop(self, n, shift):
        seq = _ratio_recurrence(shift, n)
        for got, want in zip((seq.weights(), seq.W, seq.log_w), loop_shift_zero()):
            assert got.tobytes() == want[:n].tobytes()

    @pytest.mark.parametrize("n", CLOSED_FORM_NS)
    def test_power_one_matches_scan(self, n):
        seq = power_aux_sequence(1.0, n)
        want = neumaier_prefix_sums(np.arange(1.0, n + 1))
        assert seq.W.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", CLOSED_FORM_NS)
    @pytest.mark.parametrize("a", [0.0, 1.0, 0.5, 2.0])
    def test_power_sums_match_scan(self, n, a):
        # 1..n at a = 0 and cumsum at a = 1, with the scan's bits; past
        # 2**53 the sums of i**2 need the scan
        want = neumaier_prefix_sums(np.arange(1.0, n + 1) ** a)
        assert power_sums(a, n).tobytes() == want.tobytes()

    def test_triangular_guard(self):
        # 1 + ... + n = n (n + 1) / 2 first passes 2**53 at n = 2**27
        assert _triangular_sums_exact(2**27 - 1)
        assert not _triangular_sums_exact(2**27)

    def test_guard_sends_power_one_to_the_scan(self, monkeypatch, scans):
        want = power_aux_sequence(1.0, BLOCK + 1).W
        assert scans == []
        monkeypatch.setattr(sequences, "_triangular_sums_exact", lambda n: False)
        assert power_aux_sequence(1.0, BLOCK + 1).W.tobytes() == want.tobytes()
        assert scans == [BLOCK + 1]


class TestWeightsAccessor:
    """weights() forms w again, with the bits of the w each builder scanned
    into W and dropped."""

    def test_inf_cut_matches_loop(self):
        # log_w crosses 709 at n = 51612: from there w is inf, as in the loop
        p, n_max = 0.01, 10**5
        seq = levin_steckin_sequence(p, n_max)
        want_w, want_W, _ = loop_ratio_recurrence(1.0 / p - 2.0, n_max)
        w = seq.weights()
        assert w.tobytes() == want_w.tobytes()
        assert np.all(np.isfinite(w[:51611])) and np.all(np.isinf(w[51611:]))
        assert seq.W.tobytes() == want_W.tobytes()
        assert neumaier_prefix_sums(w).tobytes() == seq.W.tobytes()

    def test_weights_are_libm_exp_without_avx512(self):
        # numpy's exp equals libm's below AVX-512, so there w has the bits of
        # a libm map of log_w, and only an AVX-512 CPU sees other bytes
        script = (
            "import math\n"
            "from hardylab.compsum import BLOCK\n"
            "from hardylab.sequences import _ratio_recurrence, libm_map\n"
            "for s in (2.0, -0.5):\n"
            "    seq = _ratio_recurrence(s, 2 * BLOCK + 3)\n"
            "    want = libm_map(math.exp, seq.log_w)\n"
            "    print(seq.weights().tobytes() == want.tobytes())\n"
        )
        assert python_output(script, WITHOUT_AVX512) == "True\nTrue\n"

    def test_claim_3_2_rows_match_loop(self):
        # claim 3.2 reads weights(); its residual is the loop's, bit for bit
        n_max = 2 * BLOCK + 3
        rows = {row.claim: row for row in reverse_machinery_claims(n_max)}
        n = np.arange(1, n_max + 1, dtype=float)
        for p in (0.1, 0.2, 0.25, 1.0 / 3.0):
            shift = 1.0 / p - 2.0
            w, W, _ = loop_ratio_recurrence(shift, n_max)
            worst = float(np.max(np.abs(W - (n + shift) / (1.0 + shift) * w) / W))
            assert rows[f"3.2-identity-p{p:.6g}"].value.hex() == worst.hex()

    @pytest.mark.parametrize("exponent", [-1.0, -0.5, -1.0 / 3.0, 0.0, 0.5, 1.0, 2.0])
    def test_power_law_weights(self, exponent):
        n_max = BLOCK + 1
        seq = power_aux_sequence(exponent, n_max)
        w = seq.weights()
        assert w.tobytes() == (np.arange(1, n_max + 1, dtype=float) ** exponent).tobytes()
        assert neumaier_prefix_sums(w).tobytes() == seq.W.tobytes()

    def test_laws(self):
        assert knopp_sequence(2.0, 0.3, 5).law == ("recurrence", 0.3 - 0.5)
        assert levin_steckin_sequence(0.25, 5).law == ("recurrence", 2.0)
        assert power_aux_sequence(-0.5, 5).law == ("power", -0.5)

    def test_fresh_array_per_call(self):
        seq = knopp_sequence(2.0, 0.0, 100)
        first = seq.weights()
        first[:] = 0.0
        assert seq.weights()[0] == 1.0


class TestPowerAuxSequence:
    def test_values_and_normalization(self):
        seq = power_aux_sequence(-0.5, 10)
        assert seq.weights()[0] == 1.0
        assert seq.weights()[3] == pytest.approx(0.5)
        assert seq.W[1] == pytest.approx(1.0 + 2.0**-0.5)

    def test_constant_alias(self):
        # exponent 0 is the constant auxiliary sequence
        seq = power_aux_sequence(0.0, 5)
        assert np.all(seq.weights() == 1.0)
        assert np.array_equal(seq.W, np.arange(1.0, 6.0))
        assert np.all(seq.log_w == 0.0)
        with pytest.raises(WorkbenchError, match="n_max must be >= 1"):
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
        with pytest.raises(WorkbenchError, match="ratio form needs r > -1, got r=-1.0"):
            power_sum_bound_checks(-1.0, 5, "ratio")
        with pytest.raises(WorkbenchError, match="form needs 0 <= r <= 1, got r=1.5"):
            power_sum_bound_checks(1.5, 5, "product")
        with pytest.raises(WorkbenchError, match="n must be >= 1"):
            power_sum_bound_checks(0.5, 0)
        with pytest.raises(WorkbenchError, match="unknown form 'unknown'"):
            power_sum_bound_checks(0.5, 5, "unknown")


def fsum_bound_row(r, n, form="product"):
    """The bound check re-summing i**r from scratch with math.fsum: the
    reference every row of power_sum_bound_checks is held to."""
    if n < 1:
        raise WorkbenchError("n must be >= 1")
    lhs = math.fsum(float(i) ** r for i in range(1, n + 1))
    if form == "product":
        if not 0.0 <= r <= 1.0:
            raise WorkbenchError(f"product form needs 0 <= r <= 1, got r={r}")
        rhs = n * (n + 1.0) ** r / (r + 1.0)
        direction = ">="
    elif form == "ratio":
        if r <= -1.0:
            raise WorkbenchError(f"ratio form needs r > -1, got r={r}")
        u = math.log1p(1.0 / n)
        factor = 1.0 / u if r * u == 0.0 else r / math.expm1(r * u)
        rhs = (n + 1.0) ** r / (r + 1.0) * factor
        direction = ">=" if r >= 1.0 else "<="
    else:
        raise WorkbenchError(f"unknown form {form!r}")
    tol = 1e-12 * max(abs(lhs), abs(rhs))
    if direction == ">=":
        holds = lhs - rhs >= -tol
    else:
        holds = rhs - lhs >= -tol
    return lhs, rhs, holds, direction


def assert_rows_match_fsum(r, n_max, form):
    """Each row's bound side and verdict equal the fsum reference's bit for
    bit; its sum is power_sums' and within 2 ulp of math.fsum: numpy's **
    is within 1 ulp per term, and Neumaier's compensated sum adds about one
    more (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4)."""
    rows = power_sum_bound_checks(r, n_max, form)
    assert [row.lhs for row in rows] == power_sums(r, n_max).tolist()
    for n, row in enumerate(rows, start=1):
        lhs, rhs, holds, direction = fsum_bound_row(r, n, form)
        assert row.rhs.hex() == rhs.hex(), (r, n)
        assert (row.holds, row.direction) == (holds, direction), (r, n)
        assert abs(row.lhs - lhs) <= 2.0 * math.ulp(lhs), (r, n)


# the exponents of claims 8.1, 8.2 and 8.3 in verify.lemma_suite_claims
LEMMA_GRID = (
    [("product", float(r)) for r in np.linspace(0.0, 1.0, 11)]
    + [("ratio", r) for r in (1.0, 1.5, 2.0, 3.0)]
    + [("ratio", r) for r in (-0.9, -0.5, 0.0, 0.5, 1.0)]
)


class TestPowerSumRunningSums:
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
        rule = (
            "n must be >= 1" if n < 1
            else "unknown form" if form == "unknown"
            else f"{form} form needs"
        )
        with pytest.raises(WorkbenchError, match=rule):
            power_sum_bound_checks(r, n, form)
        if math.isfinite(r):
            with pytest.raises(WorkbenchError, match=rule):
                fsum_bound_row(r, n, form)

    @pytest.mark.parametrize(
        "r, form", [(0.5, "unknown"), (2.0, "product"), (math.inf, "ratio")]
    )
    def test_validates_before_summing(self, r, form):
        # summing 10**12 terms first would not return in any test's lifetime
        rule = "unknown form" if form == "unknown" else f"{form} form needs"
        with pytest.raises(WorkbenchError, match=rule):
            power_sum_bound_checks(r, 10**12, form)

    def test_row_is_independent_of_horizon(self):
        for form, r in (("product", 0.3), ("ratio", 2.5), ("ratio", -0.7)):
            rows = power_sum_bound_checks(r, 57, form)
            for n in (1, 2, 57):
                assert rows[n - 1] == power_sum_bound_checks(r, n, form)[-1]

    def test_overflow_matches_fsum(self):
        # each term 1000**102.5 ~ 3e307 is finite, the prefix at n = 1000 is
        # not; at r = 400 the terms themselves overflow from i = 6 on
        r = 102.5
        with pytest.raises(OverflowError):
            fsum_bound_row(r, 1000, "ratio")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r_out in (r, 400.0):
                with pytest.raises(WorkbenchError, match="overflows"):
                    power_sum_bound_checks(r_out, 1000, "ratio")
        assert_rows_match_fsum(r, 600, "ratio")

    @pytest.mark.parametrize("r, n_max", [(440.0, 5), (2000.0, 1)])
    def test_bound_overflow_is_a_domain_error(self, r, n_max):
        # the sums are finite (5**440 ~ 4e307, 1**2000 = 1), but the bound's
        # (n+1)**r is not
        assert math.isfinite(power_sums(r, n_max)[-1])
        match = rf"^the bound on sum_\(i<={n_max}\) i\*\*{r} overflows$"
        with pytest.raises(WorkbenchError, match=match) as info:
            power_sum_bound_check(r, n_max, "ratio")
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_one_sum_per_case(self, monkeypatch):
        # each case of claims 8.1-8.3 forms its own power_sums(r, 1000)
        calls = []

        def counted_power_sums(a, n_max):
            calls.append((a, n_max))
            return power_sums(a, n_max)

        monkeypatch.setattr(sequences, "power_sums", counted_power_sums)
        lemma_suite_claims(DEFAULT_SEED)
        assert len(calls) == 20
        assert calls == [(r, 1000) for _, r in LEMMA_GRID]

    @pytest.mark.parametrize("r, n_max", [(2, 208064), (3, 9742)])
    def test_integer_r_sums_are_exact(self, r, n_max):
        # integer terms whose running sums stay at most 2**53 sum exactly
        exact = list(itertools.accumulate(i**r for i in range(1, n_max + 1)))
        assert exact[-1] <= 2**53
        b = power_sum_bound_check(float(r), n_max, "ratio")
        assert b.lhs.tolist() == [float(s) for s in exact]

    def test_grid_bound_bytes_agree_across_dispatch_levels(self):
        # numpy's ** differs from libm in the last bit on AVX-512, which
        # moves a sum by an ulp; the bounds and verdicts must not move
        script = (
            "import hashlib\n"
            "from hardylab.sequences import power_sum_bound_check\n"
            "h = hashlib.sha256()\n"
            f"for form, r in {LEMMA_GRID!r}:\n"
            "    b = power_sum_bound_check(r, 1000, form)\n"
            "    h.update(b.rhs.tobytes() + b.holds.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        outs = [python_output(script, extra) for extra in ({}, WITHOUT_AVX512)]
        assert len(outs[0]) == 65 and outs[0] == outs[1]

    def test_validates_before_any_sum(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sequences, "power_sums", lambda *a: calls.append(a))
        with pytest.raises(WorkbenchError, match="needs a finite r, got r=inf"):
            power_sum_bound_check(math.inf, 10**12, "ratio")
        assert calls == []

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


class TestIntegerHorizons:
    """A horizon is an integer: a float or a bool is rejected by name, where
    it used to end in a TypeError or be accepted."""

    def test_recurrence_sequences(self):
        with pytest.raises(WorkbenchError, match="^n_max must be an integer, got 10.5$"):
            knopp_sequence(2.0, 0.0, 10.5)
        with pytest.raises(WorkbenchError, match="^n_max must be an integer, got 10.5$"):
            levin_steckin_sequence(0.25, 10.5)

    @pytest.mark.parametrize("n_max", [True, 10.0])
    def test_power_sequence(self, n_max):
        with pytest.raises(WorkbenchError, match=f"^n_max must be an integer, got {n_max!r}$"):
            power_aux_sequence(1.0, n_max)

    def test_power_sum_bound(self):
        with pytest.raises(WorkbenchError, match="^n must be an integer, got 10.5$"):
            power_sum_bound_check(0.5, 10.5, "product")
        with pytest.raises(WorkbenchError, match="^n must be >= 1$"):
            power_sum_bound_check(0.5, 0, "product")
        assert power_sum_bound_check(0.5, np.int64(3), "product").holds.all()
