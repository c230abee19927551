"""Weight and auxiliary sequences with compensated sums and log-scale values.

The ratio recurrence

    w_1 = 1,   w_{n+1} = ((n + s) / n) * w_n

generates both auxiliary families used by the criterion checks: the forward
(Knopp) choice with s = alpha - 1/p and the reverse (Levin-Steckin) choice
with s = 1/p - 2.  For any s > -1 the partial sums collapse to

    W_n = sum_{i<=n} w_i = ((n + s) / (1 + s)) * w_n,

which claim 3.2 verifies for the reverse choice.  Log-scale values are accumulated (with
compensation) and w_n is their exponential, so criterion comparisons stay
accurate where powers of w_n would lose precision or overflow.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .compsum import BLOCK, NeumaierScan
from .errors import WorkbenchError, check_horizon


def conjugate_exponent(p: float) -> float:
    """Conjugate exponent q = p/(p-1), so that 1/p + 1/q = 1."""
    if p == 0.0 or p == 1.0:
        raise WorkbenchError(f"conjugate exponent undefined at p={p}")
    return p / (p - 1.0)


@dataclass(eq=False)
class AuxSequence:
    """Partial sums W_n and log-scale values of positive weights w_n,
    n = 1..n_max, block by block.

    The auxiliary sequence w of a criterion check (the forward check forms
    its power weights lambda itself), with its law: ``("recurrence", s)``
    for the ratio recurrence with shift s, ``("power", e)`` for
    w_n = n**e.  ``blocks()`` yields what a check reads, one block of BLOCK
    indices at a time, with log_w one index ahead of W.  The builders
    store only the law, and the blocks are formed from it in buffers
    reused from block to block, so no n-length array exists.  A sequence
    built from its ``arrays`` (log_w, W), as ``materialize()``, claim 3.2
    and tests build it, yields views of them instead.  The ``log_w`` and
    ``W`` attributes and ``weights()`` return whole arrays, which a
    law-built sequence forms afresh from the same blocks.  Generators
    normalize w_1 = 1; the criterion checks are scale invariant in w, so
    scaled copies carry the same verdicts.
    """

    n_max: int
    law: tuple[str, float]
    arrays: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(log_w[lo : hi + 1], W[lo:hi]) for the blocks [lo, hi) of BLOCK
        indices that cover 0..n_max - 2: what a bracket at those indices
        reads.  A block's arrays are valid until the next is drawn."""
        count = self.n_max - 1
        if self.arrays is None:
            yield from _law_blocks(self.law, count)
            return
        log_w, W = self.arrays
        for lo in range(0, count, BLOCK):
            hi = min(lo + BLOCK, count)
            yield log_w[lo : hi + 1], W[lo:hi]

    def materialize(self) -> AuxSequence:
        """This sequence built from its arrays, formed once from its law."""
        if self.arrays is not None:
            return self
        n = self.n_max
        log_w, W = np.empty(n), np.empty(n)
        # the law's blocks over all n indices; the last reads log w_{n+1}
        for lo, (lw, Wb) in zip(range(0, n, BLOCK), _law_blocks(self.law, n)):
            log_w[lo : lo + len(Wb)] = lw[:-1]
            W[lo : lo + len(Wb)] = Wb
        return AuxSequence(n, self.law, (log_w, W))

    @property
    def log_w(self) -> np.ndarray:
        return self.materialize().arrays[0]

    @property
    def W(self) -> np.ndarray:
        return self.materialize().arrays[1]

    def weights(self) -> np.ndarray:
        """w_1..w_{n_max}, with the bits W sums (a fresh n-length array)."""
        kind, param = self.law
        if kind == "power":
            return power_weights(param, self.n_max)
        return _exp_weights(self.log_w)


def libm_map(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn(x_i, args_i...) per element through the C library, in a new array:
    the package's one libm map.

    Arrays are read through a memoryview (Python floats, no numpy scalars);
    a float in ``args`` is passed to every call.  numpy's vector log1p,
    expm1 and pow differ from libm in the last bit for some inputs on
    AVX-512, which the brackets and lemma checks turn into visible slack.
    """
    columns = [
        memoryview(a) if isinstance(a, np.ndarray) else repeat(a) for a in args
    ]
    return np.fromiter(map(fn, memoryview(x), *columns), float, len(x))


def _exp_weights(log_w: np.ndarray) -> np.ndarray:
    """exp(log_w) by numpy's vector exp, in a new array; inf from 709 up.

    numpy's exp is libm's below AVX-512 and is 1 ulp off it for some inputs
    with it, so the bits of w and W, and claim 3.2's residual, depend on the
    dispatch level; the brackets read w only through log W, never differenced.
    """
    w = np.minimum(log_w, 709.0)
    np.exp(w, out=w)
    w[~(log_w < 709.0)] = math.inf
    return w


def power_weights(exponent: float, n_max: int, lo: int = 0) -> np.ndarray:
    """n**exponent for n = lo + 1..n_max in a new array: the package's one
    n**e."""
    w = np.arange(lo + 1, n_max + 1, dtype=float)
    w **= exponent
    return w


def _law_blocks(law: tuple[str, float], count: int):
    """(log_w[lo : hi + 1], W[lo:hi]) of the law's sequence for the blocks
    [lo, hi) covering 0..count - 1, in buffers reused from block to block."""
    kind, param = law
    if kind == "power":
        return _power_law_blocks(param, count)
    if param == 0.0:
        return _unit_blocks(count)
    return _recurrence_blocks(param, count)


def _recurrence_blocks(shift: float, count: int):
    # the compensated log accumulator is authoritative; the direct value is
    # its exponential while representable (sequential products would drift
    # past the consistency tolerance near n ~ 10^6).  log1p goes through
    # libm_map, exp is numpy's (see _exp_weights).  The step of index 0 is
    # log1p(+0.0) = +0.0, which leaves the scan's carry (+0.0, +0.0) as it
    # is, so log w_1 = +0.0 and the scan starts at index 1.  Each block
    # scans the steps up to one index past its end into log_w[1:], and
    # that last log is entry 0 of the next block.
    m = min(count, BLOCK)
    log_w, W = np.empty(m + 1), np.empty(m)
    log_w[0] = 0.0
    log_scan = NeumaierScan(m)
    w_scan = log_scan.another()
    for lo in range(0, count, BLOCK):
        k = min(BLOCK, count - lo)
        lw, Wb = log_w[: k + 1], W[:k]
        ratios = np.divide(shift, np.arange(lo + 1, lo + k + 1, dtype=float), out=Wb)
        log_scan(libm_map(math.log1p, ratios), lw[1:])
        w_scan(_exp_weights(lw[:-1]), Wb)
        yield lw, Wb
        log_w[0] = lw[-1]


def _unit_blocks(count: int):
    # shift 0 of the recurrence, in closed form with the same bits: every
    # step log1p(+-0.0) scans to +0.0 and exp(0.0) is 1.0, so W holds the
    # power sums of the ones
    log_w = np.zeros(min(count, BLOCK) + 1)
    for _, W in power_sum_blocks(0.0, count):
        yield log_w[: len(W) + 1], W


def _power_law_blocks(exponent: float, count: int):
    m = min(count, BLOCK)
    ramp = np.arange(1, m + 2, dtype=float)
    log_w = np.empty(m + 1)
    for lo, (_, W) in zip(range(0, count, BLOCK), power_sum_blocks(exponent, count)):
        lw = np.add(ramp[: len(W) + 1], lo, out=log_w[: len(W) + 1])
        np.log(lw, out=lw)
        np.multiply(exponent, lw, out=lw)
        yield lw, W


def _ratio_recurrence(shift: float, n_max: int) -> AuxSequence:
    """The sequence of w_{n+1} = ((n + shift)/n) w_n, with compensated W and
    log w, formed block by block as a check reads it."""
    check_horizon("n_max", n_max)
    return AuxSequence(n_max, ("recurrence", shift))


def require_forward_p(p: float) -> None:
    """Reject a p outside the forward regime 1 < p < inf."""
    if not p > 1.0:
        raise WorkbenchError(f"forward regime needs p > 1, got {p}")
    if p == math.inf:
        raise WorkbenchError(f"forward regime needs a finite p, got {p}")


def knopp_sequence(p: float, alpha: float, n_max: int) -> AuxSequence:
    """Forward auxiliary weights: w_{n+1} = ((n + alpha - 1/p)/n) w_n.

    Positivity requires alpha > -1/q; below that the recurrence hits a
    nonpositive ratio at n = 1.
    """
    require_forward_p(p)
    shift = alpha - 1.0 / p
    if 1.0 + shift <= 0.0:
        raise WorkbenchError(
            f"alpha={alpha} <= -1/q={-1.0 / conjugate_exponent(p)}: "
            "weights become nonpositive"
        )
    return _ratio_recurrence(shift, n_max)


def levin_steckin_sequence(p: float, n_max: int) -> AuxSequence:
    """Reverse auxiliary weights: w_{n+1} = ((n + 1/p - 2)/n) w_n.

    The reverse criterion machinery is built for 0 < p <= 1/3; any
    0 < p < 1/2 is accepted for exploration (reverse_criterion_check
    flags the larger p).
    """
    if not 0.0 < p < 0.5:
        raise WorkbenchError(f"reverse weights are defined for 0 < p < 1/2, got p={p}")
    shift = 1.0 / p - 2.0
    return _ratio_recurrence(shift, n_max)


def _triangular_sums_exact(n_max: int) -> bool:
    """Whether every sum 1 + 2 + ... + n, n <= n_max, is an integer of at
    most 2**53, so that float cumsum forms it exactly; the compensated scan
    then returns the same bits, each of its error terms being +0.0."""
    return n_max * (n_max + 1) // 2 <= 2**53


def power_sum_blocks(a: float, count: int, size: int = BLOCK):
    """(i**a, sum_{j<=i} j**a) for i in the blocks [lo + 1, hi + 1) of
    1..count, ``size`` indices long but the last, the terms in a new array
    and the sums in a buffer reused from block to block; the reader may
    overwrite both.  The sums are compensated and carried across blocks.

    The exact-integer cases skip the scan with its bits: at a = 0 the sums
    are 1..count, and at a = 1 float cumsum forms them exactly while
    _triangular_sums_exact holds.
    """
    sums = np.empty(min(count, size))
    exact = a == 0.0 or (a == 1.0 and _triangular_sums_exact(count))
    scan = None if exact else NeumaierScan(len(sums))
    carry = 0.0
    for lo in range(0, count, size):
        hi = min(lo + size, count)
        S = sums[: hi - lo]
        if not exact:
            t = power_weights(a, hi, lo)
            scan(t, S)
        elif a == 0.0:
            t = np.ones(hi - lo)
            S[:] = np.arange(lo + 1, hi + 1, dtype=float)
        else:  # a = 1: integer sums below 2**53, in any order
            t = np.arange(lo + 1, hi + 1, dtype=float)
            np.cumsum(t, out=S)
            S += carry
            carry = float(S[-1])
        yield t, S


def power_sums(a: float, n_max: int) -> np.ndarray:
    """Compensated sums sum_{i<=n} i**a for n = 1..n_max, in a new array."""
    out = np.empty(n_max)
    for lo, (_, S) in zip(range(0, n_max, BLOCK), power_sum_blocks(a, n_max)):
        out[lo : lo + len(S)] = S
    return out


def power_aux_sequence(exponent: float, n_max: int) -> AuxSequence:
    """Power weights w_n = n**exponent (w_1 = 1 automatically)."""
    check_horizon("n_max", n_max)
    return AuxSequence(n_max, ("power", exponent))


class PowerSumBounds(NamedTuple):
    """A power-sum bound at every n = 1..n_max: entry n - 1 of each array
    holds the sum, the bound and whether the bound holds at n."""

    lhs: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray
    direction: str


def power_sum_bound_check(r: float, n: int, form: str) -> PowerSumBounds:
    """Check a classical bound on sum_{i<=k} i**r at every k = 1..n.

    form="product":  sum >= k (k+1)**r / (r+1),  for 0 <= r <= 1.
    form="ratio":    sum >= (r/(r+1)) k**r (k+1)**r / ((k+1)**r - k**r)
                     for r >= 1; the comparison reverses for -1 < r <= 1.

    The bound holds non-strictly, at relative tolerance 1e-12.  (form, r,
    n) is validated before power_sums forms the sums.  The bound takes the
    same operations as one Python float expression per k: pow, log1p and
    expm1 per element from libm, the rest IEEE arithmetic in numpy.  A sum,
    or a bound's pow or expm1, past the float range is out of domain; a
    finite sum does not rule out the latter.
    """
    check_horizon("n", n)
    if form == "product":
        if not 0.0 <= r <= 1.0:
            raise WorkbenchError(f"product form needs 0 <= r <= 1, got r={r}")
    elif form == "ratio":
        if r <= -1.0:
            raise WorkbenchError(f"ratio form needs r > -1, got r={r}")
        if not math.isfinite(r):
            raise WorkbenchError(f"ratio form needs a finite r, got r={r}")
    else:
        raise WorkbenchError(f"unknown form {form!r}")
    with np.errstate(over="ignore"):
        lhs = power_sums(r, n)
    if not math.isfinite(lhs[-1]):  # the sums never decrease
        raise WorkbenchError(f"sum_(i<={n}) i**{r} overflows")
    k = np.arange(1, n + 1, dtype=float)
    try:
        rhs = libm_map(pow, k + 1.0, r)
        if form == "product":
            # k (k+1)^r / (r+1)
            rhs *= k
            rhs /= r + 1.0
            direction = ">="
        else:
            # (r/(r+1)) k^r (k+1)^r / ((k+1)^r - k^r), written so r -> 0 is
            # stable; r u underflows to 0 for a subnormal r, where the factor
            # r / expm1(r u) is its limit 1/u
            u = libm_map(math.log1p, 1.0 / k)
            ru = r * u
            denom = libm_map(math.expm1, ru)
            factor = np.divide(r, denom, out=1.0 / u, where=ru != 0.0)
            rhs /= r + 1.0
            rhs *= factor
            direction = ">=" if r >= 1.0 else "<="
    except OverflowError:
        raise WorkbenchError(
            f"the bound on sum_(i<={n}) i**{r} overflows"
        ) from None
    # rhs is never NaN, so maximum picks what Python's max(lhs, rhs) does
    tol = 1e-12 * np.maximum(np.abs(lhs), np.abs(rhs))
    gap = lhs - rhs if direction == ">=" else rhs - lhs
    return PowerSumBounds(lhs, rhs, gap >= -tol, direction)
