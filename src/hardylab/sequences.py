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
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .compsum import neumaier_prefix_sums
from .errors import WorkbenchError


def conjugate_exponent(p: float) -> float:
    """Conjugate exponent q = p/(p-1), so that 1/p + 1/q = 1."""
    if p == 0.0 or p == 1.0:
        raise WorkbenchError(f"conjugate exponent undefined at p={p}")
    return p / (p - 1.0)


@dataclass(eq=False)
class AuxSequence:
    """Partial sums W_n and log-scale values of positive weights w_n.

    The auxiliary sequence w of a criterion check (the forward check forms
    its power weights lambda itself), with its law: ``("recurrence", s)``
    for the ratio recurrence with shift s, ``("power", e)`` for
    w_n = n**e.  The weights themselves are formed, summed and dropped by
    the builder; ``weights()`` forms them again.  Generators normalize
    w_1 = 1; the criterion checks are scale invariant in w, so scaled
    copies carry the same verdicts.
    """

    n_max: int
    law: tuple[str, float]
    log_w: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)

    def weights(self) -> np.ndarray:
        """w_1..w_{n_max}, with the builder's bits (a fresh n-length array)."""
        kind, param = self.law
        if kind == "power":
            return power_weights(param, self.n_max)
        return _exp_weights(self.log_w)


def libm_map(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn(x_i, args_i...) per element through the C library, in a new array:
    the package's one libm map.

    Arrays are read through a memoryview (Python floats, no numpy scalars);
    a float in ``args`` is passed to every call.  numpy's vector exp, log1p,
    expm1 and pow differ from libm in the last bit for some inputs on
    AVX-512, which the brackets and lemma checks turn into visible slack.
    """
    columns = [
        memoryview(a) if isinstance(a, np.ndarray) else repeat(a) for a in args
    ]
    return np.fromiter(map(fn, memoryview(x), *columns), float, len(x))


def _exp_weights(log_w: np.ndarray) -> np.ndarray:
    """exp(log_w) through libm_map; inf from 709 up."""
    w = libm_map(math.exp, np.minimum(log_w, 709.0))
    w[~(log_w < 709.0)] = math.inf
    return w


def power_weights(exponent: float, n_max: int) -> np.ndarray:
    """n**exponent for n = 1..n_max in a new array: the package's one n**e."""
    w = np.arange(1, n_max + 1, dtype=float)
    w **= exponent
    return w


def _ratio_recurrence(shift: float, n_max: int) -> AuxSequence:
    """Generate w_{n+1} = ((n + shift)/n) w_n with compensated W and log w."""
    if n_max < 1:
        raise WorkbenchError("n_max must be >= 1")
    # the compensated log accumulator is authoritative; the direct value is
    # its exponential while representable (sequential products would drift
    # past the consistency tolerance near n ~ 10^6).  log1p and exp go
    # through libm_map.  Entry 0 of the ratios is +0.0, whose log1p is +0.0,
    # so the scan of the steps is log_w itself.  Shift 0 is built in closed
    # form with the same bits: every step log1p(+-0.0) scans to +0.0 and
    # exp(0.0) is 1.0, so W holds the power sums of the ones.
    if shift == 0.0:
        W = power_sums(0.0, n_max)
        return AuxSequence(n_max, ("recurrence", shift), np.zeros(n_max), W)
    ratios = np.arange(n_max, dtype=float)
    np.divide(shift, ratios[1:], out=ratios[1:])
    log_w = libm_map(math.log1p, ratios)
    del ratios
    neumaier_prefix_sums(log_w, out=log_w)
    w = _exp_weights(log_w)
    W = neumaier_prefix_sums(w, out=w)
    return AuxSequence(n_max, ("recurrence", shift), log_w, W)


def knopp_sequence(p: float, alpha: float, n_max: int) -> AuxSequence:
    """Forward auxiliary weights: w_{n+1} = ((n + alpha - 1/p)/n) w_n.

    Positivity requires alpha > -1/q; below that the recurrence hits a
    nonpositive ratio at n = 1.
    """
    if not p > 1.0:
        raise WorkbenchError(f"forward regime needs p > 1, got {p}")
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


def power_sums(a: float, n_max: int) -> np.ndarray:
    """Compensated sums sum_{i<=n} i**a for n = 1..n_max, in a new array.

    The exact-integer cases skip the scan with its bits: at a = 0 the sums
    are 1..n_max, and at a = 1 float cumsum forms them exactly while
    _triangular_sums_exact holds.
    """
    if a == 0.0:
        return np.arange(1, n_max + 1, dtype=float)
    terms = power_weights(a, n_max)
    if a == 1.0 and _triangular_sums_exact(n_max):
        return np.cumsum(terms, out=terms)
    return neumaier_prefix_sums(terms, out=terms)


def power_aux_sequence(exponent: float, n_max: int) -> AuxSequence:
    """Power weights w_n = n**exponent (w_1 = 1 automatically)."""
    if n_max < 1:
        raise WorkbenchError("n_max must be >= 1")
    log_w = np.arange(1, n_max + 1, dtype=float)
    np.log(log_w, out=log_w)
    np.multiply(exponent, log_w, out=log_w)
    W = power_sums(exponent, n_max)
    return AuxSequence(n_max, ("power", exponent), log_w, W)


class PowerSumBounds(NamedTuple):
    """A power-sum bound at every n = 1..n_max: entry n - 1 of each array
    holds the sum, the bound and whether the bound holds at n."""

    lhs: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray
    direction: str


def _power_sum_bounds(r: float, form: str, lhs: np.ndarray) -> PowerSumBounds:
    """Compare each lhs[n - 1] = sum_{i<=n} i**r with the bound at n, for an
    already validated (form, r).

    The same operations as one Python float expression per n: pow, log1p
    and expm1 per element from libm, the rest IEEE arithmetic in numpy.  A
    pow or expm1 past the float range, which a finite sum does not rule
    out, is out of domain.
    """
    n = np.arange(1, len(lhs) + 1, dtype=float)
    try:
        rhs = libm_map(pow, n + 1.0, r)
        if form == "product":
            # n (n+1)^r / (r+1)
            rhs *= n
            rhs /= r + 1.0
            direction = ">="
        else:
            # (r/(r+1)) n^r (n+1)^r / ((n+1)^r - n^r), written so r -> 0 is
            # stable; r u underflows to 0 for a subnormal r, where the factor
            # r / expm1(r u) is its limit 1/u
            u = libm_map(math.log1p, 1.0 / n)
            ru = r * u
            denom = libm_map(math.expm1, ru)
            factor = np.divide(r, denom, out=1.0 / u, where=ru != 0.0)
            rhs /= r + 1.0
            rhs *= factor
            direction = ">=" if r >= 1.0 else "<="
    except OverflowError:
        raise WorkbenchError(
            f"the bound on sum_(i<={len(lhs)}) i**{r} overflows"
        ) from None
    # rhs is never NaN, so maximum picks what Python's max(lhs, rhs) does
    tol = 1e-12 * np.maximum(np.abs(lhs), np.abs(rhs))
    gap = lhs - rhs if direction == ">=" else rhs - lhs
    return PowerSumBounds(lhs, rhs, gap >= -tol, direction)


def _check_bound_domain(r: float, n_max: int, form: str) -> None:
    if n_max < 1:
        raise WorkbenchError("n must be >= 1")
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


def power_sum_bounds(
    cases: list[tuple[str, float]], n_max: int
) -> list[PowerSumBounds]:
    """Check a classical bound on sum_{i<=n} i**r for every n = 1..n_max,
    for each (form, r) of ``cases``, in order.

    form="product":  sum >= n (n+1)**r / (r+1),  for 0 <= r <= 1.
    form="ratio":    sum >= (r/(r+1)) n**r (n+1)**r / ((n+1)**r - n**r)
                     for r >= 1; the comparison reverses for -1 < r <= 1.

    The bound holds non-strictly, at relative tolerance 1e-12.  Every case
    is validated before any sum is formed.  The sums come from power_sums,
    once per distinct r; a sum past the float range is out of domain.
    """
    for form, r in cases:
        _check_bound_domain(r, n_max, form)
    sums: dict[float, np.ndarray] = {}  # i**(-0.0) is i**0.0, so 0.0 keys both
    bounds = []
    for form, r in cases:
        if r not in sums:
            with np.errstate(over="ignore"):
                sums[r] = power_sums(r, n_max)
            if not math.isfinite(sums[r][-1]):  # the sums never decrease
                raise WorkbenchError(f"sum_(i<={n_max}) i**{r} overflows")
        bounds.append(_power_sum_bounds(r, form, sums[r]))
    return bounds
