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
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .compsum import neumaier_prefix_sums
from .errors import (
    InvalidExponentError,
    NonpositiveWeightError,
    OutOfDomainError,
    PreconditionError,
)


def conjugate_exponent(p: float) -> float:
    """Conjugate exponent q = p/(p-1), so that 1/p + 1/q = 1."""
    if p == 0.0 or p == 1.0:
        raise InvalidExponentError(f"conjugate exponent undefined at p={p}")
    return p / (p - 1.0)


@dataclass(eq=False)
class AuxSequence:
    """Positive weights w_n with partial sums W_n and log-scale values.

    Holds both inputs of a criterion check: the auxiliary sequence w and
    the weights lambda.  Generators normalize w_1 = 1; the criterion checks
    are scale invariant in w, so scaled copies carry the same verdicts.
    """

    n_max: int
    w: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    log_w: np.ndarray = field(repr=False)


def _ratio_recurrence(shift: float, n_max: int) -> AuxSequence:
    """Generate w_{n+1} = ((n + shift)/n) w_n with compensated W and log w."""
    if n_max < 1:
        raise OutOfDomainError("n_max must be >= 1")
    if 1.0 + shift <= 0.0:
        raise NonpositiveWeightError(
            f"recurrence shift {shift} <= -1 leaves the positive domain at n=2"
        )
    # the compensated log accumulator is authoritative; the direct value is
    # its exponential while representable (sequential products would drift
    # past the consistency tolerance near n ~ 10^6).  log1p and exp stay on
    # libm per element: numpy's vector forms differ in the last bit for some
    # inputs, and the criterion brackets difference these logs finely
    # enough to turn one ulp into visible slack.  The maps read each array
    # through a memoryview, which yields Python floats without building one
    # numpy scalar per element.
    log_w = np.empty(n_max)
    log_w[0] = 0.0
    steps = map(math.log1p, memoryview(shift / np.arange(1, n_max)))
    log_w[1:] = neumaier_prefix_sums(np.fromiter(steps, float, n_max - 1))
    w = np.full(n_max, math.inf)
    finite = log_w < 709.0
    w[finite] = np.fromiter(map(math.exp, memoryview(log_w[finite])), float)
    W = neumaier_prefix_sums(w)
    return AuxSequence(n_max=n_max, w=w, W=W, log_w=log_w)


def knopp_sequence(p: float, alpha: float, n_max: int) -> AuxSequence:
    """Forward auxiliary weights: w_{n+1} = ((n + alpha - 1/p)/n) w_n.

    Positivity requires alpha > -1/q; below that the recurrence hits a
    nonpositive ratio at n = 1.
    """
    if not p > 1.0:
        raise PreconditionError(f"forward regime needs p > 1, got {p}")
    shift = alpha - 1.0 / p
    if 1.0 + shift <= 0.0:
        raise NonpositiveWeightError(
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
        raise NonpositiveWeightError(
            f"reverse weights are defined for 0 < p < 1/2, got p={p}"
        )
    shift = 1.0 / p - 2.0
    return _ratio_recurrence(shift, n_max)


def power_aux_sequence(exponent: float, n_max: int) -> AuxSequence:
    """Power weights w_n = n**exponent (w_1 = 1 automatically); exponent 0
    gives the constant weights lambda = 1."""
    if n_max < 1:
        raise OutOfDomainError("n_max must be >= 1")
    idx = np.arange(1, n_max + 1, dtype=float)
    w = idx**exponent
    return AuxSequence(
        n_max=n_max, w=w, W=neumaier_prefix_sums(w), log_w=exponent * np.log(idx)
    )


class PowerSumBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    direction: str


def _running_fsums(terms: list[float]) -> list[float]:
    """math.fsum of every prefix of ``terms``, positive finite floats.

    Each float is m / d with d a power of two (float.as_integer_ratio), so
    over the largest denominator D every prefix is an exact integer; the
    int / int division rounds it once, correctly (round-half-even), as
    math.fsum does.  Entry n - 1 therefore equals math.fsum(terms[:n]) bit
    for bit, and a prefix past the float range raises OverflowError.
    """
    ratios = [x.as_integer_ratio() for x in terms]
    D = max(d for _, d in ratios)
    return [s / D for s in accumulate(m * (D // d) for m, d in ratios)]


def _power_sum_bounds(r: float, form: str, lhs: list[float]) -> list[PowerSumBound]:
    """Compare each lhs[n - 1] = sum_{i<=n} i**r with the bound at n, for an
    already validated (form, r)."""
    rows = []
    for n, lhs_n in enumerate(lhs, start=1):
        if form == "product":
            rhs = n * (n + 1.0) ** r / (r + 1.0)
            direction = ">="
        else:
            # (r/(r+1)) n^r (n+1)^r / ((n+1)^r - n^r), written so r -> 0 is
            # stable; r u underflows to 0 for a subnormal r, where the factor
            # r / expm1(r u) is its limit 1/u
            u = math.log1p(1.0 / n)
            factor = 1.0 / u if r * u == 0.0 else r / math.expm1(r * u)
            rhs = (n + 1.0) ** r / (r + 1.0) * factor
            direction = ">=" if r >= 1.0 else "<="
        tol = 1e-12 * max(abs(lhs_n), abs(rhs))
        if direction == ">=":
            holds = lhs_n - rhs >= -tol
        else:
            holds = rhs - lhs_n >= -tol
        rows.append(PowerSumBound(lhs_n, rhs, holds, direction))
    return rows


def power_sum_bound_checks(
    r: float, n_max: int, form: str = "product"
) -> list[PowerSumBound]:
    """Check a classical bound on sum_{i<=n} i**r for every n = 1..n_max.

    form="product":  sum >= n (n+1)**r / (r+1),  for 0 <= r <= 1.
    form="ratio":    sum >= (r/(r+1)) n**r (n+1)**r / ((n+1)**r - n**r)
                     for r >= 1; the comparison reverses for -1 < r <= 1.

    Row n - 1 holds both sides at n and whether the inequality appropriate
    to (form, r) holds (non-strict, relative tolerance 1e-12).  The sums are
    exactly rounded running sums: each lhs equals
    math.fsum(float(i) ** r for i in range(1, n + 1)) bit for bit.
    """
    if n_max < 1:
        raise OutOfDomainError("n must be >= 1")
    if form == "product":
        if not 0.0 <= r <= 1.0:
            raise OutOfDomainError(f"product form needs 0 <= r <= 1, got r={r}")
    elif form == "ratio":
        if r <= -1.0:
            raise OutOfDomainError(f"ratio form needs r > -1, got r={r}")
        if not math.isfinite(r):
            raise OutOfDomainError(f"ratio form needs a finite r, got r={r}")
    else:
        raise OutOfDomainError(f"unknown form {form!r}")
    lhs = _running_fsums([float(i) ** r for i in range(1, n_max + 1)])
    return _power_sum_bounds(r, form, lhs)
