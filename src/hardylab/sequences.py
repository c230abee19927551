"""Weight and auxiliary sequences with compensated sums and log-scale values.

The ratio recurrence

    w_1 = 1,   w_{n+1} = ((n + s) / n) * w_n

generates both auxiliary families used by the criterion checks: the forward
(Knopp) choice with s = alpha - 1/p and the reverse (Levin-Steckin) choice
with s = 1/p - 2.  For any s > -1 the partial sums collapse to

    W_n = sum_{i<=n} w_i = ((n + s) / (1 + s)) * w_n,

which the residual helpers verify.  Log-scale values are accumulated (with
compensation) and w_n is their exponential, so criterion comparisons stay
accurate where powers of w_n would lose precision or overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .compsum import neumaier_prefix_sums
from .errors import (
    InvalidExponentError,
    NonpositiveWeightError,
    OutOfDomainError,
    ParameterMismatchError,
    PreconditionError,
)


def conjugate_exponent(p: float) -> float:
    """Conjugate exponent q = p/(p-1), so that 1/p + 1/q = 1."""
    if p == 0.0 or p == 1.0:
        raise InvalidExponentError(f"conjugate exponent undefined at p={p}")
    return p / (p - 1.0)


@dataclass(frozen=True)
class ExponentPair:
    """A Hoelder pair (p, q) with 1/p + 1/q = 1."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if self.p == 0.0 or self.p == 1.0:
            raise InvalidExponentError(f"invalid exponent p={self.p}")
        scale = max(abs(1.0 / self.p), abs(1.0 / self.q), 1.0)
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-12 * scale:
            raise InvalidExponentError(
                f"(p={self.p}, q={self.q}) is not a conjugate pair"
            )

    @classmethod
    def of(cls, p: float) -> "ExponentPair":
        return cls(float(p), conjugate_exponent(float(p)))

    @classmethod
    def forward(cls, p: float) -> "ExponentPair":
        """Pair for the forward (weighted-mean) regime, p > 1."""
        if not p > 1.0:
            raise InvalidExponentError(f"forward regime needs p > 1, got {p}")
        return cls.of(p)

    @classmethod
    def reverse(cls, p: float) -> "ExponentPair":
        """Pair for the reverse (tail-mean) regime, 0 < p < 1."""
        if not 0.0 < p < 1.0:
            raise InvalidExponentError(f"reverse regime needs 0 < p < 1, got {p}")
        return cls.of(p)


def _check_index(n: int, n_max: int) -> None:
    if not 1 <= n <= n_max:
        raise OutOfDomainError(f"index n={n} outside generated range 1..{n_max}")


@dataclass(eq=False)
class WeightSequence:
    """Power-family weights lambda_n = n**alpha with compensated partial sums."""

    alpha: float
    n_max: int
    lam: np.ndarray = field(repr=False)
    Lam: np.ndarray = field(repr=False)
    log_lam: np.ndarray = field(repr=False)

    @classmethod
    def power(cls, alpha: float, n_max: int) -> "WeightSequence":
        if n_max < 1:
            raise OutOfDomainError("n_max must be >= 1")
        idx = np.arange(1, n_max + 1, dtype=float)
        lam = idx**alpha
        return cls(
            alpha=float(alpha),
            n_max=n_max,
            lam=lam,
            Lam=neumaier_prefix_sums(lam),
            log_lam=alpha * np.log(idx),
        )

    @classmethod
    def constant(cls, n_max: int) -> "WeightSequence":
        """All-ones weights, the alpha = 0 member of the power family."""
        return cls.power(0.0, n_max)

    def lam_at(self, n: int) -> float:
        _check_index(n, self.n_max)
        return float(self.lam[n - 1])

    def Lam_at(self, n: int) -> float:
        _check_index(n, self.n_max)
        return float(self.Lam[n - 1])


@dataclass(eq=False)
class AuxSequence:
    """Auxiliary weights w_n with partial sums W_n and log-scale values.

    Generators normalize w_1 = 1; the criterion checks are scale invariant
    in w, so scaled copies (see ``scaled``) carry the same verdicts.
    """

    kind: str
    n_max: int
    w: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    log_w: np.ndarray = field(repr=False)
    p: float | None = None
    alpha: float | None = None
    exponent: float | None = None
    exploratory: bool = False

    def w_at(self, n: int) -> float:
        _check_index(n, self.n_max)
        return float(self.w[n - 1])

    def W_at(self, n: int) -> float:
        _check_index(n, self.n_max)
        return float(self.W[n - 1])

    def scaled(self, factor: float) -> "AuxSequence":
        """Copy with every w_n multiplied by a positive constant."""
        if not factor > 0.0:
            raise OutOfDomainError("scale factor must be positive")
        return AuxSequence(
            kind=self.kind,
            n_max=self.n_max,
            w=self.w * factor,
            W=self.W * factor,
            log_w=self.log_w + math.log(factor),
            p=self.p,
            alpha=self.alpha,
            exponent=self.exponent,
            exploratory=self.exploratory,
        )


def _ratio_recurrence(
    kind: str,
    shift: float,
    n_max: int,
    *,
    p: float | None = None,
    alpha: float | None = None,
    exploratory: bool = False,
) -> AuxSequence:
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
    # enough to turn one ulp into visible slack.
    log_w = np.empty(n_max)
    log_w[0] = 0.0
    steps = map(math.log1p, shift / np.arange(1, n_max))
    log_w[1:] = neumaier_prefix_sums(np.fromiter(steps, float, n_max - 1))
    w = np.full(n_max, math.inf)
    finite = log_w < 709.0
    w[finite] = np.fromiter(map(math.exp, log_w[finite]), float)
    W = neumaier_prefix_sums(w)
    return AuxSequence(
        kind=kind,
        n_max=n_max,
        w=w,
        W=W,
        log_w=log_w,
        p=p,
        alpha=alpha,
        exploratory=exploratory,
    )


def knopp_sequence(params: ExponentPair, alpha: float, n_max: int) -> AuxSequence:
    """Forward auxiliary weights: w_{n+1} = ((n + alpha - 1/p)/n) w_n.

    Positivity requires alpha > -1/q; below that the recurrence hits a
    nonpositive ratio at n = 1.
    """
    if not params.p > 1.0:
        raise PreconditionError(f"forward weights need p > 1, got p={params.p}")
    shift = alpha - 1.0 / params.p
    if 1.0 + shift <= 0.0:
        raise NonpositiveWeightError(
            f"alpha={alpha} <= -1/q={-1.0 / params.q}: weights become nonpositive"
        )
    return _ratio_recurrence("knopp", shift, n_max, p=params.p, alpha=alpha)


def levin_steckin_sequence(p: float, n_max: int) -> AuxSequence:
    """Reverse auxiliary weights: w_{n+1} = ((n + 1/p - 2)/n) w_n.

    The reverse criterion machinery is built for 0 < p <= 1/3; any
    0 < p < 1/2 is accepted for exploration and flagged as such.
    """
    if not 0.0 < p < 0.5:
        raise NonpositiveWeightError(
            f"reverse weights are defined for 0 < p < 1/2, got p={p}"
        )
    shift = 1.0 / p - 2.0
    return _ratio_recurrence(
        "levin_steckin", shift, n_max, p=p, exploratory=p > 1.0 / 3.0
    )


def power_aux_sequence(exponent: float, n_max: int) -> AuxSequence:
    """Auxiliary weights w_n = n**exponent (w_1 = 1 automatically)."""
    if n_max < 1:
        raise OutOfDomainError("n_max must be >= 1")
    idx = np.arange(1, n_max + 1, dtype=float)
    w = idx**exponent
    return AuxSequence(
        kind="power",
        n_max=n_max,
        w=w,
        W=neumaier_prefix_sums(w),
        log_w=exponent * np.log(idx),
        exponent=float(exponent),
    )


def constant_aux_sequence(n_max: int) -> AuxSequence:
    return power_aux_sequence(0.0, n_max)


def _identity_residual(seq: AuxSequence, shift: float, n: int) -> float:
    _check_index(n, seq.n_max)
    ident = (n + shift) / (1.0 + shift) * seq.w_at(n)
    Wn = seq.W_at(n)
    return abs(Wn - ident) / Wn


def knopp_partial_sum_identity_residual(
    seq: AuxSequence, params: ExponentPair, alpha: float, n: int
) -> float:
    """Relative residual of W_n = ((n + alpha - 1/p)/(1 + alpha - 1/p)) w_n."""
    if seq.kind != "knopp" or seq.p != params.p or seq.alpha != alpha:
        raise ParameterMismatchError(
            "sequence was not generated by knopp_sequence with these parameters"
        )
    return _identity_residual(seq, alpha - 1.0 / params.p, n)


def levin_steckin_identity_residual(seq: AuxSequence, p: float, n: int) -> float:
    """Relative residual of W_n = ((n + 1/p - 2)/(1/p - 1)) w_n."""
    if seq.kind != "levin_steckin" or seq.p != p:
        raise ParameterMismatchError(
            "sequence was not generated by levin_steckin_sequence with this p"
        )
    return _identity_residual(seq, 1.0 / p - 2.0, n)


class PowerSumBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    direction: str


def _running_fsums(terms) -> list[float]:
    """math.fsum of every prefix of ``terms``, in one pass.

    Carries Shewchuk's nonoverlapping partials (the exact running sum behind
    math.fsum) along the sequence and rounds them once per prefix, so entry
    n - 1 equals math.fsum(terms[:n]) bit for bit; a single partial is its
    own rounding.  Like math.fsum, raises OverflowError when a running sum
    of finite terms leaves the float range.
    """
    partials: list[float] = []
    sums = []
    for x in terms:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        if math.isinf(x):
            raise OverflowError("intermediate overflow in fsum")
        partials[i:] = [x]
        sums.append(x if i == 0 else math.fsum(partials))
    return sums


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
    lhs = _running_fsums(float(i) ** r for i in range(1, n_max + 1))
    return _power_sum_bounds(r, form, lhs)


def power_sum_bound_check(r: float, n: int, form: str = "product") -> PowerSumBound:
    """The row of power_sum_bound_checks(r, n, form) at n."""
    return power_sum_bound_checks(r, n, form)[-1]


class TailDecay(NamedTuple):
    monotone: bool
    last_ratio: float


def tail_decay_check(
    seq: AuxSequence,
    weights: WeightSequence,
    params: ExponentPair,
    n_max: int,
) -> TailDecay:
    """Check the decay precondition of the forward route.

    For p > 1 the quantity w_n**(p-1) / lambda_n**p must decrease strictly;
    for 0 < p < 1 the reverse-regime analogue is
    w_n**(-1/(1-p)) / lambda_n**(p/(1-p)).  The check runs in log scale and
    reports the final consecutive ratio.  (The recurrent-inequality route
    drops this requirement; here it is a diagnostic.)
    """
    if n_max < 2:
        raise OutOfDomainError("need n_max >= 2 to assess decay")
    if n_max > seq.n_max or n_max > weights.n_max:
        raise ParameterMismatchError("sequences shorter than requested horizon")
    p = params.p
    if p > 1.0:
        a, b = p - 1.0, -p
    elif 0.0 < p < 1.0:
        a, b = -1.0 / (1.0 - p), -p / (1.0 - p)
    else:
        raise InvalidExponentError(f"tail decay undefined for p={p}")
    log_t = a * seq.log_w[:n_max] + b * weights.log_lam[:n_max]
    d = np.diff(log_t)
    return TailDecay(bool(np.all(d < 0.0)), float(math.exp(d[-1])))
