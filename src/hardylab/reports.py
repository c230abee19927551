"""Report types shared by the criterion checkers.

A criterion verdict is decided per index from the signed slack
(RHS - LHS)/RHS: a strict inequality holds at n only when the slack
clears tol_rel (plus tol_abs scaled by RHS), a non-strict one when it
stays above the negated threshold.  Reports carry the verified horizon;
they are finite-horizon evidence, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import OutOfDomainError

FINITE_HORIZON_NOTE = (
    "finite-horizon verification: criteria quantified over all n are "
    "checked up to n_max; this is evidence, not a proof"
)


@dataclass(frozen=True)
class Tolerances:
    tol_abs: float = 0.0
    tol_rel: float = 1e-12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol_abs) and math.isfinite(self.tol_rel)):
            raise OutOfDomainError("tolerances must be finite")
        if self.tol_abs < 0.0 or self.tol_rel < 0.0:
            raise OutOfDomainError("tolerances must be nonnegative")


@dataclass(eq=False)
class CriterionReport:
    """Verdict of a finite per-index criterion check.

    ``min_slack`` is the worst signed slack over the range (it is -inf at
    an index whose bounding side collapses to a nonpositive value);
    ``first_failure`` is set exactly when ``holds`` is False.
    """

    name: str
    ref: str
    n_lo: int
    n_hi: int
    holds: bool
    min_slack: float
    first_failure: int | None
    exploratory: bool = False
    slacks: np.ndarray | None = field(default=None, repr=False)

    def summary(self) -> str:
        verdict = (
            "holds" if self.holds else f"fails first at n={self.first_failure}"
        )
        tag = " [exploratory]" if self.exploratory else ""
        return (
            f"{self.name}: {verdict} (verified up to n_max={self.n_hi}, "
            f"min_slack={self.min_slack:.3e}){tag}"
        )


def _plain(x):
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


@dataclass(frozen=True)
class Verdict:
    """Outcome of one claim: the row every claim function and CLI command returns."""

    claim: str
    ref: str
    holds: bool
    value: float | None = None
    min_slack: float | None = None
    first_failure: int | None = None
    exploratory: bool = False
    detail: str = ""

    @classmethod
    def from_report(cls, report: CriterionReport, claim: str | None = None) -> Verdict:
        """The verdict of a criterion check, named ``claim`` or after the report."""
        return cls(
            claim=report.name if claim is None else claim,
            ref=report.ref,
            holds=report.holds,
            min_slack=report.min_slack,
            first_failure=report.first_failure,
            exploratory=report.exploratory,
            detail=report.summary(),
        )

    def to_dict(self) -> dict:
        """Plain Python values for JSON and the other renderers: ``ref`` is
        written as ``paper_ref``, and a non-finite number (a slack of a
        collapsed bounding side) as None."""
        row = {k: _plain(v) for k, v in asdict(self).items()}
        row["paper_ref"] = row.pop("ref")
        return row


def build_report(
    name: str,
    ref: str,
    n_lo: int,
    slacks: np.ndarray,
    *,
    strict: bool,
    log_rhs: np.ndarray,
    tol: Tolerances = Tolerances(),
    exploratory: bool = False,
) -> CriterionReport:
    """Assemble a CriterionReport from per-index slacks.

    ``log_rhs`` is the log of the bounding side per index; it converts
    tol_abs into slack units index by index.  With tol_abs > 0 the
    per-index threshold is formed in log_rhs's own buffer, which it
    overwrites.
    """
    slacks = np.asarray(slacks, dtype=float)
    if len(slacks) == 0:
        raise OutOfDomainError("no index to check: the index range is empty")
    # a strict slack must exceed the threshold, a non-strict one reach its
    # negative; negating both tolerances negates the threshold exactly
    sign = 1.0 if strict else -1.0
    thr = sign * tol.tol_rel
    if tol.tol_abs > 0.0:
        thr = np.asarray(log_rhs, dtype=float)
        # tol_abs over a bounding side below tol_abs / DBL_MAX is inf
        with np.errstate(over="ignore"):
            np.negative(thr, out=thr)
            np.exp(thr, out=thr)
            np.multiply(sign * tol.tol_abs, thr, out=thr)
            np.add(sign * tol.tol_rel, thr, out=thr)
    ok = slacks > thr if strict else slacks >= thr
    holds = bool(np.all(ok))
    first_failure = None if holds else int(n_lo + np.argmin(ok))
    return CriterionReport(
        name=name,
        ref=ref,
        n_lo=n_lo,
        n_hi=n_lo + len(slacks) - 1,
        holds=holds,
        min_slack=float(np.min(slacks)),
        first_failure=first_failure,
        exploratory=exploratory,
        slacks=slacks,
    )
