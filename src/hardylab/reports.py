"""The verdict type every claim, criterion check and CLI command returns.

A criterion verdict is decided per index from the signed slack
(RHS - LHS)/RHS: a strict inequality holds at n only when the slack
clears tol_rel (plus tol_abs scaled by RHS), a non-strict one when it
stays above the negated threshold.  Verdicts carry the verified horizon;
they are finite-horizon evidence, not proofs.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .errors import WorkbenchError

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
            raise WorkbenchError("tolerances must be finite")
        if self.tol_abs < 0.0 or self.tol_rel < 0.0:
            raise WorkbenchError("tolerances must be nonnegative")


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
    # a criterion check's index range, which is not rendered
    n_lo: int | None = None
    n_hi: int | None = None

    def to_dict(self) -> dict:
        """Plain Python values for JSON and the other renderers: ``ref`` is
        written as ``paper_ref``, a non-finite number (a slack of a
        collapsed bounding side) as None, and the index range not at all."""
        row = {k: _plain(v) for k, v in asdict(self).items()}
        row["paper_ref"] = row.pop("ref")
        del row["n_lo"], row["n_hi"]
        return row


def build_report(
    name: str,
    ref: str,
    n_lo: int,
    slacks: np.ndarray,
    *,
    strict: bool,
    log_rhs: np.ndarray | float,
    tol: Tolerances = Tolerances(),
) -> Verdict:
    """The verdict, under ``name``, of the per-index slacks at indices
    n_lo, n_lo + 1, ...: fold_report of them as one block.

    ``log_rhs`` is the log of the bounding side, per index or one float
    for every index.
    """
    slacks = np.asarray(slacks, dtype=float)
    if len(slacks) == 0:
        raise WorkbenchError("no index to check: the index range is empty")
    return fold_report(name, ref, n_lo, [(slacks, log_rhs)], strict=strict, tol=tol)


def fold_report(
    name: str,
    ref: str,
    n_lo: int,
    blocks: Iterable[tuple[np.ndarray, np.ndarray | float]],
    *,
    strict: bool,
    tol: Tolerances = Tolerances(),
    exploratory: bool = False,
) -> Verdict:
    """The verdict, under ``name``, of per-index slacks given block by block
    as (slacks, log_rhs) at indices n_lo, n_lo + 1, ...: ``min_slack`` is
    the worst slack (-inf at an index whose bounding side collapses to a
    nonpositive value), ``first_failure`` is set exactly when ``holds`` is
    False, and the detail states both and the horizon.

    Each block is folded into the running minimum and the first failure
    before the next is drawn, so the blocks may share buffers.  A block's
    ``log_rhs`` is the log of the bounding side, per index or one float for
    every index; it converts tol_abs into slack units.  With tol_abs > 0
    the threshold is formed in the buffer of an array log_rhs, which it
    overwrites.
    """
    # a strict slack must exceed the threshold, a non-strict one reach its
    # negative; negating both tolerances negates the threshold exactly
    sign = 1.0 if strict else -1.0
    compare = np.greater if strict else np.greater_equal
    count = 0
    min_slack = math.inf
    first_failure = None
    for slacks, log_rhs in blocks:
        if first_failure is None:
            thr = sign * tol.tol_rel
            if tol.tol_abs > 0.0:
                thr = np.asarray(log_rhs, dtype=float)
                # tol_abs over a bounding side below tol_abs / DBL_MAX is inf
                with np.errstate(over="ignore"):
                    np.negative(thr, out=thr)
                    np.exp(thr, out=thr)
                    np.multiply(sign * tol.tol_abs, thr, out=thr)
                    np.add(sign * tol.tol_rel, thr, out=thr)
            ok = compare(slacks, thr)
            if not ok.all():
                first_failure = n_lo + count + int(np.argmin(ok))
        low = float(np.min(slacks))
        if min_slack == min_slack and not low >= min_slack:  # NaN stays
            min_slack = low
        count += len(slacks)
    if count == 0:
        raise WorkbenchError("no index to check: the index range is empty")
    holds = first_failure is None
    n_hi = n_lo + count - 1
    verdict = "holds" if holds else f"fails first at n={first_failure}"
    tag = " [exploratory]" if exploratory else ""
    return Verdict(
        claim=name,
        ref=ref,
        holds=holds,
        min_slack=min_slack,
        first_failure=first_failure,
        exploratory=exploratory,
        detail=f"{name}: {verdict} (verified up to n_max={n_hi}, "
        f"min_slack={min_slack:.3e}){tag}",
        n_lo=n_lo,
        n_hi=n_hi,
    )
