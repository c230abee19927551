"""Correctness of CLI output: recorded reference verdicts and determinism.

A verdict is compared on ``claim``, ``holds``, ``first_failure``,
``min_slack`` and ``value``.  At the reference seed every field of every
verdict must agree; at another seed, verdicts whose inputs come from the
seed (marked ``seeded`` in the reference) are compared on ``claim`` and
``holds`` only.  Scan rows of CSV output must be byte-identical to the
reference.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re

# Largest accepted drift of a min_slack or value from the reference, measured
# as |x - ref| / max(|ref|, 1): relative for values of size one or more, and
# absolute for slacks, which are already relative to the bounding side.
# 1e-10 is about 4.5e5 ulp at 1.0 and ten times tighter than the 1e-9 down to
# which the README promises meaningful slacks.
DRIFT_BUDGET = 1e-10

_WALL_TIME = re.compile(r'"wall_time": [^\n]*')
_SCAN_ROW = '"scan-point['
FIELDS = ("claim", "holds", "first_failure", "min_slack", "value")


def normalized(text: str) -> str:
    """Output with the one field that may change between runs blanked."""
    return _WALL_TIME.sub('"wall_time": null', text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def split_scan_rows(text: str) -> tuple[str, str]:
    """(verdict part, per-point scan rows) of a CSV report."""
    i = text.find(_SCAN_ROW)
    return (text, "") if i < 0 else (text[:i], text[i:])


def _num(cell: str, kind):
    return None if cell == "" else kind(cell)


def parse_verdicts(text: str) -> list[dict]:
    """The compared fields of every verdict in a JSON or CSV report."""
    if text.startswith("{"):
        return [{k: v[k] for k in FIELDS} for v in json.loads(text)["verdicts"]]
    head, _ = split_scan_rows(text)
    return [
        {
            "claim": row["claim"],
            "holds": row["holds"] == "True",
            "first_failure": _num(row["first_failure"], int),
            "min_slack": _num(row["min_slack"], float),
            "value": _num(row["value"], float),
        }
        for row in csv.DictReader(io.StringIO(head))
    ]


def scan_rows(text: str) -> dict | None:
    """Count and digest of the scan rows of a CSV report, None for JSON."""
    if text.startswith("{"):
        return None
    _, rows = split_scan_rows(text)
    return {"count": rows.count("\n"), "sha256": digest(rows)}


def drift(x: float | None, ref: float | None) -> float:
    if x is None or ref is None:
        return 0.0 if x is ref else math.inf
    return abs(x - ref) / max(abs(ref), 1.0)


class Outcome:
    """Comparison of one call's output with its reference entry.

    ``checked`` counts the items compared: the exit code, each claim seen in
    the reference or the output, and the scan-row block of a CSV report.
    """

    def __init__(self, expected: dict, exit_code: int | None, text: str | None,
                 full: bool):
        ref = {v["claim"]: v for v in expected["verdicts"]}
        rows = expected.get("rows")
        self.checked = 1 + len(ref) + (rows is not None)
        self.mismatched = 0
        self.drift = 0.0
        self.notes: list[str] = []
        if text is None:
            self.mismatched = self.checked
            self.notes.append(f"no output (exit {exit_code})")
            return
        if exit_code != expected["exit"]:
            self._miss(f"exit {exit_code}, reference {expected['exit']}")
        got = {v["claim"]: v for v in parse_verdicts(text)}
        extra = got.keys() - ref.keys()
        self.checked += len(extra)
        for claim in sorted(extra | (ref.keys() - got.keys())):
            where = "output" if claim in extra else "reference"
            self._miss(f"claim {claim} only in the {where}")
        for claim in sorted(ref.keys() & got.keys()):
            r, g = ref[claim], got[claim]
            if g["holds"] != r["holds"]:
                self._miss(f"{claim}: holds {g['holds']}, reference {r['holds']}")
            elif full or not r["seeded"]:
                self._compare_numbers(claim, g, r)
        if rows is not None and scan_rows(text) != rows:
            self._miss("scan rows differ from the reference bytes")

    def _compare_numbers(self, claim: str, got: dict, ref: dict) -> None:
        if got["first_failure"] != ref["first_failure"]:
            self._miss(f"{claim}: first_failure {got['first_failure']}, "
                       f"reference {ref['first_failure']}")
            return
        d = max(drift(got["min_slack"], ref["min_slack"]),
                drift(got["value"], ref["value"]))
        if d > DRIFT_BUDGET:
            self._miss(f"{claim}: drift {d:.3e} exceeds {DRIFT_BUDGET:.0e}")
        self.drift = max(self.drift, d)

    def _miss(self, note: str) -> None:
        self.mismatched += 1
        self.notes.append(note)
