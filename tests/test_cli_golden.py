"""Byte-level regression test of the command-line output.

Every argument list ``tests/test_cli.py`` passes to ``cli.main`` (but for
the tests ``UNGOLDEN`` names) runs in each output format, and the exit code
plus the SHA-256 of standard output and standard error (with the
``wall_time`` field blanked) must match ``cli_golden.json``.
A refactor that keeps the verdicts but changes a byte of any report fails
here.  The cases ``DISPATCH_UFUNCS`` names keep a second standard-output
digest, for numpy's loops below AVX-512.  After an intended change of
output, re-record the digests, on a CPU with AVX-512, with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints each case whose digests were added, removed or changed, with
the changed fields named.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from numpy.lib.introspect import opt_func_info

from hardylab.cli import main

from conftest import WITHOUT_AVX512, python_output

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("json", "csv", "text")

# The argument lists of tests/test_cli.py, without --format and --out.
ARGVS = (
    ("check-knopp", "--p", "2", "--alpha", "0", "--U", "4", "--n-max", "500"),
    ("check-2-30", "--p", "1.05", "--n-max", "50"),
    ("check-knopp", "--p", "1"),
    ("check-2-20", "--alpha", "0.5"),
    ("no-such-command",),
    ("check-knopp", "--p", "2", "--tol-rel", "-1"),
    ("norm-ratio", "--kind", "weighted-mean", "--p", "2", "--n-max", "1000",
     "--alpha", "0"),
    ("norm-ratio", "--kind", "weighted-mean", "--p", "2", "--n-max", "1000",
     "--alpha", "1"),
    ("redheffer-solve", "--c", "0"),
    ("check-2-4", "--p", "2", "--grid-points", "0"),
    ("check-2-4", "--p", "2", "--grid-points", "-3"),
    ("redheffer-check", "--p", "0.34", "--c", "1.9", "--beta", "nan"),
    ("check-knopp", "--p", "inf"),
    ("check-knopp", "--p", "2", "--tol-rel", "nan"),
    ("extremal-search", "--p", "1e-300", "--n-max", "10"),
    ("norm-ratio", "--p", "1e-300", "--family", "delta", "--n-max", "10"),
    ("check-knopp", "--p", "1e308", "--n-max", "10"),
    ("norm-ratio", "--family", "random", "--seed", "-1", "--p", "2",
     "--n-max", "10"),
    ("check-reverse", "--p", "0.25", "--alpha", "5", "--n-max", "300"),
    ("extremal-search", "--p", "2", "--family", "delta", "--n-max", "100"),
    ("redheffer-solve", "--n-max", "2000"),
    ("check-2-20", "--p", "2", "--alpha", "0.3", "--n-max", "200"),
    ("check-knopp", "--p", "2", "--alpha", "0.5", "--U", "2.25", "--n-max", "20"),
    ("norm-ratio", "--kind", "copson-tail", "--family", "random", "--p", "0.5",
     "--n-max", "300", "--seed", "99"),
    ("redheffer-solve", "--c", "2.5", "--n-max", "2000"),
    ("check-2-4", "--p", "3"),
    ("redheffer-scan", "--p", "0.45", "--n-max", "100"),
    ("redheffer-scan", "--p", "0.45", "--n-max", "1"),
    ("redheffer-scan", "--p", "0.7", "--tol-rel", "1e10", "--n-max", "1"),
    ("check-reverse", "--p", "0.25", "--n-max", "300"),
    ("check-2-3", "--p", "2", "--alpha", "1.0", "--n-max", "200"),
    ("redheffer-check", "--p", "0.5", "--c", "2.5", "--beta", "0.3912",
     "--n-max", "200"),
    ("redheffer-scan", "--p", "0.34", "--n-max", "200"),
    ("norm-ratio", "--kind", "weighted-mean", "--alpha", "1.0", "--family",
     "delta", "--p", "2", "--n-max", "500"),
    ("extremal-search", "--kind", "copson-tail", "--p", "0.3333333",
     "--n-max", "2000"),
    ("verify-paper", "--n-max", "300"),
    # the exact-integer laws, past one 2**14 scan block
    ("check-2-20", "--p", "2", "--alpha", "0.5", "--n-max", "20000"),
    ("check-2-3", "--p", "2", "--alpha", "1.5", "--n-max", "20000"),
    ("extremal-search", "--kind", "weighted-mean", "--alpha", "1", "--p", "2",
     "--n-max", "20000"),
    # the reverse and the unit-weight forward bracket, past one 2**14 block
    ("check-reverse", "--p", "0.25", "--n-max", "20000"),
    ("check-2-30", "--p", "3", "--n-max", "20000"),
    # a given value the run would not read
    ("norm-ratio", "--kind", "copson-tail", "--alpha", "5", "--p", "0.5",
     "--n-max", "100"),
    ("extremal-search", "--kind", "copson-tail", "--alpha", "1", "--p", "0.5",
     "--n-max", "100"),
    ("norm-ratio", "--family", "delta", "--family-param", "2", "--p", "2",
     "--n-max", "10"),
    ("norm-ratio", "--family", "random", "--family-param", "2", "--p", "2",
     "--n-max", "10"),
    # the per-index tol_abs threshold, a family's default parameter and a
    # scan with no feasible point
    ("check-reverse", "--p", "0.34", "--n-max", "2000", "--tol-abs", "5e-6"),
    ("norm-ratio", "--family", "geometric", "--p", "2", "--n-max", "100"),
    ("redheffer-scan", "--p", "0.7", "--n-max", "50", "--tol-rel", "1e10"),
    # a slack past the float range and the solver's tolerance flags
    ("redheffer-check", "--p", "0.3", "--c", "2", "--beta", "0.2", "--k",
     "1e-320", "--n-max", "10"),
    ("redheffer-solve", "--n-max", "2000", "--tol-rel", "1"),
    ("redheffer-check", "--p=0.3", "--c=2", "--beta=0.2", "--k=1e-320",
     "--n-max=10"),
    # an exponent outside the regime, one message for p <= 1 on the forward
    # checks
    ("check-2-20", "--p", "1", "--alpha", "0.5"),
    ("check-2-3", "--p", "1", "--alpha", "1"),
    ("check-2-30", "--p", "1"),
    ("check-2-4", "--p", "0"),
    ("norm-ratio", "--p", "-1", "--n-max", "100"),
    ("extremal-search", "--p", "1", "--n-max", "100"),
    ("extremal-search", "--p", "0", "--n-max", "100"),
    # a value out of the regime, or a computation leaving the float range
    ("redheffer-check", "--p", "0.5", "--c", "2.5", "--beta", "0.3912",
     "--k", "0", "--n-max", "100"),
    ("redheffer-solve", "--c", "1e-300"),
    ("redheffer-solve", "--c", "1e-160"),
    ("norm-ratio", "--family", "power_decay", "--family-param", "-400",
     "--p", "2"),
    ("norm-ratio", "--kind", "copson-tail", "--family", "power_decay",
     "--family-param", "-308.1", "--n-max", "10", "--p", "1"),
    ("norm-ratio", "--kind=weighted-mean", "--alpha=2", "--family=power_decay",
     "--family-param=-307.9", "--n-max=10", "--p=0.5"),
    ("redheffer-check", "--p=0.5", "--c=1e308", "--beta=0.5"),
    ("redheffer-check", "--p=5e-324", "--c=5e-324", "--beta=0.0"),
    ("extremal-search", "--p=2.18e-40", "--kind=weighted-mean",
     "--alpha=1.797e+308", "--n-max", "10"),
    # a tolerance flag the subcommand does not declare
    ("verify-paper", "--n-max", "10", "--tol-rel", "0"),
    ("extremal-search", "--p", "2", "--n-max", "10", "--tol-abs", "1"),
    # a threshold past the float range
    ("check-2-4", "--p=1e308", "--tol-rel=6.2e299", "--tol-abs=1e308"),
    ("redheffer-scan", "--p", "0.45", "--tol-rel", "1e308", "--n-max", "10"),
    # each subcommand with the required flags at 1 and every other at its
    # default
    ("check-2-20", "--p", "1", "--alpha", "1"),
    ("check-2-4", "--p", "1"),
    ("check-reverse", "--p", "1"),
    ("extremal-search", "--p", "1"),
    ("norm-ratio", "--p", "1"),
    ("redheffer-check", "--p", "1", "--c", "1", "--beta", "1"),
    ("redheffer-scan", "--p", "1"),
    ("redheffer-solve",),
    ("verify-paper",),
    ("check-2-30", "--p", "3"),
    # --out targets, and the default scan grid whose CSV is written in pieces
    ("check-2-30", "--p", "3", "--n-max", "10"),
    ("redheffer-scan", "--p", "0.45"),
    # argument lists whose verdicts a tolerance moves
    ("check-knopp", "--p", "2", "--alpha", "0", "--U", "4", "--n-max", "500",
     "--tol-rel", "1"),
    ("check-2-20", "--p", "2", "--alpha", "0.3", "--n-max", "200",
     "--tol-rel", "1"),
    ("check-reverse", "--p", "0.34", "--n-max", "2000"),
    ("check-2-30", "--p", "3", "--n-max", "20000", "--tol-rel", "1"),
    ("check-2-4", "--p", "3", "--tol-rel", "1"),
    ("check-2-3", "--p", "2", "--alpha", "1.0", "--n-max", "200",
     "--tol-rel", "1"),
    ("redheffer-check", "--p", "0.5", "--c", "2.5", "--beta", "0.3912",
     "--n-max", "200", "--tol-rel", "1"),
    ("redheffer-scan", "--p", "0.7", "--n-max", "50"),
)

# The cases whose standard output depends on numpy's dispatch level, each
# with the ufuncs whose AVX-512 loops differ from libm in the last bit and
# move it: exp forms the weights behind claim 3.2's value, and check_2_4's
# log1p, expm1 and log give 6.3-scalar-family-p10's min_slack, which the
# text format does not print.  The redheffer-scan CSV rows print every grid
# point's k, which the scan forms through ``**`` (power), expm1 and log1p
# in redheffer._first_branch and _second_branch; the JSON and text reports
# print only the best point, whose bits do not move.  Below AVX-512 those
# loops equal libm.
DISPATCH_UFUNCS = {
    **{
        f"{argv} --format {fmt}": ufuncs
        for argv in ("verify-paper --n-max 300", "verify-paper")
        for fmt, ufuncs in (("json", ["exp", "log1p", "expm1", "log"]),
                            ("csv", ["exp", "log1p", "expm1", "log"]),
                            ("text", ["exp"]))
    },
    **{
        f"redheffer-scan {argv} --format csv": ["power", "expm1", "log1p"]
        for argv in ("--p 0.34 --n-max 200", "--p 0.45", "--p 0.45 --n-max 100",
                     "--p 0.45 --tol-rel 1e308 --n-max 10", "--p 0.7 --n-max 50",
                     "--p 0.7 --n-max 50 --tol-rel 1e10")
    },
}

def avx512() -> bool:
    """Whether numpy runs its AVX-512 float64 exp loop in this process."""
    (loop,) = opt_func_info(func_name="^exp$", signature="float64")["exp"].values()
    return loop["current"] == "X86_V4" or "AVX512" in loop["current"]


def expected(entry: dict, at_avx512: bool) -> dict:
    """The outcome a golden entry records for the given dispatch level."""
    stdout = entry["stdout"] if at_avx512 else entry.get(
        "stdout_without_avx512", entry["stdout"])
    return {"exit": entry["exit"], "stdout": stdout, "stderr": entry["stderr"]}


# Starts with a literal, which the regex engine searches for quickly: a scan
# CSV is 19 MB.
_WALL_TIME = re.compile(r'(wall_time"?: )[^\n]*')


def _digest(text: str) -> str:
    return hashlib.sha256(_WALL_TIME.sub(r"\1", text).encode()).hexdigest()


def outcome(argv: tuple[str, ...]) -> dict:
    """Exit code and output digests of one in-process CLI call.

    argparse wraps its usage message to the terminal width, which it reads
    from COLUMNS, so the width is pinned to 80 columns.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
    return {"exit": status, "stdout": _digest(out.getvalue()),
            "stderr": _digest(err.getvalue())}


def outcomes_without_avx512(keys: list[str]) -> dict:
    """outcome() of each case key, run in a child process whose numpy takes
    its loops below AVX-512."""
    here = Path(__file__).resolve().parent
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(here)!r})\n"
        "from test_cli_golden import outcome\n"
        "keys = json.loads(sys.argv[1])\n"
        "print(json.dumps({k: outcome(tuple(k.split(' '))) for k in keys}))\n"
    )
    return json.loads(python_output(script, WITHOUT_AVX512, json.dumps(keys)))


# Every argument list in every format.  The CSV of the two default-grid
# scans has one row per grid point (221k at p = 0.45, 292k at p = 0.34, 33 MB
# together); at 0.5-0.7 s each they are the slowest cases here.
def cases() -> list[tuple[str, ...]]:
    return [(*argv, "--format", fmt) for argv in ARGVS for fmt in FORMATS]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_output_matches_golden(golden, argv):
    assert outcome(argv) == expected(golden[" ".join(argv)], avx512())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


def test_second_digests_are_the_dispatch_cases(golden):
    dual = {key: entry["ufuncs"] for key, entry in golden.items() if len(entry) > 3}
    assert dual == DISPATCH_UFUNCS
    for key in dual:
        assert set(golden[key]) == {"exit", "stdout", "stderr",
                                    "stdout_without_avx512", "ufuncs"}


def test_dispatch_cases_match_their_second_digest_below_avx512(golden):
    keys = sorted(DISPATCH_UFUNCS)
    assert outcomes_without_avx512(keys) == {
        key: expected(golden[key], at_avx512=False) for key in keys
    }


def scope(old: dict, new: dict) -> list[str]:
    """One line per case whose outcome a re-record adds, removes or changes."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            lines.append(f"added    {key}")
        elif key not in new:
            lines.append(f"removed  {key}")
        elif old[key] != new[key]:
            fields = ",".join(f for f in new[key] if old[key].get(f) != new[key][f])
            lines.append(f"changed  {key}  [{fields}]")
    return lines


# The tests of tests/test_cli.py, and the memory gates' measured calls,
# whose argument lists are not golden, each with its reason.
UNGOLDEN = {
    "TestExtremeFlagSweep": "504 argument lists at the edges of the float "
                            "range; their exit status and stderr lines are "
                            "the object, and run time bounds the set",
    "test_exit_status_is_a_verdict_or_a_rejection": "hypothesis draws the "
                                                    "argument lists",
    "test_peak": "a memory gate at --n-max 200000 and 1000000, and its "
                 "warm-up call",
    "_traced_peak": "a memory gate's measured call",
}


def test_cli_test_argvs_are_golden(cli_calls):
    # conftest records the calls when tests/test_cli.py runs in the session
    # first, as it does in a run of the whole directory
    if not cli_calls:
        pytest.skip("tests/test_cli.py has not run in this session")
    missing = sorted(
        {argv for where, argv in cli_calls if not UNGOLDEN.keys() & set(where)}
        - set(ARGVS)
    )
    assert missing == []


def test_scope_names_every_difference():
    old = {"a": {"exit": 0, "stdout": "x", "stderr": "y"},
           "b": {"exit": 0, "stdout": "x", "stderr": "y"},
           "c": {"exit": 0, "stdout": "x", "stderr": "y"}}
    new = {"b": {"exit": 1, "stdout": "z", "stderr": "y"},
           "c": dict(old["c"]), "d": {"exit": 0, "stdout": "x", "stderr": "y"}}
    assert scope(old, new) == ["removed  a", "changed  b  [exit,stdout]", "added    d"]


if __name__ == "__main__":
    if not avx512():
        sys.exit("the first digests are numpy's AVX-512 ones: record them on "
                 "a CPU whose numpy runs its AVX-512 loops")
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    record = {" ".join(argv): outcome(argv) for argv in cases()}
    for key, below in outcomes_without_avx512(sorted(DISPATCH_UFUNCS)).items():
        if {**below, "stdout": record[key]["stdout"]} != record[key]:
            sys.exit(f"{key}: the exit code or stderr depends on the dispatch level")
        record[key].update(stdout_without_avx512=below["stdout"],
                           ufuncs=DISPATCH_UFUNCS[key])
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(scope(recorded, record)) or "no digest changed")
