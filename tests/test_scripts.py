"""The scripts under scripts/ run against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def test_norm_bracketing():
    lines = run_script("norm_bracketing.py", "--n-max", "2000")
    assert lines[0] == "forward weighted means: lower bracket vs known cap"
    assert lines[1].split() == ["p", "alpha", "family", "best", "cap", "gap"]
    assert lines[7] == "reverse tail means: family minimum vs floor"
    assert lines[8].split() == ["p", "family", "min", "floor", "gap"]
    # four forward rows and two reverse rows, every gap nonnegative
    rows = lines[2:6] + lines[9:]
    assert len(rows) == 6
    assert all(float(row.split()[-1]) >= 0.0 for row in rows)


def test_reverse_constant_scan():
    lines = run_script("reverse_constant_scan.py", "--n-max", "200", "--steps", "3")
    assert lines[0].split() == [
        "p", "feasible", "best", "c", "best", "beta", "k", "1/k",
        "(p/(1-p))^p", "verified",
    ]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["0.3000", "0.3900", "0.4800"]
    assert all(row[-1] == "yes" for row in rows)
    # the reported 1/k is the reciprocal of the reported k
    for row in rows:
        assert abs(float(row[5]) - 1.0 / float(row[4])) <= 2e-6
