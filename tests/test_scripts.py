"""The scripts under scripts/ run against the package in src/."""

import json
import os
import subprocess
import sys
import uuid
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


def _unique_label():
    return f"test-{uuid.uuid4().hex}"


def _bench_record_fails(label, checkout):
    """Run bench_record.py expecting argparse's exit 2 and no file written;
    return its stderr."""
    target = ROOT / f"BENCH_{label}.json"
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench_record.py"), label,
             "--checkout", str(checkout)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert not target.exists()
    finally:
        target.unlink(missing_ok=True)
    return proc.stderr


def test_bench_record_files_runs_by_stem(tmp_path):
    out_dir = tmp_path / ".perfbench_out"
    out_dir.mkdir()
    runs = {
        "result-scan-csv-seed1-trace0": {"wall_ref": 12.5, "correct": True},
        "result-paper-1e4-seed2-trace1": {"wall_ref": 4.4, "correct": True},
    }
    for stem, record in runs.items():
        (out_dir / f"{stem}.json").write_text(json.dumps(record))
    (out_dir / "spans-paper-1e4.json").write_text("{}")  # not a run record
    label = _unique_label()
    target = ROOT / f"BENCH_{label}.json"
    try:
        lines = run_script("bench_record.py", label, "--checkout", str(tmp_path))
        assert lines == [f"{target.name}: 2 runs"]
        assert json.loads(target.read_text()) == runs
    finally:
        target.unlink(missing_ok=True)


def test_bench_record_rejects_label_outside_safe_set(tmp_path):
    out_dir = tmp_path / ".perfbench_out"
    out_dir.mkdir()
    (out_dir / "result-scan-csv-seed1-trace0.json").write_text("{}")
    # a valid file name, but not a valid label
    err = _bench_record_fails(_unique_label() + " x!", tmp_path)
    assert "label may hold only" in err


def test_bench_record_rejects_empty_output_dir(tmp_path):
    (tmp_path / ".perfbench_out").mkdir()
    err = _bench_record_fails(_unique_label(), tmp_path)
    assert "no result-*.json" in err
