import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab import cli, sequences
from hardylab.compsum import neumaier_prefix_sums
from hardylab.cli import build_parser, main
from hardylab.operators import OperatorSpec, SequenceFamily, norm_ratio
from hardylab.redheffer import ScanResult, scan_params

REQUIRED_VERDICT_KEYS = {
    "claim",
    "paper_ref",
    "holds",
    "min_slack",
    "first_failure",
    "exploratory",
}


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _module_argv(*argv) -> list[str]:
    return [sys.executable, "-m", "hardylab", *argv]


def _module_env() -> dict:
    """The environment under which a child `python -m hardylab` imports
    this checkout's package."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


class TestExitCodes:
    def test_holding_check_exits_zero(self, capsys):
        status, out, _ = run_cli(
            capsys, "check-knopp", "--p", "2", "--alpha", "0", "--U", "4",
            "--n-max", "500"
        )
        assert status == 0
        assert "holds" in out

    def test_failing_check_exits_one(self, capsys):
        status, out, _ = run_cli(capsys, "check-2-30", "--p", "1.05", "--n-max", "50")
        assert status == 1
        assert "FAILS" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("check-knopp", "--p", "1"),
            ("check-2-20", "--p", "1", "--alpha", "0.5"),
            ("check-2-3", "--p", "1", "--alpha", "1"),
            ("check-2-30", "--p", "1"),
        ],
        ids=" ".join,
    )
    def test_invalid_exponent_exits_two(self, capsys, argv):
        # one message for p <= 1 on every forward subcommand
        status, out, err = run_cli(capsys, *argv)
        assert status == 2
        assert err == "error: forward regime needs p > 1, got 1.0\n"
        assert out == ""

    def test_missing_parameter_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-2-20", "--alpha", "0.5"])
        assert exc.value.code == 2
        assert "the following arguments are required: --p" in capsys.readouterr().err

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_bad_tolerance_exits_two(self, capsys):
        status, _, err = run_cli(
            capsys, "check-knopp", "--p", "2", "--tol-rel", "-1"
        )
        assert status == 2

    @pytest.mark.parametrize(
        "target, reason",
        [("", "Is a directory"), ("missing/x.json", "No such file or directory")],
        ids=["directory", "missing-parent"],
    )
    def test_unwritable_out_exits_two(self, capsys, tmp_path, target, reason):
        out_path = tmp_path / target
        status, out, err = run_cli(
            capsys, "check-2-30", "--p", "3", "--n-max", "10", "--out", str(out_path)
        )
        assert status == 2
        assert err == f"error: cannot write --out {out_path}: {reason}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv, flag, message",
        [
            (("norm-ratio", "--kind", "copson-tail", "--alpha", "5", "--p", "0.5",
              "--n-max", "100"), "--alpha", "does not apply to --kind copson-tail"),
            (("extremal-search", "--kind", "copson-tail", "--alpha", "1",
              "--p", "0.5", "--n-max", "100"),
             "--alpha", "does not apply to --kind copson-tail"),
            (("norm-ratio", "--family", "delta", "--family-param", "2", "--p", "2",
              "--n-max", "10"), "--family-param", "does not apply to --family delta"),
            (("norm-ratio", "--family", "random", "--family-param", "2", "--p", "2",
              "--n-max", "10"), "--family-param", "does not apply to --family random"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
    )
    def test_ignored_flag_exits_two(self, capsys, argv, flag, message):
        # a value the run would not read is rejected, not echoed as applied
        status, out, err = run_cli(capsys, *argv)
        assert status == 2
        assert err == f"error: {flag} {message}\n"
        assert out == ""

    def test_module_entry_point_runs(self):
        # python -m hardylab goes through __main__.py, as the console script
        # goes through cli.main
        done = subprocess.run(
            _module_argv("check-2-30", "--p", "3", "--n-max", "100"),
            env=_module_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("command: check-2-30\n")

    @pytest.mark.parametrize(
        "argv, status",
        [(("redheffer-scan", "--p", "0.34"), 0),
         (("redheffer-scan", "--p", "0.7", "--n-max", "50", "--tol-rel", "1e10"),
          1)],
        ids=["holds", "fails"],
    )
    def test_closed_stdout_pipe_exits_with_verdict_status(self, argv, status):
        # `hardylab redheffer-scan ... --format csv | head -1`: the reader
        # takes one line of a CSV of megabytes and closes the pipe
        with subprocess.Popen(
            _module_argv(*argv, "--format", "csv"), env=_module_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline().startswith(b"claim,paper_ref,holds")
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert (proc.wait(timeout=120), stderr) == (status, b"")

    def test_stdout_pipe_closed_before_writing_exits_with_verdict_status(self):
        # the report fits in stdout's buffer, so the write that fails is
        # the final flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                _module_argv("check-2-30", "--p", "3", "--n-max", "100"),
                env=_module_env(), stdout=write_end, stderr=subprocess.PIPE,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_out_exits_two(self, capsys):
        # the scan CSV is written in several slices; the first one fails
        status, out, err = run_cli(
            capsys, "redheffer-scan", "--p", "0.45", "--format", "csv",
            "--out", "/dev/full"
        )
        assert status == 2
        assert err == "error: cannot write --out /dev/full: No space left on device\n"
        assert out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [("check-2-30", "--p", "3", "--n-max", "100"),
         ("redheffer-scan", "--p", "0.45", "--n-max", "100", "--format", "csv")],
        ids=["final-flush", "first-slice"],
    )
    def test_full_device_stdout_exits_two(self, argv):
        # `hardylab ... > /dev/full`: the write that fails is the final flush
        # of a report that fits in stdout's buffer, or a scan CSV's first slice
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                _module_argv(*argv), env=_module_env(), stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=120,
            )
        assert (done.returncode, done.stderr) == (
            2, "error: cannot write standard output: No space left on device\n"
        )


class TestExplicitArguments:
    """A value given on the command line is used as given: an explicit zero
    is not replaced by the default, and a value outside the domain exits 2."""

    def test_alpha_zero_is_not_replaced_by_one(self, capsys):
        argv = ("norm-ratio", "--kind", "weighted-mean", "--p", "2",
                "--n-max", "1000", "--format", "json")
        status, out, _ = run_cli(capsys, *argv, "--alpha", "0")
        assert status == 0
        payload = json.loads(out)
        assert payload["params"]["alpha"] == 0.0
        want = norm_ratio(
            OperatorSpec("weighted_mean", 1000, alpha=0.0),
            SequenceFamily("power_decay", 1000, 1.5),
            2.0,
        )
        assert payload["verdicts"][0]["value"] == want
        _, out_one, _ = run_cli(capsys, *argv, "--alpha", "1")
        assert json.loads(out_one)["verdicts"][0]["value"] != want

    def test_redheffer_solve_c_zero_exits_two(self, capsys):
        status, out, err = run_cli(capsys, "redheffer-solve", "--c", "0")
        assert status == 2
        assert "c must be positive" in err
        assert out == ""

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_check_2_4_grid_points_below_one_exits_two(self, capsys, points):
        status, _, err = run_cli(
            capsys, "check-2-4", "--p", "2", "--grid-points", points
        )
        assert status == 2
        assert "--grid-points" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("redheffer-check", "--p", "0.34", "--c", "1.9", "--beta", "nan"),
            ("check-knopp", "--p", "inf"),
            ("check-knopp", "--p", "2", "--tol-rel", "nan"),
        ],
    )
    def test_nonfinite_argument_exits_two(self, capsys, argv):
        status, out, err = run_cli(capsys, *argv)
        assert status == 2
        assert "must be finite" in err
        assert out == ""


    @pytest.mark.parametrize(
        "argv",
        [
            ("check-2-4", "--p", "0"),
            ("norm-ratio", "--p", "-1", "--n-max", "100"),
            ("extremal-search", "--p", "1", "--n-max", "100"),
            ("extremal-search", "--p", "0", "--n-max", "100"),
            ("redheffer-check", "--p", "0.5", "--c", "2.5", "--beta", "0.3912",
             "--k", "0", "--n-max", "100"),
            # the closed-form root overflows for c below about 3e-154
            ("redheffer-solve", "--c", "1e-300"),
            ("redheffer-solve", "--c", "1e-160"),
            # k**400 overflows, and the ratio of the overflowed sums is NaN
            ("norm-ratio", "--family", "power_decay", "--family-param", "-400",
             "--p", "2"),
            # every term is finite, their sum is not
            ("norm-ratio", "--kind", "copson-tail", "--family", "power_decay",
             "--family-param", "-308.1", "--n-max", "10", "--p", "1"),
            # the weighted means overflow to NaN, whose power is NaN, not 0
            ("norm-ratio", "--kind=weighted-mean", "--alpha=2",
             "--family=power_decay", "--family-param=-307.9", "--n-max=10",
             "--p=0.5"),
            # a ratio above 1 to the power 1/p = 1e300 overflows
            ("extremal-search", "--p", "1e-300", "--n-max", "10"),
            ("norm-ratio", "--p", "1e-300", "--family", "delta", "--n-max", "10"),
            # (p - 1) log W_n overflows; numpy must not warn on the way
            ("check-knopp", "--p", "1e308", "--n-max", "10"),
            # numpy's generator takes no negative seed
            ("norm-ratio", "--family", "random", "--seed", "-1", "--p", "2",
             "--n-max", "10"),
            # (c + 1)/(n - 1 - beta) overflows before c**(1-p) k does
            ("redheffer-check", "--p=0.5", "--c=1e308", "--beta=0.5"),
            # k(p) = 1/c**(1-p) overflows, so every 6.49 slack would be NaN
            ("redheffer-check", "--p=5e-324", "--c=5e-324", "--beta=0.0"),
            # i**(alpha-1) overflows, and inf * 0 is NaN
            ("extremal-search", "--p=2.18e-40", "--kind=weighted-mean",
             "--alpha=1.797e+308", "--n-max", "10"),
        ],
        ids=" ".join,
    )
    def test_out_of_regime_argument_exits_two(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, out, err = run_cli(capsys, *argv)
        # outside a test run a warning would print on standard error
        assert [str(w.message) for w in caught] == []
        assert status == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize(
        "argv, want",
        [
            # tol_abs / rhs passes the float range: an inf threshold, which
            # a strict check cannot clear
            (("check-2-4", "--p=1e308", "--tol-rel=6.2e299",
              "--tol-abs=1e308"), 1),
            # tol_rel * rhs passes it: every point clears the slope condition
            (("redheffer-scan", "--p", "0.45", "--tol-rel", "1e308",
              "--n-max", "10"), 0),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
    )
    def test_tolerance_past_float_range_is_a_verdict(self, capsys, argv, want):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, _, err = run_cli(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert status == want
        assert err == ""

    def test_slack_past_float_range_is_a_failure(self, capsys):
        # (rhs - values) / rhs overflows for a subnormal k: slack -inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, out, err = run_cli(
                capsys, "redheffer-check", "--p=0.3", "--c=2", "--beta=0.2",
                "--k=1e-320", "--n-max=10", "--format=json",
            )
        assert [str(w.message) for w in caught] == []
        assert (status, err) == (1, "")
        (v, *_) = json.loads(out)["verdicts"]
        assert (v["claim"], v["first_failure"], v["min_slack"]) == (
            "6.49[p=0.3,c=2.0,beta=0.2]", 2, None
        )

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("check-reverse", "--p", "0.25", "--alpha", "5", "--n-max", "300"),
             "--alpha"),
            (("extremal-search", "--p", "2", "--family", "delta", "--n-max", "100"),
             "--family"),
            # no tolerance decides a measurement or the paper's claims
            (("verify-paper", "--n-max", "10", "--tol-rel", "0"), "--tol-rel"),
            (("extremal-search", "--p", "2", "--n-max", "10", "--tol-abs", "1"),
             "--tol-abs"),
        ],
    )
    def test_unread_flag_exits_two(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        # under the subcommand's usage line, which shows the flags it takes
        assert captured.err.startswith(f"usage: hardylab {argv[0]} ")
        assert f"unrecognized arguments: {flag}" in captured.err
        assert captured.out == ""

    def test_redheffer_solve_reads_tolerances(self, capsys):
        # the k verdict is decided with the echoed tolerances
        status, out, _ = run_cli(
            capsys, "redheffer-solve", "--n-max", "2000", "--tol-rel", "1",
            "--format", "json",
        )
        report = json.loads(out)
        assert status == 1
        assert report["params"]["tol_rel"] == 1.0
        assert [v["claim"] for v in report["verdicts"] if not v["holds"]] == ["k"]

    def test_fixed_default_is_echoed(self, capsys):
        status, out, _ = run_cli(
            capsys, "redheffer-solve", "--n-max", "2000", "--format", "json"
        )
        assert status == 0
        assert json.loads(out)["params"]["c"] == 2.5

    def test_family_default_is_echoed(self, capsys):
        status, out, _ = run_cli(
            capsys, "norm-ratio", "--family", "geometric", "--p", "2",
            "--n-max", "100", "--format", "json",
        )
        assert status == 0
        (v,) = json.loads(out)["verdicts"]
        assert v["claim"] == "norm-ratio[weighted_mean,geometric(0.5)[N=100]]"

    def test_tol_abs_threshold_is_per_index(self, capsys):
        # tol_abs / rhs_n is formed per index: at p = 0.34 it lets n = 6 pass
        argv = ("check-reverse", "--p", "0.34", "--n-max", "2000", "--format", "json")
        firsts = []
        for extra in ((), ("--tol-abs", "5e-6")):
            status, out, _ = run_cli(capsys, *argv, *extra)
            assert status == 1
            (v,) = json.loads(out)["verdicts"]
            firsts.append(v["first_failure"])
        assert firsts == [6, 7]

    def test_scan_without_feasible_point_exits_one(self, capsys):
        status, out, err = run_cli(
            capsys, "redheffer-scan", "--p", "0.7", "--n-max", "50",
            "--tol-rel", "1e10", "--format", "json",
        )
        assert (status, err) == (1, "")
        (v,) = json.loads(out)["verdicts"]
        assert (v["holds"], v["value"], v["detail"]) == (
            False, None, "no feasible point among 396400"
        )

    def test_unexpected_error_exits_three(self, capsys, monkeypatch):
        def broken(args, tol):
            raise RuntimeError("broken handler")

        _, flags = cli._COMMANDS["check-2-30"]
        monkeypatch.setitem(cli._COMMANDS, "check-2-30", (broken, flags))
        status, out, err = run_cli(capsys, "check-2-30", "--p", "3")
        assert status == 3
        assert err == "internal error: RuntimeError: broken handler\n"
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_memory_error_exits_two_naming_the_size(self, capsys, monkeypatch, command):
        # a horizon that does not fit in memory is an input the user must
        # shrink, not a fault of the program
        reason = ("Unable to allocate 7.28 TiB for an array with shape "
                  "(1000000000001,) and data type float64")

        def exhausted(args, *tol):
            raise MemoryError(reason)

        _, flags = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command, (exhausted, flags))
        argv = [command]
        for flag, spec in flags:
            if spec.get("required"):
                argv += [flag, "1"]
        status, out, err = run_cli(capsys, *argv)
        size = "--grid-points" if command == "check-2-4" else "--n-max"
        assert status == 2
        assert err == f"error: out of memory ({reason}); reduce {size}\n"
        assert out == ""

    def test_memory_error_without_message(self, capsys, monkeypatch):
        def exhausted(args, tol):
            raise MemoryError

        _, flags = cli._COMMANDS["check-2-30"]
        monkeypatch.setitem(cli._COMMANDS, "check-2-30", (exhausted, flags))
        status, out, err = run_cli(capsys, "check-2-30", "--p", "3")
        assert status == 2
        assert err == "error: out of memory (MemoryError); reduce --n-max\n"
        assert out == ""


class TestJsonReports:
    def test_schema_keys(self, capsys):
        status, out, _ = run_cli(
            capsys, "check-2-20", "--p", "2", "--alpha", "0.3",
            "--n-max", "200", "--format", "json"
        )
        assert status == 0
        payload = json.loads(out)
        assert {"command", "params", "n_max", "verdicts", "wall_time"} <= set(payload)
        for verdict in payload["verdicts"]:
            assert REQUIRED_VERDICT_KEYS <= set(verdict)

    def test_nonfinite_slack_serializes_as_null(self, capsys):
        # a constant auxiliary sequence zeroes the bracket, so the slack is
        # -inf, which strict JSON cannot carry
        status, out, _ = run_cli(
            capsys, "check-knopp", "--p", "2", "--alpha", "0.5", "--U", "2.25",
            "--n-max", "20", "--format", "json"
        )
        assert status == 1
        payload = json.loads(out)
        verdict = payload["verdicts"][0]
        assert verdict["min_slack"] is None
        assert verdict["first_failure"] == 1

    def test_determinism_modulo_wall_time(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            status = main(
                ["norm-ratio", "--kind", "copson-tail", "--family", "random",
                 "--p", "0.5", "--n-max", "300", "--seed", "99",
                 "--format", "json", "--out", str(path)]
            )
            assert status == 0
        texts = []
        for path in paths:
            lines = [
                line for line in path.read_text().splitlines()
                if '"wall_time"' not in line
            ]
            texts.append("\n".join(lines))
        assert texts[0] == texts[1]
        capsys.readouterr()

    def test_solver_values_in_report(self, capsys):
        status, out, _ = run_cli(
            capsys, "redheffer-solve", "--c", "2.5", "--n-max", "2000",
            "--format", "json"
        )
        assert status == 0
        payload = json.loads(out)
        values = {v["claim"]: v["value"] for v in payload["verdicts"]}
        assert values["x"] == pytest.approx(0.2435, abs=5e-4)
        assert values["beta"] == pytest.approx(0.3912, abs=5e-4)
        assert values["k"] == pytest.approx(1.1151, abs=1e-3)
        assert values["reciprocal"] > 0.8967


# Small scan grids with c near 1e-300 and near 1e300, beta at 1.0 and -0.0,
# points with c < beta, and a beta above the smallest c + 1, where k is NaN.
@st.composite
def _scan_grids(draw):
    c_grid = [draw(st.floats(1e-300, 1e-299)), draw(st.floats(1e299, 1e300)),
              *draw(st.lists(st.floats(1e-300, 1e300), max_size=2))]
    beta_grid = [1.0, -0.0, 2.0 * min(c_grid) + 2.0,
                 *draw(st.lists(st.floats(-1e300, 1e300), max_size=2))]
    return (draw(st.floats(0.001, 0.999)), draw(st.permutations(c_grid)),
            draw(st.permutations(beta_grid)))


def _csv_writer_scan_rows(res) -> str:
    """The scan rows as the former renderer wrote them: one csv.writer call
    per grid point."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    betas = res.beta_grid.tolist()
    for c, feasible, k in zip(res.c_grid.tolist(), res.feasible, res.k):
        for beta, ok, k_val in zip(betas, feasible.tolist(), k.tolist()):
            writer.writerow(
                [f"scan-point[c={c},beta={beta}]", "6.49", ok, "", "", "", k_val]
            )
    return buf.getvalue()


def _hand_built_scan(betas, rows) -> ScanResult:
    """A ScanResult holding the given beta grid and (c, feasible, k) rows."""
    return ScanResult(
        c_grid=np.array([c for c, _, _ in rows], dtype=float),
        beta_grid=np.array(betas, dtype=float),
        k=np.array([k for _, _, k in rows], dtype=float),
        feasible=np.array([feasible for _, feasible, _ in rows], dtype=bool),
    )


def _scan_report(scan: ScanResult) -> cli.Report:
    return cli.Report("redheffer-scan", {}, 3, [], 0.0, scan=scan)


def _nan_with_payload(payload: int, sign: int = 0) -> float:
    return float(np.uint64((sign << 63) | (0x7FF << 52) | payload).view(np.float64))


_N_EDGE = 8
_INF_ENDS = [math.inf, *[0.5] * (_N_EDGE - 2), math.inf]

# k rows whose runs are the edge cases of a run-based renderer: runs of
# length 1, a row that is one run, equal floats with different bits, and
# a run that would cross into the next row if runs were marked over the
# flattened grid
_RUN_EDGES = {
    "alternating": [[0.5, 0.25] * (_N_EDGE // 2), [0.25, 0.5] * (_N_EDGE // 2)],
    "single-run": [[0.6931471805599453] * _N_EDGE, [0.6931471805599453] * _N_EDGE,
                   [1e300] * _N_EDGE],
    "signed-zeros": [[0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0],
                     [-0.0, 0.0, 1.0, -0.0, 0.0, 0.0, -0.0, -0.0]],
    "nan-payloads": [
        [_nan_with_payload(1 << 51), _nan_with_payload(1 << 51 | 1),
         _nan_with_payload(1 << 51 | 1), _nan_with_payload(1 << 51, sign=1),
         _nan_with_payload(1), _nan_with_payload(1 << 51 | 2), 1.0,
         _nan_with_payload(1 << 51)],
        [_nan_with_payload(1 << 51 | 3)] * _N_EDGE,
    ],
    "inf-ends": [_INF_ENDS, _INF_ENDS, [-math.inf, *_INF_ENDS[1:-1], -math.inf],
                 [-math.inf] * _N_EDGE],
}


_BLOCK = cli.RUN_BLOCK_ROWS


def _block_edge_rows(width: int, n_rows: int) -> list:
    """(c, feasible, k) rows whose k fall in runs of two along a row, with
    the edge cases of a renderer that marks runs over blocks of rows: a
    row whose last k is the next row's first, inside a block (rows 1 and
    2) and across each block boundary; a row with no feasible point (row
    3); infeasible first and last points (the first row of the second
    block and the last row)."""
    rows = []
    for i in range(n_rows):
        k = [1.0 + i + 0.125 * (j // 2) for j in range(width)]
        if i - 1 in (1, _BLOCK - 1, 2 * _BLOCK - 1):
            k[0] = rows[-1][2][-1]
        feasible = [i != 3] * width
        if i in (_BLOCK, n_rows - 1):
            feasible[0] = feasible[-1] = False
        rows.append((0.25 * (i + 1), feasible, k))
    return rows


class TestCsvReports:
    def test_verdict_rows(self, capsys):
        status, out, _ = run_cli(
            capsys, "check-2-4", "--p", "3", "--format", "csv"
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("claim,paper_ref,holds")
        assert len(lines) == 2

    def test_scan_rows_are_flattened(self, capsys):
        status, out, _ = run_cli(
            capsys, "redheffer-scan", "--p", "0.45", "--n-max", "100",
            "--format", "csv"
        )
        assert status == 0
        lines = out.strip().splitlines()
        # one summary verdict plus one row per grid point (claims containing
        # commas come back quoted)
        assert len(lines) > 1000
        assert any("scan-point[" in line for line in lines[1:5])

    @given(_scan_grids())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_scan_rows_match_csv_writer(self, grid):
        p, c_grid, beta_grid = grid
        # k is NaN where beta > c + 1 and may overflow near c = 1e-300;
        # the scan expects both and warns about neither
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = scan_params(p, c_grid=c_grid, beta_grid=beta_grid, n_max=3)
        assert np.isnan(res.k).any()
        report = _scan_report(res)
        header, rows = cli.render_csv(report).split("\r\n", 1)
        assert header.startswith("claim,paper_ref,holds")
        assert rows == _csv_writer_scan_rows(res)

    def test_hand_built_scan_rows_match_csv_writer(self):
        # k values whose text a cache keyed on float equality would get
        # wrong (0.0 == -0.0) or that sit at the ends of the float range,
        # and long runs of one k with the verdict alternating
        n = 40
        betas = [0.025 * i for i in range(n)]
        betas[1] = -0.0
        alternating = [i % 2 == 0 for i in range(n)]
        nans = [float("nan"), -math.nan, math.nan, math.nan, float("nan")]
        rows = [
            (0.1, alternating, [0.0, -0.0] * (n // 2)),
            (0.2, alternating[::-1], [-0.0, 0.0, 0.0, -0.0] * (n // 4)),
            (0.3, [True] * n,
             [*nans, math.inf, -math.inf, 5e-324, -5e-324, 1.0] * (n // 10)),
            (0.4, alternating, [0.6931471805599453] * n),
            (0.5, alternating[::-1], [0.5] * (n // 2) + [math.inf] * (n // 2)),
        ]
        report = _scan_report(_hand_built_scan(betas, rows))
        _, text = cli.render_csv(report).split("\r\n", 1)
        buf = io.StringIO()
        writer = csv.writer(buf)
        for c, feasible, k in rows:
            for beta, ok, k_val in zip(betas, feasible, k):
                writer.writerow(
                    [f"scan-point[c={c},beta={beta}]", "6.49", ok, "", "", "", k_val]
                )
        assert text == buf.getvalue()
        assert text.count("\r\n") == len(rows) * n

    @pytest.mark.parametrize("case", sorted(_RUN_EDGES))
    def test_run_edges_match_csv_writer(self, case):
        betas = [0.125 * i for i in range(_N_EDGE)]
        rows = [
            (0.1 * (i + 1), [(i + j) % 3 == 0 for j in range(_N_EDGE)], k)
            for i, k in enumerate(_RUN_EDGES[case])
        ]
        scan = _hand_built_scan(betas, rows)
        _, text = cli.render_csv(_scan_report(scan)).split("\r\n", 1)
        assert text == _csv_writer_scan_rows(scan)
        assert text.count("\r\n") == len(rows) * _N_EDGE


    @pytest.mark.parametrize(
        "width, n_rows",
        [(6, 2 * _BLOCK + 3), (1, 2 * _BLOCK + 3), (5, 1)],
        ids=["block-edges", "one-column", "one-row"],
    )
    def test_block_edges_match_csv_writer(self, width, n_rows):
        betas = [0.125 * j - 0.5 for j in range(width)]
        scan = _hand_built_scan(betas, _block_edge_rows(width, n_rows))
        _, text = cli.render_csv(_scan_report(scan)).split("\r\n", 1)
        assert text == _csv_writer_scan_rows(scan)
        assert text.count("\r\n") == n_rows * width


class _Sink:
    """A text stream that keeps each write."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class TestSlicedWrite:
    @pytest.mark.parametrize(
        "length, sizes",
        [(0, []), (cli.WRITE_SLICE, [cli.WRITE_SLICE]),
         (cli.WRITE_SLICE + 1, [cli.WRITE_SLICE, 1])],
        ids=["empty", "one-slice", "one-slice-plus-one"],
    )
    def test_slices(self, monkeypatch, length, sizes):
        text = ("0123456789" * (length // 10 + 1))[:length]
        sink = _Sink()
        monkeypatch.setattr(cli.sys, "stdout", sink)
        cli._write_report(text, None)
        assert [len(part) for part in sink.parts] == sizes
        assert "".join(sink.parts) == text

    def test_scan_csv_out_stdout_and_render_agree(self, capsysbinary, monkeypatch,
                                                  tmp_path):
        rendered = []

        def recording(report):
            rendered.append(cli.render_csv(report))
            return rendered[-1]

        monkeypatch.setitem(cli._RENDERERS, "csv", recording)
        argv = ["redheffer-scan", "--p", "0.45", "--format", "csv"]
        out_path = tmp_path / "scan.csv"
        assert main([*argv, "--out", str(out_path)]) == 0
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        sink = _Sink()
        monkeypatch.setattr(cli.sys, "stdout", sink)
        assert main(argv) == 0
        text = rendered[0]
        assert len(text) > 10 * cli.WRITE_SLICE
        assert rendered[1:] == [text, text]
        assert out_path.read_bytes() == stdout == text.encode()
        # every write but the last is one whole slice
        assert {len(part) for part in sink.parts[:-1]} == {cli.WRITE_SLICE}
        assert "".join(sink.parts) == text


class TestScanCsvMemory:
    def test_peak_within_output_size_multiple(self, traced_peak, tmp_path):
        # the render holds its StringIO buffer while getvalue copies it out
        # (about 2.0x the output) and one c row's texts; the write adds one
        # slice and its encoded bytes.  A first call makes the state every
        # call keeps (the parser, imports) before the measured one.
        out_path = tmp_path / "scan.csv"
        argv = ["redheffer-scan", "--p", "0.45", "--format", "csv",
                "--out", str(out_path)]
        assert main(argv) == 0
        peak = traced_peak(main, argv)
        assert peak <= 2.3 * out_path.stat().st_size

    @pytest.mark.parametrize("p", [0.34, 0.45])
    def test_row_renderer_holds_one_row_of_texts(self, traced_peak, p):
        # besides what it writes, the row renderer holds one block of rows'
        # run marks and run values and one c row's texts: 0.086-0.087 x the
        # bytes of the k grid on the default grid.  The run texts stay per
        # row: the early rows are one run per point, so a block's values as
        # Python floats read 0.13 and its reprs 0.17 at 8-row blocks.  Any
        # grid-sized array would stay resident under the returned text; a
        # bool run-start mask over the grid reads 0.21-0.23, per-run arrays
        # of the grid 1.3-1.4, formatting every distinct k of the grid up
        # front (np.unique) 5.4
        class Discard:
            def write(self, text: str) -> int:
                return len(text)

        scan = scan_params(p, n_max=100)
        cli._write_scan_rows(Discard(), scan)
        peak = traced_peak(cli._write_scan_rows, Discard(), scan)
        assert peak <= 0.15 * scan.k.nbytes


class TestSubcommandSurface:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check-reverse", "--p", "0.25", "--n-max", "300"],
            ["check-2-3", "--p", "2", "--alpha", "1.0", "--n-max", "200"],
            ["redheffer-check", "--p", "0.5", "--c", "2.5", "--beta", "0.3912",
             "--n-max", "200"],
            ["redheffer-scan", "--p", "0.34", "--n-max", "200"],
            ["norm-ratio", "--kind", "weighted-mean", "--alpha", "1.0",
             "--family", "delta", "--p", "2", "--n-max", "500"],
            ["extremal-search", "--kind", "copson-tail", "--p", "0.3333333",
             "--n-max", "2000"],
        ],
    )
    def test_commands_run_clean(self, capsys, argv):
        status = main(argv)
        capsys.readouterr()
        assert status == 0

    def test_verify_paper_smoke(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify-paper", "--n-max", "300", "--format", "json"
        )
        payload = json.loads(out)
        failing = [v["claim"] for v in payload["verdicts"] if not v["holds"]]
        # the extremal bracket target is out of reach at its pinned horizon;
        # everything else must hold
        assert failing == ["7.2-cesaro-extremal"]
        assert status == 1
        assert len(payload["verdicts"]) > 40
        assert payload["verdicts"] == sorted(
            payload["verdicts"], key=lambda v: v["claim"]
        )

    def test_verify_paper_verdicts_agree_across_dispatch_levels(self):
        # on AVX-512, numpy's exp, log and ** differ from libm in the last
        # bit; a slack may move by an ulp, but no verdict may
        env = {k: v for k, v in _module_env().items()
               if k != "NPY_DISABLE_CPU_FEATURES"}
        verdicts = []
        for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}):
            done = subprocess.run(
                _module_argv("verify-paper", "--n-max", "10000", "--format", "json"),
                env={**env, **extra}, capture_output=True, text=True, timeout=300,
            )
            rows = json.loads(done.stdout)["verdicts"]
            verdicts.append((done.returncode, [
                (v["claim"], v["holds"], v["first_failure"]) for v in rows
            ]))
        assert len(verdicts[0][1]) == 52
        assert verdicts[0] == verdicts[1]


# The README's seven horizon commands, without their horizon.
HORIZON_COMMANDS = [
    ["check-knopp", "--p", "2", "--alpha", "0", "--U", "4"],
    ["check-2-20", "--p", "2", "--alpha", "0.5"],
    ["check-reverse", "--p", "0.25"],
    ["check-2-30", "--p", "3"],
    ["check-2-3", "--p", "2", "--alpha", "1.5"],
    ["norm-ratio", "--kind", "copson-tail", "--family", "power_decay",
     "--family-param", "3", "--p", "0.5"],
    ["extremal-search", "--kind", "weighted-mean", "--alpha", "1", "--p", "2"],
]


class TestHorizonMemory:
    N = 200_000

    @pytest.mark.parametrize("argv", HORIZON_COMMANDS, ids=lambda argv: argv[0])
    def test_peak(self, capsys, traced_peak, argv):
        # a criterion command holds log_w, W and two n-length buffers
        # (about 4.3 x 8n bytes here); norm-ratio holds the family, its tail
        # means and the ramp that divides them (about 3.05).  A first call
        # at a small horizon makes the state every call keeps (the parser,
        # imports) before the measured one.
        main([*argv, "--n-max", "100", "--format", "json"])
        peak = traced_peak(main, [*argv, "--n-max", str(self.N), "--format", "json"])
        capsys.readouterr()
        bound = 3.15 if argv[0] == "norm-ratio" else 4.5
        assert peak <= bound * 8 * self.N


class TestClosedFormLaws:
    """The exact-integer laws skip the libm maps and the scans their bits
    do not need: shift 0 of the ratio recurrence (check-2-20 at alpha =
    1/p), the power law w_n = n (check-2-3 at alpha = 1 + 1/p) and the
    Cesaro weights.  Every scan left is a criterion's Lam (formed by
    sequences.power_sums) or an operator's means, one per trial family."""

    SCANNED = ("compsum", "sequences", "operators", "redheffer")

    @pytest.mark.parametrize(
        "argv, scans",
        [
            (("check-2-20", "--p", "2", "--alpha", "0.5"), 1),
            (("check-2-3", "--p", "2", "--alpha", "1.5"), 1),
            (("extremal-search", "--kind", "weighted-mean", "--alpha", "1",
              "--p", "2"), 3),
        ],
        ids=lambda v: v[0] if isinstance(v, tuple) else None,
    )
    def test_no_libm_maps_and_no_spare_scans(self, capsys, monkeypatch, argv, scans):
        libm, scanned = [], []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def log1p(self, x):
                libm.append("log1p")
                return math.log1p(x)

            def exp(self, x):
                libm.append("exp")
                return math.exp(x)

        def counted(values, out=None):
            scanned.append(len(values))
            return neumaier_prefix_sums(values, out=out)

        monkeypatch.setattr(sequences, "math", CountingMath())
        for name in self.SCANNED:
            monkeypatch.setattr(f"hardylab.{name}.neumaier_prefix_sums", counted)
        status, _, _ = run_cli(capsys, *argv, "--n-max", "20000", "--format", "json")
        assert status == 0
        assert libm == []
        assert scanned == [20000] * scans


def _declared_flags() -> dict[str, list[argparse.Action]]:
    """Each subcommand's flags as argparse declares them, without -h."""
    (commands,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: [a for a in cmd._actions if a.option_strings and a.dest != "help"]
        for name, cmd in commands.choices.items()
    }


def _tolerant_commands() -> list[str]:
    """The subcommands that declare the tolerance flags."""
    return sorted(
        name for name, actions in _declared_flags().items()
        if any(a.dest == "tol_rel" for a in actions)
    )


# Per subcommand with the tolerance flags: an argv, and a tolerance whose
# value moves one of the argv's verdict fields
_TOLERANCE_MOVES = {
    "check-knopp": (("check-knopp", "--p", "2", "--alpha", "0", "--U", "4",
                     "--n-max", "500"), ("--tol-rel", "1")),
    "check-2-20": (("check-2-20", "--p", "2", "--alpha", "0.3", "--n-max", "200"),
                   ("--tol-rel", "1")),
    # tol_abs / rhs_n is formed per index: at p = 0.34 it lets n = 6 pass
    "check-reverse": (("check-reverse", "--p", "0.34", "--n-max", "2000"),
                      ("--tol-abs", "5e-6")),
    "check-2-30": (("check-2-30", "--p", "3", "--n-max", "20000"),
                   ("--tol-rel", "1")),
    "check-2-4": (("check-2-4", "--p", "3"), ("--tol-rel", "1")),
    "check-2-3": (("check-2-3", "--p", "2", "--alpha", "1.0", "--n-max", "200"),
                  ("--tol-rel", "1")),
    "redheffer-solve": (("redheffer-solve", "--n-max", "2000"), ("--tol-rel", "1")),
    "redheffer-check": (("redheffer-check", "--p", "0.5", "--c", "2.5", "--beta",
                         "0.3912", "--n-max", "200"), ("--tol-rel", "1")),
    "redheffer-scan": (("redheffer-scan", "--p", "0.7", "--n-max", "50"),
                       ("--tol-rel", "1e10")),
}


class TestFlagSurface:
    def test_each_subcommand_declares_only_what_it_reads(self):
        declared = {
            name: {a.option_strings[0] for a in actions}
            for name, actions in _declared_flags().items()
        }
        common = {"--n-max", "--seed", "--format", "--out"}
        tolerant = common | {"--tol-rel", "--tol-abs"}
        mean = common | {"--p", "--kind", "--alpha"}
        assert declared == {
            "check-knopp": tolerant | {"--p", "--alpha", "--U"},
            "check-2-20": tolerant | {"--p", "--alpha"},
            "check-reverse": tolerant | {"--p"},
            "check-2-30": tolerant | {"--p"},
            "check-2-4": tolerant | {"--p", "--grid-points"},
            "check-2-3": tolerant | {"--p", "--alpha"},
            "redheffer-solve": tolerant | {"--c"},
            "redheffer-check": tolerant | {"--p", "--c", "--beta", "--k"},
            "redheffer-scan": tolerant | {"--p"},
            "norm-ratio": mean | {"--family", "--family-param"},
            "extremal-search": mean,
            "verify-paper": common,
        }
        assert sum(map(len, _declared_flags().values())) == 91

    @pytest.mark.parametrize("name", _tolerant_commands())
    def test_tolerance_flags_are_read(self, capsys, name):
        # a tolerance the verdicts do not read would be echoed as if applied
        argv, tol = _TOLERANCE_MOVES[name]
        fields = []
        for extra in ((), tol):
            _, out, _ = run_cli(capsys, *argv, *extra, "--format", "json")
            fields.append([
                {k: v[k] for k in ("claim", "holds", "min_slack", "first_failure",
                                   "value")}
                for v in json.loads(out)["verdicts"]
            ])
        assert fields[0] != fields[1]


# Finite floats with the edges of the range drawn often: zeros, the
# smallest subnormal, the largest finite magnitude.
_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e308, -1e308]
)
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


def _values(action: argparse.Action) -> st.SearchStrategy:
    if action.choices is not None:
        return st.sampled_from(action.choices)
    if action.dest in ("n_max", "grid_points"):
        return st.integers(max_value=50)  # keeps every run short
    if action.type is int:
        return st.integers()
    return _FLOATS


@st.composite
def _argvs(draw) -> list[str]:
    flags = _declared_flags()
    name = draw(st.sampled_from(sorted(set(flags) - {"verify-paper"})))
    argv = [name]
    for action in flags[name]:
        # --format only selects a renderer; --out would write files
        if action.dest in ("format", "out") or not draw(st.booleans()):
            continue
        # --flag=value: "--c -2e-5" would read -2e-5 as a flag
        argv.append(f"{action.option_strings[0]}={draw(_values(action))}")
    return argv


class TestArgvFuzz:
    @given(_argvs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_exit_status_is_a_verdict_or_a_rejection(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                status = exc.code
        assert status in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        # a warning would print on stderr ahead of the report or error line
        assert [str(w.message) for w in caught] == [], argv


# Each subcommand's in-domain flags and the float flags the sweep moves
# one at a time to the edges of the float range, at both signs.
_SWEEP = {
    "check-knopp": (["--p=2"], ("--p", "--alpha", "--U")),
    "check-2-20": (["--p=2", "--alpha=0.5"], ("--p", "--alpha")),
    "check-reverse": (["--p=0.25"], ("--p",)),
    "check-2-30": (["--p=3"], ("--p",)),
    "check-2-4": (["--p=5"], ("--p",)),
    "check-2-3": (["--p=2", "--alpha=1.5"], ("--p", "--alpha")),
    "redheffer-solve": (["--c=2.5"], ("--c",)),
    "redheffer-check": (["--p=0.5", "--c=2", "--beta=0.5"], ("--p", "--c", "--k")),
    "redheffer-scan": (["--p=0.34"], ("--p",)),
    "norm-ratio": (
        ["--p=0.5", "--kind=weighted-mean", "--alpha=2", "--family=power_decay"],
        ("--p", "--alpha", "--family-param"),
    ),
    "extremal-search": (
        ["--p=2", "--kind=weighted-mean", "--alpha=1"], ("--p", "--alpha")
    ),
    "verify-paper": ([], ()),
}
_SWEEP_VALUES = (
    1e-320, 1e-300, 1e-10, 1e10, 1e300, 1e308,
    -0.4999, -1.0, -1e10, -1e100, -1e300, -1e308,
)


def _sweep_argvs(name: str) -> list[list[str]]:
    """The subcommand at its base flags, then with each swept flag at each
    edge value, every one at --n-max 3 and 50."""
    base, swept = _SWEEP[name]
    variants = [base] + [
        [b for b in base if not b.startswith(flag + "=")] + [f"{flag}={v!r}"]
        for flag in swept
        for v in _SWEEP_VALUES
    ]
    return [[name, *flags, f"--n-max={n}"] for n in (3, 50) for flags in variants]


class TestExtremeFlagSweep:
    def test_covers_every_subcommand(self):
        assert set(_SWEEP) == set(_declared_flags())
        assert sum(len(_sweep_argvs(name)) for name in _SWEEP) == 504

    @pytest.mark.parametrize("name", sorted(_SWEEP))
    def test_exit_status_and_one_stderr_line(self, name):
        # in-process, so a numpy warning is an error here and would reach
        # the CLI as exit 3 ("internal error")
        faults = []
        for argv in _sweep_argvs(name):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                status = main(argv)
            if status not in (0, 1, 2) or err.getvalue().count("\n") > 1:
                faults.append((argv, status, err.getvalue()))
        assert faults == []
