import argparse
import contextlib
import csv
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab import cli
from hardylab.cli import build_parser, main
from hardylab.operators import OperatorSpec, SequenceFamily, norm_ratio
from hardylab.redheffer import scan_params

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
            # a ratio above 1 to the power 1/p = 1e300 overflows
            ("extremal-search", "--p", "1e-300", "--n-max", "10"),
            ("norm-ratio", "--p", "1e-300", "--family", "delta", "--n-max", "10"),
            # (p - 1) log W_n overflows; numpy must not warn on the way
            ("check-knopp", "--p", "1e308", "--n-max", "10"),
            # numpy's generator takes no negative seed
            ("norm-ratio", "--family", "random", "--seed", "-1", "--p", "2",
             "--n-max", "10"),
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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("check-reverse", "--p", "0.25", "--alpha", "5", "--n-max", "300"),
             "--alpha"),
            (("extremal-search", "--p", "2", "--family", "delta", "--n-max", "100"),
             "--family"),
        ],
    )
    def test_unread_flag_exits_two(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
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

    def test_unexpected_error_exits_three(self, capsys, monkeypatch):
        def broken(args, tol):
            raise RuntimeError("broken handler")

        monkeypatch.setitem(cli._HANDLERS, "check-2-30", broken)
        status, out, err = run_cli(capsys, "check-2-30", "--p", "3")
        assert status == 3
        assert err == "internal error: RuntimeError: broken handler\n"
        assert "Traceback" not in err
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
        report = cli.Report("redheffer-scan", {}, 3, [], 0.0,
                            scan_rows=res.iter_rows())
        header, rows = cli.render_csv(report).split("\r\n", 1)
        assert header.startswith("claim,paper_ref,holds")
        assert rows == _csv_writer_scan_rows(res)


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


class TestFlagSurface:
    def test_each_subcommand_declares_only_what_it_reads(self):
        common = {"--n-max", "--seed", "--tol-rel", "--tol-abs", "--format", "--out"}
        declared = {
            name: {a.option_strings[0] for a in actions} - common
            for name, actions in _declared_flags().items()
        }
        mean = {"--p", "--kind", "--alpha"}
        assert declared == {
            "check-knopp": {"--p", "--alpha", "--U"},
            "check-2-20": {"--p", "--alpha"},
            "check-reverse": {"--p"},
            "check-2-30": {"--p"},
            "check-2-4": {"--p", "--grid-points"},
            "check-2-3": {"--p", "--alpha"},
            "redheffer-solve": {"--c"},
            "redheffer-check": {"--p", "--c", "--beta", "--k"},
            "redheffer-scan": {"--p"},
            "norm-ratio": mean | {"--family", "--family-param"},
            "extremal-search": mean,
            "verify-paper": set(),
        }
        assert sum(map(len, _declared_flags().values())) == 97


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
