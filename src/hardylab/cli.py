"""Command-line front end.

Subcommands run individual checks, parameter scans, or the full
verification suite, and emit reports as text, JSON, or CSV.  Exit status:
0 when every verdict holds, 1 when some verdict fails, 2 on invalid
parameters, 3 on an unexpected internal error (reported on one line of
standard error, without a traceback).  Identical configurations (including
the seed) produce byte-identical JSON apart from the wall_time field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from .criteria import (
    check_2_3,
    check_2_4,
    check_2_30,
    classic_forward_constant,
    criterion_2_20_check,
    knopp_criterion_check,
    reverse_criterion_check,
)
from .errors import WorkbenchError
from .operators import (
    OperatorSpec,
    SequenceFamily,
    default_power_grid,
    extremal_search,
    norm_ratio,
)
from .redheffer import (
    RedhefferParams,
    balance_solution_half,
    condition_6_49_check,
    condition_6_50_check,
    condition_6_54_check,
    k_of_p,
    scan_params,
)
from .reports import FINITE_HORIZON_NOTE, Tolerances, Verdict
from .sequences import ExponentPair, WeightSequence, knopp_sequence
from .verify import DEFAULT_SEED, THEOREM6_FLOOR, run_verification


@dataclass
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    n_max: int = 10000
    tol_abs: float = 0.0
    tol_rel: float = 1e-12
    seed: int = DEFAULT_SEED
    output_format: str = "text"
    out: str | None = None

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise WorkbenchError("n_max must be >= 1")
        self.tolerances()  # validates tol_abs and tol_rel
        if self.output_format not in ("json", "csv", "text"):
            raise WorkbenchError(f"unknown format {self.output_format!r}")

    def tolerances(self) -> Tolerances:
        return Tolerances(tol_abs=self.tol_abs, tol_rel=self.tol_rel)


@dataclass
class Report:
    command: str
    params: dict
    n_max: int
    verdicts: list[Verdict]
    wall_time: float
    note: str = FINITE_HORIZON_NOTE
    # redheffer-scan only: one record per grid point, streamed into CSV output
    scan_rows: Iterable[dict] | None = None

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts)


def _need(cfg: RunConfig, key: str) -> float:
    value = cfg.parameters.get(key)
    if value is None:
        raise WorkbenchError(f"--{key} is required for {cfg.command}")
    return float(value)


def _get(cfg: RunConfig, key: str, default):
    """The parameter's value, or ``default`` only when it was not given."""
    value = cfg.parameters.get(key)
    return default if value is None else value


# What a handler returns: its verdicts and, for redheffer-scan only, one
# record per scan grid point.
Outcome = tuple[list[Verdict], Iterable[dict] | None]


def _handle_check_knopp(cfg: RunConfig) -> Outcome:
    p = _need(cfg, "p")
    alpha = float(_get(cfg, "alpha", 0.0))
    pair = ExponentPair.forward(p)
    U = float(_get(cfg, "U", classic_forward_constant(p)))
    w = knopp_sequence(pair, alpha, cfg.n_max + 1)
    lam = WeightSequence.constant(cfg.n_max + 1)
    report = knopp_criterion_check(
        w,
        lam,
        pair,
        U,
        cfg.n_max,
        cfg.tolerances(),
        name=f"knopp[p={p},alpha={alpha},U={U}]",
        exploratory=alpha != 0.0,
    )
    return [Verdict.from_report(report)], None


def _handle_check_2_20(cfg: RunConfig) -> Outcome:
    pair = ExponentPair.forward(_need(cfg, "p"))
    report = criterion_2_20_check(
        _need(cfg, "alpha"), pair, cfg.n_max, cfg.tolerances()
    )
    return [Verdict.from_report(report)], None


def _handle_check_reverse(cfg: RunConfig) -> Outcome:
    report = reverse_criterion_check(_need(cfg, "p"), cfg.n_max, cfg.tolerances())
    return [Verdict.from_report(report)], None


def _handle_check_2_30(cfg: RunConfig) -> Outcome:
    report = check_2_30(_need(cfg, "p"), cfg.n_max, cfg.tolerances())
    return [Verdict.from_report(report)], None


def _handle_check_2_4(cfg: RunConfig) -> Outcome:
    p = _need(cfg, "p")
    points = int(_get(cfg, "grid_points", 50))
    if points < 1:
        raise WorkbenchError("--grid-points must be >= 1")
    report = check_2_4(p, points, cfg.tolerances())
    return [Verdict.from_report(report)], None


def _handle_check_2_3(cfg: RunConfig) -> Outcome:
    pair = ExponentPair.forward(_need(cfg, "p"))
    report = check_2_3(_need(cfg, "alpha"), pair, cfg.n_max, cfg.tolerances())
    return [Verdict.from_report(report)], None


def _handle_redheffer_solve(cfg: RunConfig) -> Outcome:
    sol = balance_solution_half(float(_get(cfg, "c", 2.5)), cfg.n_max)
    beta, k = sol.params.beta, sol.params.k
    return [
        Verdict("x", "x(c')", sol.residual < 1e-12, value=sol.x,
                detail=f"balance residual {sol.residual:.2e}"),
        Verdict("beta", "x(c')", beta <= 1.0, value=beta),
        Verdict("k", "k(p)", condition_6_50_check(sol.params), value=k),
        Verdict("reciprocal", "thm6", 1.0 / k > THEOREM6_FLOOR, value=1.0 / k),
    ], None


def _handle_redheffer_check(cfg: RunConfig) -> Outcome:
    params = RedhefferParams(
        p=_need(cfg, "p"), c=_need(cfg, "c"), beta=_need(cfg, "beta")
    )
    k = cfg.parameters.get("k")
    k_val = float(k) if k is not None else k_of_p(params, cfg.n_max)
    tol = cfg.tolerances()
    full = condition_6_49_check(params, cfg.n_max, k_val, tol)
    reduced = condition_6_49_check(params, 2, k_val, tol)
    verdicts = [
        Verdict.from_report(full),
        Verdict(
            f"6.50[p={params.p},c={params.c}]", "6.50",
            condition_6_50_check(params, k_val, tol), value=k_val,
        ),
        Verdict(
            f"6.51[p={params.p},c={params.c},beta={params.beta}]", "6.51",
            reduced.holds, min_slack=reduced.min_slack, value=k_val,
        ),
    ]
    if 0.0 < params.p < 0.5:
        verdicts.append(
            Verdict(
                f"6.54[p={params.p},beta={params.beta}]", "6.54",
                condition_6_54_check(params.p, params.beta), value=params.beta,
            )
        )
    return verdicts, None


def _handle_redheffer_scan(cfg: RunConfig) -> Outcome:
    result = scan_params(_need(cfg, "p"), n_max=cfg.n_max, tol=cfg.tolerances())
    if result.best is None:
        verdict = Verdict(
            "scan-best", "6.49", False,
            detail=f"no feasible point among {result.n_points}",
        )
    else:
        verdict = Verdict(
            "scan-best", "6.49",
            result.best_report.holds,
            min_slack=result.best_report.min_slack,
            value=result.best.k,
            detail=(
                f"c={result.best.c}, beta={result.best.beta}, "
                f"feasible {result.feasible_count}/{result.n_points}"
            ),
        )
    return [verdict], result.iter_rows()


def _family_from_config(cfg: RunConfig, length: int) -> SequenceFamily:
    kind = str(cfg.parameters.get("family") or "power_decay")
    param = cfg.parameters.get("family_param")
    if kind == "power_decay":
        return SequenceFamily(kind, length, 1.5 if param is None else float(param))
    if kind == "geometric":
        return SequenceFamily(kind, length, 0.5 if param is None else float(param))
    if kind == "random":
        return SequenceFamily(kind, length, cfg.seed)
    return SequenceFamily(kind, length)


def _operator_from_config(cfg: RunConfig) -> OperatorSpec:
    kind = str(cfg.parameters.get("kind") or "weighted-mean").replace("-", "_")
    if kind == "weighted_mean":
        alpha = float(_get(cfg, "alpha", 1.0))
        return OperatorSpec("weighted_mean", cfg.n_max, alpha=alpha)
    return OperatorSpec("copson_tail", cfg.n_max)


def _handle_norm_ratio(cfg: RunConfig) -> Outcome:
    op = _operator_from_config(cfg)
    fam = _family_from_config(cfg, cfg.n_max)
    ratio = norm_ratio(op, fam, _need(cfg, "p"))
    return [
        Verdict(
            f"norm-ratio[{op.kind},{fam.label()}]", "(8)", True, value=ratio,
            detail="measurement, not a criterion",
        )
    ], None


def _handle_extremal_search(cfg: RunConfig) -> Outcome:
    op = _operator_from_config(cfg)
    p = _need(cfg, "p")
    result = extremal_search(op, p, default_power_grid(p, cfg.n_max))
    return [
        Verdict(
            f"extremal[{op.kind},p={p}]", "(8)", True, value=result.best_ratio,
            detail=f"best family {result.best_family.label()}",
        )
    ], None


def _handle_verify_paper(cfg: RunConfig) -> Outcome:
    return run_verification(cfg.n_max, cfg.seed), None


_HANDLERS = {
    "check-knopp": _handle_check_knopp,
    "check-2-20": _handle_check_2_20,
    "check-reverse": _handle_check_reverse,
    "check-2-30": _handle_check_2_30,
    "check-2-4": _handle_check_2_4,
    "check-2-3": _handle_check_2_3,
    "redheffer-solve": _handle_redheffer_solve,
    "redheffer-check": _handle_redheffer_check,
    "redheffer-scan": _handle_redheffer_scan,
    "norm-ratio": _handle_norm_ratio,
    "extremal-search": _handle_extremal_search,
    "verify-paper": _handle_verify_paper,
}


def run(config: RunConfig) -> Report:
    """Dispatch a configuration to its check and wrap the verdicts."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise WorkbenchError(f"unknown command {config.command!r}")
    start = time.perf_counter()
    verdicts, scan_rows = handler(config)
    return Report(
        command=config.command,
        params=_echo_params(config),
        n_max=config.n_max,
        verdicts=sorted(verdicts, key=lambda v: v.claim),
        wall_time=time.perf_counter() - start,
        scan_rows=scan_rows,
    )


def _echo_params(config: RunConfig) -> dict:
    params = dict(sorted(config.parameters.items()))
    params.update(
        seed=config.seed,
        tol_abs=config.tol_abs,
        tol_rel=config.tol_rel,
        format=config.output_format,
    )
    return params


def render_json(report: Report) -> str:
    payload = {
        "command": report.command,
        "params": report.params,
        "n_max": report.n_max,
        "note": report.note,
        "verdicts": list(map(Verdict.to_dict, report.verdicts)),
        "wall_time": report.wall_time,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["claim", "paper_ref", "holds", "min_slack", "first_failure",
         "exploratory", "value"]
    )
    def cell(x):
        return "" if x is None else x
    for v in map(Verdict.to_dict, report.verdicts):
        writer.writerow(
            [v["claim"], v["paper_ref"], v["holds"], cell(v["min_slack"]),
             cell(v["first_failure"]), v["exploratory"], cell(v["value"])]
        )
    if report.scan_rows is not None:
        for row in report.scan_rows:
            writer.writerow(
                [f"scan-point[c={row['c']},beta={row['beta']}]", "6.49",
                 row["feasible"], "", "", "", row["k"]]
            )
    return buf.getvalue()


def render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    lines.append(
        "params: "
        + " ".join(f"{k}={v}" for k, v in report.params.items() if v is not None)
    )
    lines.append(f"n_max: {report.n_max}")
    lines.append(f"note: {report.note}")
    for v in map(Verdict.to_dict, report.verdicts):
        status = "holds" if v["holds"] else "FAILS"
        bits = [f"{v['claim']:<42s} [{v['paper_ref']}] {status}"]
        if v["min_slack"] is not None:
            bits.append(f"min_slack={v['min_slack']:.3e}")
        if v["first_failure"] is not None:
            bits.append(f"first_failure={v['first_failure']}")
        if v["value"] is not None:
            bits.append(f"value={v['value']:.10g}")
        if v["exploratory"]:
            bits.append("[exploratory]")
        lines.append("  " + " ".join(bits))
    lines.append(f"wall_time: {report.wall_time:.3f}s")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Finite-horizon checks for Hardy-type inequality criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--p", type=float)
        cmd.add_argument("--alpha", type=float)
        cmd.add_argument("--beta", type=float)
        cmd.add_argument("--c", type=float)
        cmd.add_argument("--U", type=float)
        cmd.add_argument("--k", type=float)
        cmd.add_argument("--n-max", type=int, default=10000)
        cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
        cmd.add_argument("--tol-rel", type=float, default=1e-12)
        cmd.add_argument("--tol-abs", type=float, default=0.0)
        cmd.add_argument("--format", choices=("json", "csv", "text"),
                         default="text")
        cmd.add_argument("--out", type=str, default=None)
        if name in ("norm-ratio", "extremal-search"):
            cmd.add_argument("--kind", choices=("weighted-mean", "copson-tail"),
                             default="weighted-mean")
            cmd.add_argument("--family",
                             choices=("power_decay", "delta", "geometric", "random"),
                             default="power_decay")
            cmd.add_argument("--family-param", type=float, default=None)
        if name == "check-2-4":
            cmd.add_argument("--grid-points", type=int, default=50)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    for key, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--" + key.replace("_", "-")
            raise WorkbenchError(f"{flag} must be finite, got {value}")
    skip = {"command", "n_max", "seed", "tol_rel", "tol_abs", "format", "out"}
    parameters = {
        k: v for k, v in vars(args).items() if k not in skip and v is not None
    }
    return RunConfig(
        command=args.command,
        parameters=parameters,
        n_max=args.n_max,
        tol_abs=args.tol_abs,
        tol_rel=args.tol_rel,
        seed=args.seed,
        output_format=args.format,
        out=args.out,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = run(config)
        rendered = _RENDERERS[config.output_format](report)
        if config.out:
            with open(config.out, "w") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if report.all_hold else 1


if __name__ == "__main__":
    raise SystemExit(main())
