"""Command-line front end.

Subcommands run individual checks, parameter scans, or the full
verification suite, and emit reports as text, JSON, or CSV.  Each
subcommand accepts the common flags plus only the flags its check reads
(``_FLAGS``); argparse rejects any other flag, and a missing required one,
with exit status 2.  Exit status: 0 when every verdict holds, 1 when some
verdict fails, 2 on invalid parameters, 3 on an unexpected internal error
(reported on one line of standard error, without a traceback).  Identical
configurations (including the seed) produce byte-identical JSON apart from
the wall_time field.
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
from dataclasses import dataclass

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
from .sequences import knopp_sequence, power_aux_sequence
from .verify import DEFAULT_SEED, THEOREM6_FLOOR, run_verification


@dataclass
class Report:
    command: str
    params: dict
    n_max: int
    verdicts: list[Verdict]
    wall_time: float
    # redheffer-scan only: the beta grid, then (c, feasible, k) per c with
    # one entry per beta (ScanResult.iter_rows), streamed into CSV output
    scan_rows: Iterable | None = None

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts)


# What a handler returns: its verdicts and, for redheffer-scan only, the
# scan grid's rows (Report.scan_rows).
Outcome = tuple[list[Verdict], Iterable | None]


def _handle_check_knopp(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    p, alpha = args.p, args.alpha
    w = knopp_sequence(p, alpha, args.n_max + 1)  # rejects p <= 1 first
    U = classic_forward_constant(p) if args.U is None else args.U
    report = knopp_criterion_check(
        w,
        power_aux_sequence(0.0, args.n_max + 1),
        p,
        U,
        args.n_max,
        tol,
        name=f"knopp[p={p},alpha={alpha},U={U}]",
        exploratory=alpha != 0.0,
    )
    return [Verdict.from_report(report)], None


def _handle_check_2_20(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    report = criterion_2_20_check(args.alpha, args.p, args.n_max, tol)
    return [Verdict.from_report(report)], None


def _handle_check_reverse(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    report = reverse_criterion_check(args.p, args.n_max, tol)
    return [Verdict.from_report(report)], None


def _handle_check_2_30(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    report = check_2_30(args.p, args.n_max, tol)
    return [Verdict.from_report(report)], None


def _handle_check_2_4(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    if args.grid_points < 1:
        raise WorkbenchError("--grid-points must be >= 1")
    report = check_2_4(args.p, args.grid_points, tol)
    return [Verdict.from_report(report)], None


def _handle_check_2_3(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    report = check_2_3(args.alpha, args.p, args.n_max, tol)
    return [Verdict.from_report(report)], None


def _handle_redheffer_solve(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    sol = balance_solution_half(args.c, args.n_max)
    beta, k = sol.params.beta, sol.k
    return [
        Verdict("x", "x(c')", sol.residual < 1e-12, value=sol.x,
                detail=f"balance residual {sol.residual:.2e}"),
        Verdict("beta", "x(c')", beta <= 1.0, value=beta),
        Verdict("k", "k(p)", condition_6_50_check(sol.params, k, tol), value=k),
        Verdict("reciprocal", "thm6", 1.0 / k > THEOREM6_FLOOR, value=1.0 / k),
    ], None


def _handle_redheffer_check(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    params = RedhefferParams(p=args.p, c=args.c, beta=args.beta)
    k_val = k_of_p(params, args.n_max) if args.k is None else args.k
    full = condition_6_49_check(params, args.n_max, k_val, tol)
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


def _handle_redheffer_scan(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    result = scan_params(args.p, n_max=args.n_max, tol=tol)
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
            value=result.best_k,
            detail=(
                f"c={result.best.c}, beta={result.best.beta}, "
                f"feasible {result.feasible_count}/{result.n_points}"
            ),
        )
    return [verdict], result.iter_rows()


def _family(args: argparse.Namespace) -> SequenceFamily:
    kind, param, length = args.family, args.family_param, args.n_max
    if kind == "power_decay":
        return SequenceFamily(kind, length, 1.5 if param is None else param)
    if kind == "geometric":
        return SequenceFamily(kind, length, 0.5 if param is None else param)
    if kind == "random":
        return SequenceFamily(kind, length, args.seed)
    return SequenceFamily(kind, length)


def _operator(args: argparse.Namespace) -> OperatorSpec:
    if args.kind == "weighted-mean":
        alpha = 1.0 if args.alpha is None else args.alpha
        return OperatorSpec("weighted_mean", args.n_max, alpha=alpha)
    return OperatorSpec("copson_tail", args.n_max)


def _handle_norm_ratio(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    op = _operator(args)
    fam = _family(args)
    ratio = norm_ratio(op, fam, args.p)
    return [
        Verdict(
            f"norm-ratio[{op.kind},{fam.label()}]", "(8)", True, value=ratio,
            detail="measurement, not a criterion",
        )
    ], None


def _handle_extremal_search(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    op = _operator(args)
    p = args.p
    result = extremal_search(op, p, default_power_grid(p, args.n_max))
    return [
        Verdict(
            f"extremal[{op.kind},p={p}]", "(8)", True, value=result.best_ratio,
            detail=f"best family {result.best_family.label()}",
        )
    ], None


def _handle_verify_paper(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    return run_verification(args.n_max, args.seed), None


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


def render_json(report: Report) -> str:
    payload = {
        "command": report.command,
        "params": report.params,
        "n_max": report.n_max,
        "note": FINITE_HORIZON_NOTE,
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
        # The line csv.writer writes for a grid point: the label always holds
        # a comma, so it is quoted; floats print as repr, bools as str.
        rows = iter(report.scan_rows)
        tails = [f'beta={beta}]",6.49,' for beta in next(rows)]
        for c, feasible, k in rows:
            head = f'"scan-point[c={c},'
            for tail, ok, k_val in zip(tails, feasible, k):
                buf.write(f"{head}{tail}{ok},,,,{k_val!r}\r\n")
    return buf.getvalue()


def render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    lines.append(
        "params: "
        + " ".join(f"{k}={v}" for k, v in report.params.items() if v is not None)
    )
    lines.append(f"n_max: {report.n_max}")
    lines.append(f"note: {FINITE_HORIZON_NOTE}")
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


_P = ("--p", {"type": float, "required": True})
_ALPHA = ("--alpha", {"type": float, "required": True})
_KIND = ("--kind", {"choices": ("weighted-mean", "copson-tail"),
                    "default": "weighted-mean"})
_MEAN_ALPHA = ("--alpha", {"type": float})  # the weighted mean's; 1 if not given

# The flags each subcommand reads, besides the common ones every subcommand
# takes.  A default that depends on other flags is left to the handler.
_FLAGS = {
    "check-knopp": (_P, ("--alpha", {"type": float, "default": 0.0}),
                    ("--U", {"type": float})),  # q**p if not given
    "check-2-20": (_P, _ALPHA),
    "check-reverse": (_P,),
    "check-2-30": (_P,),
    "check-2-4": (_P, ("--grid-points", {"type": int, "default": 50})),
    "check-2-3": (_P, _ALPHA),
    "redheffer-solve": (("--c", {"type": float, "default": 2.5}),),
    "redheffer-check": (_P, ("--c", {"type": float, "required": True}),
                        ("--beta", {"type": float, "required": True}),
                        ("--k", {"type": float})),  # k_of_p if not given
    "redheffer-scan": (_P,),
    "norm-ratio": (_P, _KIND, _MEAN_ALPHA,
                   ("--family", {"choices": ("power_decay", "delta",
                                             "geometric", "random"),
                                 "default": "power_decay"}),
                   ("--family-param", {"type": float})),  # per family if not given
    "extremal-search": (_P, _KIND, _MEAN_ALPHA),
    "verify-paper": (),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Finite-horizon checks for Hardy-type inequality criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name)
        for flag, spec in _FLAGS[name]:
            cmd.add_argument(flag, **spec)
        cmd.add_argument("--n-max", type=int, default=10000)
        cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
        cmd.add_argument("--tol-rel", type=float, default=1e-12)
        cmd.add_argument("--tol-abs", type=float, default=0.0)
        cmd.add_argument("--format", choices=tuple(_RENDERERS), default="text")
        cmd.add_argument("--out")
    return parser


def _echo_params(args: argparse.Namespace) -> dict:
    """The subcommand's own flags that have a value, sorted, then the common ones."""
    common = {"command", "n_max", "seed", "tol_rel", "tol_abs", "format", "out"}
    own = {
        k: v for k, v in sorted(vars(args).items())
        if k not in common and v is not None
    }
    return {**own, "seed": args.seed, "tol_abs": args.tol_abs,
            "tol_rel": args.tol_rel, "format": args.format}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for key, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                flag = "--" + key.replace("_", "-")
                raise WorkbenchError(f"{flag} must be finite, got {value}")
        if args.n_max < 1:
            raise WorkbenchError("n_max must be >= 1")
        if args.seed < 0:
            raise WorkbenchError("seed must be >= 0")
        tol = Tolerances(tol_abs=args.tol_abs, tol_rel=args.tol_rel)
        start = time.perf_counter()
        verdicts, scan_rows = _HANDLERS[args.command](args, tol)
        report = Report(
            command=args.command,
            params=_echo_params(args),
            n_max=args.n_max,
            verdicts=sorted(verdicts, key=lambda v: v.claim),
            wall_time=time.perf_counter() - start,
            scan_rows=scan_rows,
        )
        rendered = _RENDERERS[args.format](report)
        if args.out:
            with open(args.out, "w") as fh:
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
