"""Command-line front end.

Subcommands run individual checks, parameter scans, or the full
verification suite, and emit reports as text, JSON, or CSV.  Each
subcommand accepts only the flags it reads, --format and --out
(``_COMMANDS``); argparse rejects any other flag, and a missing required
one, with exit status 2.  Exit status: 0 when every verdict holds, 1 when
some verdict fails, 2 on invalid parameters, an output that cannot be
written or a size (--n-max, --grid-points) too large to fit in memory, 3 on
an unexpected internal error (reported on one line of standard error,
without a traceback).  A standard output whose reader has gone (a closed
pipe) is not an error: the rest of the output is dropped and the status is
the verdicts'.  Identical configurations (including the seed) produce
byte-identical JSON apart from the wall_time field.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .criteria import (
    check_2_3,
    check_2_4,
    check_2_30,
    criterion_2_20_check,
    knopp_criterion_check,
    reverse_criterion_check,
    weighted_mean_constant,
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
    ScanResult,
    balance_solution_half,
    condition_6_49_check,
    condition_6_50_check,
    condition_6_54_check,
    k_of_p,
    scan_params,
)
from .reports import FINITE_HORIZON_NOTE, Tolerances, Verdict
from .sequences import knopp_sequence, levin_steckin_sequence
from .verify import DEFAULT_SEED, THEOREM6_FLOOR, run_verification


@dataclass
class Report:
    command: str
    params: dict
    n_max: int
    verdicts: list[Verdict]
    wall_time: float
    # redheffer-scan only: the scan grid, whose points the CSV renders one
    # c row per piece, with one repr per run of equal k bits in a row
    scan: ScanResult | None = None

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts)


# What a handler returns: its verdicts and, for redheffer-scan only, the
# scan grid (Report.scan).
Outcome = tuple[list[Verdict], ScanResult | None]

# The scan CSV's k runs are marked over blocks of this many c rows: one
# numpy pass per block, while the texts of only one row are held at once.
RUN_BLOCK_ROWS = 8


def _handle_check_knopp(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    p, alpha = args.p, args.alpha
    w = knopp_sequence(p, alpha, args.n_max + 1)  # rejects p <= 1 first
    U = weighted_mean_constant(p, 0.0) if args.U is None else args.U
    verdict = knopp_criterion_check(
        w,
        p,
        tol,
        U=U,
        name=f"knopp[p={p},alpha={alpha},U={U}]",
        exploratory=alpha != 0.0,
    )
    return [verdict], None


def _handle_check_2_20(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    return [criterion_2_20_check(args.alpha, args.p, args.n_max, tol)], None


def _handle_check_reverse(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    w = levin_steckin_sequence(args.p, args.n_max + 1)
    return [reverse_criterion_check(w, args.p, tol)], None


def _handle_check_2_30(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    return [check_2_30(args.p, args.n_max, tol)], None


def _handle_check_2_4(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    if args.grid_points < 1:
        raise WorkbenchError("--grid-points must be >= 1")
    return [check_2_4(args.p, args.grid_points, tol)], None


def _handle_check_2_3(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    return [check_2_3(args.alpha, args.p, args.n_max, tol)], None


def _handle_redheffer_solve(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    sol = balance_solution_half(args.c, args.n_max)
    params, k = sol.params, sol.k
    return [
        Verdict("x", "x(c')", sol.residual < 1e-12, value=sol.x,
                detail=f"balance residual {sol.residual:.2e}"),
        Verdict("beta", "x(c')", params.beta <= 1.0, value=params.beta),
        Verdict("k", "k(p)", condition_6_50_check(params.p, params.c, k, tol),
                value=k),
        Verdict("reciprocal", "thm6", 1.0 / k > THEOREM6_FLOOR, value=1.0 / k),
    ], None


def _handle_redheffer_check(args: argparse.Namespace, tol: Tolerances) -> Outcome:
    params = RedhefferParams(p=args.p, c=args.c, beta=args.beta)
    k_val = k_of_p(params, args.n_max) if args.k is None else args.k
    reduced = condition_6_49_check(params, 2, k_val, tol)
    verdicts = [
        condition_6_49_check(params, args.n_max, k_val, tol),
        Verdict(
            f"6.50[p={params.p},c={params.c}]", "6.50",
            condition_6_50_check(params.p, params.c, k_val, tol), value=k_val,
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
    return [result.verdict], result


def _family(args: argparse.Namespace) -> SequenceFamily:
    kind, param, length = args.family, args.family_param, args.n_max
    if kind == "power_decay":
        return SequenceFamily(kind, length, 1.5 if param is None else param)
    if kind == "geometric":
        return SequenceFamily(kind, length, 0.5 if param is None else param)
    if param is not None:  # it would be echoed as if applied
        raise WorkbenchError(f"--family-param does not apply to --family {kind}")
    if kind == "random":
        return SequenceFamily(kind, length, args.seed)
    return SequenceFamily(kind, length)


def _operator(args: argparse.Namespace) -> OperatorSpec:
    if args.kind == "weighted-mean":
        alpha = 1.0 if args.alpha is None else args.alpha
        return OperatorSpec("weighted_mean", args.n_max, alpha=alpha)
    if args.alpha is not None:  # it would be echoed as if applied
        raise WorkbenchError("--alpha does not apply to --kind copson-tail")
    return OperatorSpec("copson_tail", args.n_max)


def _handle_norm_ratio(args: argparse.Namespace) -> Outcome:
    op = _operator(args)
    fam = _family(args)
    ratio = norm_ratio(op, fam, args.p)
    return [
        Verdict(
            f"norm-ratio[{op.kind},{fam.label()}]", "(8)", True, value=ratio,
            detail="measurement, not a criterion",
        )
    ], None


def _handle_extremal_search(args: argparse.Namespace) -> Outcome:
    op = _operator(args)
    p = args.p
    result = extremal_search(op, p, default_power_grid(p, args.n_max))
    return [
        Verdict(
            f"extremal[{op.kind},p={p}]", "(8)", True, value=result.best_ratio,
            detail=f"best family {result.best_family.label()}",
        )
    ], None


def _handle_verify_paper(args: argparse.Namespace) -> Outcome:
    return run_verification(args.n_max, args.seed), None


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


def render_csv_pieces(report: Report) -> Iterator[str]:
    """The CSV report in pieces: the header and the verdict rows as one,
    then, for redheffer-scan, one per c row of the grid points."""
    head = io.StringIO()
    writer = csv.DictWriter(
        head,
        ["claim", "paper_ref", "holds", "min_slack", "first_failure",
         "exploratory", "value"],
        extrasaction="ignore",
    )
    writer.writeheader()
    writer.writerows(map(Verdict.to_dict, report.verdicts))
    yield head.getvalue()
    if report.scan is not None:
        yield from _scan_rows(report.scan)


def _scan_rows(scan: ScanResult) -> Iterator[str]:
    """The lines csv.writer writes for the grid points, one c row per
    piece.

    The label always holds a comma, so it is quoted; floats print as repr,
    bools as str.  A row's text is its prefix ('"scan-point[c=<c>,') and
    then two parts per point: the beta tail (through the verdict and the
    empty fields) and the point's k run text, repr(k) + CRLF + the prefix,
    or repr(k) + CRLF for the row's last point.  The tails are prebuilt for
    feasible points and patched where a point is not.  Along a c row, equal
    k sit in runs: one pass over a block of RUN_BLOCK_ROWS rows' bit
    patterns marks where each run starts (column 0 always), and each run's
    text is formed once, per row, and repeated over the run.  Equal bits are
    the same double and print the same, where equal floats would merge 0.0
    with -0.0.  The marks are made per block, not over the whole grid, so
    the renderer adds no grid-sized array to the scan's own (a 0.25 MiB
    mask over the grid added 0.18 MiB of peak RSS on the default grid).
    """
    betas = scan.beta_grid.tolist()
    width = len(betas)
    holds = [f'beta={beta}]",6.49,True,,,,' for beta in betas]
    fails = [f'beta={beta}]",6.49,False,,,,' for beta in betas]
    k = np.ascontiguousarray(scan.k, dtype=np.float64)
    bits = k.view(np.int64)
    marks = np.empty((RUN_BLOCK_ROWS, width), dtype=bool)
    parts = [""] * (2 * width + 1)
    for top in range(0, len(k), RUN_BLOCK_ROWS):
        rows = slice(top, top + RUN_BLOCK_ROWS)
        block = bits[rows]
        mark = marks[:len(block)]
        np.not_equal(block[:, 1:], block[:, :-1], out=mark[:, 1:])
        mark[:, 0] = True
        first = np.flatnonzero(mark)
        values = k[rows].ravel()[first]
        lengths = np.diff(first, append=mark.size).tolist()
        ends = np.count_nonzero(mark, axis=1).cumsum().tolist()
        feasible = scan.feasible[rows]
        start = 0
        for c, end, row_holds, row_feasible in zip(
            scan.c_grid[rows].tolist(), ends, feasible.all(axis=1).tolist(),
            feasible,
        ):
            parts[0] = prefix = f'"scan-point[c={c},'
            parts[1::2] = holds
            if not row_holds:
                for j in np.flatnonzero(~row_feasible).tolist():
                    parts[2 * j + 1] = fails[j]
            runs = values[start:end].tolist()
            parts[2::2] = chain.from_iterable(map(
                repeat, [f"{x!r}\r\n{prefix}" for x in runs], lengths[start:end]
            ))
            parts[-1] = f"{runs[-1]!r}\r\n"
            yield "".join(parts)
            start = end


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


# Each format's report as the pieces _write_report writes: JSON and text
# are one piece each.  The lambdas look their renderer up at each call, so
# a wrapper bound to the module's name (perfbench's tracer) sees the call.
_RENDERERS = {
    "json": lambda report: [render_json(report)],
    "csv": render_csv_pieces,
    "text": lambda report: [render_text(report)],
}


_P = ("--p", {"type": float, "required": True})
_ALPHA = ("--alpha", {"type": float, "required": True})
_KIND = ("--kind", {"choices": ("weighted-mean", "copson-tail"),
                    "default": "weighted-mean"})
_MEAN_ALPHA = ("--alpha", {"type": float})  # the weighted mean's; 1 if not given
# The flags every subcommand accepts and echoes.  Only verify-paper and
# norm-ratio --family random read --seed, and check-2-4 does not read
# --n-max; the others take both so that one call line (perfbench passes
# --seed to every call) fits them all.  _TOLERANT adds the tolerances that
# decide the verdicts of the check-* and redheffer-* subcommands.
_COMMON = (("--n-max", {"type": int, "default": 10000}),
           ("--seed", {"type": int, "default": DEFAULT_SEED}))
_TOLERANT = (*_COMMON,
             ("--tol-rel", {"type": float, "default": Tolerances.tol_rel}),
             ("--tol-abs", {"type": float, "default": Tolerances.tol_abs}))

# Each subcommand's handler and the flags it reads, in usage order; every
# subcommand also takes --format and --out.  A default that depends on
# other flags is left to the handler.
_COMMANDS = {
    "check-knopp": (_handle_check_knopp,
                    (_P, ("--alpha", {"type": float, "default": 0.0}),
                     ("--U", {"type": float}), *_TOLERANT)),  # U: q**p if not given
    "check-2-20": (_handle_check_2_20, (_P, _ALPHA, *_TOLERANT)),
    "check-reverse": (_handle_check_reverse, (_P, *_TOLERANT)),
    "check-2-30": (_handle_check_2_30, (_P, *_TOLERANT)),
    "check-2-4": (_handle_check_2_4,
                  (_P, ("--grid-points", {"type": int, "default": 50}),
                   *_TOLERANT)),
    "check-2-3": (_handle_check_2_3, (_P, _ALPHA, *_TOLERANT)),
    "redheffer-solve": (_handle_redheffer_solve,
                        (("--c", {"type": float, "default": 2.5}), *_TOLERANT)),
    "redheffer-check": (_handle_redheffer_check,
                        (_P, ("--c", {"type": float, "required": True}),
                         ("--beta", {"type": float, "required": True}),
                         ("--k", {"type": float}),  # k_of_p if not given
                         *_TOLERANT)),
    "redheffer-scan": (_handle_redheffer_scan, (_P, *_TOLERANT)),
    "norm-ratio": (_handle_norm_ratio,
                   (_P, _KIND, _MEAN_ALPHA,
                    ("--family", {"choices": ("power_decay", "delta",
                                              "geometric", "random"),
                                  "default": "power_decay"}),
                    ("--family-param", {"type": float}),  # per family if not given
                    *_COMMON)),
    "extremal-search": (_handle_extremal_search,
                        (_P, _KIND, _MEAN_ALPHA, *_COMMON)),
    "verify-paper": (_handle_verify_paper, _COMMON),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Finite-horizon checks for Hardy-type inequality criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        for flag, spec in flags:
            cmd.add_argument(flag, **spec)
        cmd.add_argument("--format", choices=tuple(_RENDERERS), default="text")
        cmd.add_argument("--out")
    return parser


def _echo_params(args: argparse.Namespace) -> dict:
    """The subcommand's own flags that have a value, sorted, then the common ones."""
    common = [k for k in ("seed", "tol_abs", "tol_rel", "format") if k in args]
    own = {
        k: v for k, v in sorted(vars(args).items())
        if k not in {"command", "n_max", "out", *common} and v is not None
    }
    return {**own, **{k: vars(args)[k] for k in common}}


def _write_report(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces of a report to the file out, or to standard output,
    one write each as they are rendered, then flush once; no more than one
    piece is held at a time.  A failed write raises WorkbenchError, except
    that a closed standard output pipe drops the rest.
    """
    try:
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
            for piece in pieces:
                fh.write(piece)
            fh.flush()
    except OSError as exc:
        if not out:
            # what is still buffered goes to os.devnull, so the flush at
            # exit does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):  # no reader, as under `| head`
                return
        target = f"--out {out}" if out else "standard output"
        raise WorkbenchError(f"cannot write {target}: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # rejected under the subcommand's usage line, which shows its flags
        (commands,) = (a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
        commands.choices[args.command].error(
            f"unrecognized arguments: {' '.join(extra)}"
        )
    try:
        for key, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                flag = "--" + key.replace("_", "-")
                raise WorkbenchError(f"{flag} must be finite, got {value}")
        if args.n_max < 1:
            raise WorkbenchError("n_max must be >= 1")
        if args.seed < 0:
            raise WorkbenchError("seed must be >= 0")
        # only a subcommand whose verdicts a tolerance decides takes one
        tol = [Tolerances(args.tol_abs, args.tol_rel)] if "tol_abs" in args else []
        start = time.perf_counter()
        verdicts, scan = _COMMANDS[args.command][0](args, *tol)
        report = Report(
            command=args.command,
            params=_echo_params(args),
            n_max=args.n_max,
            verdicts=sorted(verdicts, key=lambda v: v.claim),
            wall_time=time.perf_counter() - start,
            scan=scan,
        )
        _write_report(_RENDERERS[args.format](report), args.out)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a horizon too large for this machine
        flag = "--grid-points" if "grid_points" in vars(args) else "--n-max"
        reason = str(exc) or "MemoryError"
        print(f"error: out of memory ({reason}); reduce {flag}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if report.all_hold else 1


if __name__ == "__main__":
    raise SystemExit(main())
