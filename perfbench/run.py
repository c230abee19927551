"""hardylab benchmark: CLI workloads run in process and checked against a reference.

    python3 perfbench/run.py --workload paper-1e4 --seed 12345 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Run from any directory; paths are taken from this file's location.  Each
pass calls ``hardylab.cli.main(argv)`` for every call of the workload in this
one single-threaded process, and passes repeat until ``--seconds`` of pass
time have gone by (at least three).  Every output is checked against
``reference.json`` and against the first pass (byte-identical apart from
``wall_time``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
pass time in units of a reference loop timed around each call, set-up time
and peak memory measured in fresh child processes (one alive at a time, run
between passes), and the correctness figures.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, spans recorded
by ``tracer.py`` from outside the program.  Details of each run, and the raw
spans, go to ``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 when every output is correct, 1 otherwise or when the program cannot be
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import check
import workloads
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES = 3
SETUP_CHILDREN = 11
CHILD_TIMEOUT_S = 170
MAX_DIGITS = 16.0


def import_cli():
    """hardylab.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import hardylab.cli

    if Path(hardylab.cli.__file__).resolve().parent != SRC / "hardylab":
        raise ImportError(f"hardylab imported from {hardylab.cli.__file__}, not {SRC}")
    return hardylab.cli


class Sink:
    """Stands in for stdout during a call; keeps what the CLI writes."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run_call(cli, argv: list[str]) -> tuple[int | None, str | None, str | None]:
    """Exit code, output and traceback of one call.

    A call that raises has no exit code; a rejected argument list
    (argparse's SystemExit) has no output.
    """
    sink = Sink()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        return exc.code, None, None
    except Exception:
        return None, None, traceback.format_exc()
    return code, "".join(sink.parts), None


def run_pass(cli, argvs):
    """Seconds the calls of one pass took, their results, and the pass time
    in units of the reference loop: each call's time divided by the mean
    of the reference loops run just before and just after it, summed."""
    gc.collect()
    elapsed = relative = 0.0
    results = []
    before = reference_loop()
    for argv in argvs:
        start = time.perf_counter()
        results.append(run_call(cli, argv))
        seconds = time.perf_counter() - start
        after = reference_loop()
        elapsed += seconds
        relative += seconds / ((before + after) / 2)
        before = after
    return elapsed, results, relative


def reference_loop() -> float:
    """Seconds for a fixed mix of interpreter, string and numpy work.

    A shared machine's speed drifts by up to a factor of 1.8, over seconds
    to minutes, with the load other tenants put on its cores.  This loop
    is independent of the program; timed around every call of a pass, it
    measures the speed the pass ran at.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 40_000):
        total += math.fsum((float(i) ** 0.5, 1.0 / i))
    "".join([f"{i},{i * 0.5!r},True\n" for i in range(20_000)])
    values = np.arange(1.0, 200_001.0)
    for _ in range(10):
        np.cumsum(np.sqrt(values))
    return time.perf_counter() - start


class Checker:
    """Operation accounting, reference comparison and determinism over passes.

    An operation fails when the call raises or exits with a status other
    than 0 (all verdicts hold) or 1 (a verdict fails).
    """

    def __init__(self, expected: dict, full: bool):
        self.expected = expected
        self.full = full
        self.first: dict[str, str] = {}
        self.outcomes: dict[tuple, check.Outcome] = {}
        self.attempted = self.failed = self.nondeterministic = 0
        self.checked = self.mismatched = 0
        self.drift = 0.0
        self.notes: list[str] = []
        self.errors: set[str] = set()

    def add(self, argv, code, text, error) -> None:
        key = workloads.call_key(argv)
        self.attempted += 1
        self.failed += code not in (0, 1)
        if error is not None and error not in self.errors:
            self.errors.add(error)
            print(f"{key} raised:\n{error}", file=sys.stderr)
        digest = None if text is None else check.digest(check.normalized(text))
        if digest is not None and self.first.setdefault(key, digest) != digest:
            self.nondeterministic += 1
            self.notes.append(f"{key}: output differs from the first pass")
        outcome = self.outcomes.get((key, code, digest))
        if outcome is None:
            outcome = check.Outcome(self.expected[key], code, text, self.full)
            self.outcomes[(key, code, digest)] = outcome
            self.notes += [f"{key}: {note}" for note in outcome.notes]
        self.checked += outcome.checked
        self.mismatched += outcome.mismatched
        self.drift = max(self.drift, outcome.drift)

    def add_pass(self, argvs, results) -> None:
        for argv, result in zip(argvs, results):
            self.add(argv, *result)

    @property
    def correct(self) -> bool:
        return not (self.failed or self.mismatched or self.nondeterministic)

    def agree_digits(self) -> float:
        """Decimal digits to which min_slack and value match the reference."""
        if self.drift == 0.0:
            return MAX_DIGITS
        return min(MAX_DIGITS, max(0.0, -math.log10(self.drift)))


def child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_plain(cli, workload: str, seed: int, seconds: float, checker) -> dict:
    argvs = workloads.calls(workload, seed)
    times: list[float] = []
    ratios: list[float] = []
    setup: list[float] = []
    rss = None
    # The fresh-process samples run between passes, spread over the run:
    # the speed of a shared machine drifts over tens of seconds, so samples
    # taken back to back would all see one state, and the timed passes
    # cover a longer stretch of time.
    while len(times) < MIN_PASSES or sum(times) < seconds:
        elapsed, results, relative = run_pass(cli, argvs)
        times.append(elapsed)
        ratios.append(relative)
        checker.add_pass(argvs, results)
        expected_passes = max(MIN_PASSES, math.ceil(seconds / times[0]))
        for _ in range(min(math.ceil(SETUP_CHILDREN / expected_passes),
                           SETUP_CHILDREN - len(setup))):
            setup.append(child("setup")["setup_s"])
        if rss is None and len(times) >= expected_passes // 2:
            rss = child("pass", workload, str(seed))["peak_rss_mb"]
    while len(setup) < SETUP_CHILDREN:
        setup.append(child("setup")["setup_s"])
    if rss is None:
        rss = child("pass", workload, str(seed))["peak_rss_mb"]
    ops_failed_frac = checker.failed / checker.attempted
    metrics = {
        "wall_ref": statistics.median(ratios),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "ops_ok_frac": 1.0 - ops_failed_frac,
        "verdict_match_frac": 1.0 - checker.mismatched / checker.checked,
        "slack_agree_digits": checker.agree_digits(),
    }
    q1, _, q3 = statistics.quantiles(times, n=4)
    report = [
        f"wall_s {statistics.median(times):.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
        f"{len(times)} passes",
        f"ops_failed_frac {ops_failed_frac:g} "
        f"({checker.failed} of {checker.attempted} calls)",
        f"verdict_mismatch {checker.mismatched} (of {checker.checked} items checked)",
        f"slack_drift_rel {checker.drift:g} (budget {check.DRIFT_BUDGET:g})",
    ]
    details = {"pass_s": times, "pass_ref": ratios, "setup_children_s": setup}
    return {"metrics": metrics, "report": report, "details": details}


def measure_traced(cli, workload: str, seed: int, seconds: float, checker) -> dict:
    argvs = workloads.calls(workload, seed)
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    passes: list[list] = []
    while not (plain and traced) or sum(plain) + sum(traced) < seconds:
        tracing = len(plain) > len(traced)
        if tracing:
            tracer.install()
        try:
            elapsed, results, _ = run_pass(cli, argvs)
        finally:
            tracer.uninstall()
        if tracing:
            traced.append(elapsed)
            passes.append(tracer.take())
        else:
            plain.append(elapsed)
        checker.add_pass(argvs, results)
    per_pass = [layer_metrics(tracer.names, spans) for spans in passes]
    # Counts repeat exactly, so the first pass gives them; times are medians.
    metrics = {name: statistics.median(p[name] for p in per_pass)
               if name.endswith("_s") else value
               for name, value in per_pass[0].items()}
    # Each traced pass minus the untraced pass just before it, so that both
    # sides of a difference share the machine's load at that moment.
    metrics["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced, plain))
    report = [f"traced passes {len(traced)}, untraced passes {len(plain)}"]
    # Byte counts of JSON output vary with the digits of wall_time.
    report += [f"{name}: count differs between traced passes"
               for name in per_pass[0]
               if not name.endswith("_s") and name != "cli.bytes_written"
               and len({p[name] for p in per_pass}) > 1]
    spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps({"names": tracer.names, "passes": passes},
                                     separators=(",", ":")))
    details = {"traced_pass_s": traced, "untraced_pass_s": plain,
               "spans_file": spans_file.name}
    return {"metrics": metrics, "report": report, "details": details}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    # sizes read like "107520K"; the last-level cache has the highest level
    levels = [(_read(d / "level").strip(), _read(d / "size").strip())
              for d in caches.glob("index*")]
    llc = max(levels, default=("", ""))[1]
    if llc.endswith("K") and llc[:-1].isdigit():
        llc = f"{int(llc[:-1]) / 1024:g} MiB"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc": llc or "unknown",
        "note": "no bandwidth ratio is reported: these kernels are "
                "interpreter-bound, so bytes are computed, not measured",
    }


def run_workload(cli, spec: dict, reference: dict, args, env: dict) -> dict:
    checker = Checker(reference["workloads"][args.workload]["calls"],
                      full=args.seed == reference["seed"])
    measure = measure_traced if args.trace else measure_plain
    result = measure(cli, args.workload, args.seed, args.seconds, checker)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name in units:
        print(f"  {name:32s} {result['metrics'][name]:.6g} {units[name]}")
    for line in result["report"]:
        print(f"  {line}")
    print(f"  nondeterministic outputs {checker.nondeterministic}")
    for note in checker.notes:
        print(f"  MISMATCH {note}")
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": checker.correct,
        "notes": checker.notes, **result,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(summary, indent=1))
    return {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]} for n in units},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 1
    reference = json.loads((HERE / "reference.json").read_text())
    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    OUT_DIR.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        args.workload = name
        results[name] = run_workload(cli, spec, reference, args, env)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
