import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hardylab
from hardylab import compsum, criteria, operators, reports, sequences
from hardylab.reports import fold_report

# The environment under which numpy takes its loops below AVX-512, which
# equal libm bit for bit, on an AVX-512 machine as on any other.
WITHOUT_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# (where, argv) of each call tests/test_cli.py makes to cli.main: the names
# of the test class and function making it, then "_traced_peak" for a call
# a memory gate measures, and the argv without --format and --out
_CLI_CALLS: list[tuple[tuple[str, ...], tuple[str, ...]]] = []


def _traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes traced while fn(*args, **kwargs) runs, over what was
    traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def child_env(extra_env: dict) -> dict:
    """The environment of a child Python process that imports this
    checkout's package, with numpy's dispatch variable taken from extra_env
    only."""
    src = str(Path(hardylab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**env, **extra_env}


def python_output(script: str, extra_env: dict, *args: str) -> str:
    """Standard output of ``python -c script *args`` in child_env(extra_env)."""
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=child_env(extra_env),
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout


@pytest.fixture
def traced_peak():
    """The memory gates' measure: bytes of the largest allocation peak of
    one call, numpy arrays included."""
    return _traced_peak


def _with_slacks(check, *args, **kwargs):
    """(verdict, slacks) of check(*args, **kwargs): its verdict and the
    per-index slacks it folded into it, which a verdict does not keep.

    Every verdict of slacks goes through reports.fold_report, which the
    streamed checks call by the name criteria imported and build_report
    by its own module's name; the spy copies each block, since the blocks
    share buffers, and joins them."""
    seen = []

    def spy(name, ref, n_lo, blocks, **options):
        parts = []

        def copied():
            for slacks, log_rhs in blocks:
                parts.append(np.array(slacks, dtype=float))
                yield slacks, log_rhs

        verdict = fold_report(name, ref, n_lo, copied(), **options)
        seen.append(np.concatenate(parts))
        return verdict

    with pytest.MonkeyPatch.context() as patch:
        for module in (criteria, reports):
            patch.setattr(module, "fold_report", spy)
        verdict = check(*args, **kwargs)
    (slacks,) = seen
    return verdict, slacks


@pytest.fixture(scope="session")
def with_slacks():
    """Run one criterion check and return its verdict and per-index slacks
    (see _with_slacks).  It holds no state, so property tests may use it."""
    return _with_slacks


def _without_output_flags(argv) -> tuple[str, ...]:
    """argv without --format and --out, spaced or with '='."""
    kept, args = [], iter(argv)
    for arg in args:
        if arg in ("--format", "--out"):
            next(args, None)  # its value
        elif not arg.startswith(("--format=", "--out=")):
            kept.append(arg)
    return tuple(kept)


@pytest.fixture(autouse=True, scope="module")
def _record_cli_calls(request):
    """Record each call the module tests/test_cli.py makes to its main."""
    if request.module.__name__ != "test_cli":
        yield
        return
    main = request.module.main

    def recording(argv):
        test = os.environ["PYTEST_CURRENT_TEST"].split(" ")[0].split("[")[0]
        where = test.split("::")[1:]
        if tracemalloc.is_tracing():
            where.append("_traced_peak")
        _CLI_CALLS.append((tuple(where), _without_output_flags(argv)))
        return main(argv)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(request.module, "main", recording)
        yield


@pytest.fixture(scope="session")
def cli_calls():
    """The calls recorded so far in this session (see _CLI_CALLS)."""
    return _CLI_CALLS


@pytest.fixture
def scans(monkeypatch):
    """The length of the series each compensated scan runs over, one entry
    per compsum.NeumaierScan made from now on, in the order they are made
    (a scan is fed block by block; the entry sums its blocks)."""
    totals: list[int] = []

    class Counted(compsum.NeumaierScan):
        def __init__(self, *args):
            super().__init__(*args)
            self._entry = len(totals)
            totals.append(0)

        def __call__(self, xb, out):
            totals[self._entry] += len(xb)
            return super().__call__(xb, out)

    for module in (compsum, sequences, operators):
        monkeypatch.setattr(module, "NeumaierScan", Counted, raising=False)
    return totals
