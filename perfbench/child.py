"""Fresh-process measurements, run by run.py one child at a time.

    python3 perfbench/child.py setup
        seconds to import hardylab.cli and build its parser, i.e. to be
        ready for a first command
    python3 perfbench/child.py pass <workload> <seed>
        peak resident memory of a process that imports hardylab and runs
        one pass of the workload, its CLI output sent to os.devnull

Each prints one JSON object on standard output.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def setup() -> dict:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hardylab.cli

    hardylab.cli.build_parser()
    return {"setup_s": time.perf_counter() - start}


def one_pass(workload: str, seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    import hardylab.cli

    import workloads

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in workloads.calls(workload, seed):
            # Failed calls are counted by the in-process passes of run.py;
            # here only the memory high-water mark matters.
            with contextlib.suppress(Exception, SystemExit):
                hardylab.cli.main(argv)
    return {"peak_rss_mb": peak_rss_kib() / 1024}


def peak_rss_kib() -> int:
    """High-water resident set of this process image.

    Not ru_maxrss: Linux carries the parent's high-water mark into a child
    across fork and exec, so a child of a large parent would report the
    parent's peak.  VmHWM belongs to the address space exec created.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        result = setup()
    else:
        result = one_pass(sys.argv[2], int(sys.argv[3]))
    print(json.dumps(result))
