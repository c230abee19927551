#!/usr/bin/env python3
"""File the benchmark's run records as BENCH_<label>.json at the repo root.

perfbench/run.py writes the record of each run to
.perfbench_out/result-<workload>-seed<seed>-trace<trace>.json in the
checkout it runs from.  This script gathers every such record into one
file, keyed by the record's name, to commit next to a performance change:

    python scripts/bench_record.py <label> [--checkout DIR]

DIR is the checkout whose .perfbench_out/ is read (default: this one), so
the runs of a second checkout, such as one of the parent commit, can be
filed here too.  Runs of the same seed overwrite each other's record, so
give each run to be kept its own seed.
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the file BENCH_<label>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose .perfbench_out/ is read")
    args = parser.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("label may hold only letters, digits, '.', '_' and '-'")
    out_dir = args.checkout / ".perfbench_out"
    paths = sorted(out_dir.glob("result-*.json"))
    if not paths:
        parser.error(f"no result-*.json in {out_dir}")
    record = {path.stem: json.loads(path.read_text()) for path in paths}
    target = ROOT / f"BENCH_{args.label}.json"
    target.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{target.name}: {len(record)} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
