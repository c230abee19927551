#!/usr/bin/env python3
"""Sweep the reverse-regime exponent and report the best feasible constant.

For each p the default (c, beta) grid is scanned; the winning point's k is
re-verified against the full feasibility family up to --n-max.  The implied
tail-mean constant is 1/k, printed next to the reference value
(p/(1-p))**p = 1/k of the equality route c = 1/p - 1, k = c**p, whose beta
makes the first branch equal c**(1-p) k.  That route holds the slope
condition only with equality, so it needs the curvature condition
beta < 1/(2p) - 1 (6.54) instead, and its n = 2 branch must stay below
c**(1-p) k (6.51).  Both hold for 0.30 <= p <= 0.34, and there the
printed 1/k matches the reference to the printed digits.  Past p = 0.342 the n = 2
branch exceeds the bound, past p = 0.367 the curvature condition fails as
well, and the best 1/k falls below the reference: --n-max 200 --steps 3
prints 0.831766 against 0.839917 at p = 0.39 and 0.860275 against
0.962308 at p = 0.48.

Usage:
    python scripts/reverse_constant_scan.py [--n-max 10000]
"""

import argparse

import numpy as np

from hardylab.redheffer import scan_params


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-max", type=int, default=10000)
    parser.add_argument("--p-min", type=float, default=0.30)
    parser.add_argument("--p-max", type=float, default=0.48)
    parser.add_argument("--steps", type=int, default=10)
    args = parser.parse_args()

    print(f"{'p':>8} {'feasible':>10} {'best c':>9} {'best beta':>10} "
          f"{'k':>10} {'1/k':>10} {'(p/(1-p))^p':>12} {'verified':>9}")
    for p in np.linspace(args.p_min, args.p_max, args.steps):
        result = scan_params(float(p), n_max=args.n_max)
        reference = (p / (1.0 - p)) ** p
        if result.best is None:
            print(f"{p:8.4f} {'none':>10}")
            continue
        best, k = result.best, result.verdict.value
        verified = "yes" if result.verdict.holds else "NO"
        print(f"{p:8.4f} {result.feasible_count:>10} {best.c:9.4f} "
              f"{best.beta:10.4f} {k:10.6f} {1.0 / k:10.6f} "
              f"{reference:12.6f} {verified:>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
