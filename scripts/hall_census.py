#!/usr/bin/env python3
"""Census of Hall and reflexive relation counts per ground-set size.

Counts the 0/1 matrices containing a permutation by the transfer-matrix
method, then recomputes the same number with the independent oracle (Ryser's
permanent over row multisets) so the two can be compared side by side.

Usage:
  python scripts/hall_census.py --max-n 5
"""

import argparse
import time

from hallkit import count_hall, count_hall_inclusion_exclusion, count_reflexive


def main():
    parser = argparse.ArgumentParser(description="Hall relation census")
    parser.add_argument("--max-n", type=int, default=5, help="largest ground set (default: 5)")
    args = parser.parse_args()

    header = f"{'n':>2} {'reflexive':>12} {'hall (count)':>14} {'hall (oracle)':>14} {'agree':>6} {'count s':>9} {'oracle s':>9}"
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_n + 1):
        report = count_hall(n)
        t0 = time.perf_counter()
        oracle = count_hall_inclusion_exclusion(n)
        oracle_seconds = time.perf_counter() - t0
        agree = "yes" if oracle == report.total_hall else "NO"
        print(
            f"{n:>2} {count_reflexive(n):>12,} {report.total_hall:>14,}"
            f" {oracle:>14,} {agree:>6} {report.elapsed_seconds:>9.2f} {oracle_seconds:>9.2f}"
        )
        if agree == "NO":
            raise SystemExit(1)


if __name__ == "__main__":
    main()
