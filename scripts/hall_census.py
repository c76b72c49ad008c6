#!/usr/bin/env python3
"""Census of Hall and reflexive relation counts per ground-set size.

Counts the 0/1 matrices containing a permutation by the transfer-matrix
method, then recomputes the same number with the independent oracle so the
two can be compared side by side. The oracle runs no matching: it expands
the permanent along the last two rows. The first n-2 rows range over their
column-orbit representatives (multisets of rows up to a permutation of the
columns, each weighted by the row sequences it stands for); Ryser's formula
gives each one's permanent with any two columns deleted, and these count the
pairs of last rows that complete a Hall matrix.

For n up to the census cap the Hall idempotents are counted twice as well:
by count_hall's idempotent census (squaring the matrices that contain one
permutation per cycle type) and by count_preorders (one-point extension of
preorders, pure Python). Beyond the cap both idempotent columns show "-".
The script exits 1 when either pair of methods disagrees, or when the census
finds a Hall idempotent that is not reflexive.

Usage:
  python scripts/hall_census.py --max-n 6
"""

import argparse
import time

from hallkit import count_hall, count_hall_inclusion_exclusion, count_preorders, count_reflexive
from hallkit.enumeration import MAX_CENSUS_DIM, MAX_COUNT_DIM


def main():
    parser = argparse.ArgumentParser(description="Hall relation census")
    parser.add_argument("--max-n", type=int, default=6, help="largest ground set (default: 6)")
    args = parser.parse_args()
    if not 1 <= args.max_n <= MAX_COUNT_DIM:
        parser.error(f"--max-n must be between 1 and {MAX_COUNT_DIM}")

    header = (
        f"{'n':>2} {'reflexive':>13} {'hall (count)':>14} {'hall (oracle)':>14}"
        f" {'idem (census)':>13} {'idem (preorders)':>16} {'agree':>6} {'count s':>9} {'oracle s':>9}"
    )
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_n + 1):
        report = count_hall(n)
        t0 = time.perf_counter()
        oracle = count_hall_inclusion_exclusion(n)
        oracle_seconds = time.perf_counter() - t0
        ok = oracle == report.total_hall
        census = preorders = "-"
        if n <= MAX_CENSUS_DIM:
            census, preorders = report.idempotent_hall, count_preorders(n)
            ok = ok and census == preorders and report.idempotents_all_reflexive
        print(
            f"{n:>2} {count_reflexive(n):>13,} {report.total_hall:>14,} {oracle:>14,}"
            f" {census:>13} {preorders:>16} {'yes' if ok else 'NO':>6}"
            f" {report.elapsed_seconds:>9.2f} {oracle_seconds:>9.2f}"
        )
        if not ok:
            raise SystemExit(1)


if __name__ == "__main__":
    main()
