#!/usr/bin/env python
"""Regenerate every table and figure of the paper in one run.

Prints, paper-style:

* Table 1  — (FT, A, R) parameters of the FTMs
* Table 2  — the Before/Proceed/After execution scheme
* Table 3  — deployment vs differential-transition times (6×6 matrix)
* Figure 2 — the FTM transition graph
* Figure 4 — development effort (incremental-SLOC proxy)
* Figure 5 — SLOC per pattern element
* Figure 8 — the derived transition-scenario graph
* Figure 9 — transition-phase breakdown
* Sec. 6.2 — agile vs preprogrammed adaptation
* Sec. 5.3 — distributed-consistency fault-injection summary

Runs the Table 3 / Figure 9 simulations with ``--runs N`` repetitions
per cell (default 1 for a quick look; the tier-1 paper-claim tests use 3;
the paper averaged 100).
"""

import argparse
import sys

from repro.eval import (
    agility,
    consistency_eval,
    figure2,
    figure4,
    figure5,
    figure8,
    figure9,
    table1,
    table2,
    table3,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=1,
                        help="seeded repetitions per simulated cell")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulated artifacts")
    args = parser.parse_args(argv)

    failures = []

    def section(title, data, rendered, problems):
        print("\n" + rendered + "\n")
        if problems:
            failures.extend(f"{title}: {p}" for p in problems)
            print(f"  !! {len(problems)} claim(s) violated")
        else:
            print(f"  -> {title}: all claims reproduce")

    d1 = table1.generate()
    fidelity1 = table1.fidelity(d1)
    section(
        "Table 1", d1, table1.render(d1),
        [] if fidelity1["matches"] >= 30 else ["fidelity below 30/32"],
    )

    d2 = table2.generate()
    section("Table 2", d2, table2.render(d2), [])

    print("\nsimulating Table 3 (36 deployments + 90 transitions)...")
    d3 = table3.generate(runs=args.runs, jobs=args.jobs)
    section("Table 3", d3, table3.render(d3), table3.shape_checks(d3))

    df2 = figure2.generate()
    section("Figure 2", df2, figure2.render(df2), figure2.coverage(df2))

    df4 = figure4.generate()
    section("Figure 4", df4, figure4.render(df4), figure4.shape_checks(df4))

    df5 = figure5.generate()
    section("Figure 5", df5, figure5.render(df5), figure5.shape_checks(df5))

    df8 = figure8.generate()
    section("Figure 8", df8, figure8.render(df8), figure8.fidelity(df8))

    df9 = figure9.generate(runs=args.runs, jobs=args.jobs)
    section("Figure 9", df9, figure9.render(df9), figure9.shape_checks(df9))

    da = agility.generate()
    section("Sec 6.2 agility", da, agility.render(da), agility.shape_checks(da))

    dc = consistency_eval.generate(runs=max(2, args.runs), jobs=args.jobs)
    section(
        "Sec 5.3 consistency", dc, consistency_eval.render(dc),
        consistency_eval.shape_checks(dc),
    )

    print("\n" + "=" * 70)
    if failures:
        print(f"{len(failures)} reproduction claim(s) FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("every table and figure reproduces the paper's shape")
    return 0


if __name__ == "__main__":
    sys.exit(main())
