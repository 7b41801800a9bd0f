#!/usr/bin/env python
"""Regenerate every table and figure of the paper in one run.

Walks the artifact table (``repro.eval.ARTIFACTS``) the way
``python -m repro reproduce`` does, printing each artifact paper-style
with its claims checked, but keeps no result store: everything is
simulated afresh.  ``--runs N`` sets the seeded repetitions per
simulated cell (default 1 for a quick look; the tier-1 paper-claim
tests use 3; the paper averaged 100).
"""

import argparse
import sys

from repro.eval import ARTIFACTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=1,
                        help="seeded repetitions per simulated cell")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulated artifacts")
    args = parser.parse_args(argv)
    options = argparse.Namespace(runs=args.runs, seed=0)

    failures = []
    for artifact in ARTIFACTS:
        if artifact.reproduce:
            outcome = artifact.run(artifact.spec(options), jobs=args.jobs)
            status = ("all claims reproduce" if not outcome.problems
                      else f"FAILS: {outcome.problems}")
            print(f"\n{outcome.text}\n  -> {artifact.title}: {status}")
            failures += outcome.problems
    if failures:
        print(f"\n{len(failures)} reproduction claim(s) FAILED")
        return 1
    print("\nevery table and figure reproduces the paper's shape")
    return 0


if __name__ == "__main__":
    sys.exit(main())
