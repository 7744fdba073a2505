#!/usr/bin/env python3
"""Survey nilpotent vs unipotent adjoint partitions over random classical data.

Samples (kind, lambda, p) triples, p in {2, 3, 5, 7, 11, 13} for every
kind, computes both adjoint partitions and tallies agreement, separating
good and bad characteristic.  With a good prime the two sides always agree;
at p = 2 the symplectic and orthogonal cases split.  A disagreement in
good characteristic prints its (kind, lambda, p) and exits with status 1.

Usage: python scripts/adjoint_survey.py [count] [seed]
"""

import random
import sys

from jordanblocks.classical import KINDS, good_char_report
from jordanblocks.verify import sample_classical_case

PRIMES = {kind: (2, 3, 5, 7, 11, 13) for kind in KINDS}


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(f"survey:{seed}")
    agree_good = agree_bad = split_bad = 0
    for _ in range(count):
        kind, lam, p = sample_classical_case(rng, primes=PRIMES)
        report = good_char_report(kind, lam, p)
        if report.good_characteristic:
            if not report.equal:
                print(f"good characteristic disagrees: kind={kind} lambda={tuple(lam)} p={p} "
                      f"ad={report.nilpotent.compressed()} Ad={report.unipotent.compressed()}")
                sys.exit(1)
            agree_good += 1
        elif report.equal:
            agree_bad += 1
        else:
            split_bad += 1
            print(f"split at p={p}: {kind} {lam.compressed():12s} "
                  f"ad={report.nilpotent.compressed()} Ad={report.unipotent.compressed()}")
    print(f"\n{count} samples: {agree_good} good-characteristic (all agree), "
          f"{agree_bad} bad-characteristic agreeing, {split_bad} bad-characteristic splitting")


if __name__ == "__main__":
    main()
