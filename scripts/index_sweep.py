#!/usr/bin/env python3
"""Sweep the Lindeberg index estimate over power laws on the default grids.

    python3 scripts/index_sweep.py [SRC]

Imports ``contamclt`` from ``SRC`` (default: this checkout's ``src``), so two
revisions can be compared by pointing it at each one's source tree.  Tuples are
(p, a, s2, b), the argument order of ``ContaminationScheme.power_law``; every
scheme runs with the normal, uniform and Laplace bases.  The closed-form index
and the regime rule come from ``classify_power_law``.  It prints three counts,
each with a tolerance of 0.03, criterion 2's:

- a = b: 144 schemes, p in {0.05, 0.2, 0.5, 0.9}, s2 in {2, 4, 20, 100} and
  b in {1, 1.5, 2}, whose estimate misses the closed-form index L/(1+L),
  L = p*s2;
- above the bound: 960 schemes, p in {0.05, 0.2, 0.5, 0.9}, s2 in
  {2, 4, 25, 100}, a in {0.5, 1, 1.5, 2} and b in {0.5, 0.9, 1, 1.5, 2}, whose
  estimate exceeds ``lindeberg_upper_bound``;
- index 0: the 528 of those 960 classified with index 0 (b < 1 or a > b),
  whose estimate exceeds 0,
  and how many of these misses also exceed their bound.

Each miss above the bound is listed with its estimate and bound.  One process
takes a few minutes; it is not part of the tier-1 suite.
"""

from __future__ import annotations

import itertools
import os
import sys

TOL = 0.03
BASES = ("normal", "uniform", "laplace")


def main(src: str) -> int:
    sys.path.insert(0, os.path.abspath(src))
    from contamclt.analytic import (classify_power_law, lindeberg_index_estimate,
                                    lindeberg_upper_bound)
    from contamclt.model import ContaminationScheme, base_distribution

    def run(p, a, s2, b):  # (kind, estimate, bound) per base, sharing one memoized walk
        scheme = ContaminationScheme.power_law(p, a, s2, b)
        bound = lindeberg_upper_bound(scheme)
        return [(kind, lindeberg_index_estimate(scheme, base_distribution(kind)), bound)
                for kind in BASES]

    misses = [abs(est - classify_power_law(p, b, s2, b).lindeberg_index) > TOL
              for p, s2, b in itertools.product((0.05, 0.2, 0.5, 0.9), (2.0, 4.0, 20.0, 100.0),
                                                (1.0, 1.5, 2.0))
              for _, est, _ in run(p, b, s2, b)]
    print(f"a = b schemes missing L/(1+L) by more than {TOL}: {sum(misses)} of {len(misses)}")

    above, zero, zero_above, total, zero_total = [], 0, 0, 0, 0
    for p, s2, a, b in itertools.product((0.05, 0.2, 0.5, 0.9), (2.0, 4.0, 25.0, 100.0),
                                         (0.5, 1.0, 1.5, 2.0), (0.5, 0.9, 1.0, 1.5, 2.0)):
        index = classify_power_law(p, a, s2, b).lindeberg_index
        for kind, est, bound in run(p, a, s2, b):
            total += 1
            if est > bound + TOL:
                above.append(f"  ({p}, {a}, {s2}, {b}) {kind}: estimate {est:.4f}, "
                             f"bound {bound:.4f}")
            if index == 0.0:
                zero_total += 1
                zero += est > TOL
                zero_above += est > TOL and est > bound
    print(f"power laws more than {TOL} above their bound: {len(above)} of {total}")
    for line in above:
        print(line)
    print(f"index-0 schemes (b < 1 or a > b) above {TOL}: {zero} of {zero_total}, "
          f"{zero_above} of them above their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else
                  os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "src")))
