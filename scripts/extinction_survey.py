#!/usr/bin/env python3
"""Survey systematic extinctions over a family of exact slopes.

Rational slopes and slopes of the form 1 + r*sqrt2 produce exact zeros of
the amplitude on sublattices of the dual module; this script tabulates
how many land inside |k| <= k_max and what the surviving support spans.
"""

import argparse

from quasilattice import extinction_report, parse_exact

# 3-2*sqrt2 gives the interval ratio 2
FAMILY = [parse_exact(t) for t in (
    "0", "1", "2", "1/2", "1/3", "1+sqrt2", "1+1/2*sqrt2", "3-2*sqrt2",
)]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--kmax", type=float, default=4.0)
    args = ap.parse_args()
    print(f"{'alpha':>16}  {'extinct':>8}  {'survive':>8}  span")
    for alpha in FAMILY:
        rep = extinction_report(alpha, args.kmax)
        print(
            f"{alpha.text():>16}  {len(rep.extinctions):8d}  "
            f"{len(rep.survivors):8d}  {rep.span}"
        )


if __name__ == "__main__":
    main()
