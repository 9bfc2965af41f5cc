#!/usr/bin/env python3
"""Convergence of normalized exponential sums toward the closed-form
amplitude, at a few wave numbers, across patch radii.

Usage: python scripts/weyl_convergence.py [--alpha A] [--beta B]
"""

import argparse

import numpy as np

from quasilattice import (
    AffineDeformation,
    AlgebraicNumber,
    deform_patch,
    project_patch,
    weyl_sums,
)
from quasilattice.diffraction import closed_form_amplitudes

K_VALUES = [AlgebraicNumber(1, 0, 2), AlgebraicNumber(0, 1, 4), AlgebraicNumber(2, 1, 4)]
# the same wave numbers as quarter-scaled columns k = (a4 + b4*sqrt2)/4
K_A4, K_B4 = np.array([k.quarter() for k in K_VALUES], dtype=np.int64).T
RADII = [100.0, 300.0, 1000.0, 3000.0, 10000.0]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=0.0)
    ap.add_argument("--beta", type=float, default=0.0)
    args = ap.parse_args()
    theta = AffineDeformation(args.alpha, args.beta)
    header = "radius".rjust(8) + "".join(f"  |err| k={k.value():+.4f}" for k in K_VALUES)
    print(header)
    analytic = np.array(closed_form_amplitudes(K_A4, K_B4, args.alpha, args.beta))
    for r in RADII:
        comb = deform_patch(project_patch(r), theta)
        errors = np.abs(weyl_sums(comb, K_A4, K_B4) - analytic)
        print(f"{r:8.0f}" + "".join(f"  {err:14.3e}" for err in errors))


if __name__ == "__main__":
    main()
