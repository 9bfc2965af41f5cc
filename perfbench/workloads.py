"""The benchmark's workloads and the seeded inputs each one receives.

Each workload is one CLI invocation chosen so that a different layer of the
pipeline dominates its time (see perfbench/README.md for the map).  The seed
draws the only free inputs: the affine offset beta of ``diffract-affine`` and
the piecewise-linear breakpoint values of ``diffract-pwl``.  The program sees
only the generated arguments and config file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("generate", "diffract-affine", "diffract-exact", "diffract-pwl")

# pwl theta: fixed abscissae covering the window [-sqrt2/2, sqrt2/2], a fixed
# profile, and a seeded jitter.  The spread stays below 0.17 < 1 and the
# slopes below 0.4, so the deformation is admissible for every seed.  The
# jitter is small so that the Weyl-vs-analytic residual stays within about 1%
# across seeds (a jitter of 0.02 spread it by up to 24%).
_PWL_Y = (-0.75, -0.375, 0.0, 0.375, 0.75)
_PWL_PROFILE = (0.0, 0.12, 0.05, 0.15, 0.02)
_PWL_JITTER = 0.005


@dataclass(frozen=True)
class Inputs:
    """Everything one workload invocation receives, and what checking needs."""

    workload: str
    args: tuple[str, ...]  # CLI arguments, without --out/--svg/--config
    radius: int
    k_max: int = 0
    floor: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    pwl: tuple[tuple[float, float], ...] = ()
    svg: bool = False
    # stated tolerance on the empirical-vs-analytic residual (diffract) or on
    # |density - 1/2| (generate); the measured values are in README.md
    max_error_tol: float = 0.0

    @property
    def is_diffract(self) -> bool:
        return self.args[0] == "diffract"

    def config(self) -> dict | None:
        if not self.pwl:
            return None
        return {"deformation": {"kind": "pwl", "points": [list(p) for p in self.pwl]}}

    def cli_args(self, out_dir: Path) -> list[str]:
        """Full CLI argument list writing into out_dir (config file written there)."""
        argv = [*self.args, "--out", str(out_dir)]
        if self.svg:
            argv += ["--svg", str(out_dir / "spectrum.svg")]
        cfg = self.config()
        if cfg is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "config.json"
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            argv += ["--config", str(path)]
        return argv


def build(workload: str, seed: int) -> Inputs:
    """Inputs of a workload for a seed; the same seed gives the same inputs.

    Sizes keep one invocation near 2-3 s on the reference machine, so that a
    20 s run holds 7-10 invocations and its median is steady (see README.md).
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "generate":
        # exact construction alone: projection dominates, diffraction idle
        return Inputs(workload, ("generate", "--radius", "30000"), 30000,
                      max_error_tol=1e-4)
    if workload == "diffract-affine":
        # float Weyl sums over a 3k-point comb dominate; 301 scan candidates
        beta = "%.6f" % rng.random()
        return Inputs(
            workload,
            ("diffract", "--radius", "3000", "--alpha", "0.5", "--beta", beta,
             "--kmax", "2", "--floor", "1e-4"),
            3000, k_max=2, floor=1e-4, alpha=0.5, beta=float(beta), svg=True,
            max_error_tol=3e-3,
        )
    if workload == "diffract-exact":
        # exact closed-form scan over ~12k dual candidates; 9-point comb
        return Inputs(
            workload,
            ("diffract", "--radius", "10", "--alpha", "3-2*sqrt2",
             "--kmax", "3", "--floor", "1e-7"),
            10, k_max=3, floor=1e-7, alpha=3.0 - 2.0 * math.sqrt(2.0),
            max_error_tol=0.5,
        )
    if workload == "diffract-pwl":
        # quadrature amplitudes dominate; substitution-mode patch building
        values = [round(v + rng.uniform(-_PWL_JITTER, _PWL_JITTER), 6)
                  for v in _PWL_PROFILE]
        return Inputs(
            workload,
            ("diffract", "--mode", "substitution", "--radius", "1000",
             "--kmax", "2", "--floor", "4e-4"),
            1000, k_max=2, floor=4e-4, pwl=tuple(zip(_PWL_Y, values)),
            max_error_tol=1e-2,
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
