"""Layer probes that run outside any CLI invocation; prints one JSON object.

    python3 perfbench/probes.py

* ``quadfield.add_us`` / ``quadfield.cmp_us``: one AlgebraicNumber addition
  and one exact comparison, in microseconds (best of 3 repeats).
* ``<module>.<function>.scaling_exp``: log-log slope of time against point
  count over 2-3 sizes, to check the rule that no layer scales worse than
  O(N log N) (slope about 1).  Each size is timed as the best of repeats
  totalling at least 0.3 s, or once when a single call takes longer.
"""

from __future__ import annotations

import json
import math
import time
import timeit


def _best(fn, min_total: float = 0.3):
    best, spent, result = math.inf, 0.0, None
    while spent < min_total:
        t = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t
        best, spent = min(best, dt), spent + dt
    return best, result


def _slope(sizes: list[int], times: list[float]) -> float:
    xs, ys = [math.log(n) for n in sizes], [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _scaling(run, args) -> float:
    """run(arg) -> (seconds, point count)."""
    sizes, times = [], []
    for arg in args:
        seconds, n = run(arg)
        sizes.append(n)
        times.append(seconds)
    return _slope(sizes, times)


def main() -> None:
    from quasilattice.cutproject import project_patch, sigma_estimate, silver_window
    from quasilattice.deform import DiracComb, LocalKernel, deform_measure
    from quasilattice.diffraction import autocorrelation_finite
    from quasilattice.quadfield import ZERO, AlgebraicNumber, exact_compare
    from quasilattice.substitution import fixed_point_patch

    ops = 10000
    env = {"x": AlgebraicNumber(3, 2, 4), "y": AlgebraicNumber(-5, 7, 2), "cmp": exact_compare}
    out = {
        "quadfield.add_us": min(timeit.repeat("x + y", globals=env, number=ops, repeat=3)) / ops * 1e6,
        "quadfield.cmp_us": min(timeit.repeat("cmp(x, y)", globals=env, number=ops, repeat=3)) / ops * 1e6,
    }

    def timed_points(fn):
        seconds, result = _best(fn)
        return seconds, len(result)

    def timed_on_comb(fn, radius):
        comb = DiracComb.from_patch(project_patch(radius))
        seconds, _ = _best(lambda: fn(comb))
        return seconds, len(comb)

    def sigma(radius):
        patch = project_patch(radius)
        seconds, _ = _best(lambda: sigma_estimate(patch, silver_window()))
        return seconds, len(patch)

    kernel = LocalKernel(1.0, {}, ((ZERO, 1.0 + 0j),))
    out["cutproject.project_patch.scaling_exp"] = _scaling(
        lambda r: timed_points(lambda: project_patch(r)), (1e3, 3e3, 1e4))
    out["substitution.fixed_point_patch.scaling_exp"] = _scaling(
        lambda lv: timed_points(lambda: fixed_point_patch(lv)), (8, 10, 12))
    out["deform.deform_measure.scaling_exp"] = _scaling(
        lambda r: timed_on_comb(lambda c: deform_measure(c, kernel), r), (1e3, 2e3, 4e3))
    out["diffraction.autocorrelation_finite.scaling_exp"] = _scaling(
        lambda r: timed_on_comb(autocorrelation_finite, r), (100.0, 300.0, 1000.0))
    out["cutproject.sigma_estimate.scaling_exp"] = _scaling(sigma, (300.0, 1000.0))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
