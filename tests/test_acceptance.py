"""Acceptance suite.

One test per criterion, run at the stated tolerance, printing one
pass/fail line each (visible with pytest -s or in the captured output of
a failing run).

Criterion 10 carries a width bound that the estimator provably cannot
meet at radius 10^3: the extreme internal coordinates of the radius-1000
patch are governed by the continued-fraction convergent 577/408 of
1/sqrt2, which pins the interval width to exactly 577*sqrt2 - 816
~ 1.2255e-3 for every admitted shift.  The bound is asserted as stated
and the test is expected to stay red; the companion containment/nesting
test covers the attainable part.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from quasilattice.cutproject import (
    hausdorff_distance,
    project_patch,
    sigma_estimate,
    silver_ifs,
    silver_window,
    silver_windows,
    solve_windows,
)
from quasilattice.deform import (
    AffineDeformation,
    DiracComb,
    FixedKernel,
    LocalKernel,
    deform_measure,
    deform_patch,
    detect_periods,
)
from quasilattice.diffraction import (
    amplitude_closed,
    amplitude_quadrature,
    autocorrelation_finite,
    spectrum_scan,
    weyl_sum,
)
from quasilattice.quadfield import AlgebraicNumber, SILVER_MEAN, enumerate_dual
from quasilattice.substitution import fixed_point_patch

from reference import compensated_sum, numbers

A = AlgebraicNumber
SQRT2 = math.sqrt(2.0)
K_HALF = A(1, 0, 2)
ALPHA_RHO2 = A(3, -2, 1)  # 3 - 2*sqrt2, interval ratio 2
R_BIG = 10_000.0


def _ok(num: int, msg: str) -> None:
    print(f"[criterion {num:02d}] PASS  {msg}")


def _fail(num: int, msg: str) -> None:
    print(f"[criterion {num:02d}] FAIL  {msg}")


@pytest.fixture(scope="module")
def patch10k():
    return project_patch(R_BIG)


def test_criterion_01_window_solution():
    t0 = time.perf_counter()
    w_a, w_b = silver_windows()
    sol = solve_windows(
        silver_ifs(), tol=1e-12, max_iter=200, exact_candidate={"a": w_a, "b": w_b}
    )
    d_a = hausdorff_distance(sol.windows["a"], w_a)
    d_b = hausdorff_distance(sol.windows["b"], w_b)
    elapsed = time.perf_counter() - t0
    assert sol.iterations <= 200
    assert d_a < 1e-10 and d_b < 1e-10
    assert sol.exact_fixed_point is True
    assert elapsed < 1.0
    _ok(1, f"{sol.iterations} iterations, distance {max(d_a, d_b):.2e}, {elapsed:.2f}s")


def test_criterion_02_substitution_projection_agreement():
    t0 = time.perf_counter()
    sub = fixed_point_patch(10)
    proj = project_patch(sub.radius_float + 1.0).trim(sub.radius)
    sub_pts = list(zip(numbers(sub.a4, sub.b4), sub.label.tolist()))
    proj_pts = list(zip(numbers(proj.a4, proj.b4), proj.label.tolist()))
    # the substitution patch realizes [-R, R); the projection also sees the
    # model-set point at +R itself, which starts the next (unrealized) tile
    assert proj_pts[:-1] == sub_pts
    assert proj_pts[-1][0] == sub.radius
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(2, f"{len(sub_pts)} points agree exactly, {elapsed:.2f}s")


def test_criterion_03_density_invariance():
    t0 = time.perf_counter()
    patch = project_patch(R_BIG)
    dens = len(patch) / (2.0 * R_BIG)
    assert abs(dens - 0.5) < 1e-3
    for alpha in (0.5, 1, ALPHA_RHO2):
        comb = deform_patch(patch, AffineDeformation(alpha, 0))
        d = abs(comb.mass()) / (2.0 * R_BIG)
        assert abs(d - 0.5) < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(3, f"density {dens:.6f} for the chain and 3 deformations, {elapsed:.2f}s")


def test_criterion_04_amplitudes():
    rng = random.Random(20240404)
    zero = A(0, 0, 1)
    for _ in range(20):
        alpha = rng.uniform(-0.9, 4.3)
        beta = rng.uniform(-2.0, 2.0)
        assert amplitude_closed(zero, alpha, beta) == 0.5
    ks = enumerate_dual(3.0)
    worst = 0.0
    for alpha in (0, 0.5, 1):
        theta = AffineDeformation(alpha, 0.0)
        for k in ks:
            diff = abs(
                amplitude_quadrature(k, theta, panels=2048)
                - amplitude_closed(k, alpha, 0.0)
            )
            worst = max(worst, diff)
            assert diff < 1e-8
    _ok(4, f"A(0)=1/2 exactly x20; closed vs quadrature on {len(ks)} k x3 alpha, worst {worst:.1e}")


def test_criterion_05_alpha_one_limit(patch10k):
    comb = deform_patch(patch10k, AffineDeformation(1, 0))
    evens = []
    for p in comb.points:
        assert isinstance(p.position, A)
        assert p.position.c == 1 and p.position.b == 0 and p.position.a % 2 == 0
        evens.append(p.position.a)
    assert all(b - a == 2 for a, b in zip(evens, evens[1:]))
    # boundary points move by up to sup|star| < 3/4, so every even integer
    # of [-r - 3/4, r + 3/4] except possibly the two extreme ones appears,
    # and nothing beyond r + 3/4
    assert evens[0] <= -(R_BIG - 2) and evens[-1] >= R_BIG - 2
    assert -evens[0] <= R_BIG + 1 and evens[-1] <= R_BIG + 1
    for k in enumerate_dual(3.0):
        inten = abs(amplitude_closed(k, 1, 0)) ** 2
        assert inten == (0.25 if k.dual_coords()[1] == 0 else 0.0)
    for m in (1, 2, 3):
        s = weyl_sum(comb, A(m, 0, 2))
        assert abs(abs(s) ** 2 - 0.25) < 1e-2
    _ok(5, "deformed chain is 2Z exactly; intensities exactly 1/4 on Z/2, 0 elsewhere")


def test_criterion_06_weyl_convergence():
    t0 = time.perf_counter()
    reference = amplitude_quadrature(K_HALF, AffineDeformation(0, 0), panels=10_000)
    assert abs(reference - 0.1790) < 5e-4  # sanity against the printed value
    errors = []
    for r in (100.0, 1000.0, R_BIG):
        comb = DiracComb.from_patch(project_patch(r))
        errors.append(abs(weyl_sum(comb, K_HALF) - reference))
    for prev, nxt in zip(errors, errors[1:]):
        assert nxt <= 1.2 * prev
    assert errors[-1] < 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(6, f"errors {errors[0]:.2e} -> {errors[1]:.2e} -> {errors[2]:.2e}, {elapsed:.1f}s")


def test_criterion_07_off_spectrum_vanishing(patch10k):
    comb = DiracComb.from_patch(patch10k)
    values = {}
    for name, k in (("1/3", 1.0 / 3.0), ("e/10", math.e / 10.0), ("pi/10", math.pi / 10.0)):
        values[name] = abs(weyl_sum(comb, k))
        assert values[name] < 1e-2
    _ok(7, "off-module sums " + ", ".join(f"{n}:{v:.1e}" for n, v in values.items()))


_SQRT2_HP = Fraction(math.isqrt(2 * 10**80), 10**40)


def _unit_phase(pos: A, k: float) -> complex:
    """e^{-2 pi i k pos} with the argument reduced mod 1 in exact rational
    arithmetic; float phases lose ~7 digits once k*pos reaches 10^4 cycles."""
    kf = Fraction(k)
    turns = (kf * pos.a + kf * pos.b * _SQRT2_HP) / pos.c
    ang = -2.0 * math.pi * float(turns - math.floor(turns))
    return complex(math.cos(ang), math.sin(ang))


def test_criterion_08_wiener_identity():
    comb = DiracComb.from_patch(project_patch(1000.0))
    ac = autocorrelation_finite(comb)
    rng = random.Random(20240808)
    for _ in range(10):
        k = rng.uniform(-3.0, 3.0)
        pair_sum = compensated_sum(
            p.weight * _unit_phase(p.position, k) for p in ac.points
        ) * (2.0 * comb.radius)
        s = compensated_sum(_unit_phase(p.position, k) for p in comb.points)
        assert abs(pair_sum - abs(s) ** 2) <= 1e-9 * abs(s) ** 2
    _ok(8, "pair-count Fourier sums match |structure factor|^2 at 10 random k")


def test_criterion_09_rational_ratio_lattice(patch10k):
    comb = deform_patch(patch10k, AffineDeformation(ALPHA_RHO2, 0))
    conj = A(4, 2, 1)
    for p in comb.points:
        q = p.position * conj  # j*(4-2*sqrt2)*(4+2*sqrt2) = 8j
        assert q.c == 1 and q.b == 0 and q.a % 8 == 0
    spec = spectrum_scan(AffineDeformation(ALPHA_RHO2, 0), 3.0, 1e-8)
    by_k = dict(zip(numbers(spec.a4, spec.b4), spec.intensity.tolist()))
    inv_lambda = A(2, 1, 4)
    pairs = [(k, k + inv_lambda) for k in by_k if (k + inv_lambda) in by_k]
    assert pairs
    worst = max(abs(by_k[a] - by_k[b]) for a, b in pairs)
    assert worst < 1e-8
    _ok(9, f"all points in (4-2*sqrt2)Z; {len(pairs)} intensity pairs periodic, worst {worst:.1e}")


def _shifted_patch(shift: A, radius: float):
    base = project_patch(radius + abs(shift.value()) + 2.0)
    return base.translate(-shift).trim(radius)


_SIGMA_SHIFTS = (A(0, 0, 1), SILVER_MEAN, A(2, 1, 1))


def test_criterion_10_sigma_containment_and_nesting():
    for shift in _SIGMA_SHIFTS:
        regions = []
        for radius in (10.0, 100.0, 1000.0):
            region = sigma_estimate(_shifted_patch(shift, radius), silver_window())
            assert region.contains(shift.star())
            regions.append(region)
        for small, large in zip(regions, regions[1:]):
            lo_s, hi_s = small.bounds()
            lo_l, hi_l = large.bounds()
            assert (lo_l - lo_s).sign() >= 0 and (hi_s - hi_l).sign() >= 0
    _ok(10, "sigma intervals contain star(shift) and are nested over radii 10/100/1000")


def test_criterion_10_sigma_width():
    widths = {}
    for shift in _SIGMA_SHIFTS:
        region = sigma_estimate(_shifted_patch(shift, 1000.0), silver_window())
        lo, hi = region.bounds()
        widths[str(shift)] = (hi - lo).value()
    if all(w < 1e-3 for w in widths.values()):
        _ok(10, "sigma interval widths below 1e-3 at radius 1e3")
    else:
        _fail(
            10,
            "width at radius 1e3 is "
            + ", ".join(f"{k}: {v:.6e}" for k, v in widths.items())
            + " (= 577*sqrt2 - 816, the Diophantine floor of this estimator)",
        )
    for name, width in widths.items():
        assert width < 1e-3, f"sigma width {width:.6e} for shift {name} at radius 1e3"


def test_criterion_11_measure_deformation(patch10k):
    comb = DiracComb.from_patch(project_patch(60.0))
    ident = FixedKernel(((A(0, 0, 1), 1.0 + 0j),))
    assert deform_measure(comb, ident).points == comb.points
    t = A(1, 1, 1)
    shifted = deform_measure(comb, FixedKernel(((t, 1.0 + 0j),)))
    assert [p.position for p in shifted.points] == [p.position + t for p in comb.points]
    rule = LocalKernel(
        2.0, {}, ((A(0, 0, 1), 0.75 + 0j), (A(0, -1, 2), 0.25 + 0j))
    )
    rng = random.Random(11)
    for _ in range(10):
        tr = A(rng.randint(-4, 4), rng.randint(-3, 3), 1)
        left = deform_measure(comb.translate(tr), rule)
        right = deform_measure(comb, rule).translate(tr)
        pad = 2.0 + abs(tr.value()) + 1.0
        core = 60.0 - pad
        sel_l = [(p.position, p.weight) for p in left.points if abs(p.position_float()) <= core]
        sel_r = [(p.position, p.weight) for p in right.points if abs(p.position_float()) <= core]
        assert sel_l == sel_r and sel_l
    periodic = deform_patch(project_patch(200.0), AffineDeformation(1, 0))
    candidates = [2.0, 4.0, 6.0]
    in_periods = detect_periods(periodic, candidates, 1e-9)
    assert in_periods == candidates
    out = deform_measure(periodic, rule)
    out_periods = detect_periods(out, candidates, 1e-9)
    assert set(in_periods) <= set(out_periods)
    _ok(11, "identity/translation kernels, 10 exact equivariances, periods preserved")


def test_criterion_12_beta_independent_support():
    s0 = spectrum_scan(AffineDeformation(0.5, 0.0), 3.0, 1e-6)
    s1 = spectrum_scan(AffineDeformation(0.5, 0.37), 3.0, 1e-6)
    assert numbers(s0.a4, s0.b4) == numbers(s1.a4, s1.b4)
    assert len(s0) > 0
    _ok(12, f"support of {len(s0)} peaks identical for beta in {{0, 0.37}}")
