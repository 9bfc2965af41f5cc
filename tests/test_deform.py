import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasilattice.cutproject import project_patch
from quasilattice.deform import (
    AffineDeformation,
    DiracComb,
    FixedKernel,
    LocalKernel,
    PiecewiseLinearDeformation,
    deform_measure,
    deform_patch,
    deformation_from_json,
    delone_check,
    density,
    detect_periods,
    interval_ratio,
    local_configuration,
)
from quasilattice.quadfield import AlgebraicNumber, SILVER_MEAN, parse_exact
from quasilattice.substitution import LabeledPatch

from reference import numbers

A = AlgebraicNumber
SQRT2 = math.sqrt(2.0)
LAMBDA = A(4, -2, 1)  # deformed period candidate for alpha = 3 - 2*sqrt2


@pytest.fixture(scope="module")
def patch200():
    return project_patch(200.0)


class TestDeformPatch:
    def test_identity(self, patch200):
        comb = deform_patch(patch200, AffineDeformation(0, 0))
        assert [p.position for p in comb.points] == numbers(patch200.a4, patch200.b4)

    def test_alpha_one_gives_even_integers(self, patch200):
        comb = deform_patch(patch200, AffineDeformation(1, 0))
        assert len(comb) == len(patch200)  # injective on the chain
        evens = []
        for p in comb.points:
            assert isinstance(p.position, A)
            assert p.position.c == 1 and p.position.b == 0
            assert p.position.a % 2 == 0
            evens.append(p.position.a)
        assert all(b - a == 2 for a, b in zip(evens, evens[1:]))

    def test_rho_two_lands_in_lattice(self, patch200):
        comb = deform_patch(patch200, AffineDeformation(A(3, -2, 1), 0))
        conj = A(4, 2, 1)  # lambda * conj = 8
        for p in comb.points:
            q = p.position * conj
            assert q.c == 1 and q.b == 0 and q.a % 8 == 0
        gaps = {b.position - a.position for a, b in zip(comb.points, comb.points[1:])}
        assert gaps == {LAMBDA, A(8, -4, 1)}  # one and two lattice steps

    def test_exact_beta_shift(self, patch200):
        comb = deform_patch(patch200, AffineDeformation(0, SILVER_MEAN))
        assert comb.points[0].position == numbers(patch200.a4, patch200.b4)[0] + SILVER_MEAN

    def test_float_alpha_gives_float_positions(self, patch200):
        comb = deform_patch(patch200, AffineDeformation(0.5, 0.0))
        assert all(isinstance(p.position, float) for p in comb.points)

    @pytest.mark.parametrize(
        "alpha,exact",
        [("1/3", False), ("3-2*sqrt2", True), ("1/2", True)],
    )
    def test_one_kind_of_position_per_comb(self, alpha, exact):
        # 1/3 leaves the quarter-integers at most points but not all of them
        theta = AffineDeformation(parse_exact(alpha), 0)
        comb = deform_patch(project_patch(20.0), theta)
        kinds = {isinstance(p.position, A) for p in comb.points}
        assert kinds == {exact}
        patch = project_patch(20.0)
        expect = sorted(x.value() + float(theta.evaluate(x.star()))
                        for x in numbers(patch.a4, patch.b4))
        assert comb.positions_float() == pytest.approx(expect, abs=1e-12)

    def test_outside_domain_rejected(self):
        patch = LabeledPatch.from_points([(A(0, 0, 1), None), (A(1, 0, 1), None)], 2.0)
        with pytest.raises(ValueError):
            deform_patch(patch, AffineDeformation(0.5, 0.0))

    def test_noninjective_weights_accumulate(self):
        # theta collapsing the whole window to a single target position
        theta = PiecewiseLinearDeformation(((-1.0, 0.0), (1.0, 0.0)))
        patch = LabeledPatch.from_points([(A(0, 0, 1), None)], 2.0)
        comb = deform_patch(patch, theta)
        assert len(comb) == 1 and comb.points[0].weight == 1.0


class TestDeloneCheck:
    @pytest.mark.parametrize(
        "alpha,admissible",
        [(0.5, True), (-1.0, False), (5.0, False), (0.0, True), (4.0, True)],
    )
    def test_affine_range(self, alpha, admissible):
        ok, _ = delone_check(AffineDeformation(alpha, 0.0))
        assert ok is admissible

    def test_worst_gap_values(self):
        _, gap = delone_check(AffineDeformation(-1.0, 0.0))
        assert gap == pytest.approx(0.0)
        _, gap = delone_check(AffineDeformation(1.0, 0.0))
        assert gap == pytest.approx(2.0)

    def test_min_gap_threshold(self):
        ok, _ = delone_check(AffineDeformation(0.5, 0.0), min_gap=1.6)
        assert ok is False

    def test_pwl_spread_criterion(self):
        flat = PiecewiseLinearDeformation(((-1.0, 0.1), (1.0, 0.1)))
        ok, _ = delone_check(flat)
        assert ok is True
        steep = PiecewiseLinearDeformation(((-1.0, 0.0), (-0.2, 1.4), (1.0, 0.0)))
        ok, _ = delone_check(steep)
        assert ok is False


class TestIntervalRatio:
    def test_undeformed(self):
        assert interval_ratio(0.0) == pytest.approx(1 + SQRT2)

    def test_alpha_one(self):
        assert interval_ratio(1.0) == pytest.approx(1.0)

    def test_rho_two(self):
        assert interval_ratio(3 - 2 * SQRT2) == pytest.approx(2.0, abs=1e-12)

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            interval_ratio(-1.0)

    def test_inverse(self):
        for rho in (1.0, 2.0, 3.5):
            alpha = (SQRT2 + 1.0 - rho) / (SQRT2 - 1.0 + rho)  # the inverse, solved for alpha
            assert interval_ratio(alpha) == pytest.approx(rho)


class TestDensity:
    def test_undeformed_near_half(self, comb_r1000):
        assert abs(density(comb_r1000) - 0.5) < 1e-3

    def test_invariant_under_deformation(self, patch200):
        base = density(DiracComb.from_patch(patch200))
        for alpha in (0.5, 1, A(3, -2, 1)):
            comb = deform_patch(patch200, AffineDeformation(alpha, 0))
            assert abs(density(comb) - base) <= 2.0 / (2.0 * 200.0)

    def test_empty(self):
        assert density(DiracComb.from_items([], 5.0)) == 0.0


def _brute_configuration(positions, index, local_radius):
    center = positions[index]
    return tuple(sorted(
        round(p - center, 9) for p in positions if abs(p - center) <= local_radius + 1e-12
    ))


@given(
    st.lists(st.floats(-50.0, 50.0) | st.integers(-50, 50).map(float), min_size=1, max_size=60),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 1.0 + SQRT2, 7.5]),
)
def test_local_configuration_matches_brute_force(values, local_radius):
    positions = sorted(values)
    for i in range(len(positions)):
        assert local_configuration(positions, i, local_radius) == _brute_configuration(
            positions, i, local_radius
        )


def test_local_configuration_on_chain(comb_r1000):
    positions = comb_r1000.positions_float()
    for i in range(0, len(positions), 37):
        assert local_configuration(positions, i, 3.0) == _brute_configuration(positions, i, 3.0)


def _comb_of_integers(lo: int, hi: int, radius: float) -> DiracComb:
    return DiracComb.from_items(
        [(A(v, 0, 1), 1.0 + 0j) for v in range(lo, hi + 1)], radius
    )


class TestDeformMeasure:
    def test_identity_kernel(self, patch200):
        comb = DiracComb.from_patch(patch200)
        out = deform_measure(comb, FixedKernel(((A(0, 0, 1), 1.0 + 0j),)))
        assert out.points == comb.points

    def test_translation_kernel(self, patch200):
        comb = DiracComb.from_patch(patch200)
        t = A(1, 1, 1)
        out = deform_measure(comb, FixedKernel(((t, 1.0 + 0j),)))
        assert [p.position for p in out.points] == [p.position + t for p in comb.points]

    def test_coincident_offsets_merge(self):
        comb = _comb_of_integers(0, 0, 1.0)
        out = deform_measure(
            comb, FixedKernel(((A(0, 0, 1), 0.25 + 0j), (A(0, 0, 1), 0.5 + 0j)))
        )
        assert len(out) == 1 and out.points[0].weight == 0.75

    def test_mass_bound(self, patch200):
        comb = DiracComb.from_patch(patch200)
        kernel = FixedKernel(((A(0, 0, 1), 0.5 + 0j), (A(1, 0, 1), 1.5 + 0j)))
        out = deform_measure(comb, kernel)
        assert out.mass() == pytest.approx(comb.mass() * 2.0)

    def test_equivariance_exact(self, patch200):
        comb = DiracComb.from_patch(project_patch(60.0))
        rule = LocalKernel(
            2.0,
            {},
            ((A(0, 0, 1), 0.5 + 0j), (A(0, 1, 2), 0.5 + 0j)),
        )
        for t in (A(1, 1, 1), A(-3, 1, 1), A(2, -1, 1)):
            left = deform_measure(comb.translate(t), rule)
            right = deform_measure(comb, rule).translate(t)
            pad = 2.0 + abs(t.value()) + 1.0
            core = 60.0 - pad
            sel_l = [(p.position, p.weight) for p in left.points if abs(p.position_float()) <= core]
            sel_r = [(p.position, p.weight) for p in right.points if abs(p.position_float()) <= core]
            assert sel_l == sel_r and sel_l

    def test_local_table_reproduces_letter_shift(self):
        # a letter-dependent constant shift is locally derivable: the label
        # of a point is readable off the gap to its successor
        r = 60.0
        patch = project_patch(r)
        stars = sorted(x.star().value() for x in numbers(patch.a4, patch.b4))
        boundary = (SQRT2 - 2.0) / 2.0
        below = max(s for s in stars if s < boundary)
        above = min(s for s in stars if s > boundary)
        t_a, t_b = 0.25, -0.125
        theta = PiecewiseLinearDeformation(
            (
                (-SQRT2 / 2 - 0.01, t_b),
                (below + 0.4 * (above - below), t_b),
                (below + 0.6 * (above - below), t_a),
                (SQRT2 / 2 + 0.01, t_a),
            )
        )
        via_theta = deform_patch(patch, theta)
        comb = DiracComb.from_patch(patch)
        posf = comb.positions_float()
        table = {
            local_configuration(posf, i, 2.6): ((t_a if label == "a" else t_b, 1.0 + 0j),)
            for i, label in enumerate(patch.label.tolist())
        }
        via_rule = deform_measure(comb, LocalKernel(2.6, table, ((0.0, 1.0 + 0j),)))
        core = r - 2.6
        lhs = [(p.position_float(), p.weight) for p in via_theta.points if abs(p.position_float()) <= core]
        rhs = [(p.position_float(), p.weight) for p in via_rule.points if abs(p.position_float()) <= core]
        assert lhs == pytest.approx(rhs) and len(lhs) > 50

    def test_period_transfer(self):
        comb = _comb_of_integers(-40, 40, 40.0)
        kernel = LocalKernel(
            1.5,
            {},
            ((A(0, 0, 1), 1.0 + 0j), (A(0, 1, 2), 0.25 + 0j)),
        )
        out = deform_measure(comb, kernel)
        for t in (1.0, 2.0, 3.0):
            assert t in detect_periods(comb, [t], 1e-9)
            assert t in detect_periods(out, [t], 1e-9)


class TestDetectPeriods:
    def test_alpha_one_comb_has_period_two(self, patch200):
        comb = deform_patch(patch200, AffineDeformation(1, 0))
        assert detect_periods(comb, [2.0], 1e-9) == [2.0]

    def test_undeformed_chain_aperiodic(self, patch200):
        comb = DiracComb.from_patch(patch200)
        assert detect_periods(comb, [1.0, 2.0, 1 + SQRT2], 1e-9) == []

    def test_rho_two_lattice_containment_but_no_period(self, patch200):
        comb = deform_patch(patch200, AffineDeformation(A(3, -2, 1), 0))
        # the deformed points sit inside lambda*Z but skip sites, so lambda
        # itself is not a period of the restricted comb
        assert detect_periods(comb, [LAMBDA.value()], 1e-9) == []

    def test_rejects_nonpositive_candidates(self, patch200):
        comb = DiracComb.from_patch(patch200)
        with pytest.raises(ValueError):
            detect_periods(comb, [-1.0], 1e-9)

    @pytest.mark.parametrize(
        "build",
        [
            lambda p: deform_patch(p, AffineDeformation(1, 0)),
            lambda p: deform_patch(p, AffineDeformation(A(3, -2, 1), 0)),
            lambda p: deform_patch(p, AffineDeformation(0.5, 0.1)),
            DiracComb.from_patch,
            lambda p: deform_measure(
                deform_patch(p, AffineDeformation(1, 0)),
                LocalKernel(1.5, {}, ((A(0, 0, 1), 0.75 + 0j), (A(0, -1, 2), 0.25 + 0j))),
            ),
            lambda p: _comb_of_integers(-40, 40, 40.0),
            lambda p: DiracComb.from_items([], 5.0),
        ],
        ids=["alpha-one", "rho-two", "float", "undeformed", "kernel", "integers", "empty"],
    )
    def test_matches_the_per_point_loop(self, patch200, build):
        comb = build(patch200)
        candidates = [0.5, 1.0, 2.0, 1 + SQRT2, LAMBDA.value(), 4.0, 2.0 + 1e-10, 6.0, 150.0, 500.0]
        for tol in (1e-9, 1e-3, 0.3):
            assert detect_periods(comb, candidates, tol) == _ref_detect_periods(comb, candidates, tol)


def _ref_detect_periods(comb, candidates, tol):
    """detect_periods as a loop over the CombPoint objects of the comb."""
    if len(comb.points) == 0:
        return []
    reach = min(comb.radius, -comb.points[0].position_float(), comb.points[-1].position_float())
    found = []
    for t in candidates:
        if t <= 0:
            raise ValueError("period candidates must be positive")
        lo, hi = -reach + t, reach - t
        if lo >= hi:
            continue
        core = [p for p in comb.points if lo <= p.position_float() <= hi]
        shifted = [
            (p.position_float() + t, p.weight)
            for p in comb.points
            if lo <= p.position_float() + t <= hi
        ]
        if len(core) != len(shifted):
            continue
        ok = all(
            abs(c.position_float() - q) <= tol and abs(c.weight - w) <= tol
            for c, (q, w) in zip(core, shifted)
        )
        if ok:
            found.append(t)
    return found


class TestDiracComb:
    def test_sorted_validation(self):
        zero = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError):
            DiracComb(zero, zero, np.array([1.0, 0.0]), np.ones(2, dtype=complex), 2.0)

    def test_csv_header_and_exact_columns(self, patch200):
        comb = DiracComb.from_patch(patch200)
        lines = comb.to_csv().strip().split("\n")
        assert lines[0] == "position_float,a,b,c,label,weight_re,weight_im"
        assert len(lines) == len(comb) + 1

    def test_json_deformation_roundtrip(self):
        theta = AffineDeformation(0.5, 0.25)
        again = deformation_from_json(theta.to_json())
        assert again.alpha == 0.5 and again.beta == 0.25
        pwl = PiecewiseLinearDeformation(((-1.0, 0.0), (1.0, 0.5)))
        again = deformation_from_json(pwl.to_json())
        assert again.breakpoints == pwl.breakpoints


def test_pwl_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearDeformation(((0.0, 0.0),))
    with pytest.raises(ValueError):
        PiecewiseLinearDeformation(((0.5, 0.0), (0.5, 1.0)))
    with pytest.raises(ValueError):
        # does not cover the window
        PiecewiseLinearDeformation(((-0.1, 0.0), (0.1, 0.0)))


def test_pwl_tie_returns_table_value():
    theta = PiecewiseLinearDeformation(((-1.0, 3.0), (0.25, 7.0), (1.0, 11.0)))
    assert theta.evaluate_float(0.25) == 7.0


def test_pwl_extrapolates_outer_segments_on_rounding_slop():
    theta = PiecewiseLinearDeformation(((-1.0, 0.0), (1.0, 2.0)))
    eps = 1e-14
    assert theta.evaluate_float(-1.0 - eps) == pytest.approx(0.0, abs=1e-12)
    assert theta.evaluate_float(1.0 + eps) == pytest.approx(2.0, abs=1e-12)
