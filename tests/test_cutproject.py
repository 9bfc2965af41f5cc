import math

import pytest

from quasilattice.cutproject import (
    IfsMap,
    IfsSystem,
    Window,
    hausdorff_distance,
    hutchinson_step,
    project_patch,
    sigma_estimate,
    silver_ifs,
    silver_subwindows,
    silver_window,
    silver_windows,
    solve_windows,
)
from quasilattice.quadfield import AlgebraicNumber, SILVER_MEAN
from quasilattice.substitution import LabeledPatch, fixed_point_patch

from reference import numbers

A = AlgebraicNumber
SQRT2 = math.sqrt(2.0)


def box(lo: int, hi: int) -> Window:
    return Window.interval(A(lo, 0, 1), A(hi, 0, 1))


class TestWindow:
    def test_merge_touching(self):
        w = Window.from_intervals(
            [(A(0, 0, 1), A(1, 0, 1)), (A(1, 0, 1), A(2, 0, 1))]
        )
        assert w.intervals == ((A(0, 0, 1), A(2, 0, 1)),)

    def test_merge_overlapping_unsorted(self):
        w = Window.from_intervals(
            [(A(1, 0, 1), A(3, 0, 1)), (A(0, 0, 1), A(2, 0, 1))]
        )
        assert w.intervals == ((A(0, 0, 1), A(3, 0, 1)),)

    def test_reject_reversed(self):
        with pytest.raises(ValueError):
            Window.interval(A(1, 0, 1), A(0, 0, 1))

    def test_reject_overlapping_direct(self):
        with pytest.raises(ValueError):
            Window(((A(0, 0, 1), A(2, 0, 1)), (A(1, 0, 1), A(3, 0, 1))))

    def test_contains_closed_endpoints(self):
        w_a, _ = silver_windows()
        lo, hi = w_a.bounds()
        assert w_a.contains(lo) and w_a.contains(hi)

    def test_total_length(self):
        w_a, w_b = silver_windows()
        assert w_a.total_length() == A(1, 0, 1)
        assert w_b.total_length() == A(-1, 1, 1)
        assert silver_window().total_length() == A(0, 1, 1)

    def test_intersect(self):
        w = box(0, 4).intersect(box(2, 6))
        assert w.intervals == ((A(2, 0, 1), A(4, 0, 1)),)
        assert box(0, 1).intersect(box(2, 3)).is_empty()

    def test_json_roundtrip(self):
        w = silver_window()
        assert Window.from_json(w.to_json()) == w

    def test_scale_negative_flips(self):
        w = box(1, 2).scale(A(-1, 0, 1))
        assert w.intervals == ((A(-2, 0, 1), A(-1, 0, 1)),)


class TestSolveWindows:
    def test_exact_solution_is_fixed_point(self):
        w_a, w_b = silver_windows()
        image = hutchinson_step(silver_ifs(), {"a": w_a, "b": w_b})
        assert image["a"] == w_a
        assert image["b"] == w_b

    def test_iteration_converges_to_exact(self):
        w_a, w_b = silver_windows()
        sol = solve_windows(silver_ifs(), tol=1e-12, exact_candidate={"a": w_a, "b": w_b})
        assert sol.exact_fixed_point is True
        assert sol.iterations < 200
        assert hausdorff_distance(sol.windows["a"], w_a) < 1e-10
        assert hausdorff_distance(sol.windows["b"], w_b) < 1e-10

    def test_union_is_full_window(self):
        w_a, w_b = silver_windows()
        union = Window.from_intervals([*w_a.intervals, *w_b.intervals])
        assert union == silver_window()

    def test_hausdorff_sandwich(self):
        # iterates from a seed containing the attractor keep containing it,
        # and end up inside its tol-fattening
        tol = 1e-12
        w_exact = dict(zip("ab", silver_windows()))
        sol = solve_windows(silver_ifs(), tol=tol)
        for letter in ("a", "b"):
            (lo_a, hi_a) = sol.windows[letter].bounds()
            (lo_e, hi_e) = w_exact[letter].bounds()
            assert (lo_e - lo_a).sign() >= 0 and (hi_a - hi_e).sign() >= 0
            assert hausdorff_distance(sol.windows[letter], w_exact[letter]) < 2 * tol

    def test_seed_invariance(self):
        tol = 1e-12
        s1 = solve_windows(silver_ifs(), tol=tol, seeds={"a": box(-2, 2), "b": box(-2, 2)})
        s2 = solve_windows(silver_ifs(), tol=tol, seeds={"a": box(-5, 3), "b": box(-4, 6)})
        for letter in ("a", "b"):
            assert hausdorff_distance(s1.windows[letter], s2.windows[letter]) < 2 * tol

    def test_non_contracting_rejected(self):
        with pytest.raises(ValueError):
            IfsSystem(equations={"a": (IfsMap("a", A(0, 1, 1), A(0, 0, 1)),)})

    def test_iteration_budget(self):
        with pytest.raises(RuntimeError):
            solve_windows(silver_ifs(), tol=1e-12, max_iter=3)


class TestMembership:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (A(0, 0, 1), True),
            (A(1, 1, 1), True),  # star = 1 - sqrt2 lies in the window
            (A(1, 0, 1), False),  # star = 1 > sqrt2/2
        ],
    )
    def test_is_member(self, x, expected):
        assert silver_window().contains(x.star()) is expected


class TestProjectPatch:
    def test_radius_4(self):
        patch = project_patch(4.0)
        assert list(zip(numbers(patch.a4, patch.b4), patch.label.tolist())) == [
            (A(-2, -1, 1), "b"),
            (A(-1, -1, 1), "a"),
            (A(0, 0, 1), "a"),
            (A(1, 1, 1), "b"),
            (A(2, 1, 1), "a"),
        ]

    def test_density_near_half(self, patch_r1000):
        dens = len(patch_r1000) / 2000.0
        assert abs(dens - 0.5) < 1e-3

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            project_patch(0.0)

    def test_no_point_on_window_boundary(self, patch_r1000):
        lo, hi = silver_window().bounds()
        for x in numbers(patch_r1000.a4, patch_r1000.b4):
            st = x.star()
            assert (st - lo).sign() != 0 and (hi - st).sign() != 0

    @pytest.mark.parametrize("which", ["full", "a", "b"])
    def test_complete_against_brute_force(self, which):
        # plain double loop over a generous (m, n) box
        window = {"full": silver_window(), **dict(zip("ab", silver_windows()))}[which]
        r = 25.0
        expect = set()
        for m in range(-30, 31):
            for n in range(-30, 31):
                x = A(m, n, 1)
                if abs(x).cmp_float(r) <= 0 and window.contains(x.star()):
                    expect.add(x)
        patch = project_patch(r, window, {})
        got = set(numbers(patch.a4, patch.b4))
        assert got == expect

    @pytest.mark.parametrize("level", [4, 8])
    def test_matches_substitution_fixed_point(self, level):
        sub = fixed_point_patch(level)
        proj = project_patch(sub.radius_float + 1.0).trim(sub.radius)
        sub_pts = list(zip(numbers(sub.a4, sub.b4), sub.label.tolist()))
        proj_pts = list(zip(numbers(proj.a4, proj.b4), proj.label.tolist()))
        # the projection also sees the point at +radius, whose interval
        # lies outside the realized word
        assert proj_pts[:-1] == sub_pts
        extra = proj_pts[-1]
        assert extra[0] == sub.radius


class TestSigmaEstimate:
    def test_origin_patch_contains_zero(self, patch_r100):
        region = sigma_estimate(patch_r100, silver_window())
        assert region.contains(A(0, 0, 1))

    def test_shifted_patch_contains_conjugate(self):
        shift = SILVER_MEAN
        base = project_patch(100.0 + 3.0)
        patch = base.translate(-shift).trim(100.0)
        region = sigma_estimate(patch, silver_window())
        assert region.contains(shift.star())

    def test_width_shrinks_with_radius(self):
        # frozen output of this estimator on silver-mean patches
        expected = {10: 2.426406871e-01, 100: 1.724394270e-02, 1000: 1.225489276e-03}
        regions = {}
        for r in (10, 100, 1000):
            regions[r] = sigma_estimate(project_patch(float(r)), silver_window())
            lo, hi = regions[r].bounds()
            assert (hi - lo).value() == pytest.approx(expected[r], rel=1e-8)
        # nested: larger patches give sub-intervals, exactly
        for small, large in ((10, 100), (100, 1000)):
            lo_s, hi_s = regions[small].bounds()
            lo_l, hi_l = regions[large].bounds()
            assert (lo_l - lo_s).sign() >= 0
            assert (hi_s - hi_l).sign() >= 0

    def test_requires_origin(self):
        patch = LabeledPatch.from_points([(SILVER_MEAN, "a")], 4.0)
        with pytest.raises(ValueError):
            sigma_estimate(patch, silver_window())

    def test_incompatible_patch_rejected(self):
        patch = LabeledPatch.from_points(
            [(A(0, 0, 1), None), (A(3, 0, 1), None)], 4.0
        )
        with pytest.raises(ValueError):
            sigma_estimate(patch, silver_window())


def test_hausdorff_known_values():
    assert hausdorff_distance(box(0, 1), box(0, 1)) == 0.0
    assert hausdorff_distance(box(0, 1), box(0, 2)) == pytest.approx(1.0)
    gappy = Window(((A(0, 0, 1), A(1, 0, 1)), (A(3, 0, 1), A(4, 0, 1))))
    assert hausdorff_distance(gappy, box(0, 4)) == pytest.approx(1.0)


def test_subwindow_labels_partition(patch_r100):
    subs = silver_subwindows()
    for x, label in zip(numbers(patch_r100.a4, patch_r100.b4), patch_r100.label.tolist()):
        st = x.star()
        assert subs[label].contains(st)
