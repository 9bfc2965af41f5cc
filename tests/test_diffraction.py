import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasilattice.cutproject import project_patch, silver_window
from quasilattice.deform import (
    AffineDeformation,
    DiracComb,
    PiecewiseLinearDeformation,
    deform_patch,
)
from quasilattice.diffraction import (
    SPAN_FULL_DUAL,
    SPAN_HALF_INTEGERS,
    ComparisonTable,
    amplitude_closed,
    amplitude_quadrature,
    autocorrelation_finite,
    compare_empirical_analytic,
    dual_quarters,
    empirical_spectrum,
    extinction_report,
    leading_dual_columns,
    spectrum_scan,
    weyl_sum,
)
from quasilattice.quadfield import AlgebraicNumber, SILVER_MEAN, enumerate_dual

from reference import compensated_sum, numbers

A = AlgebraicNumber
SQRT2 = math.sqrt(2.0)
K_HALF = A(1, 0, 2)


class TestAmplitudeClosed:
    def test_central_value_is_exactly_half(self):
        rng = random.Random(5)
        for _ in range(10):
            alpha, beta = rng.uniform(-1, 4), rng.uniform(-2, 2)
            assert amplitude_closed(A(0, 0, 1), alpha, beta) == 0.5

    def test_alpha_one_half_integers(self):
        amp = amplitude_closed(K_HALF, 1, 0)
        assert amp == 0.5
        assert abs(amp) ** 2 == 0.25

    def test_alpha_one_exact_zero_off_half_integers(self):
        k = A(0, 1, 4)  # sqrt2/4
        assert amplitude_closed(k, 1, 0) == 0.0

    def test_undeformed_at_half(self):
        # independent check: sin(pi sqrt2/2)/(pi sqrt2)
        amp = amplitude_closed(K_HALF, 0, 0)
        assert amp.real == pytest.approx(math.sin(math.pi * SQRT2 / 2) / (math.pi * SQRT2), abs=1e-15)
        assert amp.real == pytest.approx(0.17909389300662, abs=1e-12)
        assert amp.imag == 0.0

    def test_beta_only_changes_phase(self):
        a0 = amplitude_closed(K_HALF, 0.5, 0.0)
        a1 = amplitude_closed(K_HALF, 0.5, 0.37)
        assert abs(a0) == pytest.approx(abs(a1), abs=1e-15)
        assert a1 == pytest.approx(a0 * cmath.exp(-2j * math.pi * 0.37 * 0.5))

    def test_rejects_non_dual(self):
        with pytest.raises(ValueError):
            amplitude_closed(A(1, 0, 4), 0, 0)
        with pytest.raises(ValueError):
            amplitude_closed(A(1, 0, 3), 0, 0)  # off the quarter-integers

    def test_exact_fraction_alpha(self):
        # alpha = 1/2 puts exact zeros where (k/2 - k*) sqrt2 is integral
        k = A(0, 2, 1)  # 2*sqrt2: z/pi = (sqrt2 + 2*sqrt2)*sqrt2 = 6
        assert amplitude_closed(k, Fraction(1, 2), 0) == 0.0


class TestAmplitudeQuadrature:
    def test_constant_integrand(self):
        assert amplitude_quadrature(A(0, 0, 1), AffineDeformation(0, 0), panels=16) == pytest.approx(0.5)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, 0.1), (1.0, 0.0)])
    def test_matches_closed_form(self, alpha, beta):
        rng = random.Random(11)
        ks = enumerate_dual(3.0)
        for k in rng.sample(ks, 12):
            quad = amplitude_quadrature(k, AffineDeformation(alpha, beta), panels=10_000)
            closed = amplitude_closed(k, alpha, beta)
            assert abs(quad - closed) < 1e-9

    def test_pwl_sampling_of_affine_is_exact(self):
        # linear interpolation of a linear map reproduces it
        lo, hi = silver_window().bounds()
        alpha, beta = 0.4, -0.2
        ys = [lo.value() - 0.01, -0.3, 0.2, hi.value() + 0.01]
        theta = PiecewiseLinearDeformation(tuple((y, alpha * y + beta) for y in ys))
        k = A(1, 0, 2)
        assert abs(
            amplitude_quadrature(k, theta) - amplitude_closed(k, alpha, beta)
        ) < 1e-9

    def test_closed_vs_quadrature_full_range(self):
        theta = AffineDeformation(0.5, 0.0)
        for k in enumerate_dual(3.0):
            diff = abs(
                amplitude_quadrature(k, theta, panels=10_000)
                - amplitude_closed(k, 0.5, 0.0)
            )
            assert diff < 1e-8

    def test_rejects_small_panel_count(self):
        with pytest.raises(ValueError):
            amplitude_quadrature(A(0, 0, 1), AffineDeformation(0, 0), panels=1)


class TestWeylSum:
    def test_at_zero_equals_density(self, comb_r1000):
        s = weyl_sum(comb_r1000, 0.0)
        assert s.real == pytest.approx(len(comb_r1000) / 2000.0, abs=1e-12)
        assert s.imag == pytest.approx(0.0, abs=1e-12)

    def test_converges_to_amplitude(self, comb_r1000):
        target = amplitude_closed(K_HALF, 0, 0)
        assert abs(weyl_sum(comb_r1000, K_HALF) - target) < 5e-3

    def test_compensated_sum_accuracy(self):
        vals = [1e16, 1.0, -1e16] * 11
        assert compensated_sum(complex(v, 0) for v in vals) == complex(11.0, 0.0)


class TestAutocorrelation:
    def test_single_point(self):
        comb = DiracComb.from_items([(A(0, 0, 1), 1 + 0j)], 1.0)
        ac = autocorrelation_finite(comb)
        assert [(p.position, p.weight) for p in ac.points] == [(A(0, 0, 1), 0.5 + 0j)]

    def test_two_points(self):
        comb = DiracComb.from_items([(A(0, 0, 1), 1 + 0j), (A(1, 0, 1), 1 + 0j)], 1.0)
        ac = autocorrelation_finite(comb)
        got = {(p.position_float(), p.weight) for p in ac.points}
        assert got == {(-1.0, 0.5 + 0j), (0.0, 1.0 + 0j), (1.0, 0.5 + 0j)}

    def test_point_cap(self):
        comb = DiracComb.from_items([(A(i, 0, 1), 1 + 0j) for i in range(5)], 10.0)
        with pytest.raises(ValueError):
            autocorrelation_finite(comb, max_points=4)

    def test_wiener_identity(self):
        comb = DiracComb.from_patch(project_patch(300.0))
        ac = autocorrelation_finite(comb)
        rng = random.Random(7)
        for _ in range(5):
            k = rng.uniform(-3.0, 3.0)
            pair_sum = compensated_sum(
                p.weight * cmath.exp(-2j * math.pi * k * p.position_float())
                for p in ac.points
            ) * (2.0 * comb.radius)
            s = compensated_sum(
                cmath.exp(-2j * math.pi * k * x) for x in comb.positions_float()
            )
            assert abs(pair_sum - abs(s) ** 2) <= 1e-9 * abs(s) ** 2

    def test_float_positions_path(self):
        comb = DiracComb.from_items([(0.0, 1 + 0j), (0.5, 1 + 0j), (1.0, 1 + 0j)], 1.0)
        ac = autocorrelation_finite(comb)
        weights = {round(p.position_float(), 6): p.weight for p in ac.points}
        assert weights[0.0] == 1.5 + 0j
        assert weights[0.5] == 1.0 + 0j
        assert weights[1.0] == 0.5 + 0j


class TestSpectrumScan:
    def test_undeformed_basics(self):
        spec = spectrum_scan(AffineDeformation(0, 0), 2.0, 1e-4)
        by_k = dict(zip(numbers(spec.a4, spec.b4), spec.intensity.tolist()))
        center = by_k.get(A(0, 0, 1))
        assert center == 0.25
        for k in by_k:
            assert by_k[-k] == pytest.approx(by_k[k], abs=1e-12)

    def test_alpha_one_support(self):
        spec = spectrum_scan(AffineDeformation(1, 0), 2.0, 1e-6)
        expect = [A(m, 0, 2) for m in range(-4, 5)]
        assert numbers(spec.a4, spec.b4) == expect
        assert all(v == 0.25 for v in spec.intensity.tolist())

    def test_sum_monotone_in_kmax_and_peak_bound(self):
        theta = AffineDeformation(0.5, 0.0)
        sums = [
            sum(spectrum_scan(theta, km, 1e-6).intensity.tolist())
            for km in (1.0, 2.0, 3.0)
        ]
        assert sums[0] <= sums[1] <= sums[2]
        spec = spectrum_scan(theta, 3.0, 1e-6)
        assert max(spec.intensity.tolist()) <= 0.25 + 1e-12

    def test_beta_independent_support(self):
        s0 = spectrum_scan(AffineDeformation(0.5, 0.0), 3.0, 1e-6)
        s1 = spectrum_scan(AffineDeformation(0.5, 0.37), 3.0, 1e-6)
        assert numbers(s0.a4, s0.b4) == numbers(s1.a4, s1.b4)

    def test_rho_two_periodic_intensities(self):
        spec = spectrum_scan(AffineDeformation(A(3, -2, 1), 0), 3.0, 1e-8)
        by_k = dict(zip(numbers(spec.a4, spec.b4), spec.intensity.tolist()))
        inv_lambda = A(2, 1, 4)  # 1/(4 - 2*sqrt2)
        pairs = [(k, k + inv_lambda) for k in by_k if (k + inv_lambda) in by_k]
        assert len(pairs) > 100
        for a, b in pairs:
            assert abs(by_k[a] - by_k[b]) < 1e-8

    def test_pwl_scan_sources(self):
        theta = PiecewiseLinearDeformation(((-0.8, 0.0), (0.1, 0.05), (0.8, 0.0)))
        spec = spectrum_scan(theta, 1.0, 1e-3)
        assert len(spec) and spec.source == "closed_form"

    def test_csv_layout(self):
        spec = spectrum_scan(AffineDeformation(1, 0), 1.0, 1e-6)
        lines = spec.to_csv().strip().split("\n")
        assert lines[0] == "k_float,k_a,k_b,k_c,amp_re,amp_im,intensity,source"
        assert len(lines) == len(spec) + 1
        assert lines[1].endswith("closed_form")


class TestExtinctions:
    def test_alpha_one_span(self):
        rep = extinction_report(1, 2.0)
        assert rep.span == SPAN_HALF_INTEGERS
        assert all(k.dual_coords()[1] != 0 for k in rep.extinctions)

    def test_alpha_zero_list(self):
        rep = extinction_report(0, 2.0)
        got = sorted(k.value() for k in rep.extinctions)
        expect = sorted(j * SQRT2 / 2 for j in (-2, -1, 1, 2))
        assert got == pytest.approx(expect)
        assert rep.span == SPAN_FULL_DUAL

    def test_alpha_zero_against_float_oracle(self):
        rep = extinction_report(0, 2.0)
        extinct = set(rep.extinctions)
        for k in enumerate_dual(2.0):
            z = math.pi * (0.0 - k.star().value()) * SQRT2
            nearly_zero = abs(math.sin(z)) < 1e-9 and abs(z) > 1e-9
            assert (k in extinct) == nearly_zero

    def test_silver_alpha_nonempty(self):
        rep = extinction_report(SILVER_MEAN, 4.0)
        expect = {A(m, 0, 2) for m in range(-8, 9) if m != 0}
        assert set(rep.extinctions) == expect

    def test_rational_alpha_fraction(self):
        rep = extinction_report(Fraction(1, 3), 2.0)
        # exact: z/pi = (k/3 - k*)*sqrt2 integral only on a thin subset
        for k in rep.extinctions:
            assert abs(amplitude_closed(k, Fraction(1, 3), 0)) == 0.0

    def test_float_alpha_rejected(self):
        with pytest.raises(TypeError):
            extinction_report(0.5, 2.0)

    def test_report_carries_its_enumeration_bound(self):
        default = extinction_report(1, 1.0)
        assert default.kstar_max == 2.0
        wide = extinction_report(1, 1.0, 6.0)
        assert wide.to_json()["kstar_max"] == 6.0
        assert len(wide.extinctions) > len(default.extinctions)
        again = extinction_report(1, 1.0, wide.to_json()["kstar_max"])
        assert again.extinctions == wide.extinctions


class TestComparison:
    def test_empty_list(self, comb_r1000):
        table = compare_empirical_analytic(comb_r1000, AffineDeformation(0, 0), *dual_quarters([]))
        assert len(table) == 0 and table.max_error == 0.0 and table.rms_error == 0.0

    def test_density_peak(self, comb_r1000):
        table = compare_empirical_analytic(
            comb_r1000, AffineDeformation(0, 0), *dual_quarters([A(0, 0, 1)])
        )
        assert table.max_error < 1e-3

    def test_csv(self, comb_r1000):
        table = compare_empirical_analytic(
            comb_r1000, AffineDeformation(0, 0), *leading_dual_columns(3)
        )
        lines = table.to_csv().strip().split("\n")
        assert lines[0].startswith("k_float,emp_re")
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "theta",
        [
            AffineDeformation(A(3, -2, 1), 0),
            AffineDeformation(0.5, 0.1),
            PiecewiseLinearDeformation(((-0.8, 0.0), (0.1, 0.05), (0.8, 0.0))),
        ],
        ids=["exact-affine", "float-affine", "pwl"],
    )
    def test_from_spectra_matches_direct_comparison(self, patch_r100, theta):
        comb = deform_patch(patch_r100, theta)
        spec = spectrum_scan(theta, 1.0, 1e-4)
        assert len(spec)
        table = ComparisonTable.from_spectra(empirical_spectrum(comb, spec.a4, spec.b4), spec)
        assert table == compare_empirical_analytic(comb, theta, spec.a4, spec.b4)

    def test_from_spectra_rejects_mismatched_support(self, comb_r1000):
        spec = spectrum_scan(AffineDeformation(0.5, 0), 1.0, 1e-4)
        for other in (slice(None, -1), slice(None, None, -1)):
            with pytest.raises(ValueError):
                ComparisonTable.from_spectra(
                    empirical_spectrum(comb_r1000, spec.a4[other], spec.b4[other]), spec
                )


def test_leading_dual_elements_ordering():
    ks = numbers(*leading_dual_columns(9))
    vals = [abs(k.value()) for k in ks]
    assert vals == sorted(vals)
    assert len(set(ks)) == 9
    assert ks[0] == A(0, 0, 1)


@pytest.mark.parametrize("count", [1, 9, 20, 200, 3000])
def test_leading_dual_columns_match_the_stable_sort(count):
    # the object path they replace: enumerate_dual sorted stably by
    # (|k|, k), the bound doubled until it holds count elements
    k_max = 2.0
    while len(ks := enumerate_dual(k_max)) < count:
        k_max *= 2.0
    ks.sort(key=lambda k: (abs(k.value()), k.value()))
    assert numbers(*leading_dual_columns(count)) == ks[:count]


def test_empirical_spectrum_sources(comb_r1000):
    spec = empirical_spectrum(comb_r1000, *leading_dual_columns(4))
    assert spec.source == "empirical"
    assert len(spec) == 4


@given(st.integers(-60, 60), st.integers(-40, 40), st.sampled_from(numbers(*leading_dual_columns(16))))
def test_translation_multiplies_weyl_sums_by_a_phase(patch_r1000, m, n, k):
    """Translating by a lattice vector t and trimming back to the radius
    changes each Weyl sum by e^{-2 pi i k t}, up to the at most |t| + 1
    points (gaps are >= 1) that crossed the boundary."""
    t = A(m, n, 1)
    radius = patch_r1000.radius_float
    moved = DiracComb.from_patch(patch_r1000.translate(t).trim(radius))
    base = weyl_sum(DiracComb.from_patch(patch_r1000), k)
    phase = cmath.exp(-2j * math.pi * k.value() * t.value())
    bound = (abs(t.value()) + 1.0) / (2.0 * radius)
    assert abs(weyl_sum(moved, k) - phase * base) <= bound + 1e-12
