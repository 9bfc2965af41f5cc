"""The columnar Spectrum and ComparisonTable against the object path they
replace.

The reference below is that path as it was: one SpectrumEntry per scanned
candidate above the floor, one ComparisonRow per wave number, errors and
intensities from Python's abs of each complex, and CSV text formatted row
by row from the objects.  The column code must give the same support, the
same amplitudes, intensities and errors bit for bit, and the same CSV text.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from quasilattice.cutproject import project_patch
from quasilattice.deform import AffineDeformation, PiecewiseLinearDeformation, deform_patch
from quasilattice.diffraction import (
    ComparisonRow,
    ComparisonTable,
    SpectrumEntry,
    closed_form_amplitudes,
    compare_empirical_analytic,
    dual_quarters,
    empirical_spectrum,
    scan_internal_bound,
    segment_amplitudes,
    spectrum_scan,
    weyl_sums,
)
from quasilattice.quadfield import AlgebraicNumber, dual_columns, parse_exact
from quasilattice.substitution import fixed_point_extent, fixed_point_patch

A = AlgebraicNumber
PWL = PiecewiseLinearDeformation(((-0.8, 0.0), (0.1, 0.05), (0.8, 0.0)))


# -- reference: the object path --------------------------------------------------

def _ref_scan(theta, k_max, floor):
    a4, b4 = dual_columns(k_max, scan_internal_bound(theta, k_max, floor))
    if isinstance(theta, AffineDeformation):
        amps = closed_form_amplitudes(a4, b4, theta.alpha, theta.beta)
    else:
        amps = segment_amplitudes(a4, b4, theta).tolist()
    entries = []
    for a, b, amp in zip(a4.tolist(), b4.tolist(), amps):
        intensity = abs(amp) ** 2
        if intensity >= floor:
            entries.append(SpectrumEntry(A(a, b, 4), amp, intensity, "closed_form"))
    return entries


def _ref_empirical(comb, ks):
    a4, b4 = np.array([k.quarter() for k in ks], dtype=np.int64).reshape(-1, 2).T
    sums = weyl_sums(comb, a4, b4).tolist()
    return [SpectrumEntry(k, s, abs(s) ** 2, "empirical") for k, s in zip(ks, sums)]


def _ref_rows(empirical, analytic):
    return [ComparisonRow(e.k, e.amplitude, a.amplitude) for e, a in zip(empirical, analytic)]


def _ref_max_error(rows):
    return max((r.error for r in rows), default=0.0)


def _ref_rms_error(rows):
    if not rows:
        return 0.0
    return math.sqrt(sum(r.error**2 for r in rows) / len(rows))


def _ref_spectrum_csv(entries):
    lines = ["k_float,k_a,k_b,k_c,amp_re,amp_im,intensity,source"]
    for e in entries:
        lines.append("%.17g,%d,%d,%d,%.17g,%.17g,%.17g,%s" % (
            e.k.value(), e.k.a, e.k.b, e.k.c, e.amplitude.real, e.amplitude.imag,
            e.intensity, e.source))
    return "\n".join(lines) + "\n"


def _ref_table_csv(rows):
    lines = ["k_float,emp_re,emp_im,ana_re,ana_im,abs_error"]
    for r in rows:
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (
            r.k.value(), r.empirical.real, r.empirical.imag, r.analytic.real,
            r.analytic.imag, r.error))
    return "\n".join(lines) + "\n"


def _bits(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def _keys(ks):
    return [(k.a, k.b, k.c) for k in ks]


# -- cases -------------------------------------------------------------------------

def _substitution_patch(radius):
    level = 0
    while fixed_point_extent(level).value() < radius:
        level += 1
    return fixed_point_patch(level).trim(radius)


CASES = {
    # (theta, patch builder, radius, k_max, floor)
    "exact-affine": (AffineDeformation(A(3, -2, 1), 0), project_patch, 60.0, 2.0, 1e-6),
    "third-quarter": (AffineDeformation(parse_exact("1/3"), parse_exact("1/4")),
                      project_patch, 60.0, 2.0, 1e-4),
    "fraction": (AffineDeformation(Fraction(1, 3), Fraction(1, 4)),
                 project_patch, 40.0, 1.5, 1e-4),
    "float-affine": (AffineDeformation(0.5, 0.1), project_patch, 80.0, 2.0, 1e-4),
    "pwl": (PWL, project_patch, 80.0, 1.5, 1e-4),
    "substitution": (AffineDeformation(0.5, 0.2), _substitution_patch, 80.0, 2.0, 1e-4),
    "substitution-pwl": (PWL, _substitution_patch, 80.0, 1.5, 1e-4),
    "empty": (AffineDeformation(0.5, 0.1), project_patch, 40.0, 1.0, 0.3),
    "single-peak": (AffineDeformation(0, 0), project_patch, 40.0, 0.3, 0.2),
    # the diffract-exact workload: 7,801 rows, among them rows where
    # np.abs(z)**2 and abs(z)**2 differ in the last bit
    "diffract-exact": (AffineDeformation(A(3, -2, 1), 0), project_patch, 10.0, 3.0, 1e-7),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    theta, build, radius, k_max, floor = CASES[request.param]
    comb = deform_patch(build(radius), theta)
    ref = _ref_scan(theta, k_max, floor)
    ref_emp = _ref_empirical(comb, [e.k for e in ref])
    return request.param, theta, comb, k_max, floor, ref, ref_emp


def test_case_sizes(case):
    name, _, _, _, _, ref, _ = case
    expect = {"empty": 0, "single-peak": 1, "diffract-exact": 7801}
    if name in expect:
        assert len(ref) == expect[name]
    else:
        assert len(ref) > 20


def test_scan_matches_object_path(case):
    _, theta, _, k_max, floor, ref, _ = case
    spec = spectrum_scan(theta, k_max, floor)
    assert len(spec) == len(ref)
    assert _keys(spec.support()) == _keys(e.k for e in ref)
    assert _bits(spec.amplitude.tolist()) == _bits(e.amplitude for e in ref)
    assert [v.hex() for v in spec.intensity.tolist()] == [e.intensity.hex() for e in ref]
    assert spec.source == "closed_form" and spec.k_max == k_max
    assert spec.intensity_floor == floor
    assert spec.entries == tuple(ref)
    assert spec.to_csv() == _ref_spectrum_csv(ref)


def test_empirical_matches_object_path(case):
    _, theta, comb, k_max, floor, ref, ref_emp = case
    spec = spectrum_scan(theta, k_max, floor)
    emp = empirical_spectrum(comb, spec.a4, spec.b4)
    assert _bits(emp.amplitude.tolist()) == _bits(e.amplitude for e in ref_emp)
    assert [v.hex() for v in emp.intensity.tolist()] == [e.intensity.hex() for e in ref_emp]
    assert emp.k_max == max((abs(e.k.value()) for e in ref_emp), default=0.0)
    assert emp.intensity_floor == 0.0 and emp.source == "empirical"
    assert emp.entries == tuple(ref_emp)
    assert emp.to_csv() == _ref_spectrum_csv(ref_emp)


def test_comparison_matches_object_path(case):
    _, theta, comb, k_max, floor, ref, ref_emp = case
    spec = spectrum_scan(theta, k_max, floor)
    table = ComparisonTable.from_spectra(empirical_spectrum(comb, spec.a4, spec.b4), spec)
    rows = _ref_rows(ref_emp, ref)
    assert table.rows == tuple(rows)
    assert [v.hex() for v in table.error.tolist()] == [r.error.hex() for r in rows]
    assert table.max_error.hex() == _ref_max_error(rows).hex()
    assert table.rms_error.hex() == _ref_rms_error(rows).hex()
    assert table.to_csv() == _ref_table_csv(rows)
    direct = compare_empirical_analytic(comb, theta, spec.a4, spec.b4)
    assert direct == table
    assert direct.to_csv() == table.to_csv()
    # the object-to-column conversion gives the same table
    assert compare_empirical_analytic(comb, theta, *dual_quarters(spec.support())) == table


def test_intensity_uses_python_abs():
    """On diffract-exact the numpy modulus squared differs from abs(z)**2
    in the last bit on some rows, so a column intensity computed with
    np.abs would fail the bit-equality checks above."""
    theta, build, radius, k_max, floor = CASES["diffract-exact"]
    comb = deform_patch(build(radius), theta)
    spec = spectrum_scan(theta, k_max, floor)
    emp = empirical_spectrum(comb, spec.a4, spec.b4)
    python = [abs(z) ** 2 for z in emp.amplitude.tolist()]
    assert emp.intensity.tolist() == python
    assert (np.abs(emp.amplitude) ** 2 != emp.intensity).any()


def test_columns_are_read_only_and_shared():
    theta = AffineDeformation(0.5, 0.1)
    spec = spectrum_scan(theta, 1.0, 1e-4)
    a4 = spec.a4
    for col in (spec.a4, spec.b4, spec.amplitude, spec.intensity):
        assert not col.flags.writeable
    with pytest.raises(ValueError):
        a4[0] = 0
    comb = deform_patch(project_patch(20.0), theta)
    table = ComparisonTable.from_spectra(empirical_spectrum(comb, spec.a4, spec.b4), spec)
    assert np.shares_memory(table.a4, spec.a4) and np.shares_memory(table.analytic, spec.amplitude)
    for col in (table.a4, table.b4, table.empirical, table.analytic, table.error):
        assert not col.flags.writeable


def test_caller_arrays_stay_writeable():
    a4, b4 = dual_columns(1.0)
    a4, b4 = a4.copy(), b4.copy()
    comb = deform_patch(project_patch(20.0), AffineDeformation(0, 0))
    empirical_spectrum(comb, a4, b4)
    assert a4.flags.writeable and b4.flags.writeable


def test_intensity_at_reads_the_columns():
    spec = spectrum_scan(AffineDeformation(0, 0), 2.0, 1e-4)
    for e in spec.entries:
        assert spec.intensity_at(e.k) == e.intensity
    assert spec.intensity_at(A(1, 0, 3)) is None  # off the quarter-integers
    assert spec.intensity_at(A(1, 0, 4)) is None  # a quarter-integer off the dual module
    assert spec.intensity_at(A(100, 0, 1)) is None  # beyond k_max


def test_mismatched_columns_raise():
    spec = spectrum_scan(AffineDeformation(0, 0), 1.0, 1e-4)
    with pytest.raises(ValueError, match="columns of one length"):
        ComparisonTable(spec.a4, spec.b4[:-1], spec.amplitude, spec.amplitude)
    with pytest.raises(ValueError, match="columns of one length"):
        type(spec)(spec.a4, spec.b4, spec.amplitude[:-1], spec.intensity, "x", 1.0, 0.0)
