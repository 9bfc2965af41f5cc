"""The per-segment closed form of the amplitude of a piecewise-linear theta,
against a 40-digit mpmath integral, composite Gauss-Legendre quadrature
and the affine sinc closed form it generalises.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasilattice.cutproject import Window
from quasilattice.deform import (
    AffineDeformation,
    PiecewiseLinearDeformation,
    delone_check,
)
from quasilattice.diffraction import (
    amplitude_quadrature,
    closed_form_amplitudes,
    scan_internal_bound,
    segment_amplitudes,
    spectrum_scan,
)
from quasilattice.quadfield import AlgebraicNumber, column_values, dual_columns

A = AlgebraicNumber

# the piecewise-linear profile of the benchmark's diffract-pwl workload
PROFILE = PiecewiseLinearDeformation(
    ((-0.75, 0.0), (-0.375, 0.12), (0.0, 0.05), (0.375, 0.15), (0.75, 0.02))
)
TENT = PiecewiseLinearDeformation(((-0.8, 0.0), (0.1, 0.05), (0.8, 0.0)))
# [-1/2, -1/4] u [1/4, 1/2]
TWO_INTERVALS = Window.from_intervals([(A(-2, 0, 4), A(-1, 0, 4)), (A(1, 0, 4), A(2, 0, 4))])


def _cols(ks):
    return (np.array([k.quarter()[0] for k in ks], dtype=np.int64),
            np.array([k.quarter()[1] for k in ks], dtype=np.int64))


def _ks(a4, b4):
    return [A(a, b, 4) for a, b in zip(a4.tolist(), b4.tolist())]


def _mp_amplitude(k, theta):
    """(1/(2 sqrt2)) * integral over the silver window of
    e^{2 pi i (k* y - k theta(y))}, at 40 digits."""
    with mpmath.workdps(40):
        r2 = mpmath.sqrt(2)
        kv = (k.a + k.b * r2) / k.c
        ks = (k.a - k.b * r2) / k.c
        pts = [(mpmath.mpf(y), mpmath.mpf(v)) for y, v in theta.breakpoints]

        def th(y):
            for (y0, v0), (y1, v1) in zip(pts, pts[1:]):
                if y <= y1:
                    return v0 + (y - y0) * (v1 - v0) / (y1 - y0)
            raise AssertionError("outside the breakpoints")

        edges = [-r2 / 2, *(y for y, _ in pts if -r2 / 2 < y < r2 / 2), r2 / 2]
        integral = mpmath.quad(lambda y: mpmath.expjpi(2 * (ks * y - kv * th(y))), edges)
        return complex(integral / (2 * r2))


@pytest.mark.parametrize("theta", [PROFILE, TENT], ids=["profile", "tent"])
def test_matches_40_digit_integral(theta):
    ks = [A(0, 0, 1), A(1, 0, 2), A(2, 1, 4), A(-3, 2, 4), A(6, -5, 4), A(4, 13, 4)]
    amps = segment_amplitudes(*_cols(ks), theta)
    for k, amp in zip(ks, amps.tolist()):
        assert abs(amp - _mp_amplitude(k, theta)) <= 1e-13, k


@st.composite
def admissible_pwl(draw):
    """Breakpoints covering the silver window, slopes in [-0.6, 0.6]: the
    spread stays below 0.9 < 1, so the map is admissible."""
    inner = draw(st.lists(st.floats(-0.7, 0.7), max_size=4, unique=True))
    ys = sorted({-0.75, 0.75, *inner})
    v = draw(st.floats(-0.3, 0.3))
    pts = [(ys[0], v)]
    for y0, y1 in zip(ys, ys[1:]):
        v += draw(st.floats(-0.6, 0.6)) * (y1 - y0)
        pts.append((y1, v))
    return PiecewiseLinearDeformation(tuple(pts))


@settings(max_examples=20)
@given(admissible_pwl(), st.floats(0.1, 1.5), st.floats(0.5, 4.0))
def test_matches_quadrature(theta, k_max, kstar_max):
    assert delone_check(theta)[0]
    a4, b4 = dual_columns(k_max, kstar_max)
    amps = segment_amplitudes(a4, b4, theta)
    for k, amp in zip(_ks(a4, b4), amps.tolist()):
        assert abs(amp - amplitude_quadrature(k, theta, panels=1024)) <= 1e-9, k


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.1), (-0.3, 0.25), (1.2, -0.4)])
def test_sampled_affine_matches_the_sinc(alpha, beta):
    ys = [-0.72, -0.3, 0.2, 0.71]
    theta = PiecewiseLinearDeformation(tuple((y, alpha * y + beta) for y in ys))
    a4, b4 = dual_columns(3.0, 12.0)
    assert len(a4) > 300
    seg = segment_amplitudes(a4, b4, theta)
    sinc = np.array(closed_form_amplitudes(a4, b4, alpha, beta))
    assert np.abs(seg - sinc).max() <= 1e-14


def test_profile_scan_support_equals_quadrature_scan():
    k_max, floor = 2.0, 4e-4
    spec = spectrum_scan(PROFILE, k_max, floor)
    assert {e.source for e in spec.entries} == {"closed_form"}
    a4, b4 = dual_columns(k_max, scan_internal_bound(PROFILE, k_max, floor))
    quad = [k for k in _ks(a4, b4)
            if abs(amplitude_quadrature(k, PROFILE, panels=1024)) ** 2 >= floor]
    assert spec.support() == quad
    assert len(quad) == 89


def test_bound_counts_every_interval_of_the_domain():
    # one linear piece, two intervals: two segments are summed
    theta = PiecewiseLinearDeformation(((-1.0, 0.0), (1.0, 0.2)), domain=TWO_INTERVALS)
    k_max, floor = 1.0, 1e-3
    bound = scan_internal_bound(theta, k_max, floor)
    assert bound == pytest.approx(0.1 * k_max + 2 / (2 * math.sqrt(2) * math.pi * math.sqrt(floor)) + 1)
    # complete: no candidate beyond the bound reaches the floor, while one
    # piece's worth of margin would have dropped peaks
    a4, b4 = dual_columns(k_max, 3 * bound)
    kstar = np.abs(column_values(a4, -b4))
    strong = np.abs(segment_amplitudes(a4, b4, theta)) ** 2 >= floor
    assert not (strong & (kstar > bound)).any()
    assert (strong & (kstar > bound - 1 / (2 * math.sqrt(2) * math.pi * math.sqrt(floor)))).any()
    assert len(spectrum_scan(theta, k_max, floor)) == strong.sum()


@pytest.mark.parametrize(
    "theta",
    [
        PiecewiseLinearDeformation(((-1.0, 0.0), (0.0, 0.3), (1.0, 0.2)), domain=TWO_INTERVALS),
        AffineDeformation(0.4, 0.1, domain=TWO_INTERVALS),
    ],
    ids=["pwl", "affine"],
)
def test_custom_domain_matches_quadrature(theta):
    spec = spectrum_scan(theta, 1.5, 1e-4)
    assert len(spec) > 10
    for e in spec.entries:
        assert abs(e.amplitude - amplitude_quadrature(e.k, theta)) <= 1e-12
