"""The dual-module enumeration and the closed-form amplitude on int64 columns,
against the scalar computations they replace.

The references below are the one-object-per-candidate double loop and z/pi
in Fraction-pair arithmetic (r + s*sqrt2 as two Fractions, independent of
AlgebraicNumber); the column code must reproduce their sets, order, zero and
extinction decisions and amplitudes bit for bit.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasilattice.deform import AffineDeformation
from quasilattice.diffraction import (
    _exact_z_over_pi,
    _span_basis,
    amplitude_closed,
    closed_form_amplitudes,
    extinction_report,
    scan_internal_bound,
    spectrum_scan,
)
from quasilattice.quadfield import (
    AlgebraicNumber,
    CoefficientOverflowError,
    dual_columns,
    enumerate_dual,
    parse_exact,
)

from reference import numbers

A = AlgebraicNumber
_SQRT2 = math.sqrt(2.0)


# -- references ----------------------------------------------------------------

def _scalar_enumerate_dual(k_max, kstar_max=None):
    """One AlgebraicNumber per candidate, exact cmp_float membership."""
    if kstar_max is None:
        kstar_max = max(2.0 * k_max, 1.0)
    out = []
    m_hi = int(math.floor(k_max + kstar_max)) + 1
    for m in range(-m_hi, m_hi + 1):
        n_lo = int(math.floor((-4 * k_max - 2 * m) / _SQRT2)) - 1
        n_hi = int(math.ceil((4 * k_max - 2 * m) / _SQRT2)) + 1
        for n in range(n_lo, n_hi + 1):
            k = A(2 * m, n, 4)
            if abs(k).cmp_float(k_max) <= 0 and abs(k.star()).cmp_float(kstar_max) <= 0:
                out.append(k)
    out.sort(key=A.value)
    return out


def _pair(v):
    """An exact scalar as the Fraction pair (r, s) of r + s*sqrt2."""
    if isinstance(v, A):
        return Fraction(v.a, v.c), Fraction(v.b, v.c)
    return Fraction(v), Fraction(0)


def _pair_float(p):
    return float(p[0]) + float(p[1]) * _SQRT2


def _reference_z_over_pi(k, alpha):
    """(alpha*k - star(k)) * sqrt2 as a Fraction pair."""
    (r, s), (kr, ks) = _pair(alpha), _pair(k)
    # alpha*k - star(k) = u + v*sqrt2; times sqrt2 it is 2v + u*sqrt2
    u, v = r * kr + 2 * s * ks - kr, r * ks + s * kr + ks
    return 2 * v, u


def _reference_amplitude(k, alpha, beta):
    """The scalar closed form: exact alpha through Fraction pairs, float alpha
    through the float embeddings of k and star(k)."""
    kv = k.value()
    b = _pair_float(_pair(beta)) if isinstance(beta, A) else float(beta)
    phase = cmath.exp(-2j * math.pi * b * kv)
    if isinstance(alpha, (int, Fraction, A)):
        w = _reference_z_over_pi(k, alpha)
        if w == (0, 0):
            return 0.5 * phase
        if w[1] == 0 and w[0].denominator == 1:
            return 0.0 * phase
        z = math.pi * _pair_float(w)
    else:
        z = math.pi * (float(alpha) * kv - k.star().value()) * _SQRT2
        if z == 0.0:
            return 0.5 * phase
    return phase * (math.sin(z) / (2.0 * z))


def _bits(amps):
    return [(c.real.hex(), c.imag.hex()) for c in amps]


def _keys(ks):
    return [(k.a, k.b, k.c) for k in ks]


# -- enumeration -----------------------------------------------------------------

@given(st.floats(0.0, 3.0), st.floats(0.0, 12.0))
def test_dual_columns_match_scalar_loop(k_max, kstar_max):
    a4, b4 = dual_columns(k_max, kstar_max)
    ref = _scalar_enumerate_dual(k_max, kstar_max)
    assert _keys(A(a, b, 4) for a, b in zip(a4.tolist(), b4.tolist())) == _keys(ref)
    assert _keys(enumerate_dual(k_max, kstar_max)) == _keys(ref)


@pytest.mark.parametrize(
    "k_max, kstar_max",
    [
        (0.0, None),
        (0, 0.0),
        (0.5, None),
        (0.5, 0.5),  # both bounds on the lattice point k = 1/2 = star(k)
        (0.49999999999, None),
        (2.0, 1.5),  # kstar_max on k = 3/2
        (2, 2),
        (3.0, 357.5),
    ],
)
def test_dual_columns_edges_match_scalar_loop(k_max, kstar_max):
    assert _keys(enumerate_dual(k_max, kstar_max)) == _keys(
        _scalar_enumerate_dual(k_max, kstar_max)
    )


def test_dual_columns_inclusive_edges():
    assert A(1, 0, 2) in enumerate_dual(0.5, 0.5)
    assert A(3, 0, 2) in enumerate_dual(2.0, 1.5)
    assert A(3, 0, 2) not in enumerate_dual(2.0, math.nextafter(1.5, 0.0))


def test_dual_columns_refuse_overflow_before_allocating():
    with pytest.raises(CoefficientOverflowError):
        dual_columns(1.0, 2.0**31)
    with pytest.raises(ValueError):
        dual_columns(-1.0)


# -- closed form -----------------------------------------------------------------

_COLS = dual_columns(2.0, 6.0)
_KS = numbers(*_COLS)

exact_alpha = st.builds(
    A,
    st.integers(-24, 24),
    st.integers(-24, 24),
    st.integers(1, 12),
)
exact_beta = st.builds(
    A,
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(1, 12),
)
float_alpha = st.floats(-1.0, 4.4, allow_nan=False)
beta = st.one_of(st.just(0), st.floats(-1.0, 1.0), exact_beta)


def _masks(alpha):
    ws = [_reference_z_over_pi(k, alpha) for k in _KS]
    zero = [w == (0, 0) for w in ws]
    extinct = [w != (0, 0) and w[1] == 0 and w[0].denominator == 1 for w in ws]
    return zero, extinct


@given(exact_alpha, beta)
def test_closed_form_exact_alpha_bit_equal(alpha, b):
    amps = closed_form_amplitudes(*_COLS, alpha, b)
    assert _bits(amps) == _bits(_reference_amplitude(k, alpha, b) for k in _KS)
    _, zero, extinct = _exact_z_over_pi(*_COLS, alpha)
    assert (zero.tolist(), extinct.tolist()) == _masks(alpha)


@given(float_alpha, beta)
def test_closed_form_float_alpha_bit_equal(alpha, b):
    amps = closed_form_amplitudes(*_COLS, alpha, b)
    assert _bits(amps) == _bits(_reference_amplitude(k, alpha, b) for k in _KS)


@pytest.mark.parametrize(
    "alpha",
    [0, 1, -1, Fraction(1, 2), Fraction(1, 3), A(3, -2, 1), A(1, 1, 1), A(1, 0, 4),
     A(5, 3, 15), A(7, -10, 12)],  # 1/3 + sqrt2/5, 7/12 - 5/6*sqrt2
)
def test_extinction_report_matches_reference_mask(alpha):
    rep = extinction_report(alpha, 2.0, 6.0)
    _, extinct = _masks(alpha)
    assert _keys(rep.extinctions) == _keys(k for k, x in zip(_KS, extinct) if x)
    assert rep.survivor_count == len([k for k, x in zip(_KS, extinct) if not x])
    for k in _KS:
        assert _bits([amplitude_closed(k, alpha, 0)]) == _bits([_reference_amplitude(k, alpha, 0)])


def _ref_extinction_loop(alpha, k_max):
    """The per-row loop extinction_report ran before it kept columns: one
    AlgebraicNumber per enumerated wave number, extinct or surviving, and
    the (m, n) of every nonzero survivor for the span."""
    a4, b4 = dual_columns(k_max, max(2.0 * k_max, 1.0))
    _, _, is_extinct = _exact_z_over_pi(a4, b4, alpha)
    extinct, survive, vectors = [], [], []
    for a, b, x in zip(a4.tolist(), b4.tolist(), is_extinct.tolist()):
        k = A(a, b, 4)
        if x:
            extinct.append(k)
        else:
            survive.append(k)
            if (a, b) != (0, 0):
                vectors.append((a // 2, b))
    return extinct, survive, _span_basis(vectors)


_SURVEY = ("0", "1", "2", "1/2", "1/3", "1+sqrt2", "1+1/2*sqrt2", "3-2*sqrt2")


@pytest.mark.parametrize(
    "alpha,k_max,counts",
    [*((a, 4.0, None) for a in _SURVEY), ("1", 30.0, (20242, 121)), ("3-2*sqrt2", 30.0, (0, 20363))],
)
def test_extinction_report_matches_the_object_loop(alpha, k_max, counts):
    alpha = parse_exact(alpha)
    rep = extinction_report(alpha, k_max)
    extinct, survive, basis = _ref_extinction_loop(alpha, k_max)
    assert _keys(rep.extinctions) == _keys(extinct)
    assert rep.survivor_count == len(survive)
    assert rep.span_basis == basis
    if counts is not None:
        assert (len(extinct), len(survive)) == counts


def test_alpha_types_agree():
    """int, Fraction, AlgebraicNumber and parsed forms of one alpha."""
    forms = [
        (1, Fraction(1), A(1, 0, 1), parse_exact("1")),
        (A(3, -2, 1), parse_exact("3-2*sqrt2")),
        (Fraction(3, 4), A(3, 0, 4), parse_exact("3/4")),
        (Fraction(1, 3), A(1, 0, 3), parse_exact("1/3")),
    ]
    for group in forms:
        runs = [_bits(closed_form_amplitudes(*_COLS, alpha, 0.25)) for alpha in group]
        assert all(r == runs[0] for r in runs)


def test_closed_form_refuses_operands_beyond_2_53():
    alpha = Fraction(1, 2**52 + 1)
    with pytest.raises(CoefficientOverflowError):
        closed_form_amplitudes(*_COLS, alpha, 0)
    with pytest.raises(CoefficientOverflowError):
        amplitude_closed(A(0, 0, 1), A(2**60, 0, 1), 0)
    # just below the bound the Fraction reference still agrees bit for bit
    alpha = Fraction(1, 2**49 - 1)
    k = A(2, 1, 4)
    assert _bits([amplitude_closed(k, alpha, 0)]) == _bits([_reference_amplitude(k, alpha, 0)])


def test_closed_form_empty_columns():
    empty = np.zeros(0, dtype=np.int64)
    assert closed_form_amplitudes(empty, empty, A(3, -2, 1), 0) == []
    assert closed_form_amplitudes(empty, empty, 0.5, 0.1) == []


# -- metamorphic -------------------------------------------------------------------

@given(st.one_of(exact_alpha, float_alpha), beta)
def test_negated_wave_number_conjugates(alpha, b):
    """A(-k) = conj(A(k)) for the affine family."""
    amps = closed_form_amplitudes(*_COLS, alpha, b)
    neg = closed_form_amplitudes(-_COLS[0], -_COLS[1], alpha, b)
    for a, n in zip(amps, neg):
        assert abs(n - a.conjugate()) <= 1e-15


@given(st.one_of(exact_alpha, float_alpha), exact_beta)
def test_exact_beta_changes_only_the_phase(alpha, b):
    plain = closed_form_amplitudes(*_COLS, alpha, 0)
    shifted = closed_form_amplitudes(*_COLS, alpha, b)
    bv = _pair_float(_pair(b))
    for k, p, s in zip(_KS, plain, shifted):
        assert (p == 0) == (s == 0)
        assert abs(abs(s) - abs(p)) <= 1e-15
        assert abs(s - cmath.exp(-2j * math.pi * bv * k.value()) * p) <= 1e-15


def test_scan_support_is_the_floor_filter_of_the_columns():
    theta = AffineDeformation(A(3, -2, 1), A(1, 0, 4))
    spec = spectrum_scan(theta, 2.0, 1e-4)
    ks = _scalar_enumerate_dual(2.0, scan_internal_bound(theta, 2.0, 1e-4))
    want = [(k, _reference_amplitude(k, theta.alpha, theta.beta)) for k in ks]
    want = [(k, a) for k, a in want if abs(a) ** 2 >= 1e-4]
    assert _keys(numbers(spec.a4, spec.b4)) == _keys(k for k, _ in want)
    assert _bits(spec.amplitude.tolist()) == _bits(a for _, a in want)
    assert spec.source == "closed_form"
