"""The columnar DiracComb, its whole-array deformation and merge, the
internal-space Weyl sums and the columnar autocorrelation, each against
the object-based code it replaced (kept below as references) or a
40-digit mpmath sum."""

import bisect
import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasilattice import deform, diffraction
from quasilattice.cutproject import project_patch
from quasilattice.deform import (
    AffineDeformation,
    CombPoint,
    DiracComb,
    FixedKernel,
    PiecewiseLinearDeformation,
    _merged,
    _offset_column,
    deform_measure,
    deform_patch,
)
from quasilattice.diffraction import (
    autocorrelation_finite,
    leading_dual_columns,
    weyl_sum,
    weyl_sums,
)
from quasilattice.quadfield import AlgebraicNumber, CoefficientOverflowError, parse_exact
from quasilattice.substitution import fixed_point_patch

from reference import compensated_sum, numbers

A = AlgebraicNumber


# -- the object-based references ---------------------------------------------


def _ref_pwl_float(theta, y):
    ys = [p for p, _ in theta.breakpoints]
    i = bisect.bisect_left(ys, y)
    if i < len(ys) and ys[i] == y:
        return theta.breakpoints[i][1]
    i = min(max(i, 1), len(ys) - 1)
    y0, v0 = theta.breakpoints[i - 1]
    y1, v1 = theta.breakpoints[i]
    slope = (v1 - v0) / (y1 - y0)
    return v0 + (y - y0) * slope


def _ref_evaluate(theta, y):
    if not theta.window().contains(y):
        raise ValueError(f"{y} is outside the deformation domain")
    if isinstance(theta, AffineDeformation):
        return theta.evaluate(y)
    return _ref_pwl_float(theta, y.value())


def _ref_merge_points(raw):
    exact, floats = {}, []
    for pos, w in raw:
        if isinstance(pos, A):
            exact[pos] = exact.get(pos, 0j) + w
        else:
            floats.append((float(pos), w))
    out = list(exact.items())
    floats.sort(key=lambda t: t[0])
    for pos, w in floats:
        if out and not isinstance(out[-1][0], A):
            lpos, lw = out[-1]
            if abs(pos - lpos) < 1e-12:
                out[-1] = (lpos, lw + w)
                continue
        out.append((pos, w))
    return sorted(out, key=lambda t: float(t[0]))


def _ref_deform_patch(patch, theta):
    raw = []
    for x in numbers(patch.a4, patch.b4):
        shift = _ref_evaluate(theta, x.star())
        pos = x + shift if isinstance(shift, A) else x.value() + shift
        raw.append((pos, 1.0 + 0.0j))
    if not all(isinstance(pos, A) for pos, _ in raw):
        raw = [(float(pos), w) for pos, w in raw]
    return _ref_merge_points(raw)


def _ref_weyl_sum(points, radius, k):
    kv = k.value() if isinstance(k, A) else float(k)
    terms = (w * cmath.exp(-2j * math.pi * kv * float(pos)) for pos, w in points)
    return compensated_sum(terms) / (2.0 * radius)


def _ref_autocorrelation(points, radius):
    if not points:
        return []
    norm = 2.0 * radius
    weights = np.array([w for _, w in points], dtype=complex)
    wprod = (np.conj(weights)[:, None] * weights[None, :]).ravel()
    if all(isinstance(pos, A) for pos, _ in points):
        a4 = np.array([pos.quarter()[0] for pos, _ in points], dtype=np.int64)
        b4 = np.array([pos.quarter()[1] for pos, _ in points], dtype=np.int64)
        off = 2 * int(max(np.abs(a4).max(), np.abs(b4).max())) + 1
        base = 2 * off + 1
        keys = ((a4[None, :] - a4[:, None]).ravel() + off) * base + (
            (b4[None, :] - b4[:, None]).ravel() + off
        )
        uniq, inv = np.unique(keys, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=complex)
        np.add.at(acc, inv, wprod)
        items = [
            (A(int(key) // base - off, int(key) % base - off, 4), complex(w) / norm)
            for key, w in zip(uniq, acc)
        ]
        return sorted(items, key=lambda t: t[0].value())
    pos = np.array([float(p) for p, _ in points])
    diffs = (pos[None, :] - pos[:, None]).ravel()
    items = []
    for idx in np.argsort(diffs, kind="stable"):
        d, w = float(diffs[idx]), complex(wprod[idx])
        if items and abs(d - items[-1][0]) < 1e-12:
            items[-1] = (items[-1][0], items[-1][1] + w)
        else:
            items.append((d, w))
    return [(d, w / norm) for d, w in items]


def _bits(pos):
    """A position compared bit for bit (an exact one by value)."""
    return ("exact", pos.a, pos.b, pos.c) if isinstance(pos, A) else ("float", float(pos).hex())


def _items(comb):
    return [(_bits(p.position), p.weight) for p in comb.points]


def _ref_items(items):
    return [(_bits(pos), w) for pos, w in items]


# -- deform_patch on columns ---------------------------------------------------

_BREAK = A(1, -1, 1).value()  # star(1 + sqrt2): a chain point's star lands on it
_PWL = PiecewiseLinearDeformation(
    ((-0.75, 0.0), (_BREAK, 0.07), (-0.2, 0.12), (0.0, 0.05), (0.375, 0.15), (0.75, 0.02))
)
THETAS = {
    "float 0.5": AffineDeformation(0.5, 0.0),
    "float -0.3 beta 0.1": AffineDeformation(-0.3, 0.1),
    "exact 3-2sqrt2": AffineDeformation(parse_exact("3-2*sqrt2"), 0),
    "exact 3-2sqrt2 beta 1/4": AffineDeformation(parse_exact("3-2*sqrt2"), Fraction(1, 4)),
    "exact 1/3 (float comb)": AffineDeformation(parse_exact("1/3"), 0),
    "exact 1/3 beta 1/5+1/7 sqrt2": AffineDeformation(parse_exact("1/3"), parse_exact("1/5+1/7*sqrt2")),
    "exact 1": AffineDeformation(1, 0),
    "pwl on a breakpoint": _PWL,
}
PATCHES = {
    "projection": lambda: project_patch(300.0),
    "substitution": lambda: fixed_point_patch(7).trim(150.0),
}


@pytest.mark.parametrize("patch_name", sorted(PATCHES))
@pytest.mark.parametrize("theta_name", sorted(THETAS))
def test_deform_patch_matches_object_path(patch_name, theta_name):
    patch, theta = PATCHES[patch_name](), THETAS[theta_name]
    comb = deform_patch(patch, theta)
    expect = _ref_deform_patch(patch, theta)
    assert _items(comb) == _ref_items(expect)
    kinds = {isinstance(p.position, A) for p in comb.points}
    assert kinds == {comb.is_exact}
    assert comb.positions_float().tolist() == [float(pos) for pos, _ in expect]


def test_pwl_sample_lands_on_breakpoints():
    patch = project_patch(300.0)
    stars = {x.star().value() for x in numbers(patch.a4, patch.b4)}
    assert {_BREAK, 0.0} <= stars & {y for y, _ in _PWL.breakpoints}


def test_exact_third_mixes_exact_and_float_shifts():
    # the all-float comb of alpha = 1/3 still takes the exact sum where the
    # shift is a quarter-integer (at x* = 0 and multiples of 3)
    theta = THETAS["exact 1/3 (float comb)"]
    comb = deform_patch(project_patch(300.0), theta)
    assert not comb.is_exact and np.any(comb.offset == 0.0) and np.any(comb.offset != 0.0)


@given(st.lists(st.floats(-1.0, 1.0) | st.sampled_from([y for y, _ in _PWL.breakpoints]),
                min_size=1, max_size=40))
def test_pwl_evaluate_floats_bit_equal(ys):
    got = _PWL.evaluate_floats(np.array(ys)).tolist()
    assert [v.hex() for v in got] == [float(_ref_pwl_float(_PWL, y)).hex() for y in ys]
    assert [_PWL.evaluate_float(y) for y in ys] == got


def test_outside_domain_message_matches():
    patch = project_patch(30.0).translate(A(1, 0, 1))
    theta = AffineDeformation(0.5, 0.0)
    with pytest.raises(ValueError) as new:
        deform_patch(patch, theta)
    with pytest.raises(ValueError) as old:
        _ref_deform_patch(patch, theta)
    assert str(new.value) == str(old.value)


def test_exact_shift_operands_beyond_2_53_raise_at_once():
    theta = AffineDeformation(Fraction(1, 2**52 + 1), 0)
    with pytest.raises(CoefficientOverflowError):
        deform_patch(project_patch(30.0), theta)
    # an exact beta needs the same common denominator
    theta = AffineDeformation(0, Fraction(1, 2**51 + 1))
    with pytest.raises(CoefficientOverflowError):
        deform_patch(project_patch(30.0), theta)


_near = st.tuples(st.integers(-6, 6), st.integers(-5, 5)).map(lambda t: t[0] + 3e-13 * t[1])
_weights = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
_exact = st.tuples(st.integers(-6, 6), st.integers(-3, 3), st.sampled_from([1, 2, 4])).map(
    lambda t: A(*t)
)


@given(st.lists(st.tuples(_near, _weights), max_size=60))
def test_float_merge_matches_object_path(raw):
    comb = _merged(*_raw_columns(raw), 10.0)
    assert [(p.position, p.weight) for p in comb.points] == _ref_merge_points(raw)


@given(st.lists(st.tuples(_exact, _weights), max_size=60))
def test_exact_merge_matches_object_path(raw):
    comb = _merged(*_raw_columns(raw), 10.0)
    assert comb.is_exact
    assert _items(comb) == _ref_items(_ref_merge_points(raw))


def _raw_columns(raw):
    zero = np.zeros(len(raw), dtype=np.int64)
    weight = np.array([w for _, w in raw], dtype=complex)
    return zero, zero, _offset_column([pos for pos, _ in raw]), weight


def test_points_view_and_columns_are_read_only():
    comb = deform_patch(project_patch(50.0), AffineDeformation(0.5, 0.0))
    assert all(isinstance(p, CombPoint) for p in comb.points)
    assert comb.points is comb.points
    for col in (comb.a4, comb.b4, comb.offset, comb.weight, comb.positions_float()):
        with pytest.raises(ValueError):
            col[0] = 0


def test_mismatched_columns_raise():
    zero = np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError, match="one length"):
        DiracComb(zero, zero, np.zeros(2), np.ones(3), 5.0)
    with pytest.raises(ValueError, match="one length"):
        DiracComb(zero, zero, np.zeros((3, 3), dtype=np.int64), np.ones(3), 5.0)


# -- Weyl sums in internal space -----------------------------------------------

R_BIG = 10_000.0


@pytest.fixture(scope="module")
def patch10k():
    return project_patch(R_BIG)


def _mp_weyl(comb, ks):
    """40-digit sums over the exact parent plus the offset as a binary float."""
    mpmath.mp.dps = 40
    s2 = mpmath.sqrt(2)
    if comb.is_exact:
        a4, b4 = comb.exact_columns()
        off = [mpmath.mpf(0)] * len(comb)
    else:
        a4, b4 = comb.a4, comb.b4
        off = [mpmath.mpf(v) for v in comb.offset.tolist()]
    xs = [(mpmath.mpf(a) + b * s2) / 4 + o for a, b, o in zip(a4.tolist(), b4.tolist(), off)]
    weights = comb.weight.tolist()
    out = []
    for k in ks:
        kv = (mpmath.mpf(k.a) + k.b * s2) / k.c
        total = mpmath.fsum(w * mpmath.expj(-2 * mpmath.pi * kv * x) for x, w in zip(xs, weights))
        out.append(complex(total / (2 * comb.radius)))
    return np.array(out)


@pytest.mark.parametrize("alpha", ["0", "3-2*sqrt2", "0.5"])
def test_weyl_sums_match_mpmath_at_radius_1e4(patch10k, alpha):
    value = float(alpha) if "." in alpha else parse_exact(alpha)
    comb = deform_patch(patch10k, AffineDeformation(value, 0))
    ks = [A(1, 0, 2), A(0, 1, 4), A(6, -3, 4), A(-4, 7, 4)]
    a4 = np.array([k.quarter()[0] for k in ks])
    b4 = np.array([k.quarter()[1] for k in ks])
    err = np.abs(weyl_sums(comb, a4, b4) - _mp_weyl(comb, ks))
    assert err.max() <= 1e-15


def test_small_comb_far_out_in_kstar_matches_mpmath():
    # |k*| ~ 250-500 against |k| * radius < 2: the internal phase k* x*
    # would be the larger one here (errors up to 1.4e-14), so these rows
    # keep k x
    comb = deform_patch(project_patch(10.0), AffineDeformation(parse_exact("3-2*sqrt2"), 0))
    ks = [A(600, -424, 4), A(700, -495, 4), A(-500, 354, 4), A(1000, -707, 4)]
    err = np.abs(weyl_sums(comb, *_columns(ks)) - _mp_weyl(comb, ks))
    assert err.max() <= 1e-15


@pytest.fixture(scope="module")
def combs():
    patch = project_patch(1000.0)
    return {
        "undeformed": DiracComb.from_patch(patch),
        "exact": deform_patch(patch, AffineDeformation(parse_exact("3-2*sqrt2"), 0)),
        "float": deform_patch(patch, AffineDeformation(0.5, 0.1)),
        "pwl": deform_patch(patch, _PWL),
        "small": deform_patch(project_patch(10.0), AffineDeformation(parse_exact("3-2*sqrt2"), 0)),
    }


def _columns(ks):
    return (np.array([k.quarter()[0] for k in ks], dtype=np.int64),
            np.array([k.quarter()[1] for k in ks], dtype=np.int64))


# leading wave numbers and a few far out in k*, where a small comb keeps k*x
KS = numbers(*leading_dual_columns(40)) + [A(2 * 40, -57, 4), A(-2 * 61, 86, 4), A(2 * 200, -283, 4)]


@pytest.mark.parametrize("name", ["undeformed", "exact", "float", "pwl", "small"])
def test_weyl_sums_match_compensated_sum(combs, name):
    comb = combs[name]
    points = [(p.position, p.weight) for p in comb.points]
    expect = np.array([_ref_weyl_sum(points, comb.radius, k) for k in KS])
    got = weyl_sums(comb, *_columns(KS))
    assert np.abs(got - expect).max() <= 1e-12
    assert [weyl_sum(comb, k) for k in KS[:5]] == pytest.approx(got[:5].tolist(), abs=1e-15)


@pytest.mark.parametrize("name", ["float", "exact", "small"])
def test_weyl_sums_block_invariant(combs, name, monkeypatch):
    comb = combs[name]
    a4, b4 = _columns(KS)
    base = weyl_sums(comb, a4, b4)
    for block in (1, 7, len(comb) - 1):
        monkeypatch.setattr(diffraction, "_WEYL_BLOCK", block)
        assert np.abs(weyl_sums(comb, a4, b4) - base).max() <= 1e-15


@pytest.mark.parametrize("name", ["undeformed", "exact", "float", "pwl"])
def test_lattice_part_moves_between_parent_and_offset(combs, name):
    comb = combs[name]
    a4, b4 = _columns(KS)
    base = weyl_sums(comb, a4, b4)
    # all of each position as offset, parent 0
    flat = DiracComb.from_items([(p.position, p.weight) for p in comb.points], comb.radius)
    assert np.abs(weyl_sums(flat, a4, b4) - base).max() <= 1e-12
    # a lattice vector t moved from every offset into every parent
    t = A(3, -2, 1)
    ta, tb = t.quarter()
    if comb.is_exact:
        offset = comb.offset - np.array([[ta], [tb]])
    else:
        offset = comb.offset - t.value()
    moved = DiracComb(comb.a4 + ta, comb.b4 + tb, offset, comb.weight, comb.radius)
    assert np.abs(weyl_sums(moved, a4, b4) - base).max() <= 1e-12


def test_weyl_sums_refuse_wave_numbers_off_the_dual_module(combs):
    with pytest.raises(ValueError, match="dual module"):
        weyl_sums(combs["float"], np.array([1]), np.array([0]))


def test_weyl_sum_off_module_takes_the_external_phase(combs):
    comb = combs["float"]
    points = [(p.position, p.weight) for p in comb.points]
    for k in (1.0 / 3.0, math.pi / 10.0, A(1, 0, 4), A(1, 0, 3)):
        assert abs(weyl_sum(comb, k) - _ref_weyl_sum(points, comb.radius, k)) <= 1e-12


def test_exact_shift_off_the_quarter_integers_gives_a_float_comb():
    comb = DiracComb.from_patch(project_patch(10.0))
    third = A(1, 0, 3)
    want = (comb.positions_float() + third.value()).tolist()
    for moved in (comb.translate(third), deform_measure(comb, FixedKernel(((third, 1.0 + 0j),)))):
        assert not moved.is_exact
        assert moved.positions_float().tolist() == want
    assert comb.translate(A(1, 0, 4)).is_exact


def test_empty_comb_sums_to_zero():
    comb = DiracComb.from_items([], 5.0)
    assert weyl_sums(comb, *_columns(KS)).tolist() == [0j] * len(KS)


# -- autocorrelation on columns --------------------------------------------------


def _jittered_comb():
    # differences of these points coincide up to a few 1e-13, so runs of
    # near-equal differences span more than the 1e-12 merge tolerance
    rng = np.random.default_rng(7)
    base = np.sort(rng.choice(np.arange(-40, 41), size=50, replace=False)).astype(float)
    pos = base + 4e-13 * rng.integers(-3, 4, size=50)
    w = rng.normal(size=50) + 1j * rng.normal(size=50)
    return DiracComb.from_items(list(zip(pos.tolist(), w.tolist())), 40.0)


@pytest.mark.parametrize("name", ["undeformed", "exact", "float", "jittered", "empty"])
def test_autocorrelation_matches_object_loop(name):
    patch = project_patch(120.0)
    comb = {
        "undeformed": lambda: DiracComb.from_patch(patch),
        "exact": lambda: deform_patch(patch, AffineDeformation(parse_exact("3-2*sqrt2"), 0)),
        "float": lambda: deform_patch(patch, AffineDeformation(0.5, 0.1)),
        "jittered": _jittered_comb,
        "empty": lambda: DiracComb.from_items([], 5.0),
    }[name]()
    got = autocorrelation_finite(comb)
    expect = _ref_autocorrelation([(p.position, p.weight) for p in comb.points], comb.radius)
    assert [(p.position, p.weight) for p in got.points] == expect
    assert got.is_exact == comb.is_exact


def test_jittered_differences_exercise_the_merge_scan():
    comb = _jittered_comb()
    pos = comb.positions_float()
    diffs = np.sort((pos[None, :] - pos[:, None]).ravel())
    start = deform._float_groups(diffs)
    firsts = np.flatnonzero(np.append(True, np.diff(diffs) >= 1e-12))
    # some run of close neighbours is split by the chain-to-first rule
    assert start.sum() > len(firsts)
