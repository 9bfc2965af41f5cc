"""Columnar exact patches against scalar AlgebraicNumber references.

Every fast path over int64 coefficient columns is compared with the
one-object-per-point computation it replaces: the sign test, the float
embedding, the radius check, projection, substitution, translate, trim and
the CSV writer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasilattice import cutproject, substitution
from quasilattice.cutproject import (
    Window,
    project_patch,
    silver_subwindows,
    silver_window,
)
from quasilattice.quadfield import (
    COLUMN_LIMIT,
    AlgebraicNumber,
    CoefficientOverflowError,
    _sign_pair,
    column_signs,
    column_values,
    column_within,
)
from quasilattice.substitution import (
    LabeledPatch,
    SubstitutionRule,
    fixed_point_extent,
    fixed_point_patch,
    silver_mean_rule,
    substitute_power,
)

from reference import numbers

A = AlgebraicNumber
coeff = st.integers(-(COLUMN_LIMIT - 1), COLUMN_LIMIT - 1)
small = st.integers(-24, 24)
quarter = st.builds(lambda a, b: A(a, b, 4), small, small)


def _points(patch):
    """(position, label) per point of a patch."""
    return list(zip(numbers(patch.a4, patch.b4), patch.label.tolist()))


def _cols(nums):
    q = [x.quarter() for x in nums]
    return (np.array([a for a, _ in q], dtype=np.int64),
            np.array([b for _, b in q], dtype=np.int64))


# -- elementwise primitives --------------------------------------------------

@given(st.lists(st.tuples(coeff, coeff), min_size=1, max_size=50))
def test_column_signs_match_scalar(pairs):
    p = np.array([a for a, _ in pairs], dtype=np.int64)
    q = np.array([b for _, b in pairs], dtype=np.int64)
    assert column_signs(p, q).tolist() == [_sign_pair(a, b) for a, b in pairs]


def test_column_signs_near_pell_solutions():
    # p^2 - 2q^2 = +-1: p + q*sqrt2 within 1e-9 of 0, decided only by the integer test
    pell = [(768398401, 543339720), (275807, 195025), (665857, 470832)]
    pairs = [(s * p, -s * q) for p, q in pell for s in (1, -1)]
    pairs += [(COLUMN_LIMIT - 1, -(COLUMN_LIMIT - 1)), (0, 0), (5, 0), (0, -5)]
    assert all(abs(p * p - 2 * q * q) == 1 for p, q in pairs[:6])
    p = np.array([a for a, _ in pairs], dtype=np.int64)
    q = np.array([b for _, b in pairs], dtype=np.int64)
    assert column_signs(p, q).tolist() == [_sign_pair(a, b) for a, b in pairs]


@pytest.mark.parametrize("bad", [COLUMN_LIMIT, -COLUMN_LIMIT, 2**62])
def test_column_signs_refuse_overflow(bad):
    with pytest.raises(CoefficientOverflowError):
        column_signs(np.array([bad], dtype=np.int64), np.array([1], dtype=np.int64))


@given(st.lists(st.tuples(coeff, coeff), min_size=1, max_size=50))
def test_column_values_bit_equal_to_scalar(pairs):
    a4, b4 = _cols([A(a, b, 4) for a, b in pairs])
    got = column_values(a4, b4).tolist()
    assert got == [A(a, b, 4).value() for a, b in pairs]


radius_float = st.one_of(
    st.sampled_from([0.3, 12.7, 1.0, 3.0, math.sqrt(2.0), 1e-3]),
    st.floats(0.01, 50.0),
)


@given(st.lists(quarter, max_size=30), radius_float)
def test_column_within_float_radius(points, radius):
    a4, b4 = _cols(points)
    assert column_within(a4, b4, radius).tolist() == [
        abs(x).cmp_float(radius) <= 0 for x in points
    ]


@given(st.lists(quarter, max_size=30), quarter)
def test_column_within_exact_radius(points, radius):
    a4, b4 = _cols(points)
    assert column_within(a4, b4, radius).tolist() == [
        (radius - abs(x)).sign() >= 0 for x in points
    ]


def test_column_within_float_edge_is_exact():
    # the float embedding of 1 + sqrt2 rounds; radii one ulp either side
    x = A(1, 1, 1)
    a4, b4 = _cols([x, -x])
    v = x.value()
    for r in (math.nextafter(v, 0.0), v, math.nextafter(v, 10.0)):
        expect = x.cmp_float(r) <= 0
        assert column_within(a4, b4, r).tolist() == [expect, expect]


# -- projection --------------------------------------------------------------

def _brute_project(radius, window, subwindows):
    lo, hi = window.bounds()
    w = max(abs(lo.value()), abs(hi.value()))
    m_box = int((radius + w) / 2) + 3
    n_box = int((radius + w) / (2 * math.sqrt(2.0))) + 3
    pts = []
    for m in range(-m_box, m_box + 1):
        for n in range(-n_box, n_box + 1):
            x = A(m, n, 1)
            if abs(x).cmp_float(radius) > 0 or not window.contains(x.star()):
                continue
            label = next(
                (name for name, sub in sorted(subwindows.items()) if sub.contains(x.star())),
                None,
            )
            pts.append((x, label))
    pts.sort(key=lambda item: item[0].value())
    return pts


@st.composite
def windows(draw, max_intervals=2):
    ends = sorted(set(draw(st.lists(quarter, min_size=2, max_size=2 * max_intervals))),
                  key=AlgebraicNumber.value)
    if len(ends) < 2:
        ends = [ends[0], ends[0] + A(1, 0, 1)]
    return Window.from_intervals(list(zip(ends[0::2], ends[1::2])))


project_radius = st.one_of(
    st.sampled_from([0.3, 12.7, 1.0, 2.0, 3.0, 7.0]),
    st.integers(1, 15).map(float),
    st.floats(0.05, 15.0),
)


@given(project_radius, windows(), st.lists(windows(1), max_size=3))
def test_project_patch_matches_brute_force(radius, window, subs):
    subwindows = {name: w for name, w in zip("abc", subs)}
    patch = project_patch(radius, window, subwindows)
    assert _points(patch) == _brute_project(
        radius, window, subwindows
    )


@pytest.mark.parametrize("radius", [0.3, 12.7, 1.0, 2.0, 41.0, 99.0])
def test_project_patch_silver_matches_brute_force(radius):
    subs = silver_subwindows()
    patch = project_patch(radius)
    assert _points(patch) == _brute_project(
        radius, silver_window(), subs
    )


@given(st.floats(0.05, 60.0), windows(), st.lists(windows(1), max_size=2), st.integers(1, 9))
def test_project_patch_blocks_match_one_block(radius, window, subs, block):
    subwindows = {name: w for name, w in zip("ab", subs)}
    whole = project_patch(radius, window, subwindows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cutproject, "_M_BLOCK", block)
        parts = project_patch(radius, window, subwindows)
    for name in ("a4", "b4", "label"):
        assert getattr(parts, name).tolist() == getattr(whole, name).tolist()


def _validation_outcome(a4, b4, radius):
    try:
        LabeledPatch(a4, b4, np.full(len(a4), None, dtype=object), radius)
    except ValueError as exc:
        return str(exc)
    return "accepted"


@given(
    st.integers(0, 40), st.integers(0, 40),
    st.sampled_from(["valid", "swap", "repeat", "outside", "swap and outside"]),
    st.integers(1, 9),
)
def test_patch_validation_blocks_match_one_block(i, j, fault, block):
    # columns of the radius-20 chain with an order fault near i and/or a
    # radius fault at j; the order message wins when both are present
    base = project_patch(20.0)
    a4, b4 = base.a4.copy(), base.b4.copy()
    i, j = i % (len(a4) - 1), j % len(a4)
    if "swap" in fault:
        a4[[i, i + 1]], b4[[i, i + 1]] = a4[[i + 1, i]], b4[[i + 1, i]]
    if fault == "repeat":
        a4[i + 1], b4[i + 1] = a4[i], b4[i]
    radius = 20.0
    if "outside" in fault:
        radius = float(abs(column_values(a4[j:j + 1], b4[j:j + 1])[0])) * (1 - 1e-9)
        radius = max(radius, 1e-3)
    whole = _validation_outcome(a4, b4, radius)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(substitution, "_M_BLOCK", block)
        assert _validation_outcome(a4, b4, radius) == whole
    assert (whole == "accepted") == (fault == "valid")


def test_project_patch_refuses_overflow_before_allocating():
    with pytest.raises(CoefficientOverflowError):
        project_patch(1e10)


# -- substitution --------------------------------------------------------------

def _scalar_fixed_point(level, rule):
    word = substitute_power(rule, "a", level)
    right, pos = [], A(0, 0, 1)
    for ch in word:
        right.append((pos, ch))
        pos = pos + rule.lengths[ch]
    return [(p - pos, ch) for p, ch in right] + right, pos


positive_length = st.builds(lambda a, b: A(a, b, 4), st.integers(1, 12), st.integers(0, 8))


@st.composite
def rules(draw):
    images = {
        "a": "a" + draw(st.text("ab", min_size=1, max_size=3)),
        "b": draw(st.text("ab", min_size=1, max_size=3)),
    }
    return SubstitutionRule(images, {"a": draw(positive_length), "b": draw(positive_length)})


@pytest.mark.parametrize("level", range(9))
def test_fixed_point_patch_matches_scalar_sums(level):
    rule = silver_mean_rule()
    patch = fixed_point_patch(level)
    pts, extent = _scalar_fixed_point(level, rule)
    assert _points(patch) == pts
    assert patch.radius == extent == fixed_point_extent(level)


@given(rules(), st.integers(0, 4))
def test_fixed_point_patch_general_rule(rule, level):
    pts, extent = _scalar_fixed_point(level, rule)
    patch = fixed_point_patch(level, rule)
    assert _points(patch) == pts
    assert patch.radius == extent == fixed_point_extent(level, rule)


def test_fixed_point_patch_refuses_overflow_before_building():
    with pytest.raises(CoefficientOverflowError):
        fixed_point_patch(30)


# -- translate, trim, validation ----------------------------------------------

@given(quarter, st.floats(1.0, 30.0))
def test_translate_matches_scalar(t, radius):
    patch = project_patch(radius)
    moved = patch.translate(t)
    assert numbers(moved.a4, moved.b4) == [x + t for x in numbers(patch.a4, patch.b4)]
    assert moved.label.tolist() == patch.label.tolist()
    r = moved.radius
    assert all(abs(x).cmp_float(r) <= 0 for x in numbers(moved.a4, moved.b4))
    assert r >= radius + abs(t.value())


@given(quarter)
def test_translate_exact_radius(t):
    patch = fixed_point_patch(3)
    moved = patch.translate(t)
    assert moved.radius == patch.radius + abs(t)
    assert numbers(moved.a4, moved.b4) == [x + t for x in numbers(patch.a4, patch.b4)]


@given(st.one_of(radius_float, quarter))
def test_trim_matches_scalar(radius):
    patch = fixed_point_patch(5).translate(A(1, 1, 4))
    trimmed = patch.trim(radius)

    def inside(x):
        if isinstance(radius, AlgebraicNumber):
            return (radius - abs(x)).sign() >= 0
        return abs(x).cmp_float(radius) <= 0

    assert _points(trimmed) == [
        (x, label) for x, label in _points(patch) if inside(x)
    ]


@given(st.lists(quarter, min_size=2, max_size=8))
def test_unsorted_input_raises(points):
    ordered = sorted(set(points), key=AlgebraicNumber.value)
    if len(ordered) < 2:
        return
    swapped = [ordered[1], ordered[0], *ordered[2:]]
    with pytest.raises(ValueError):
        LabeledPatch.from_points([(x, None) for x in swapped], 100.0)
    with pytest.raises(ValueError):  # a repeated point is not strictly increasing
        LabeledPatch.from_points([(ordered[0], None), (ordered[0], None)], 100.0)


@pytest.mark.parametrize("radius", [2.0, A(1, 1, 2)])
def test_out_of_radius_input_raises(radius):
    with pytest.raises(ValueError):
        LabeledPatch.from_points([(A(0, 0, 1), None), (A(5, 0, 1), None)], radius)
    a4, b4 = _cols([A(-9, 0, 1)])
    with pytest.raises(ValueError):
        LabeledPatch(a4, b4, np.array([None], dtype=object), radius)


def test_mismatched_columns_raise():
    with pytest.raises(ValueError):
        LabeledPatch(np.zeros(2, np.int64), np.zeros(1, np.int64), np.array([None, None]), 1.0)


def test_coefficient_limit_raises():
    big = np.array([COLUMN_LIMIT], dtype=np.int64)
    with pytest.raises(CoefficientOverflowError):
        LabeledPatch(big, np.zeros(1, np.int64), np.array([None], dtype=object), 1e12)
    with pytest.raises(CoefficientOverflowError):
        project_patch(10.0).translate(A(2**40, 0, 1))
    with pytest.raises(CoefficientOverflowError):
        fixed_point_patch(3).translate(A(0, 2**40, 1))


def test_columns_are_read_only():
    patch = project_patch(10.0)
    with pytest.raises(ValueError):
        patch.a4[0] = 0


# -- CSV --------------------------------------------------

def _scalar_csv(points):
    """Reference writer over (position, label) pairs of unit weight: one
    value at a time, %.17g for floats, str() otherwise."""
    def row(p):
        (pos, label), w = p, complex(1.0)
        return (pos.value(), pos.a, pos.b, pos.c, label or "", w.real, w.imag)

    lines = ["position_float,a,b,c,label,weight_re,weight_im"]
    lines.extend(
        ",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row(p))
        for p in points
    )
    return "\n".join(lines) + "\n"


@given(quarter)
def test_csv_matches_scalar_rows(t):
    patch = project_patch(20.0).translate(t)
    assert patch.to_csv() == _scalar_csv(_points(patch))


def test_empty_patch():
    patch = LabeledPatch.from_points([], 1.0)
    assert len(patch) == 0 and _points(patch) == []
    assert patch.to_csv() == "position_float,a,b,c,label,weight_re,weight_im\n"
    assert len(patch.trim(0.5)) == 0 and len(patch.translate(A(1, 0, 1))) == 0
