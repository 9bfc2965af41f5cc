import math

import pytest

from quasilattice.quadfield import AlgebraicNumber, SILVER_MEAN
from quasilattice.substitution import (
    LabeledPatch,
    SubstitutionRule,
    _csv,
    fixed_point_patch,
    pf_data,
    silver_mean_rule,
    substitute,
    substitute_power,
)

A = AlgebraicNumber
S = SILVER_MEAN


@pytest.mark.parametrize("word,image", [("a", "aba"), ("b", "a"), ("ab", "abaa")])
def test_substitute(word, image):
    assert substitute(silver_mean_rule(), word) == image


def test_rule_matrix_and_primitivity():
    rule = silver_mean_rule()
    assert rule.matrix() == [[2, 1], [1, 0]]
    assert rule.is_primitive()


def test_non_primitive_rule_rejected():
    rule = SubstitutionRule(
        images={"a": "a", "b": "b"},
        lengths={"a": A(1, 0, 1), "b": A(1, 0, 1)},
    )
    with pytest.raises(ValueError):
        pf_data(rule)


def test_pf_eigenvalue_exact():
    eig, _ = pf_data(silver_mean_rule())
    assert eig == S


def test_pf_frequencies():
    _, (fa, fb) = pf_data(silver_mean_rule())
    assert fa == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert fb == pytest.approx((2 - math.sqrt(2)) / 2, abs=1e-12)


def test_characteristic_identities():
    # x^2 - 2x - 1: trace 2, determinant -1
    s_star = S.star()
    assert S + s_star == A(2, 0, 1)
    assert S * s_star == A(-1, 0, 1)


def test_lengths_are_left_pf_eigenvector():
    rule = silver_mean_rule()
    m = rule.matrix()
    la, lb = rule.lengths["a"], rule.lengths["b"]
    assert la * m[0][0] + lb * m[1][0] == S * la
    assert la * m[0][1] + lb * m[1][1] == S * lb


def test_seed_patch_level0():
    patch = fixed_point_patch(0)
    assert [(p.position, p.label) for p in patch.points] == [
        (-S, "a"),
        (A(0, 0, 1), "a"),
    ]
    assert patch.radius == S


def test_patch_level1_right_half():
    patch = fixed_point_patch(1)
    right = [(p.position, p.label) for p in patch.points if p.position.sign() >= 0]
    assert right == [
        (A(0, 0, 1), "a"),
        (A(1, 1, 1), "b"),
        (A(2, 1, 1), "a"),
    ]


def test_letter_frequencies_level12():
    patch = fixed_point_patch(12)
    labels = patch.labels()
    fa = labels.count("a") / len(labels)
    fb = labels.count("b") / len(labels)
    assert abs(fa - math.sqrt(2) / 2) < 0.01
    assert abs(fb - (2 - math.sqrt(2)) / 2) < 0.01


@pytest.mark.parametrize("level", range(6))
def test_self_similarity(level):
    small = {p.position for p in fixed_point_patch(level).points}
    big = {p.position for p in fixed_point_patch(level + 1).points}
    assert {S * x for x in small} <= big


@pytest.mark.parametrize("level", range(6))
def test_reflection_symmetry(level):
    patch = fixed_point_patch(level)
    endpoints = {p.position for p in patch.points} | {patch.radius}
    assert {-e for e in endpoints} == endpoints
    # the interval starting at p_i mirrors the one ending at -p_i
    pts = patch.points
    for i in range(len(pts) - 1):
        mirrored = -pts[i + 1].position
        label_at = {p.position: p.label for p in pts}
        assert label_at[mirrored] == pts[i].label


def test_growth_rate_silver():
    c10 = len(fixed_point_patch(10))
    c9 = len(fixed_point_patch(9))
    assert abs(c10 / c9 - (1 + math.sqrt(2))) < 0.01 * (1 + math.sqrt(2))


def test_word_power_lengths():
    rule = silver_mean_rule()
    w = substitute_power(rule, "a", 6)
    counts = (w.count("a"), w.count("b"))
    assert counts == (169, 70)


def test_patch_sorted_validation():
    with pytest.raises(ValueError):
        LabeledPatch.from_points([(A(1, 0, 1), "a"), (A(0, 0, 1), "a")], radius=2.0)


def test_patch_radius_validation():
    with pytest.raises(ValueError):
        LabeledPatch.from_points([(A(5, 0, 1), "a")], radius=2.0)


def test_patch_csv():
    patch = fixed_point_patch(1)
    lines = patch.to_csv().strip().split("\n")
    assert lines[0] == "position_float,a,b,c,label,weight_re,weight_im"
    assert len(lines) == len(patch) + 1
    row = lines[1].split(",")
    assert row[1:4] == ["-3", "-2", "1"]  # leftmost point -(3+2*sqrt2)
    assert row[4] == "a"


def test_csv_helper_format():
    assert _csv("x,n,s", "%.17g,%d,%s", [(0.1, -3, "a"), (1.0, 0, "")]) == (
        "x,n,s\n0.10000000000000001,-3,a\n1,0,\n"
    )
    assert _csv("x", "%.17g", []) == "x\n"


def test_trim_and_translate():
    patch = fixed_point_patch(3)
    recentred = patch.translate(-S).trim(4.0)
    assert all(abs(p.position.value()) <= 4.0 + 1e-12 for p in recentred.points)
    assert any(p.position.is_zero() for p in recentred.points)
