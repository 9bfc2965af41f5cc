import math
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, strategies as st

from quasilattice.quadfield import (
    AlgebraicNumber,
    CoefficientOverflowError,
    SILVER_MEAN,
    SILVER_MEAN_CONJ,
    SQRT2,
    dual_pairing,
    enumerate_dual,
    exact_compare,
    parse_exact,
    star,
)

A = AlgebraicNumber

coeffs = st.integers(min_value=-(10**9), max_value=10**9)
denoms = st.sampled_from([1, 2, 4])
numbers = st.builds(A, coeffs, coeffs, denoms)


def test_star_silver_mean():
    assert star(SILVER_MEAN) == SILVER_MEAN_CONJ
    assert abs(star(SILVER_MEAN).value()) < 1.0


def test_star_fixes_zero():
    assert star(A(0, 0, 1)) == A(0, 0, 1)


def test_star_involution_example():
    x = A(3, -5, 1)
    assert star(star(x)) == x


@given(numbers)
def test_star_involution(x):
    assert star(star(x)) == x


@given(numbers, numbers)
def test_star_additive(x, y):
    assert star(x + y) == star(x) + star(y)


ring_numbers = st.builds(A, coeffs, coeffs, st.just(1))


@given(numbers, ring_numbers)
def test_star_multiplicative(x, y):
    # one factor integral keeps the product inside the quarter-integer set
    assert star(x * y) == star(x) * star(y)


def test_product_leaving_quarter_integers_representable():
    x = A(1, 0, 4) * A(1, 0, 4)
    assert (x.a, x.b, x.c) == (1, 0, 16)
    with pytest.raises(ValueError):
        x.quarter()


def test_compare_one_vs_half_sqrt2():
    # 1 > sqrt2/2 since 4 > 2 after squaring and cross multiplying
    assert exact_compare(A(1, 0, 1), A(0, 1, 2)) == 1


def test_compare_equal():
    x = A(7, -3, 4)
    assert exact_compare(x, x) == 0


def test_compare_silver_vs_two():
    assert exact_compare(SILVER_MEAN, A(2, 0, 1)) == 1


@given(numbers, numbers)
def test_compare_matches_floats_when_separated(x, y):
    if abs(x.value() - y.value()) > 1e-9:
        assert exact_compare(x, y) == (1 if x.value() > y.value() else -1)


@given(numbers)
def test_cmp_float_consistent(x):
    q = round(x.value() + 0.123456, 6)
    s = x.cmp_float(q)
    diff = x.value() - q
    if abs(diff) > 1e-9:
        assert s == (1 if diff > 0 else -1)


def test_canonical_reduction():
    assert A(2, 2, 2) == A(1, 1, 1)
    assert A(4, 8, 4) == A(1, 2, 1)
    x = A(6, 2, 4)
    assert (x.a, x.b, x.c) == (3, 1, 2)


def test_any_denominator_reduces_by_gcd():
    assert (A(1, 1, 3).a, A(1, 1, 3).b, A(1, 1, 3).c) == (1, 1, 3)
    assert (A(1, 0, 8).a, A(1, 0, 8).c) == (1, 8)
    assert A(2, 2, 8) == A(1, 1, 4)
    x = A(6, -9, 15)
    assert (x.a, x.b, x.c) == (2, -3, 5)
    assert A(0, 0, 7) == A(0, 0, 1)


def test_negative_denominator_rejected():
    with pytest.raises(ValueError):
        A(1, 0, -1)


def test_overflow_checked():
    big = 2**62
    with pytest.raises(CoefficientOverflowError):
        A(2**63 + 1, 0, 1)
    with pytest.raises(CoefficientOverflowError):
        A(big, 0, 1) * 4
    with pytest.raises(CoefficientOverflowError):
        A(1, 0, 2**63 + 1)
    with pytest.raises(CoefficientOverflowError):
        A(1, 0, 2**32 + 1) * A(1, 0, 2**32 - 1)
    with pytest.raises(CoefficientOverflowError):
        parse_exact("99999999999999999999/3")


def test_value_embedding_small():
    x = A(3, -5, 4)
    assert x.value() == pytest.approx((3 - 5 * math.sqrt(2)) / 4, abs=1e-15)


def test_value_embedding_cancellation():
    # Pell pair: 665857 - 470832*sqrt2 = 1/(665857 + 470832*sqrt2) ~ 7.5e-7;
    # the naive float difference of the two terms would lose ~9 digits here
    x = A(665857, -470832, 1)
    assert x.value() == pytest.approx(1.0 / (665857 + 470832 * math.sqrt(2)), rel=1e-12)


def test_ordering_operators():
    assert A(0, 1, 2) < A(1, 0, 1) < SILVER_MEAN
    assert max(A(1, 0, 1), SILVER_MEAN) == SILVER_MEAN


def test_str_and_json_roundtrip():
    x = A(-2, 1, 2)
    assert str(x) == "(-2+1*sqrt2)/2"
    assert A.from_json(x.to_json()) == x


def test_dual_coords():
    assert A(1, 0, 2).dual_coords() == (1, 0)
    assert A(0, 1, 4).dual_coords() == (0, 1)
    assert A(1, 0, 4).dual_coords() is None


@pytest.mark.parametrize("x", [A(1, 0, 3), A(0, 1, 8), A(2, 1, 6), A(1, 1, 12)])
def test_quarter_and_dual_coords_off_the_quarter_integers(x):
    with pytest.raises(ValueError, match="not a quarter-integer"):
        x.quarter()
    assert x.dual_coords() is None
    assert A(3, -2, 4).quarter() == (3, -2)
    assert A(1, 1, 2).quarter() == (2, 2)


def test_enumerate_dual_small():
    # brute-force box oracle with the same bounds
    k_max, ks_max = 0.6, 1.2
    expect = set()
    for m in range(-10, 11):
        for n in range(-10, 11):
            v = (2 * m + n * math.sqrt(2)) / 4
            vs = (2 * m - n * math.sqrt(2)) / 4
            if abs(v) <= k_max and abs(vs) <= ks_max:
                expect.add((m, n))
    got = enumerate_dual(k_max)
    assert {k.dual_coords() for k in got} == expect
    listed = {A(2, 0, 4), A(0, 1, 4), A(2, -1, 4), A(0, 0, 1)}
    assert listed <= set(got)  # 1/2, sqrt2/4, (2-sqrt2)/4, 0


def test_enumerate_dual_degenerate():
    assert enumerate_dual(0.0) == [A(0, 0, 1)]


def test_enumerate_dual_inclusive_boundary():
    # the cutoff comparison is exact, so a bound hitting an element keeps it
    assert A(1, 0, 2) in enumerate_dual(0.5)
    assert A(1, 0, 2) not in enumerate_dual(0.49999999999)


def test_enumerate_dual_sorted_and_symmetric():
    ks = enumerate_dual(1.7)
    vals = [k.value() for k in ks]
    assert vals == sorted(vals)
    assert len(set(ks)) == len(ks)
    pool = set(ks)
    assert all(-k in pool for k in ks)


def test_enumerate_dual_star_stable():
    # the conjugate of a dual element is again a dual element
    for k in enumerate_dual(0.8):
        assert star(k).dual_coords() is not None
    assert A(1, 0, 2) in enumerate_dual(0.8)
    assert star(A(1, 0, 2)) == A(1, 0, 2)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-200, 200), st.integers(-200, 200))
def test_duality_pairing_integer(m, n, p, q):
    k = A(2 * m, n, 4)
    x = A(p, q, 1)
    assert dual_pairing(k, x).is_integer()


def test_quadrational_arithmetic():
    a = A.of(1) + A.of(Fraction(1, 3)) * SQRT2  # 1 + sqrt2/3
    b = A.of(SILVER_MEAN)
    prod = a * b
    assert _ref(prod) == (Fraction(1) + Fraction(2, 3), Fraction(1) + Fraction(1, 3))
    assert b.star() == A.of(SILVER_MEAN_CONJ)
    assert A.of(3).is_integer()
    assert A.of(Fraction(6, 2)).is_integer()
    assert not a.is_integer()
    with pytest.raises(TypeError):
        A.of(0.5)


@pytest.mark.parametrize(
    "text,rat,irr",
    [
        ("1", 1, 0),
        ("-2/3", Fraction(-2, 3), 0),
        ("3-2*sqrt2", 3, -2),
        ("1+1/3*sqrt2", 1, Fraction(1, 3)),
        ("sqrt2", 0, 1),
        ("-sqrt2", 0, -1),
    ],
)
def test_parse_exact(text, rat, irr):
    assert _ref(parse_exact(text)) == (Fraction(rat), Fraction(irr))


@pytest.mark.parametrize("bad", ["0.5", "two", "1**sqrt2", "", "1/0", "1+2/00*sqrt2"])
def test_parse_exact_rejects(bad):
    with pytest.raises(ValueError):
        parse_exact(bad)


# -- general denominators against a Fraction-pair reference ----------------------

def _ref(x):
    """x = r + s*sqrt2 as the Fraction pair (r, s)."""
    return Fraction(x.a, x.c), Fraction(x.b, x.c)


def _ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _ref_mul(x, y):
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_sign(x):
    """Exact sign of r + s*sqrt2: compare r^2 with 2 s^2 when the signs differ."""
    r, s = x
    if r >= 0 and s >= 0 or r <= 0 and s <= 0:
        return (r + s > 0) - (r + s < 0)
    return (1 if r > 0 else -1) * (1 if r * r > 2 * s * s else -1)


def _ref_value(x):
    with mpmath.workdps(50):
        return float(mpmath.mpf(x[0].numerator) / x[0].denominator
                     + mpmath.mpf(x[1].numerator) / x[1].denominator * mpmath.sqrt(2))


general = st.builds(
    A, st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6), st.integers(1, 720)
)


@given(general)
def test_general_denominator_reduction(x):
    assert x.c > 0 and gcd(x.a, x.b, x.c) == 1
    r, s = _ref(x)
    assert x.c == math.lcm(r.denominator, s.denominator)


@given(general, general)
def test_general_denominator_matches_fraction_pairs(x, y):
    rx, ry = _ref(x), _ref(y)
    assert _ref(x + y) == _ref_add(rx, ry)
    assert _ref(x - y) == _ref_add(rx, (-ry[0], -ry[1]))
    assert _ref(x * y) == _ref_mul(rx, ry)
    assert _ref(x.star()) == (rx[0], -rx[1])
    diff_sign = _ref_sign(_ref_add(rx, (-ry[0], -ry[1])))
    assert (x < y) == (diff_sign < 0)
    assert (x == y) == (diff_sign == 0)
    assert exact_compare(x, y) == diff_sign
    assert x.value() == pytest.approx(_ref_value(rx), rel=1e-15, abs=0.0)


@given(general)
def test_text_is_the_inverse_of_parse_exact(x):
    assert parse_exact(x.text()) == x


def test_text_form():
    assert A(1, 0, 3).text() == "1/3+0*sqrt2"
    assert A(3, -2, 1).text() == "3-2*sqrt2"
    assert A(2, 1, 2).text() == "1+1/2*sqrt2"
    assert A(-7, -2, 35).text() == "-1/5-2/35*sqrt2"
