"""Exact arithmetic in the quadratic field Q(sqrt2).

``AlgebraicNumber`` is the one exact number type: (a + b*sqrt2)/c with any
positive denominator c, stored reduced by gcd(a, b, c), with 64-bit
checked integer coefficients.  Lattice data lives in the quarter-integers
(c dividing 4): every point of the physical chain, every window endpoint
and every dual-module wave number is one of these, so set membership and
ordering decisions never touch floating point.  Exact deformation
parameters (parsed slopes, shifts) may have any denominator.
Point sets store quarter-integers as int64 columns of quarter-scaled
coefficients (a4 + b4*sqrt2)/4; the ``column_*`` functions are the
elementwise forms of the scalar sign test, embedding and radius check, and
``dual_columns`` enumerates the dual module in the same form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

import numpy as np

_SQRT2_FLOAT = math.sqrt(2.0)
_INT64_MAX = 2**63 - 1
# bound on |p| and |q| in an int64 sign test of p + q*sqrt2: below it,
# p*p - 2*q*q cannot overflow
COLUMN_LIMIT = 2**31
# relative distance to a float radius inside which the float embedding
# cannot decide |x| <= radius (its rounding error is below 2**-50)
_RADIUS_EDGE = 2.0**-30


class CoefficientOverflowError(OverflowError):
    """Raised when a coefficient leaves the checked 64-bit range."""


def _check64(v: int) -> int:
    if abs(v) > _INT64_MAX:
        raise CoefficientOverflowError(f"coefficient {v} exceeds 64-bit range")
    return v


def _sign_pair(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt2 for integers p, q."""
    if p == 0 and q == 0:
        return 0
    if p >= 0 and q >= 0:
        return 1
    if p <= 0 and q <= 0:
        return -1
    # Opposite signs: decide via p^2 vs 2 q^2 (equality impossible, sqrt2
    # is irrational). p > 0 > q: positive iff p^2 > 2 q^2.
    d = p * p - 2 * q * q
    return (1 if d > 0 else -1) if p > 0 else (1 if d < 0 else -1)


@total_ordering
@dataclass(frozen=True, eq=False)
class AlgebraicNumber:
    """(a + b*sqrt2)/c with c > 0, stored reduced: gcd(a, b, c) = 1."""

    a: int
    b: int
    c: int = 1

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int)):
            raise TypeError("coefficients must be int")
        if c <= 0:
            raise ValueError("denominator must be positive")
        g = gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "c", c)
        _check64(a)
        _check64(b)
        _check64(c)

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, v: AlgebraicNumber | Fraction | int) -> AlgebraicNumber:
        """An exact scalar (int, Fraction or AlgebraicNumber) as an AlgebraicNumber."""
        if isinstance(v, AlgebraicNumber):
            return v
        if isinstance(v, (int, Fraction)):
            f = Fraction(v)
            return cls(f.numerator, 0, f.denominator)
        raise TypeError(f"cannot interpret {v!r} as an element of Q(sqrt2)")

    @classmethod
    def dual_element(cls, m: int, n: int) -> AlgebraicNumber:
        """m/2 + n*sqrt2/4 = (2m + n*sqrt2)/4, an element of the dual module."""
        return cls(2 * m, n, 4)

    @classmethod
    def from_json(cls, obj: dict) -> AlgebraicNumber:
        return cls(int(obj["a"]), int(obj["b"]), int(obj["c"]))

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: object) -> AlgebraicNumber | None:
        if isinstance(other, AlgebraicNumber):
            return other
        if isinstance(other, int):
            return AlgebraicNumber(other, 0, 1)
        return None

    def __add__(self, other: AlgebraicNumber | int) -> AlgebraicNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = lcm(self.c, o.c)
        f, g = c // self.c, c // o.c
        return AlgebraicNumber(self.a * f + o.a * g, self.b * f + o.b * g, c)

    __radd__ = __add__

    def __sub__(self, other: AlgebraicNumber | int) -> AlgebraicNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: AlgebraicNumber | int) -> AlgebraicNumber:
        return (-self) + other

    def __neg__(self) -> AlgebraicNumber:
        return AlgebraicNumber(-self.a, -self.b, self.c)

    def __mul__(self, other: AlgebraicNumber | int) -> AlgebraicNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a = self.a * o.a + 2 * self.b * o.b
        b = self.a * o.b + self.b * o.a
        return AlgebraicNumber(a, b, self.c * o.c)

    __rmul__ = __mul__

    # -- order and embedding -------------------------------------------

    def sign(self) -> int:
        return _sign_pair(self.a, self.b)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.c == o.c

    def __lt__(self, other: AlgebraicNumber | int) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c))

    def __abs__(self) -> AlgebraicNumber:
        return -self if self.sign() < 0 else self

    def value(self) -> float:
        a, b = self.a, self.b
        if a == 0 or b == 0 or (a > 0) == (b > 0):
            return (a + b * _SQRT2_FLOAT) / self.c
        # opposite signs cancel; a + b*sqrt2 = (a^2 - 2 b^2)/(a - b*sqrt2)
        # keeps full relative precision for large coefficients
        return (a * a - 2 * b * b) / (a - b * _SQRT2_FLOAT) / self.c

    __float__ = value

    def cmp_float(self, q: float) -> int:
        """Exact sign of self - q, for any finite binary float q."""
        f = Fraction(q)
        p = self.a * f.denominator - f.numerator * self.c
        return _sign_pair(p, self.b * f.denominator)

    # -- structure -----------------------------------------------------

    def star(self) -> AlgebraicNumber:
        return AlgebraicNumber(self.a, -self.b, self.c)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integer(self) -> bool:
        return self.c == 1 and self.b == 0

    def quarter(self) -> tuple[int, int]:
        """(a4, b4) with self = (a4 + b4*sqrt2)/4; ValueError off the
        quarter-integers."""
        f, r = divmod(4, self.c)
        if r:
            raise ValueError(f"{self} is not a quarter-integer")
        return self.a * f, self.b * f

    def dual_coords(self) -> tuple[int, int] | None:
        """(m, n) with self = (2m + n*sqrt2)/4, or None if not in the dual module."""
        if 4 % self.c:
            return None
        a4, b4 = self.quarter()
        if a4 % 2:
            return None
        return (a4 // 2, b4)

    def text(self) -> str:
        """'r+s*sqrt2' with reduced fractions r, s: the form parse_exact reads."""
        r, s = Fraction(self.a, self.c), Fraction(self.b, self.c)
        return f"{r}{'+' if s >= 0 else ''}{s}*sqrt2"

    def __str__(self) -> str:
        return f"({self.a}{self.b:+}*sqrt2)/{self.c}"

    def __repr__(self) -> str:
        return f"AlgebraicNumber({self.a}, {self.b}, {self.c})"


ZERO = AlgebraicNumber(0, 0, 1)
ONE = AlgebraicNumber(1, 0, 1)
SQRT2 = AlgebraicNumber(0, 1, 1)
SILVER_MEAN = AlgebraicNumber(1, 1, 1)        # 1 + sqrt2
SILVER_MEAN_CONJ = AlgebraicNumber(1, -1, 1)  # 1 - sqrt2


def check_columns(*cols: np.ndarray) -> None:
    """Raise CoefficientOverflowError if an entry reaches COLUMN_LIMIT in magnitude."""
    for col in cols:
        if col.size and (col.max() >= COLUMN_LIMIT or col.min() <= -COLUMN_LIMIT):
            raise CoefficientOverflowError(
                f"quarter-scaled coefficient beyond 2**31 (max |v| = {np.abs(col).max()})"
            )


def column_signs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact sign of p + q*sqrt2, elementwise; the array form of _sign_pair."""
    check_columns(p, q)
    d = p * p - 2 * q * q
    return np.where(p * q < 0, np.sign(p) * np.sign(d), np.sign(p + q))


def column_values(a4: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """Float embedding of (a4 + b4*sqrt2)/4, elementwise; bit-equal to
    AlgebraicNumber.value."""
    check_columns(a4, b4)
    a, b = a4.astype(np.float64), b4.astype(np.float64)
    out = (a + b * _SQRT2_FLOAT) / 4
    opp = np.flatnonzero(a4 * b4 < 0)
    p, q = a4[opp], b4[opp]
    out[opp] = (p * p - 2 * q * q) / (a[opp] - b[opp] * _SQRT2_FLOAT) / 4
    return out


def column_reduced(
    a4: np.ndarray, b4: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduced (a, b, c) of (a4 + b4*sqrt2)/4, elementwise, as
    AlgebraicNumber stores it."""
    a, b, c = a4, b4, np.full(len(a4), 4, dtype=np.int64)
    for _ in range(2):
        half = (a % 2 == 0) & (b % 2 == 0) & (c > 1)
        a, b, c = (np.where(half, v // 2, v) for v in (a, b, c))
    return a, b, c


def column_within(
    a4: np.ndarray, b4: np.ndarray, radius: float | AlgebraicNumber
) -> np.ndarray:
    """Exact |x| <= radius for x = (a4 + b4*sqrt2)/4, elementwise.

    An exact radius is two sign tests.  Against a float radius the
    embedding decides, except within rounding distance of the radius,
    where the scalar cmp_float does.
    """
    if isinstance(radius, AlgebraicNumber):
        ra, rb = radius.quarter()
        return (column_signs(ra - a4, rb - b4) >= 0) & (column_signs(ra + a4, rb + b4) >= 0)
    v = np.abs(column_values(a4, b4))
    inside = v <= radius
    for i in np.flatnonzero(np.abs(v - radius) <= _RADIUS_EDGE * radius):
        x = AlgebraicNumber(int(a4[i]), int(b4[i]), 4)
        inside[i] = abs(x).cmp_float(radius) <= 0
    return inside


def star(x: AlgebraicNumber) -> AlgebraicNumber:
    """Field conjugation sqrt2 -> -sqrt2."""
    return x.star()


def exact_compare(x: AlgebraicNumber, y: AlgebraicNumber) -> int:
    """-1, 0 or +1 as x < y, x = y, x > y.  Never consults floats."""
    return (x - y).sign()


def dual_columns(
    k_max: float, kstar_max: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Quarter-scaled int64 columns (a4, b4) = (2m, n) of every dual-module
    element k = (2m + n*sqrt2)/4 with |k| <= k_max and |star(k)| <= kstar_max,
    sorted ascending by the float embedding (stable, so ties keep the
    (m, n) order).

    The dual module is dense in R, so a bound on the conjugate is what
    makes the enumeration finite.  When ``kstar_max`` is omitted it
    defaults to max(2*k_max, 1.0); callers that need a completeness
    guarantee (e.g. every peak above an intensity floor) should pass the
    bound they derived.  Both bounds are decided exactly.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if kstar_max is None:
        kstar_max = max(2.0 * k_max, 1.0)
    # m = k + star(k), n*sqrt2/2 = k - star(k); widen by 1 against rounding.
    m_hi = int(math.floor((k_max + kstar_max))) + 1
    # |n| <= (4 k_max + 2 m_hi)/sqrt2 + 2 < 2 m_hi + 6 k_max + 2
    if 2 * m_hi + 6 * k_max + 2 >= COLUMN_LIMIT:
        raise CoefficientOverflowError(
            f"bounds k_max={k_max}, kstar_max={kstar_max} need coefficients beyond 2**31"
        )
    m = np.arange(-m_hi, m_hi + 1, dtype=np.int64)
    # |k| <= k_max gives n*sqrt2 in [-4 k_max - 2m, 4 k_max - 2m].
    n_lo = np.floor((-4 * k_max - 2 * m) / _SQRT2_FLOAT).astype(np.int64) - 1
    n_hi = np.ceil((4 * k_max - 2 * m) / _SQRT2_FLOAT).astype(np.int64) + 1
    counts = n_hi - n_lo + 1
    starts = np.cumsum(counts) - counts
    a4 = np.repeat(2 * m, counts)
    b4 = np.arange(counts.sum(), dtype=np.int64) + np.repeat(n_lo - starts, counts)
    keep = column_within(a4, b4, k_max) & column_within(a4, -b4, kstar_max)
    a4, b4 = a4[keep], b4[keep]
    order = np.argsort(column_values(a4, b4), kind="stable")
    return a4[order], b4[order]


def enumerate_dual(
    k_max: float, kstar_max: float | None = None
) -> list[AlgebraicNumber]:
    """The elements of ``dual_columns(k_max, kstar_max)`` as AlgebraicNumbers,
    in the same ascending order."""
    a4, b4 = dual_columns(k_max, kstar_max)
    return [AlgebraicNumber(a, b, 4) for a, b in zip(a4.tolist(), b4.tolist())]


def parse_exact(text: str) -> AlgebraicNumber:
    """Parse 'p', 'p/q', '3-2*sqrt2', '1+1/3*sqrt2', ... into an AlgebraicNumber.

    Only exact rational coefficients are accepted; decimal notation is
    rejected on purpose.
    """
    s = text.strip().replace(" ", "")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if not tokens or "".join(tokens) != s:
        raise ValueError(f"could not parse {text!r}")
    rat, irr = Fraction(0), Fraction(0)
    for tok in tokens:
        m = re.fullmatch(r"([+-]?)(?:(\d+(?:/0*[1-9]\d*)?)\*?)?(sqrt2)?", tok)
        if m is None or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"could not parse {text!r}")
        coef = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(1) == "-":
            coef = -coef
        if m.group(3):
            irr += coef
        else:
            rat += coef
    return AlgebraicNumber.of(rat) + AlgebraicNumber.of(irr) * SQRT2
