"""Deformations of the chain, at the point level and the measure level.

Point level: x -> x + theta(star(x)) with theta defined on the window,
either affine alpha*y + beta or sampled piecewise linear.  Exact input
positions stay exact whenever theta has exact coefficients.

Measure level: each point of a weighted Dirac comb is replaced by a
translated finite kernel chosen from the local configuration around the
point.  Constant kernels reproduce translation and the identity; the
construction commutes with translation away from the patch boundary and
never destroys a period of the input.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .cutproject import Window, silver_window
from .quadfield import (
    AlgebraicNumber,
    CoefficientOverflowError,
    check_columns,
    column_reduced,
    column_values,
    parse_exact,
)
from .substitution import LabeledPatch, _blocks, _csv

Position = Union[AlgebraicNumber, float]
ExactScalar = Union[int, Fraction, AlgebraicNumber]
Scalar = Union[float, ExactScalar]

_MERGE_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)
# integers below this are exact as float64, so P/(4L) rounds like the exact fraction
_FLOAT_EXACT = 2**53

# admissible slope range for the affine family; the b gaps close at -1
AFFINE_ALPHA_MIN = -1.0
AFFINE_ALPHA_MAX = 3.0 + _SQRT2


def _is_exact(v: Scalar) -> bool:
    return isinstance(v, (int, Fraction, AlgebraicNumber))


def scalar_from_json(v: object) -> Scalar:
    """A deformation parameter as a config or the command line gives it.

    An int, Fraction or AlgebraicNumber stays exact and a float stays a
    float; {"a", "b", "c"} with int entries is (a + b*sqrt2)/c.  A string
    is read as an integer (exact), a decimal (a float) or an exact Q(sqrt2)
    expression like '3-2*sqrt2' or '1/2'.
    """
    if isinstance(v, str):
        if re.fullmatch(r"[+-]?\d+", v):
            return int(v)
        try:
            return float(v)
        except ValueError:
            return parse_exact(v)
    if isinstance(v, dict):
        if set(v) != {"a", "b", "c"} or not all(type(x) is int for x in v.values()):
            raise ValueError(f"an exact number is {{'a', 'b', 'c'}} with int entries, got {v!r}")
        return AlgebraicNumber.from_json(v)
    if isinstance(v, (int, float, Fraction, AlgebraicNumber)) and not isinstance(v, bool):
        return v
    raise TypeError(f"cannot read {v!r} as a number")


def _scalar_float(v: Scalar) -> float:
    """The float of a deformation parameter: an exact r + s*sqrt2 embeds as
    float(r) + float(s)*sqrt2, the rounding every exact-theta output is
    computed with (positions use the cancellation-safe value())."""
    if isinstance(v, AlgebraicNumber):
        return float(Fraction(v.a, v.c)) + float(Fraction(v.b, v.c)) * _SQRT2
    return float(v)


@dataclass(frozen=True)
class AffineDeformation:
    """theta(y) = alpha*y + beta on the window, undefined off it."""

    alpha: Scalar
    beta: Scalar = 0
    domain: Window | None = None

    kind = "affine"

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")

    def window(self) -> Window:
        return self.domain if self.domain is not None else silver_window()

    def is_exact(self) -> bool:
        return _is_exact(self.alpha) and _is_exact(self.beta)

    def evaluate(self, y: AlgebraicNumber) -> Position:
        if not self.window().contains(y):
            raise ValueError(f"{y} is outside the deformation domain")
        if self.is_exact():
            q = AlgebraicNumber.of(self.alpha) * y + AlgebraicNumber.of(self.beta)
            return _scalar_float(q) if 4 % q.c else q
        return _scalar_float(self.alpha) * y.value() + _scalar_float(self.beta)

    def evaluate_float(self, y: float) -> float:
        return _scalar_float(self.alpha) * y + _scalar_float(self.beta)

    def evaluate_floats(self, y: np.ndarray) -> np.ndarray:
        """evaluate_float over a float column, bit for bit."""
        return _scalar_float(self.alpha) * y + _scalar_float(self.beta)

    def max_slope(self) -> float:
        return abs(_scalar_float(self.alpha))

    def spread(self) -> float:
        lo, hi = self.window().bounds()
        a = _scalar_float(self.alpha)
        return abs(a) * (hi.value() - lo.value())

    def breakpoints_float(self) -> list[float]:
        return []

    def to_json(self) -> dict:
        def enc(v: Scalar):
            if isinstance(v, AlgebraicNumber):
                return v.text()
            if isinstance(v, Fraction):
                return str(v)
            return v

        return {"kind": "affine", "alpha": enc(self.alpha), "beta": enc(self.beta)}


@dataclass(frozen=True)
class PiecewiseLinearDeformation:
    """theta sampled at strictly increasing breakpoints covering the window.

    Evaluation interpolates linearly between neighbouring samples; a query
    hitting a breakpoint returns the tabulated value (ties resolve to the
    table, i.e. left-continuously).
    """

    breakpoints: tuple[tuple[float, float], ...]
    domain: Window | None = None

    kind = "piecewise_linear"

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for pt in self.breakpoints for v in pt):
            raise ValueError("breakpoints must be finite")
        ys = [y for y, _ in self.breakpoints]
        if len(ys) < 2:
            raise ValueError("need at least two breakpoints")
        if any(y2 <= y1 for y1, y2 in zip(ys, ys[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        lo, hi = self.window().bounds()
        if ys[0] > lo.value() or ys[-1] < hi.value():
            raise ValueError("breakpoints must cover the window")

    def window(self) -> Window:
        return self.domain if self.domain is not None else silver_window()

    def is_exact(self) -> bool:
        return False

    def evaluate(self, y: AlgebraicNumber) -> float:
        if not self.window().contains(y):
            raise ValueError(f"{y} is outside the deformation domain")
        return self.evaluate_float(y.value())

    def evaluate_float(self, y: float) -> float:
        return float(self.evaluate_floats(np.array([y], dtype=np.float64))[0])

    def evaluate_floats(self, y: np.ndarray) -> np.ndarray:
        """Linear interpolation over a float column; a query on a
        breakpoint returns the table value."""
        ys, vs = np.array(self.breakpoints, dtype=np.float64).T
        i = np.searchsorted(ys, y, side="left")
        on = np.minimum(i, len(ys) - 1)
        tie = (i < len(ys)) & (ys[on] == y)
        # clamp to the outermost segments: float rounding of an exact domain
        # point may land a hair outside the sampled range
        j = np.clip(i, 1, len(ys) - 1) - 1
        slope = (vs[1:] - vs[:-1]) / (ys[1:] - ys[:-1])
        return np.where(tie, vs[on], vs[j] + (y - ys[j]) * slope[j])

    def max_slope(self) -> float:
        return max(
            abs((v1 - v0) / (y1 - y0))
            for (y0, v0), (y1, v1) in zip(self.breakpoints, self.breakpoints[1:])
        )

    def spread(self) -> float:
        vals = [v for _, v in self.breakpoints]
        return max(vals) - min(vals)

    def breakpoints_float(self) -> list[float]:
        return [y for y, _ in self.breakpoints]

    def to_json(self) -> dict:
        return {"kind": "pwl", "points": [[y, v] for y, v in self.breakpoints]}


DeformationMap = Union[AffineDeformation, PiecewiseLinearDeformation]


def deformation_from_json(obj: dict) -> DeformationMap:
    kind = obj.get("kind")
    if kind == "affine":
        return AffineDeformation(
            scalar_from_json(obj["alpha"]), scalar_from_json(obj.get("beta", 0))
        )
    if kind == "pwl":
        return PiecewiseLinearDeformation(
            tuple((float(y), float(v)) for y, v in obj["points"])
        )
    raise ValueError(f"unknown deformation kind {kind!r}")


@dataclass(frozen=True)
class CombPoint:
    position: Position
    weight: complex

    def position_float(self) -> float:
        return float(self.position)


def _is_quarter(v: Position) -> bool:
    """An exact position the int64 comb columns can hold."""
    return isinstance(v, AlgebraicNumber) and 4 % v.c == 0


def _offset_column(values: Sequence[Position]) -> np.ndarray:
    """Offsets as one column kind: quarter-scaled int64 rows (a4, b4) of
    shape (2, N) when every value is a quarter-integer AlgebraicNumber,
    float64 otherwise."""
    if all(_is_quarter(v) for v in values):
        return np.array([v.quarter() for v in values], dtype=np.int64).reshape(-1, 2).T
    return np.array([float(v) for v in values], dtype=np.float64)


def _float_offsets(offset: np.ndarray) -> np.ndarray:
    return column_values(offset[0], offset[1]) if offset.ndim == 2 else offset


@dataclass(frozen=True, eq=False)
class DiracComb:
    """Finite weighted Dirac comb, positions sorted ascending, as columns.

    Point i sits at x_i + off_i with weight ``weight[i]`` (complex128).
    The parent x_i = (a4[i] + b4[i]*sqrt2)/4 is the undeformed point in
    int64 quarter-scaled columns, as in LabeledPatch (0 for a comb built
    from arbitrary positions).  The offsets are of one kind for the whole
    comb: exact int64 quarter-scaled rows (oa4, ob4) of shape (2, N), or
    float64 of shape (N,); a float position is x_i.value() + off_i.  The
    columns are read-only; ``points`` is an object view built on first use.
    """

    a4: np.ndarray
    b4: np.ndarray
    offset: np.ndarray
    weight: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        a4 = np.asarray(self.a4, dtype=np.int64)
        b4 = np.asarray(self.b4, dtype=np.int64)
        offset = np.asarray(self.offset)
        offset = offset.astype(np.int64 if offset.ndim == 2 else np.float64, copy=False)
        weight = np.asarray(self.weight, dtype=np.complex128)
        if (a4.ndim != 1 or b4.shape != a4.shape or weight.shape != a4.shape
                or offset.shape not in (a4.shape, (2, *a4.shape))):
            raise ValueError("a4, b4, offset and weight must be columns of one length")
        check_columns(a4, b4)
        if offset.ndim == 2:
            check_columns(*offset)
            positions = column_values(a4 + offset[0], b4 + offset[1])
        else:
            positions = column_values(a4, b4) + offset
        if (np.diff(positions) < 0).any():
            raise ValueError("positions must be sorted")
        for name, col in (("a4", a4), ("b4", b4), ("offset", offset), ("weight", weight),
                          ("_positions", positions)):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.a4)

    @property
    def is_exact(self) -> bool:
        return self.offset.ndim == 2

    def exact_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Quarter-scaled (a4, b4) of the positions of an exact comb."""
        if not self.is_exact:
            raise ValueError("a float comb has no exact positions")
        return self.a4 + self.offset[0], self.b4 + self.offset[1]

    def lattice_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(la4, lb4, rest): position i is (la4[i] + lb4[i]*sqrt2)/4 + rest[i]
        with the first part the parent rounded down into Z[sqrt2] (la4, lb4
        multiples of 4) and a float rest within 1 + sqrt2 of the offset
        (the offset itself when the parent lies in Z[sqrt2])."""
        ra, rb = self.a4 % 4, self.b4 % 4
        return self.a4 - ra, self.b4 - rb, column_values(ra, rb) + _float_offsets(self.offset)

    def positions_float(self) -> np.ndarray:
        return self._positions

    @cached_property
    def points(self) -> tuple[CombPoint, ...]:
        """The points as CombPoint objects, built on first use."""
        if self.is_exact:
            a4, b4 = self.exact_columns()
            pos: list = [AlgebraicNumber(a, b, 4) for a, b in zip(a4.tolist(), b4.tolist())]
        else:
            pos = self._positions.tolist()
        return tuple(map(CombPoint, pos, self.weight.tolist()))

    def mass(self) -> complex:
        return sum(self.weight.tolist(), 0j)

    def translate(self, t: Position) -> DiracComb:
        """Shift every point by t: a quarter-integer t moves the parents,
        any other t the offsets (and makes the comb float)."""
        radius = self.radius + abs(float(t))
        if _is_quarter(t):
            ta, tb = t.quarter()
            return DiracComb(self.a4 + ta, self.b4 + tb, self.offset, self.weight, radius)
        offset = _float_offsets(self.offset) + float(t)
        return DiracComb(self.a4, self.b4, offset, self.weight, radius)

    def to_csv(self) -> str:
        header = "position_float,a,b,c,label,weight_re,weight_im"

        def rows(s: slice) -> Iterator[tuple]:
            pos, w = self._positions[s].tolist(), self.weight[s]
            if not self.is_exact:
                return zip(pos, w.real.tolist(), w.imag.tolist())
            offset = self.offset[:, s]
            a, b, c = column_reduced(self.a4[s] + offset[0], self.b4[s] + offset[1])
            return zip(pos, a.tolist(), b.tolist(), c.tolist(), w.real.tolist(), w.imag.tolist())

        fmt = "%.17g,%d,%d,%d,,%.17g,%.17g" if self.is_exact else "%.17g,,,,,%.17g,%.17g"
        return _csv(header, fmt, chain.from_iterable(map(rows, _blocks(len(self)))))

    @classmethod
    def from_patch(cls, patch: LabeledPatch) -> DiracComb:
        n = len(patch)
        return cls(patch.a4, patch.b4, np.zeros((2, n), dtype=np.int64),
                   np.ones(n, dtype=np.complex128), patch.radius_float)

    @classmethod
    def from_items(
        cls, items: Sequence[tuple[Position, complex]], radius: float
    ) -> DiracComb:
        """Points at arbitrary positions (parent 0, the position as offset),
        sorted stably by position; coincident points are kept apart."""
        offset = _offset_column([pos for pos, _ in items])
        weight = np.array([w for _, w in items], dtype=np.complex128)
        order = np.argsort(_float_offsets(offset), kind="stable")
        zero = np.zeros(len(items), dtype=np.int64)
        return cls(zero, zero, offset[..., order], weight[order], radius)


def _float_groups(pos: np.ndarray) -> np.ndarray:
    """Group starts of ascending floats: a point joins the group of its
    predecessor when it lies within _MERGE_TOL of that group's first point.

    A run of close neighbours spanning less than the tolerance is one
    group; only longer runs are scanned point by point.
    """
    start = np.ones(len(pos), dtype=bool)
    start[1:] = np.diff(pos) >= _MERGE_TOL
    firsts = np.flatnonzero(start)
    lasts = np.append(firsts[1:], len(pos)) - 1
    wide = pos[lasts] - pos[firsts] >= _MERGE_TOL
    for s, e in zip(firsts[wide].tolist(), lasts[wide].tolist()):
        first = s
        for i in range(s + 1, e + 1):
            if pos[i] - pos[first] >= _MERGE_TOL:
                start[i] = True
                first = i
    return start


def _merged(
    a4: np.ndarray, b4: np.ndarray, offset: np.ndarray, weight: np.ndarray, radius: float
) -> DiracComb:
    """The comb of the given points, sorted by position, with coincident
    points merged into the first of them by weight addition (in input
    order for exact positions, in sorted order for floats).

    Exact positions merge on exact equality (one np.unique over packed
    keys), float positions when closer than 1e-12 to the first point of
    their group.
    """
    if offset.ndim == 2:
        pa, pb = a4 + offset[0], b4 + offset[1]
        check_columns(pa, pb)
        # lexicographic (pa, pb); below 2**31 the key stays inside int64
        keys = pa * (1 << 32) + (pb + (1 << 31))
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        acc = np.zeros(len(first), dtype=np.complex128)
        np.add.at(acc, group, weight)
        order = np.argsort(column_values(pa[first], pb[first]), kind="stable")
        keep, acc = first[order], acc[order]
    else:
        pos = column_values(a4, b4) + offset
        order = np.argsort(pos, kind="stable")
        start = _float_groups(pos[order])
        w = weight[order]
        acc = w[start]
        np.add.at(acc, np.cumsum(start)[~start] - 1, w[~start])
        keep = order[start]
    return DiracComb(a4[keep], b4[keep], offset[..., keep], acc, radius)


def _exact_affine(
    theta: AffineDeformation, a4: np.ndarray, b4: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(parent a4, parent b4, offset) of x + theta(x*) for an exact affine
    theta, on integer columns.

    With alpha = (R + S*sqrt2)/L and beta = (Rb + Sb*sqrt2)/L over one
    denominator L = lcm(alpha.c, beta.c), theta(x*) = (P + Q*sqrt2)/(4L) for
    the int64 columns P = R*a4 - 2S*b4 + 4Rb and Q = S*a4 - R*b4 + 4Sb.
    When L divides every P and Q the offsets are the exact rows (P/L, Q/L).
    Otherwise the comb is float: a row with an exact shift becomes the
    parent x + theta(x*) with offset 0, any other keeps x and takes the
    float shift P/(4L) + (Q/(4L))*sqrt2, so positions round as the
    parameter embedding of the exact shift does.
    Operands of 2**53 or more raise CoefficientOverflowError first.
    """
    alpha, beta = AlgebraicNumber.of(theta.alpha), AlgebraicNumber.of(theta.beta)
    d = lcm(alpha.c, beta.c)
    r, s = alpha.a * (d // alpha.c), alpha.b * (d // alpha.c)
    rb, sb = beta.a * (d // beta.c), beta.b * (d // beta.c)
    amax = int(np.abs(a4).max(initial=0))
    bmax = int(np.abs(b4).max(initial=0))
    p_bound = abs(r) * amax + 2 * abs(s) * bmax + 4 * abs(rb)
    q_bound = abs(s) * amax + abs(r) * bmax + 4 * abs(sb)
    if max(4 * d, p_bound, q_bound) >= _FLOAT_EXACT:
        raise CoefficientOverflowError(
            f"alpha = {alpha.text()}, beta = {beta.text()} need shift operands beyond 2**53"
        )
    p = r * a4 - 2 * s * b4 + 4 * rb
    q = s * a4 - r * b4 + 4 * sb
    exact = (p % d == 0) & (q % d == 0)
    if exact.all():
        return a4, b4, np.stack([p // d, q // d])
    pa = np.where(exact, a4 + p // d, a4)
    pb = np.where(exact, b4 + q // d, b4)
    four_d = float(4 * d)
    return pa, pb, np.where(exact, 0.0, p / four_d + (q / four_d) * _SQRT2)


def deform_patch(patch: LabeledPatch, theta: DeformationMap) -> DiracComb:
    """{x + theta(star(x))} over the patch, each point of unit weight,
    on whole columns.

    The comb holds one kind of position: exact when every shift is a
    quarter-integer, float otherwise (an exact theta gives float shifts
    where its values leave the quarter-integers).  Coincident points merge.
    """
    a4, b4 = patch.a4, patch.b4
    inside = theta.window().mask(a4, -b4)
    if not inside.all():
        i = int(np.argmin(inside))
        y = AlgebraicNumber(int(a4[i]), -int(b4[i]), 4)
        raise ValueError(f"{y} is outside the deformation domain")
    if isinstance(theta, AffineDeformation) and theta.is_exact():
        a4, b4, offset = _exact_affine(theta, a4, b4)
    else:
        offset = theta.evaluate_floats(column_values(a4, -b4))
    return _merged(a4, b4, offset, np.ones(len(a4), dtype=np.complex128), patch.radius_float)


def interval_ratio(alpha: float) -> float:
    """Deformed a/b interval length ratio 1 + sqrt2*(1-alpha)/(1+alpha)."""
    a = _scalar_float(alpha)
    if a == -1.0:
        raise ZeroDivisionError("alpha = -1 collapses the b intervals")
    return 1.0 + (1.0 - a) / (1.0 + a) * _SQRT2


def delone_check(
    theta: DeformationMap, min_gap: float = 0.0
) -> tuple[bool, float]:
    """Admissibility of a deformation of the silver-mean chain.

    Returns (admissible, worst nearest-neighbour gap).  For the affine
    family the gaps are exact functions of alpha and the admissibility
    verdict is the open range (-1, 3+sqrt2); for sampled maps the verdict
    uses the conservative criterion spread(theta) < 1 (the minimal gap of
    the undeformed chain), with the worst gap taken from the breakpoint
    slopes.
    """
    if isinstance(theta, AffineDeformation):
        a = _scalar_float(theta.alpha)
        gap_b = 1.0 + a
        gap_a = (1.0 + _SQRT2) + a * (1.0 - _SQRT2)
        worst = min(gap_a, gap_b)
        ok = AFFINE_ALPHA_MIN < a < AFFINE_ALPHA_MAX and worst > min_gap
        return ok, worst
    # steps of the chain move by theta(y + step*) - theta(y); bound via slopes
    slope = theta.max_slope()
    gap_b = 1.0 - slope * 1.0
    gap_a = (1.0 + _SQRT2) - slope * (_SQRT2 - 1.0)
    worst = min(gap_a, gap_b)
    ok = theta.spread() < 1.0 and worst > min_gap
    return ok, worst


def density(comb: DiracComb) -> float:
    """Total weight per unit length of the averaging interval."""
    if comb.radius <= 0:
        raise ValueError("radius must be positive")
    m = comb.mass()
    d = m / (2.0 * comb.radius)
    return d.real if abs(d.imag) == 0.0 else abs(d)


KernelTable = Mapping[tuple[float, ...], tuple[tuple[Position, complex], ...]]


@dataclass(frozen=True)
class FixedKernel:
    """Point-independent replacement measure."""

    offsets: tuple[tuple[Position, complex], ...]

    kind = "fixed"

    def select(self, config: tuple[float, ...]) -> tuple[tuple[Position, complex], ...]:
        return self.offsets


@dataclass(frozen=True)
class LocalKernel:
    """Kernel chosen by the local configuration within local_radius.

    The configuration key is the sorted tuple of position differences
    (own point included, hence a leading 0.0) rounded to 1e-9; unknown
    configurations fall back to the required default kernel.
    """

    local_radius: float
    table: KernelTable
    default: tuple[tuple[Position, complex], ...]

    kind = "local_lookup"

    def select(self, config: tuple[float, ...]) -> tuple[tuple[Position, complex], ...]:
        return self.table.get(config, self.default)


KernelRule = Union[FixedKernel, LocalKernel]


def local_configuration(
    positions: Sequence[float], index: int, local_radius: float
) -> tuple[float, ...]:
    """Canonical key: sorted differences to comb points within local_radius.

    ``positions`` must be sorted ascending: bisection finds a slightly wider
    run of candidates, and the filter then keeps exactly the points within
    local_radius.
    """
    center = positions[index]
    reach = local_radius + 1e-12
    slack = 1e-9 * (abs(center) + reach)
    lo = bisect.bisect_left(positions, center - reach - slack)
    hi = bisect.bisect_right(positions, center + reach + slack)
    return tuple(sorted(
        round(p - center, 9) for p in positions[lo:hi] if abs(p - center) <= reach
    ))


def deform_measure(comb: DiracComb, rule: KernelRule) -> DiracComb:
    """Replace every point by its translated kernel; coincident output
    positions merge by weight addition.  The output is exact when the comb
    and every kernel offset are, float otherwise."""
    positions = comb.positions_float().tolist()
    index: list[int] = []
    offsets: list[Position] = []
    weights: list[complex] = []
    for i, w in enumerate(comb.weight.tolist()):
        if isinstance(rule, LocalKernel):
            kernel = rule.select(local_configuration(positions, i, rule.local_radius))
        else:
            kernel = rule.select(())
        for off, kw in kernel:
            index.append(i)
            offsets.append(off)
            weights.append(w * kw)
    idx = np.array(index, dtype=np.int64)
    extra = _offset_column(offsets)
    if comb.is_exact and extra.ndim == 2:
        offset = comb.offset[:, idx] + extra
    else:
        offset = _float_offsets(comb.offset)[idx] + _float_offsets(extra)
    return _merged(comb.a4[idx], comb.b4[idx], offset, np.array(weights, dtype=np.complex128), comb.radius)


def detect_periods(
    comb: DiracComb, candidates: Sequence[float], tol: float
) -> list[float]:
    """Candidates t for which the comb, restricted to the band
    [-r + t, r - t], is invariant under translation by t.

    The band radius r is the comb radius clipped to the actual extent of
    the points, so a deformation that pulls the boundary points inward
    does not mask a genuine interior period.  Each candidate is one
    comparison of the band's positions and weights with those of the
    points that translation by t moves into it.
    """
    pos, weight = comb.positions_float(), comb.weight
    if not len(pos):
        return []
    reach = min(comb.radius, -float(pos[0]), float(pos[-1]))
    found: list[float] = []
    for t in candidates:
        if t <= 0:
            raise ValueError("period candidates must be positive")
        lo, hi = -reach + t, reach - t
        if lo >= hi:
            continue
        moved = pos + t
        core = (lo <= pos) & (pos <= hi)
        shifted = (lo <= moved) & (moved <= hi)
        if core.sum() != shifted.sum():
            continue
        if ((np.abs(pos[core] - moved[shifted]) <= tol).all()
                and (np.abs(weight[core] - weight[shifted]) <= tol).all()):
            found.append(t)
    return found
