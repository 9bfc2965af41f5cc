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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .cutproject import Window, silver_window
from .quadfield import AlgebraicNumber, QuadRational
from .substitution import LabeledPatch, _csv

Position = Union[AlgebraicNumber, float]
ExactScalar = Union[int, Fraction, AlgebraicNumber, QuadRational]
Scalar = Union[float, ExactScalar]

_MERGE_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)

# admissible slope range for the affine family; the b gaps close at -1
AFFINE_ALPHA_MIN = -1.0
AFFINE_ALPHA_MAX = 3.0 + _SQRT2


def _is_exact(v: Scalar) -> bool:
    return isinstance(v, (int, Fraction, AlgebraicNumber, QuadRational))


def _scalar_float(v: Scalar) -> float:
    if isinstance(v, (AlgebraicNumber, QuadRational)):
        return v.value()
    return float(v)


def _exact_mul(v: ExactScalar, y: AlgebraicNumber) -> QuadRational:
    return QuadRational.of(v) * QuadRational.of(y)


@dataclass(frozen=True)
class AffineDeformation:
    """theta(y) = alpha*y + beta on the window, undefined off it."""

    alpha: Scalar
    beta: Scalar = 0
    domain: Window | None = None

    kind = "affine"

    def window(self) -> Window:
        return self.domain if self.domain is not None else silver_window()

    def is_exact(self) -> bool:
        return _is_exact(self.alpha) and _is_exact(self.beta)

    def evaluate(self, y: AlgebraicNumber) -> Position:
        if not self.window().contains(y):
            raise ValueError(f"{y} is outside the deformation domain")
        if self.is_exact():
            q = _exact_mul(self.alpha, y) + QuadRational.of(self.beta)
            denom = (q.rat.denominator, q.irr.denominator)
            if all(d in (1, 2, 4) for d in denom):
                lcm = 4
                return AlgebraicNumber(
                    int(q.rat * lcm), int(q.irr * lcm), lcm
                )
            return q.value()
        return _scalar_float(self.alpha) * y.value() + _scalar_float(self.beta)

    def evaluate_float(self, y: float) -> float:
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
                return v.to_json()
            if isinstance(v, QuadRational):
                return str(v)
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
        ys = [p for p, _ in self.breakpoints]
        i = bisect.bisect_left(ys, y)
        if i < len(ys) and ys[i] == y:
            return self.breakpoints[i][1]
        # clamp to the outermost segments: float rounding of an exact domain
        # point may land a hair outside the sampled range
        i = min(max(i, 1), len(ys) - 1)
        y0, v0 = self.breakpoints[i - 1]
        y1, v1 = self.breakpoints[i]
        slope = (v1 - v0) / (y1 - y0)
        return v0 + (y - y0) * slope

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
        def dec(v):
            if isinstance(v, dict):
                return AlgebraicNumber.from_json(v)
            if isinstance(v, str):
                from .quadfield import parse_exact

                return parse_exact(v)
            return v

        return AffineDeformation(dec(obj["alpha"]), dec(obj.get("beta", 0)))
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
        p = self.position
        return p.value() if isinstance(p, AlgebraicNumber) else float(p)


@dataclass(frozen=True)
class DiracComb:
    """Finite weighted Dirac comb, positions sorted ascending."""

    points: tuple[CombPoint, ...]
    radius: float

    def __post_init__(self) -> None:
        vals = [p.position_float() for p in self.points]
        if any(v2 < v1 for v1, v2 in zip(vals, vals[1:])):
            raise ValueError("positions must be sorted")

    def __len__(self) -> int:
        return len(self.points)

    def positions_float(self) -> list[float]:
        return [p.position_float() for p in self.points]

    def mass(self) -> complex:
        return sum((p.weight for p in self.points), 0j)

    def translate(self, t: Position) -> DiracComb:
        pts = []
        for p in self.points:
            if isinstance(p.position, AlgebraicNumber) and isinstance(
                t, AlgebraicNumber
            ):
                pos: Position = p.position + t
            else:
                pos = p.position_float() + (
                    t.value() if isinstance(t, AlgebraicNumber) else float(t)
                )
            pts.append(CombPoint(pos, p.weight))
        return DiracComb(tuple(pts), self.radius + abs(_scalar_float(t)))

    def restrict(self, lo: float, hi: float) -> list[CombPoint]:
        return [p for p in self.points if lo <= p.position_float() <= hi]

    def to_csv(self) -> str:
        def row(p: CombPoint) -> tuple:
            pos, w = p.position, complex(p.weight)
            if isinstance(pos, AlgebraicNumber):
                abc = (pos.a, pos.b, pos.c)
            else:
                abc = ("", "", "")
            return (p.position_float(), *abc, w.real, w.imag)

        # %s takes the ints of an exact position and the blanks of a float one
        return _csv(
            "position_float,a,b,c,label,weight_re,weight_im",
            "%.17g,%s,%s,%s,,%.17g,%.17g",
            map(row, self.points),
        )

    @classmethod
    def from_patch(cls, patch: LabeledPatch) -> DiracComb:
        pts = tuple(CombPoint(x, 1.0 + 0.0j) for x in patch.positions())
        return cls(pts, patch.radius_float)

    @classmethod
    def from_items(
        cls, items: Sequence[tuple[Position, complex]], radius: float
    ) -> DiracComb:
        pts = [CombPoint(pos, w) for pos, w in items]
        pts.sort(key=CombPoint.position_float)
        return cls(tuple(pts), radius)


def _merge_points(raw: list[tuple[Position, complex]]) -> list[CombPoint]:
    """Accumulate weights of coincident positions.

    Exact positions merge on exact equality; float positions merge when
    closer than 1e-12.
    """
    exact: dict[AlgebraicNumber, complex] = {}
    floats: list[tuple[float, complex]] = []
    for pos, w in raw:
        if isinstance(pos, AlgebraicNumber):
            exact[pos] = exact.get(pos, 0j) + w
        else:
            floats.append((float(pos), w))
    out: list[tuple[Position, complex]] = list(exact.items())
    floats.sort(key=lambda t: t[0])
    for pos, w in floats:
        if out and not isinstance(out[-1][0], AlgebraicNumber):
            lpos, lw = out[-1]
            if abs(pos - lpos) < _MERGE_TOL:
                out[-1] = (lpos, lw + w)
                continue
        out.append((pos, w))
    pts = [CombPoint(pos, w) for pos, w in out]
    pts.sort(key=CombPoint.position_float)
    return pts


def deform_patch(patch: LabeledPatch, theta: DeformationMap) -> DiracComb:
    """{x + theta(star(x))} over the patch, each point of unit weight.

    The comb holds one kind of position: exact when every shift is exact,
    float otherwise (an exact theta gives float shifts where its values
    leave the quarter-integers)."""
    raw: list[tuple[Position, complex]] = []
    for x in patch.positions():
        shift = theta.evaluate(x.star())
        if isinstance(shift, AlgebraicNumber):
            pos: Position = x + shift
        else:
            pos = x.value() + shift
        raw.append((pos, 1.0 + 0.0j))
    if not all(isinstance(pos, AlgebraicNumber) for pos, _ in raw):
        raw = [(float(pos), w) for pos, w in raw]
    return DiracComb(tuple(_merge_points(raw)), patch.radius_float)


def interval_ratio(alpha: float) -> float:
    """Deformed a/b interval length ratio 1 + sqrt2*(1-alpha)/(1+alpha)."""
    a = _scalar_float(alpha)
    if a == -1.0:
        raise ZeroDivisionError("alpha = -1 collapses the b intervals")
    return 1.0 + (1.0 - a) / (1.0 + a) * _SQRT2


def alpha_for_ratio(rho: float) -> float:
    """Inverse of interval_ratio."""
    return (_SQRT2 + 1.0 - rho) / (_SQRT2 - 1.0 + rho)


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
    positions merge by weight addition."""
    positions = comb.positions_float()
    raw: list[tuple[Position, complex]] = []
    for i, p in enumerate(comb.points):
        if isinstance(rule, LocalKernel):
            kernel = rule.select(local_configuration(positions, i, rule.local_radius))
        else:
            kernel = rule.select(())
        for off, kw in kernel:
            if isinstance(p.position, AlgebraicNumber) and isinstance(
                off, AlgebraicNumber
            ):
                pos: Position = p.position + off
            else:
                pos = p.position_float() + _scalar_float(off)
            raw.append((pos, p.weight * kw))
    return DiracComb(tuple(_merge_points(raw)), comb.radius)


def detect_periods(
    comb: DiracComb, candidates: Sequence[float], tol: float
) -> list[float]:
    """Candidates t for which the comb, restricted to the band
    [-r + t, r - t], is invariant under translation by t.

    The band radius r is the comb radius clipped to the actual extent of
    the points, so a deformation that pulls the boundary points inward
    does not mask a genuine interior period.
    """
    if len(comb.points) == 0:
        return []
    reach = min(
        comb.radius,
        -comb.points[0].position_float(),
        comb.points[-1].position_float(),
    )
    found: list[float] = []
    for t in candidates:
        if t <= 0:
            raise ValueError("period candidates must be positive")
        lo, hi = -reach + t, reach - t
        if lo >= hi:
            continue
        core = comb.restrict(lo, hi)
        shifted = [
            (p.position_float() + t, p.weight)
            for p in comb.points
            if lo <= p.position_float() + t <= hi
        ]
        if len(core) != len(shifted):
            continue
        ok = all(
            abs(c.position_float() - q) <= tol and abs(c.weight - w) <= tol
            for c, (q, w) in zip(core, shifted)
        )
        if ok:
            found.append(t)
    return found
