"""Self-dual cut-and-project scheme on Z[sqrt2].

The physical line carries x = m + n*sqrt2, internal space carries the
conjugate x* = m - n*sqrt2, and a point belongs to the chain exactly when
x* falls inside the acceptance window.  The per-letter windows solve the
coupled contraction

    W_a = s* W_a  u  (s* W_a + 1 + s*)  u  s* W_b
    W_b = s* W_a + s*          (s* = 1 - sqrt2)

whose exact solution is W_a = [(sqrt2-2)/2, sqrt2/2] and
W_b = [-sqrt2/2, (sqrt2-2)/2]; Hutchinson iteration reproduces it to any
tolerance and is checked against the exact fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Mapping, Sequence

import numpy as np

from .quadfield import (
    COLUMN_LIMIT,
    SILVER_MEAN_CONJ,
    ZERO,
    AlgebraicNumber,
    CoefficientOverflowError,
    column_signs,
    column_values,
    column_within,
)
# _M_BLOCK: values of m that project_patch enumerates at once (radii up to
# about 1.3e5 take one block)
from .substitution import _M_BLOCK, LabeledPatch

Interval = tuple[AlgebraicNumber, AlgebraicNumber]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Window:
    """Finite union of closed intervals with quarter-integer endpoints."""

    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        prev_hi: AlgebraicNumber | None = None
        for lo, hi in self.intervals:
            # lattice data: quarter() raises ValueError off the quarter-integers
            lo.quarter(), hi.quarter()
            if (hi - lo).sign() < 0:
                raise ValueError("interval with hi < lo")
            if prev_hi is not None and (lo - prev_hi).sign() <= 0:
                raise ValueError("intervals must be sorted and disjoint")
            prev_hi = hi

    @classmethod
    def interval(cls, lo: AlgebraicNumber, hi: AlgebraicNumber) -> Window:
        return cls(((lo, hi),))

    @classmethod
    def from_intervals(cls, items: Sequence[Interval]) -> Window:
        """Sort and merge overlapping or touching intervals, exactly."""
        todo = sorted(
            items,
            key=cmp_to_key(
                lambda u, v: (u[0] - v[0]).sign() or (u[1] - v[1]).sign()
            ),
        )
        merged: list[Interval] = []
        for lo, hi in todo:
            if merged and (lo - merged[-1][1]).sign() <= 0:
                plo, phi = merged[-1]
                merged[-1] = (plo, hi if (hi - phi).sign() > 0 else phi)
            else:
                merged.append((lo, hi))
        return cls(tuple(merged))

    def contains(self, y: AlgebraicNumber) -> bool:
        for lo, hi in self.intervals:
            if (y - lo).sign() >= 0 and (hi - y).sign() >= 0:
                return True
        return False

    def mask(self, a4: np.ndarray, b4: np.ndarray) -> np.ndarray:
        """contains() over the column points (a4 + b4*sqrt2)/4, elementwise."""
        inside = np.zeros(len(a4), dtype=bool)
        for lo, hi in self.intervals:
            (la, lb), (ha, hb) = lo.quarter(), hi.quarter()
            inside |= (column_signs(a4 - la, b4 - lb) >= 0) & (column_signs(ha - a4, hb - b4) >= 0)
        return inside

    def total_length(self) -> AlgebraicNumber:
        acc = ZERO
        for lo, hi in self.intervals:
            acc = acc + (hi - lo)
        return acc

    def bounds(self) -> Interval:
        if not self.intervals:
            raise ValueError("empty window has no bounds")
        return (self.intervals[0][0], self.intervals[-1][1])

    def is_empty(self) -> bool:
        return not self.intervals

    def translate(self, t: AlgebraicNumber) -> Window:
        return Window(tuple((lo + t, hi + t) for lo, hi in self.intervals))

    def scale(self, s: AlgebraicNumber) -> Window:
        if s.sign() >= 0:
            ivs = [(lo * s, hi * s) for lo, hi in self.intervals]
        else:
            ivs = [(hi * s, lo * s) for lo, hi in reversed(self.intervals)]
        return Window(tuple(ivs))

    def intersect(self, other: Window) -> Window:
        out: list[Interval] = []
        for alo, ahi in self.intervals:
            for blo, bhi in other.intervals:
                lo = alo if (alo - blo).sign() >= 0 else blo
                hi = ahi if (bhi - ahi).sign() >= 0 else bhi
                if (hi - lo).sign() >= 0:
                    out.append((lo, hi))
        return Window(tuple(out))

    def to_json(self) -> list[dict]:
        return [
            {"lo": lo.to_json(), "hi": hi.to_json()} for lo, hi in self.intervals
        ]

    @classmethod
    def from_json(cls, items: Sequence[dict]) -> Window:
        return cls.from_intervals(
            [
                (AlgebraicNumber.from_json(d["lo"]), AlgebraicNumber.from_json(d["hi"]))
                for d in items
            ]
        )


# exact silver-mean windows
def silver_windows() -> tuple[Window, Window]:
    """(W_a, W_b) of the silver-mean scheme, exact endpoints."""
    w_a = Window.interval(AlgebraicNumber(-2, 1, 2), AlgebraicNumber(0, 1, 2))
    w_b = Window.interval(AlgebraicNumber(0, -1, 2), AlgebraicNumber(-2, 1, 2))
    return w_a, w_b


def silver_window() -> Window:
    """Full acceptance window [-sqrt2/2, sqrt2/2]."""
    return Window.interval(AlgebraicNumber(0, -1, 2), AlgebraicNumber(0, 1, 2))


def silver_subwindows() -> dict[str, Window]:
    w_a, w_b = silver_windows()
    return {"a": w_a, "b": w_b}


@dataclass(frozen=True)
class IfsMap:
    """y -> scale*y + offset applied to the set of the source letter; scale
    and offset are quarter-integers."""

    source: str
    scale: AlgebraicNumber
    offset: AlgebraicNumber

    def __post_init__(self) -> None:
        self.scale.quarter(), self.offset.quarter()


@dataclass(frozen=True)
class IfsSystem:
    """Coupled letter-indexed iterated function system on intervals."""

    equations: Mapping[str, tuple[IfsMap, ...]]

    def __post_init__(self) -> None:
        letters = set(self.equations)
        for maps in self.equations.values():
            for mp in maps:
                if mp.source not in letters:
                    raise ValueError(f"unknown source letter {mp.source!r}")
                if (abs(mp.scale) - 1).sign() >= 0:
                    raise ValueError("IFS map is not a contraction")

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(sorted(self.equations))


def silver_ifs() -> IfsSystem:
    s = SILVER_MEAN_CONJ  # 1 - sqrt2
    one_plus_s = AlgebraicNumber(2, -1, 1)  # 1 + s* = 2 - sqrt2
    return IfsSystem(
        equations={
            "a": (
                IfsMap("a", s, ZERO),
                IfsMap("a", s, one_plus_s),
                IfsMap("b", s, ZERO),
            ),
            "b": (IfsMap("a", s, s),),
        }
    )


def ifs_to_json(system: IfsSystem) -> dict:
    return {
        letter: [
            {"source": mp.source, "scale": mp.scale.to_json(), "offset": mp.offset.to_json()}
            for mp in maps
        ]
        for letter, maps in sorted(system.equations.items())
    }


def ifs_from_json(obj: dict) -> IfsSystem:
    return IfsSystem(
        equations={
            letter: tuple(
                IfsMap(
                    d["source"],
                    AlgebraicNumber.from_json(d["scale"]),
                    AlgebraicNumber.from_json(d["offset"]),
                )
                for d in maps
            )
            for letter, maps in obj.items()
        }
    )


def hutchinson_step(
    system: IfsSystem, windows: Mapping[str, Window]
) -> dict[str, Window]:
    out: dict[str, Window] = {}
    for letter, maps in system.equations.items():
        pieces: list[Interval] = []
        for mp in maps:
            pieces.extend(windows[mp.source].scale(mp.scale).translate(mp.offset).intervals)
        out[letter] = Window.from_intervals(pieces)
    return out


def _distance_to_union(x: float, ivs: list[tuple[float, float]]) -> float:
    best = math.inf
    for lo, hi in ivs:
        if lo <= x <= hi:
            return 0.0
        best = min(best, abs(x - lo), abs(x - hi))
    return best


def hausdorff_distance(a: Window, b: Window) -> float:
    """Float Hausdorff distance between two interval unions."""

    def one_sided(src: Window, dst: Window) -> float:
        div = [(lo.value(), hi.value()) for lo, hi in dst.intervals]
        cands: list[float] = []
        for lo, hi in src.intervals:
            cands.extend((lo.value(), hi.value()))
        # gap midpoints of dst falling inside src are interior maxima
        for (l1, h1), (l2, _) in zip(div, div[1:]):
            mid = (h1 + l2) / 2.0
            if any(lo.value() <= mid <= hi.value() for lo, hi in src.intervals):
                cands.append(mid)
        return max(_distance_to_union(x, div) for x in cands)

    if a.is_empty() or b.is_empty():
        raise ValueError("Hausdorff distance needs nonempty windows")
    return max(one_sided(a, b), one_sided(b, a))


@dataclass(frozen=True)
class WindowSolution:
    windows: dict[str, Window]
    iterations: int
    last_step: float
    exact_fixed_point: bool | None

    def pair(self) -> tuple[Window, Window]:
        return self.windows["a"], self.windows["b"]


def solve_windows(
    system: IfsSystem,
    tol: float = 1e-12,
    max_iter: int = 500,
    seeds: Mapping[str, Window] | None = None,
    exact_candidate: Mapping[str, Window] | None = None,
) -> WindowSolution:
    """Iterate the Hutchinson operator until successive iterates are within
    tol in Hausdorff distance.

    The default seed [-2, 2] contains the silver-mean attractor, so every
    iterate contains the true solution.  When ``exact_candidate`` is given
    it is additionally verified to be an exact fixed point (endpoint-exact
    window arithmetic, no floats).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if seeds is None:
        box = Window.interval(AlgebraicNumber(-2, 0, 1), AlgebraicNumber(2, 0, 1))
        seeds = {letter: box for letter in system.letters}
    current = dict(seeds)
    iterations = 0
    step = math.inf
    while step >= tol:
        if iterations >= max_iter:
            raise RuntimeError(f"no convergence within {max_iter} iterations")
        nxt = hutchinson_step(system, current)
        pieces = sum(len(w.intervals) for w in nxt.values())
        if pieces > 10_000:
            raise RuntimeError(
                "iterates fragmented into too many intervals; "
                "start from a seed containing the attractor"
            )
        step = max(hausdorff_distance(current[k], nxt[k]) for k in nxt)
        current = nxt
        iterations += 1
    verified: bool | None = None
    if exact_candidate is not None:
        image = hutchinson_step(system, exact_candidate)
        verified = all(image[k] == exact_candidate[k] for k in exact_candidate)
    return WindowSolution(current, iterations, step, verified)


def is_member(x: AlgebraicNumber, window: Window) -> bool:
    """Exact cut-and-project membership: star(x) inside the closed window."""
    return window.contains(x.star())


def project_patch(
    radius: float,
    window: Window | None = None,
    subwindows: Mapping[str, Window] | None = None,
) -> LabeledPatch:
    """All x = m + n*sqrt2 with |x| <= radius and star(x) in the window,
    labeled by the subwindow containing star(x).

    Defaults to the silver-mean window with its per-letter split.  The
    scan runs over m = (x + x*)/2; for each m the window pins n*sqrt2
    into an interval of the window's length, so the enumeration is
    provably complete with a constant number of candidates per m.  Floats
    only pick the candidates and sort the points; membership, labels and
    the radius are decided exactly, on whole columns of at most
    ``_M_BLOCK`` values of m each, then sorted once together.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if window is None:
        window = silver_window()
        if subwindows is None:
            subwindows = silver_subwindows()
    if window.is_empty():
        return LabeledPatch.from_points((), radius)
    lo_b, hi_b = window.bounds()
    w_abs = max(abs(lo_b.value()), abs(hi_b.value()))
    sub_items = sorted(subwindows.items()) if subwindows else []
    m_hi = int(math.floor((radius + w_abs) / 2.0)) + 2
    # every sign-test operand is a candidate coefficient (|m|, |n| <= m_hi + 2)
    # plus a window endpoint coefficient; refuse before allocating
    ends = [e for w in (window, *(sub for _, sub in sub_items)) for iv in w.intervals for e in iv]
    reach = 4 * (m_hi + 2) + max(abs(v) for e in ends for v in e.quarter())
    if reach >= COLUMN_LIMIT:
        raise CoefficientOverflowError(f"radius {radius} needs coefficients beyond 2**31")
    # candidates: per m, the n with m - n*sqrt2 in [lo, hi], widened by a
    # slack far above the float rounding (about 5e-16 relative) so that no
    # solution is lost; membership itself is decided exactly below
    slack = 1e-12 * (m_hi + w_abs + 1.0)
    blocks = []
    for start in range(-m_hi, m_hi + 1, _M_BLOCK):
        m = np.arange(start, min(start + _M_BLOCK, m_hi + 1), dtype=np.int64)
        n_lo = np.ceil((m - hi_b.value()) / _SQRT2 - slack).astype(np.int64)
        n_hi = np.floor((m - lo_b.value()) / _SQRT2 + slack).astype(np.int64)
        count = n_hi - n_lo + 1
        first = np.cumsum(count) - count
        a4 = 4 * np.repeat(m, count)
        b4 = 4 * (np.arange(count.sum(), dtype=np.int64) + np.repeat(n_lo - first, count))
        keep = window.mask(a4, -b4)
        a4, b4 = a4[keep], b4[keep]
        keep = column_within(a4, b4, radius)
        a4, b4 = a4[keep], b4[keep]
        label = np.full(len(a4), None, dtype=object)
        free = np.ones(len(a4), dtype=bool)
        for name, sub in sub_items:
            hit = free & sub.mask(a4, -b4)
            label[hit] = name
            free &= ~hit
        blocks.append((a4, b4, label))
    # free the blocks and the unsorted columns before LabeledPatch
    # validates: each copy is as large as the result
    a4, b4, label = (np.concatenate(col) for col in zip(*blocks))
    del blocks
    order = np.argsort(column_values(a4, b4), kind="stable")
    a4, b4, label = a4[order], b4[order], label[order]
    del order
    return LabeledPatch(a4, b4, label, radius)


def sigma_estimate(patch: LabeledPatch, window: Window) -> Window:
    """Intersection of window - star(y) over the patch points y.

    For a patch of a hull element containing 0 this is a closed interval
    around the internal coordinate; it shrinks as the patch grows.  An
    empty intersection means the patch is not a restriction of any model
    set of this window.
    """
    if not len(patch):
        raise ValueError("patch is empty")
    if not ((patch.a4 == 0) & (patch.b4 == 0)).any():
        raise ValueError("patch must contain the origin")
    region = window
    for a4, b4 in zip(patch.a4.tolist(), patch.b4.tolist()):
        # window - star(y), with -star(y) = (-a4 + b4*sqrt2)/4
        region = region.intersect(window.translate(AlgebraicNumber(-a4, b4, 4)))
        if region.is_empty():
            raise ValueError("empty intersection: patch is not compatible with the window")
    return region
