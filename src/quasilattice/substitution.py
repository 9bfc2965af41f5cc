"""Two-letter inflation rules and their geometric fixed points.

The silver-mean rule a -> aba, b -> a is the instance everything else in
the package is built around: intervals of exact lengths 1+sqrt2 (a) and 1
(b), grown from the symmetric seed a|a, give a point set whose left
endpoints land in Z[sqrt2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .quadfield import ONE, SILVER_MEAN, ZERO, AlgebraicNumber

_FLOAT_FMT = "%.17g"


def _csv(header: str, rows: Iterable[Iterable[object]]) -> str:
    """CSV text with a header line; floats get 17 significant digits,
    everything else its str(), and the text ends in a newline."""
    lines = [header]
    lines.extend(
        ",".join(_FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row)
        for row in rows
    )
    return "\n".join(lines) + "\n"


class PatchPoint(NamedTuple):
    position: AlgebraicNumber
    label: str | None
    weight: complex


@dataclass(frozen=True)
class SubstitutionRule:
    """Letter images plus exact interval lengths (one per letter)."""

    images: Mapping[str, str]
    lengths: Mapping[str, AlgebraicNumber]

    def __post_init__(self) -> None:
        letters = set(self.images)
        if letters != set(self.lengths):
            raise ValueError("images and lengths must cover the same letters")
        for img in self.images.values():
            if not img or any(ch not in letters for ch in img):
                raise ValueError("images must be nonempty words over the alphabet")
        for ln in self.lengths.values():
            if ln.sign() <= 0:
                raise ValueError("interval lengths must be positive")

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(sorted(self.images))

    def matrix(self) -> list[list[int]]:
        """M[k][l] = multiplicity of letter l in the image of letter k."""
        ls = self.letters
        return [[self.images[k].count(l) for l in ls] for k in ls]

    def is_primitive(self) -> bool:
        ls = self.letters
        d = len(ls)
        m = self.matrix()
        power = [row[:] for row in m]
        for _ in range(d * d):
            if all(v > 0 for row in power for v in row):
                return True
            power = [
                [sum(power[i][t] * m[t][j] for t in range(d)) for j in range(d)]
                for i in range(d)
            ]
        return False


def silver_mean_rule() -> SubstitutionRule:
    return SubstitutionRule(
        images={"a": "aba", "b": "a"},
        lengths={"a": SILVER_MEAN, "b": ONE},
    )


def rule_to_json(rule: SubstitutionRule) -> dict:
    return {
        "images": dict(sorted(rule.images.items())),
        "lengths": {k: v.to_json() for k, v in sorted(rule.lengths.items())},
    }


def rule_from_json(obj: dict) -> SubstitutionRule:
    return SubstitutionRule(
        images=dict(obj["images"]),
        lengths={k: AlgebraicNumber.from_json(v) for k, v in obj["lengths"].items()},
    )


def substitute(rule: SubstitutionRule, word: str) -> str:
    return "".join(rule.images[ch] for ch in word)


def substitute_power(rule: SubstitutionRule, word: str, times: int) -> str:
    for _ in range(times):
        word = substitute(rule, word)
    return word


def pf_data(
    rule: SubstitutionRule,
) -> tuple[AlgebraicNumber, tuple[float, float]]:
    """Exact Perron-Frobenius eigenvalue and letter frequencies.

    Works for two-letter rules whose eigenvalue lies in Z[sqrt2]/2, i.e.
    trace^2 - 4 det = 2 * square; the silver-mean matrix [[2,1],[1,0]]
    gives 1 + sqrt2.
    """
    if not rule.is_primitive():
        raise ValueError("substitution rule is not primitive")
    m = rule.matrix()
    if len(m) != 2:
        raise ValueError("pf_data handles two-letter rules only")
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    disc = tr * tr - 4 * det
    root = _sqrt_of_twice_square(disc)
    if root is None:
        raise ValueError(f"eigenvalue discriminant {disc} is not 2*(square)")
    eig = AlgebraicNumber(tr, root, 2)
    # statistical frequencies: eigenvector of M^T to the PF eigenvalue,
    # normalised to sum 1
    ev = eig.value()
    x, y = m[1][0], ev - m[0][0]
    s = x + y
    return eig, (x / s, y / s)


def _sqrt_of_twice_square(disc: int) -> int | None:
    """n with disc = 2 n^2, else None."""
    if disc < 0 or disc % 2:
        return None
    half = disc // 2
    n = int(round(half**0.5))
    for cand in (n - 1, n, n + 1):
        if cand >= 0 and cand * cand == half:
            return cand
    return None


@dataclass(frozen=True)
class LabeledPatch:
    """Finite sorted point set in [-radius, radius] with letter labels.

    The radius may itself be an AlgebraicNumber (substitution patches have
    irrational extent), in which case the containment check is exact.
    """

    points: tuple[PatchPoint, ...]
    radius: float | AlgebraicNumber

    def __post_init__(self) -> None:
        prev: AlgebraicNumber | None = None
        for p in self.points:
            if prev is not None and (p.position - prev).sign() <= 0:
                raise ValueError("positions must be strictly increasing")
            if self._outside(p.position):
                raise ValueError("position outside [-radius, radius]")
            prev = p.position

    def _outside(self, pos: AlgebraicNumber) -> bool:
        if isinstance(self.radius, AlgebraicNumber):
            return (abs(pos) - self.radius).sign() > 0
        return abs(pos).cmp_float(self.radius) > 0

    @property
    def radius_float(self) -> float:
        r = self.radius
        return r.value() if isinstance(r, AlgebraicNumber) else float(r)

    def __len__(self) -> int:
        return len(self.points)

    def positions(self) -> list[AlgebraicNumber]:
        return [p.position for p in self.points]

    def labels(self) -> list[str | None]:
        return [p.label for p in self.points]

    def translate(self, t: AlgebraicNumber) -> LabeledPatch:
        """Shift every point by t; the radius grows to keep points inside."""
        pts = tuple(PatchPoint(p.position + t, p.label, p.weight) for p in self.points)
        if isinstance(self.radius, AlgebraicNumber):
            return LabeledPatch(pts, self.radius + abs(t))
        r = self.radius + abs(float(t))
        if pts:
            extreme = max(abs(pts[0].position), abs(pts[-1].position))
            while extreme.cmp_float(r) > 0:
                r = math.nextafter(r, math.inf)
        return LabeledPatch(pts, r)

    def trim(self, radius: float | AlgebraicNumber) -> LabeledPatch:
        trial = LabeledPatch((), radius)
        pts = tuple(p for p in self.points if not trial._outside(p.position))
        return LabeledPatch(pts, radius)

    def to_csv(self) -> str:
        def row(p: PatchPoint) -> tuple:
            pos, w = p.position, complex(p.weight)
            return (pos.value(), pos.a, pos.b, pos.c, p.label or "", w.real, w.imag)

        return _csv(
            "position_float,a,b,c,label,weight_re,weight_im", map(row, self.points)
        )

    @classmethod
    def from_points(
        cls,
        items: Iterable[tuple[AlgebraicNumber, str | None]],
        radius: float | AlgebraicNumber,
    ) -> LabeledPatch:
        pts = tuple(PatchPoint(pos, label, 1.0 + 0.0j) for pos, label in items)
        return cls(pts, radius)


def fixed_point_patch(
    level: int, rule: SubstitutionRule | None = None
) -> LabeledPatch:
    """Geometric realization of the level-th iterate of the seed a|a.

    Left interval endpoints only, reference point at 0.  The patch radius
    is the full realized extent on the shorter side, so [-radius, radius)
    is exactly covered; the point sitting at +radius belongs to the next
    (unrealized) interval and is not included.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    rule = rule or silver_mean_rule()
    if "a" not in rule.images:
        raise ValueError("seed a|a needs a letter named 'a'")
    word = substitute_power(rule, "a", level)
    # right half: intervals from 0 rightwards; left half mirrors the word
    right: list[tuple[AlgebraicNumber, str]] = []
    pos = ZERO
    for ch in word:
        right.append((pos, ch))
        pos = pos + rule.lengths[ch]
    extent = pos
    left = [(p - extent, ch) for p, ch in right]
    pts = left + right
    return LabeledPatch.from_points(pts, extent)
