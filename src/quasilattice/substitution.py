"""Two-letter inflation rules and their geometric fixed points.

The silver-mean rule a -> aba, b -> a is the instance everything else in
the package is built around: intervals of exact lengths 1+sqrt2 (a) and 1
(b), grown from the symmetric seed a|a, give a point set whose left
endpoints land in Z[sqrt2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping

import numpy as np

from .quadfield import (
    COLUMN_LIMIT,
    ONE,
    SILVER_MEAN,
    ZERO,
    AlgebraicNumber,
    CoefficientOverflowError,
    check_columns,
    column_reduced,
    column_signs,
    column_values,
    column_within,
)


# points per block of column work (patch validation here, values of m in
# cutproject.project_patch): temporaries stay a few MiB at any size, and
# patches up to 65,536 points take one block
_M_BLOCK = 1 << 16

# rows per block of CSV formatting: a block's row lists stay near half a
# MiB, so a writer holds one block besides the text it returns
_CSV_BLOCK = 1 << 12


def _blocks(n: int) -> Iterator[slice]:
    """Slices of ``range(n)``, ``_CSV_BLOCK`` rows each: writers format one
    column slice at a time."""
    return (slice(s, s + _CSV_BLOCK) for s in range(0, n, _CSV_BLOCK))


def _csv(header: str, fmt: str, rows: Iterable[tuple]) -> str:
    """CSV text: the header line, then ``fmt % row`` for each row, ending in
    a newline.  Formats give floats 17 significant digits (%.17g).  Rows
    are formatted and joined ``_CSV_BLOCK`` at a time."""
    lines = map(fmt.__mod__, rows)
    parts = [header]
    for first in lines:
        parts.append("\n".join(chain((first,), islice(lines, _CSV_BLOCK - 1))))
    parts.append("")  # the final newline, without copying the text once more
    return "\n".join(parts)


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
            ln.quarter()  # lengths are quarter-integers, like every patch point
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


@dataclass(frozen=True, eq=False)
class LabeledPatch:
    """Finite sorted point set in [-radius, radius] with letter labels.

    Stored as columns: point i is (a4[i] + b4[i]*sqrt2)/4 with label
    label[i], the coefficients in int64 below 2**31 in magnitude
    (CoefficientOverflowError otherwise), the columns read-only.  The
    radius may itself be an AlgebraicNumber (substitution patches have
    irrational extent); every check is exact either way.
    """

    a4: np.ndarray
    b4: np.ndarray
    label: np.ndarray  # object column of str | None
    radius: float | AlgebraicNumber

    def __post_init__(self) -> None:
        a4 = np.asarray(self.a4, dtype=np.int64)
        b4 = np.asarray(self.b4, dtype=np.int64)
        label = np.asarray(self.label, dtype=object)
        if a4.ndim != 1 or a4.shape != b4.shape or a4.shape != label.shape:
            raise ValueError("a4, b4 and label must be columns of one length")
        check_columns(a4, b4)
        # in blocks of _M_BLOCK points, so the temporaries stay a few MiB;
        # all order checks come first, as on whole columns
        starts = range(0, len(a4), _M_BLOCK)
        for s in starts:
            lo, hi = max(s - 1, 0), s + _M_BLOCK
            if (column_signs(np.diff(a4[lo:hi]), np.diff(b4[lo:hi])) <= 0).any():
                raise ValueError("positions must be strictly increasing")
        for s in starts:
            if not column_within(a4[s:s + _M_BLOCK], b4[s:s + _M_BLOCK], self.radius).all():
                raise ValueError("position outside [-radius, radius]")
        for name, col in (("a4", a4), ("b4", b4), ("label", label)):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @property
    def radius_float(self) -> float:
        r = self.radius
        return r.value() if isinstance(r, AlgebraicNumber) else float(r)

    def __len__(self) -> int:
        return len(self.a4)

    def positions_float(self) -> np.ndarray:
        return column_values(self.a4, self.b4)

    def translate(self, t: AlgebraicNumber) -> LabeledPatch:
        """Shift every point by t; the radius grows to keep points inside."""
        ta, tb = t.quarter()
        a4, b4 = self.a4 + ta, self.b4 + tb
        if isinstance(self.radius, AlgebraicNumber):
            return LabeledPatch(a4, b4, self.label, self.radius + abs(t))
        r = self.radius + abs(float(t))
        if len(a4):
            check_columns(a4, b4)  # before the loop below walks r up to the extremes
            ends = (AlgebraicNumber(int(a4[i]), int(b4[i]), 4) for i in (0, -1))
            extreme = max(abs(x) for x in ends)
            while extreme.cmp_float(r) > 0:
                r = math.nextafter(r, math.inf)
        return LabeledPatch(a4, b4, self.label, r)

    def trim(self, radius: float | AlgebraicNumber) -> LabeledPatch:
        keep = column_within(self.a4, self.b4, radius)
        return LabeledPatch(self.a4[keep], self.b4[keep], self.label[keep], radius)

    def to_csv(self) -> str:
        def rows(s: slice) -> Iterator[tuple]:
            a4, b4 = self.a4[s], self.b4[s]
            a, b, c = column_reduced(a4, b4)
            return zip(column_values(a4, b4).tolist(), a.tolist(), b.tolist(), c.tolist(),
                       [label or "" for label in self.label[s].tolist()])

        # unit weights: %.17g of 1.0 and 0.0
        return _csv(
            "position_float,a,b,c,label,weight_re,weight_im", "%.17g,%d,%d,%d,%s,1,0",
            chain.from_iterable(map(rows, _blocks(len(self)))),
        )

    @classmethod
    def from_points(
        cls,
        items: Iterable[tuple[AlgebraicNumber, str | None]],
        radius: float | AlgebraicNumber,
    ) -> LabeledPatch:
        items = list(items)
        quarters = [pos.quarter() for pos, _ in items]
        a4 = np.array([a for a, _ in quarters], dtype=np.int64)
        b4 = np.array([b for _, b in quarters], dtype=np.int64)
        label = np.empty(len(items), dtype=object)
        label[:] = [lab for _, lab in items]
        return cls(a4, b4, label, radius)


def _letter_counts(rule: SubstitutionRule, level: int) -> dict[str, int]:
    """Letter multiplicities in the level-th iterate of the word 'a'."""
    counts = {ch: int(ch == "a") for ch in rule.letters}
    for _ in range(level):
        nxt = dict.fromkeys(counts, 0)
        for ch, c in counts.items():
            for img in rule.images[ch]:
                nxt[img] += c
        counts = nxt
    return counts


def fixed_point_extent(
    level: int, rule: SubstitutionRule | None = None
) -> AlgebraicNumber:
    """Exact realized length of the level-th iterate of the word 'a'
    (the radius of ``fixed_point_patch(level, rule)``), from letter counts
    alone, without building the word."""
    if level < 0:
        raise ValueError("level must be >= 0")
    rule = rule or silver_mean_rule()
    if "a" not in rule.images:
        raise ValueError("seed a|a needs a letter named 'a'")
    total = ZERO
    for ch, count in _letter_counts(rule, level).items():
        total = total + rule.lengths[ch] * count
    return total


def fixed_point_patch(
    level: int, rule: SubstitutionRule | None = None
) -> LabeledPatch:
    """Geometric realization of the level-th iterate of the seed a|a.

    Left interval endpoints only, reference point at 0.  The patch radius
    is the full realized extent on the shorter side, so [-radius, radius)
    is exactly covered; the point sitting at +radius belongs to the next
    (unrealized) interval and is not included.
    """
    rule = rule or silver_mean_rule()
    extent = fixed_point_extent(level, rule)
    # the radius check compares extent - x for x down to -extent
    ea, eb = extent.quarter()
    if max(abs(ea), abs(eb)) >= COLUMN_LIMIT // 2:
        raise CoefficientOverflowError(f"level {level} needs coefficients beyond 2**31")
    letters = rule.letters
    word = substitute_power(rule, "a", level)
    codes = np.frombuffer(word.encode("utf-32-le"), dtype="<u4")
    index = np.searchsorted(np.array([ord(ch) for ch in letters], dtype="<u4"), codes)
    # right half: left endpoints from 0 rightwards, an exclusive cumsum of
    # the exact letter lengths; the left half is the same word shifted by -extent
    quarters = np.array([rule.lengths[ch].quarter() for ch in letters], dtype=np.int64)
    step = quarters[index]
    right_a, right_b = (np.cumsum(step, axis=0) - step).T
    label = np.array(letters, dtype=object)[index]
    return LabeledPatch(
        np.concatenate([right_a - ea, right_a]),
        np.concatenate([right_b - eb, right_b]),
        np.concatenate([label, label]),
        extent,
    )
