"""Scalar references shared by the tests: the compensated sum the Weyl-sum
and Wiener-identity checks are measured against, the exact numbers
behind a pair of quarter-scaled columns, and a one-shot CSV writer."""

from typing import Iterable

from quasilattice import AlgebraicNumber


def compensated_sum(values: Iterable[complex]) -> complex:
    """Neumaier-compensated complex summation."""
    sr = cr = si = ci = 0.0
    for v in values:
        x, y = v.real, v.imag
        t = sr + x
        cr += (sr - t) + x if abs(sr) >= abs(x) else (x - t) + sr
        sr = t
        t = si + y
        ci += (si - t) + y if abs(si) >= abs(y) else (y - t) + si
        si = t
    return complex(sr + cr, si + ci)


def numbers(a4, b4) -> list[AlgebraicNumber]:
    """(a4[i] + b4[i]*sqrt2)/4 for every row, as AlgebraicNumbers: the
    positions of a patch, the wave numbers of a spectrum or table."""
    return [AlgebraicNumber(a, b, 4) for a, b in zip(a4.tolist(), b4.tolist())]


def csv_text(header: str, fmt: str, rows: Iterable[tuple]) -> str:
    """The whole CSV text in one join: the header, then ``fmt % row`` for
    every row, each line ending in a newline."""
    return "\n".join([header, *(fmt % row for row in rows)]) + "\n"
