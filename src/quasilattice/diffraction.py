"""Diffraction of (deformed) silver-mean combs.

Analytic side: the Fourier-Bohr amplitude of the deformed chain at a
dual-module wave number k is

    A(k) = (1/(2*sqrt2)) * integral over W of e^{2 pi i (k* y - k theta(y))} dy,

which for the affine family theta = alpha*y + beta collapses to
e^{-2 pi i beta k} * sin(z)/(2z) with z = pi*(alpha*k - k*)*sqrt2.  Every
other deformation is affine between its breakpoints, so the integral is a
sum of such terms, one sinc times a phase per linear segment.  Every
family thus has a closed form; composite Gauss-Legendre quadrature
(``amplitude_quadrature``) is kept only as an independent cross-check.
The amplitude vanishes off the dual module.  Empirical side: normalised
exponential sums over finite patches, plus the finite autocorrelation for
Wiener-identity checks.

Extinctions (sin z = 0 with z != 0) are decided in exact arithmetic:
for exact alpha = (R + S*sqrt2)/D and k = (a4 + b4*sqrt2)/4, z/pi is
(P + Q*sqrt2)/(4D) with integer P and Q, so integrality is a statement
about two int64 columns, never about floats.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, repeat
from math import gcd
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cutproject import Window, silver_window
from .deform import (
    AffineDeformation,
    DeformationMap,
    DiracComb,
    Scalar,
    _FLOAT_EXACT,
    _is_exact,
    _merged,
    _scalar_float,
)
from .quadfield import (
    AlgebraicNumber,
    CoefficientOverflowError,
    column_reduced,
    column_values,
    dual_columns,
    # unused here, but looked up in this module (and timed) by
    # perfbench/traced.py
    enumerate_dual,  # noqa: F401
)
from .substitution import _blocks, _csv

_SQRT2 = math.sqrt(2.0)
_TWO_SQRT2 = 2.0 * _SQRT2
_GL_ORDER = 8
# k x N phases per block of weyl_sums: the temporaries stay near 200 KiB.
# Blocks of 2**14 raised the peak RSS of a diffract run by 0.4 MiB (2**16
# by 2.6 MiB) and summed no faster
_WEYL_BLOCK = 1 << 12

DEFAULT_PANELS = 4096
DEFAULT_INTENSITY_FLOOR = 1e-8


def _divided(values: np.ndarray, norm: float) -> np.ndarray:
    """values / norm with each part divided separately, as Python's complex
    division by a float does (numpy's complex division is not correctly
    rounded)."""
    out = np.empty_like(values)
    out.real, out.imag = values.real / norm, values.imag / norm
    return out


def _phase_sums(
    u: np.ndarray | None, y: np.ndarray | None, v: np.ndarray, z: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """sum_j weight_j e^{2 pi i (u_i y_j - v_i z_j)} for every row i (no
    u*y term when u is None), in blocks of at most _WEYL_BLOCK phases."""
    n = len(weight)
    cols = max(1, min(n, _WEYL_BLOCK))
    rows = max(1, _WEYL_BLOCK // cols)
    two_pi_v = 2.0 * math.pi * v[:, None]
    two_pi_u = None if u is None else 2.0 * math.pi * u[:, None]
    out = np.zeros(len(v), dtype=np.complex128)
    for i in range(0, len(v), rows):
        for j in range(0, n, cols):
            phase = two_pi_v[i:i + rows] * -z[j:j + cols]
            if two_pi_u is not None:
                phase += two_pi_u[i:i + rows] * y[j:j + cols]
            # a row sum, not a BLAS product: BLAS adds its buffers to the
            # peak memory of a diffract run
            out[i:i + rows] += (np.exp(1j * phase) * weight[j:j + cols]).sum(axis=1)
    return out


def weyl_sums(comb: DiracComb, a4: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """Normalised exponential sums (1/2r) * sum of w_x e^{-2 pi i k x} at
    the dual-module wave numbers k = (a4 + b4*sqrt2)/4, one per row,
    summed in internal space.

    Each position is x_L + rest with x_L in Z[sqrt2] (``lattice_split``).
    For k in the dual module k*x_L + star(k)*star(x_L) is an integer
    (the dual pairing), so e^{-2 pi i k x} = e^{2 pi i (k* x_L* - k rest)}:
    the phase is bounded by the window and the offsets at any radius, and
    its rounding error with it.  A row whose |k*| is large against
    |k| * radius (a small comb scanned far out in k*) keeps the phase k*x,
    whichever bound is smaller.  Each form is one numpy expression over
    its rows, in blocks of at most _WEYL_BLOCK k x N phases.
    """
    if comb.radius <= 0:
        raise ValueError("comb radius must be positive")
    a4, b4 = np.asarray(a4, dtype=np.int64), np.asarray(b4, dtype=np.int64)
    if (a4 % 2).any():
        raise ValueError("wave numbers must lie in the dual module")
    la4, lb4, rest = comb.lattice_split()
    kv, ks, ys = column_values(a4, b4), column_values(a4, -b4), column_values(la4, -lb4)
    pos = comb.positions_float()
    ymax, rmax, xmax = (np.abs(c).max(initial=0.0) for c in (ys, rest, pos))
    inner = np.abs(ks) * ymax + np.abs(kv) * rmax <= np.abs(kv) * xmax
    sums = np.empty(len(kv), dtype=np.complex128)
    sums[inner] = _phase_sums(ks[inner], ys, kv[inner], rest, comb.weight)
    sums[~inner] = _phase_sums(None, None, kv[~inner], pos, comb.weight)
    return _divided(sums, 2.0 * comb.radius)


def weyl_sum(comb: DiracComb, k: float | AlgebraicNumber) -> complex:
    """Normalised exponential sum (1/2r) * sum of w_x e^{-2 pi i k x}: the
    one-row call of ``weyl_sums`` for a dual-module k; any other k (a
    float, or a number off the dual module) takes the phase k*x directly."""
    if isinstance(k, AlgebraicNumber) and k.dual_coords() is not None:
        return complex(weyl_sums(comb, *dual_quarters([k]))[0])
    if comb.radius <= 0:
        raise ValueError("comb radius must be positive")
    kv = np.array([k.value() if isinstance(k, AlgebraicNumber) else float(k)])
    s = _phase_sums(None, None, kv, comb.positions_float(), comb.weight)
    return complex(s[0]) / (2.0 * comb.radius)


def _require_dual(k: AlgebraicNumber) -> tuple[int, int]:
    mn = k.dual_coords()
    if mn is None:
        raise ValueError(f"{k} is not an element of the dual module")
    return mn


def dual_quarters(ks: Sequence[AlgebraicNumber]) -> tuple[np.ndarray, np.ndarray]:
    """The quarter-scaled columns (a4, b4) of dual-module wave numbers, the
    form every spectrum function takes."""
    # quarter() refuses a number off the quarter-integers; fromiter builds
    # no list of tuples (a list of 7,801 raised the peak RSS of a diffract
    # run by 0.8 MiB)
    flat = chain.from_iterable(k.quarter() for k in ks)
    a4, b4 = np.fromiter(flat, dtype=np.int64, count=2 * len(ks)).reshape(-1, 2).T
    odd = np.flatnonzero(a4 % 2)
    if len(odd):
        _require_dual(ks[odd[0]])
    return a4, b4


def _exact_z_over_pi(
    a4: np.ndarray, b4: np.ndarray, alpha: Scalar
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z/pi = (alpha*k - star(k))*sqrt2 at k = (a4 + b4*sqrt2)/4 for exact
    alpha, as (float value, zero mask, extinction mask).

    With alpha = (R + S*sqrt2)/D, z/pi = (P + Q*sqrt2)/(4D) for the int64
    columns P = 2(b4(R+D) + a4*S) and Q = a4(R-D) + 2*b4*S: it is zero when
    P = Q = 0 and a nonzero integer (an extinction) when Q = 0 and 4D
    divides P != 0.  Every operand stays below 2**53, where the float value
    P/(4D) + (Q/(4D))*sqrt2 is that of the reduced fractions; larger ones
    raise CoefficientOverflowError before any column is built.
    """
    aq = AlgebraicNumber.of(alpha)
    r, s, d = aq.a, aq.b, aq.c
    amax = int(np.abs(a4).max(initial=0))
    bmax = int(np.abs(b4).max(initial=0))
    p_bound = 2 * (bmax * (abs(r) + d) + amax * abs(s))
    q_bound = amax * (abs(r) + d) + 2 * bmax * abs(s)
    if max(abs(r) + d, 2 * abs(s), 4 * d, p_bound, q_bound) >= _FLOAT_EXACT:
        raise CoefficientOverflowError(f"alpha = {aq.text()} needs z/pi operands beyond 2**53")
    p = 2 * (b4 * (r + d) + a4 * s)
    q = a4 * (r - d) + 2 * b4 * s
    zero = (p == 0) & (q == 0)
    extinct = (q == 0) & (p % (4 * d) == 0) & ~zero
    four_d = float(4 * d)
    return p / four_d + (q / four_d) * _SQRT2, zero, extinct


def closed_form_amplitudes(
    a4: np.ndarray, b4: np.ndarray, alpha: Scalar, beta: Scalar
) -> list[complex]:
    """Closed-form affine amplitudes at the dual-module wave numbers
    k = (a4 + b4*sqrt2)/4, one per row.

    Exact alpha (int, Fraction or AlgebraicNumber) decides
    zeros and extinctions on integer columns, so systematic zeros come out
    as exactly 0 and the central value as exactly 1/2 (times the beta
    phase).
    """
    kv = column_values(a4, b4)
    if _is_exact(alpha):
        w, zero, extinct = _exact_z_over_pi(a4, b4, alpha)
        z = math.pi * w
    else:
        z = math.pi * (float(alpha) * kv - column_values(a4, -b4)) * _SQRT2
        zero = z == 0.0
        extinct = np.zeros(len(z), dtype=bool)
    # math/cmath per row: numpy's vector sin and exp may round differently
    turn = -2j * math.pi * _scalar_float(beta)
    out: list[complex] = []
    for kf, zf, is_zero, is_extinct in zip(
        kv.tolist(), z.tolist(), zero.tolist(), extinct.tolist()
    ):
        phase = cmath.exp(turn * kf)
        if is_zero:
            out.append(0.5 * phase)
        elif is_extinct:
            out.append(0.0 * phase)
        else:
            out.append(phase * (math.sin(zf) / (2.0 * zf)))
    return out


def amplitude_closed(k: AlgebraicNumber, alpha: Scalar, beta: Scalar) -> complex:
    """Closed-form amplitude for the affine deformation family at one wave
    number; the one-row case of ``closed_form_amplitudes``."""
    return closed_form_amplitudes(*dual_quarters([k]), alpha, beta)[0]


def _segments(theta: DeformationMap, window: Window) -> list[tuple[float, float]]:
    """The intervals of the window as floats, split at the breakpoints of
    theta, so that theta is affine on each one."""
    cuts = sorted(theta.breakpoints_float())
    segments: list[tuple[float, float]] = []
    for lo, hi in window.intervals:
        lov, hiv = lo.value(), hi.value()
        edges = [lov, *(c for c in cuts if lov < c < hiv), hiv]
        segments.extend((a, b) for a, b in zip(edges, edges[1:]) if b > a)
    return segments


def segment_amplitudes(
    a4: np.ndarray, b4: np.ndarray, theta: DeformationMap
) -> np.ndarray:
    """Closed-form amplitudes at the dual-module wave numbers
    k = (a4 + b4*sqrt2)/4 for any theta that is affine between its
    breakpoints, one per row.

    On a segment [a, b] where theta(y) = theta(a) + s*(y - a), the
    integrand is e^{i(c*y + d)} with c = 2 pi (k* - k*s) and
    d = -2 pi k (theta(a) - s*a), whose integral is
    (b - a) e^{i(c*mid + d)} sinc(c*h/pi) with mid, h the centre and
    half-width of the segment.
    """
    kv, ksv = column_values(a4, b4), column_values(a4, -b4)
    total = np.zeros(len(kv), dtype=complex)
    for a, b in _segments(theta, theta.window()):
        ta, tb = theta.evaluate_float(a), theta.evaluate_float(b)
        s = (tb - ta) / (b - a)
        c = 2.0 * math.pi * (ksv - kv * s)
        d = -2.0 * math.pi * kv * (ta - s * a)
        mid, h = 0.5 * (a + b), 0.5 * (b - a)
        total += (b - a) * np.exp(1j * (c * mid + d)) * np.sinc(c * (h / math.pi))
    return total / _TWO_SQRT2


@lru_cache(maxsize=64)
def _quad_grid(
    theta: DeformationMap, window: Window, panels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, weights, theta values) of the composite Gauss-Legendre grid,
    panels split at the deformation breakpoints."""
    nodes1, weights1 = np.polynomial.legendre.leggauss(_GL_ORDER)
    segments = _segments(theta, window)
    total = sum(b - a for a, b in segments)
    ys: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    for a, b in segments:
        n = max(1, int(round(panels * (b - a) / total)))
        edges = np.linspace(a, b, n + 1)
        mid = (edges[:-1, None] + edges[1:, None]) / 2.0
        half = (edges[1:, None] - edges[:-1, None]) / 2.0
        ys.append((mid + half * nodes1[None, :]).ravel())
        ws.append((half * weights1[None, :]).ravel())
    y = np.concatenate(ys)
    w = np.concatenate(ws)
    tv = theta.evaluate_floats(y)
    return y, w, tv


def amplitude_quadrature(
    k: AlgebraicNumber,
    theta: DeformationMap,
    window: Window | None = None,
    panels: int = DEFAULT_PANELS,
) -> complex:
    """Amplitude by composite Gauss-Legendre quadrature over the window.

    No scan calls this: it is an independent cross-check of the closed
    forms."""
    _require_dual(k)
    if panels < 2:
        raise ValueError("panels must be >= 2")
    window = window if window is not None else theta.window()
    y, w, tv = _quad_grid(theta, window, panels)
    kv, ksv = k.value(), k.star().value()
    phase = np.exp(2j * math.pi * (ksv * y - kv * tv))
    return complex(np.dot(w, phase)) / _TWO_SQRT2


def _analytic_amplitudes(
    a4: np.ndarray, b4: np.ndarray, theta: DeformationMap
) -> np.ndarray:
    """Amplitudes at the dual-module columns: the sinc closed form for
    affine theta on the silver window, the per-segment one otherwise."""
    if isinstance(theta, AffineDeformation) and theta.window() == silver_window():
        return np.array(closed_form_amplitudes(a4, b4, theta.alpha, theta.beta),
                        dtype=np.complex128)
    return segment_amplitudes(a4, b4, theta)


def _moduli(z: np.ndarray) -> np.ndarray:
    """|z| per row by Python's abs of a complex: np.abs and np.hypot may
    differ from it in the last ulp, and the CSV files print every bit."""
    return np.array([abs(v) for v in z.tolist()], dtype=np.float64)


def _intensities(z: np.ndarray) -> np.ndarray:
    """|z|^2 per row as abs(z) ** 2 in Python floats, for the reason
    given at ``_moduli``."""
    return np.array([abs(v) ** 2 for v in z.tolist()], dtype=np.float64)


def _frozen_columns(obj: object, dtypes: dict[str, type]) -> None:
    """Store the named fields of a frozen dataclass as read-only views of
    one-dimensional columns of one length, with the given dtypes."""
    cols = {name: np.asarray(getattr(obj, name), dtype=dt).view()
            for name, dt in dtypes.items()}
    if any(c.ndim != 1 or c.shape != cols["a4"].shape for c in cols.values()):
        raise ValueError(f"{', '.join(cols)} must be columns of one length")
    for name, col in cols.items():
        col.flags.writeable = False
        object.__setattr__(obj, name, col)


def autocorrelation_finite(comb: DiracComb, max_points: int = 20000) -> DiracComb:
    """Sum over ordered pairs of conj(w_x) w_y at position y - x, divided by
    the averaging length 2*radius.  Positions stay exact for exact combs;
    coincident differences merge as in deform_patch."""
    n = len(comb)
    if n > max_points:
        raise ValueError(f"comb has {n} points, above the quadratic-cost cap {max_points}")
    w = comb.weight
    wprod = (np.conj(w)[:, None] * w[None, :]).ravel()
    if comb.is_exact:
        a4, b4 = comb.exact_columns()
        if int(max(np.abs(a4).max(initial=0), np.abs(b4).max(initial=0))) >= 1 << 30:
            raise ValueError("coefficients too large to pack difference keys")
        offset = np.stack([(a4[None, :] - a4[:, None]).ravel(), (b4[None, :] - b4[:, None]).ravel()])
    else:
        pos = comb.positions_float()
        offset = (pos[None, :] - pos[:, None]).ravel()
    zero = np.zeros(n * n, dtype=np.int64)
    merged = _merged(zero, zero, offset, wprod, comb.radius)
    weight = _divided(merged.weight, 2.0 * comb.radius)
    return DiracComb(merged.a4, merged.b4, merged.offset, weight, comb.radius)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Peaks at the dual-module wave numbers k = (a4 + b4*sqrt2)/4, as
    columns.

    Row i has the complex128 ``amplitude[i]`` and the ``intensity[i]``
    |amplitude[i]|^2; every row comes from one ``source``.  The columns
    are read-only.
    """

    a4: np.ndarray
    b4: np.ndarray
    amplitude: np.ndarray
    intensity: np.ndarray
    source: str
    k_max: float
    intensity_floor: float

    def __post_init__(self) -> None:
        _frozen_columns(self, {"a4": np.int64, "b4": np.int64,
                               "amplitude": np.complex128, "intensity": np.float64})

    def __len__(self) -> int:
        return len(self.a4)

    def k_values(self) -> np.ndarray:
        """The float embedding of every wave number."""
        return column_values(self.a4, self.b4)

    def to_csv(self) -> str:
        def rows(s: slice) -> Iterator[tuple]:
            a4, b4, amp = self.a4[s], self.b4[s], self.amplitude[s]
            a, b, c = column_reduced(a4, b4)
            return zip(column_values(a4, b4).tolist(), a.tolist(), b.tolist(), c.tolist(),
                       amp.real.tolist(), amp.imag.tolist(), self.intensity[s].tolist(),
                       repeat(self.source))

        return _csv(
            "k_float,k_a,k_b,k_c,amp_re,amp_im,intensity,source",
            "%.17g,%d,%d,%d,%.17g,%.17g,%.17g,%s",
            chain.from_iterable(map(rows, _blocks(len(self)))),
        )


def scan_internal_bound(theta: DeformationMap, k_max: float, floor: float) -> float:
    """|star(k)| beyond which every amplitude is provably below sqrt(floor).

    From |A| <= P / (2 sqrt2 pi (|k*| - M |k|)) with M the largest slope of
    theta and P the number of linear segments the amplitude sums over;
    for the affine family this is sharp up to the sinc envelope.
    """
    if floor <= 0:
        return max(2.0 * k_max, 1.0)
    segments = len(_segments(theta, theta.window()))
    margin = segments / (_TWO_SQRT2 * math.pi * math.sqrt(floor))
    return theta.max_slope() * k_max + margin + 1.0


def spectrum_scan(
    theta: DeformationMap,
    k_max: float,
    intensity_floor: float = DEFAULT_INTENSITY_FLOOR,
) -> Spectrum:
    """All dual-module peaks with |k| <= k_max and intensity >= the floor.

    The enumeration bound on star(k) is derived from the floor, so for a
    positive floor the returned support is complete.  Every amplitude is
    a closed form: the sinc for affine deformations (exact coefficients
    keep exact zeros), one sinc per linear segment for sampled ones.
    Quadrature is never called.
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    if intensity_floor < 0:
        raise ValueError("intensity_floor must be >= 0")
    a4, b4 = dual_columns(k_max, scan_internal_bound(theta, k_max, intensity_floor))
    amps = _analytic_amplitudes(a4, b4, theta)
    intensity = _intensities(amps)
    keep = intensity >= intensity_floor
    return Spectrum(a4[keep], b4[keep], amps[keep], intensity[keep], "closed_form",
                    k_max, intensity_floor)


def empirical_spectrum(comb: DiracComb, a4: np.ndarray, b4: np.ndarray) -> Spectrum:
    """Weyl-sum amplitudes of a finite comb at the dual-module wave numbers
    k = (a4 + b4*sqrt2)/4, all in one ``weyl_sums`` call."""
    sums = weyl_sums(comb, a4, b4)
    k_max = float(np.abs(column_values(a4, b4)).max(initial=0.0))
    return Spectrum(a4, b4, sums, _intensities(sums), "empirical", k_max, 0.0)


@dataclass(frozen=True, eq=False)
class ExtinctionReport:
    """The extinct wave numbers k = (a4 + b4*sqrt2)/4 as read-only columns,
    with the count and span of the survivors."""

    alpha: AlgebraicNumber
    k_max: float
    kstar_max: float
    a4: np.ndarray
    b4: np.ndarray
    survivor_count: int
    span: str
    span_basis: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _frozen_columns(self, {"a4": np.int64, "b4": np.int64})

    @cached_property
    def extinctions(self) -> tuple[AlgebraicNumber, ...]:
        """The extinct wave numbers as AlgebraicNumbers, built on first use."""
        return tuple(AlgebraicNumber(a, b, 4)
                     for a, b in zip(self.a4.tolist(), self.b4.tolist()))

    def to_json(self) -> dict:
        a, b, c = column_reduced(self.a4, self.b4)
        return {
            "alpha": self.alpha.text(),
            "k_max": self.k_max,
            "kstar_max": self.kstar_max,
            "extinctions": [{"a": x, "b": y, "c": z}
                            for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())],
            "extinction_floats": column_values(self.a4, self.b4).tolist(),
            "survivor_count": self.survivor_count,
            "span": self.span,
            "span_basis": [list(v) for v in self.span_basis],
        }


SPAN_HALF_INTEGERS = "half_integers"
SPAN_FULL_DUAL = "full_dual_module"
SPAN_SUBLATTICE = "proper_sublattice"


def _span_basis(vectors: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Hermite-form basis ((a, b), (0, c)) of the sublattice of Z^2
    generated by the vectors; rows with zero entries are dropped."""
    row: list[int] | None = None  # the (a, b) row, a > 0
    c = 0
    for v0, v1 in vectors:
        if v0 < 0:
            v0, v1 = -v0, -v1
        if v0 == 0:
            c = gcd(c, abs(v1))
            continue
        if row is None:
            row = [v0, v1]
            continue
        a0, a1 = row
        while v0:
            q = a0 // v0
            a0, a1, v0, v1 = v0, v1, a0 - q * v0, a1 - q * v1
        row = [a0, a1]
        c = gcd(c, abs(v1))
    basis: list[tuple[int, int]] = []
    if row is not None:
        if c:
            row[1] %= c
        basis.append((row[0], row[1]))
    if c:
        basis.append((0, c))
    return tuple(basis)


def extinction_report(
    alpha: Scalar, k_max: float, kstar_max: float | None = None
) -> ExtinctionReport:
    """Exact extinction scan over the enumerated dual module.

    alpha must be exact (int, Fraction or AlgebraicNumber);
    a wave number is extinct when z/pi = (alpha*k - k*)*sqrt2 is a nonzero
    integer, decided without floats.  The Z-span of the survivors is
    classified: half-integers for alpha = 1, the full dual module
    otherwise (extinctions never thin the span below that).  The report
    records the |star(k)| bound it enumerated under, max(2*k_max, 1) when
    none is given, so the scan can be rerun from the report alone.
    """
    if not _is_exact(alpha):
        raise TypeError("alpha must be given exactly (int, Fraction or AlgebraicNumber)")
    aq = AlgebraicNumber.of(alpha)
    if kstar_max is None:
        kstar_max = max(2.0 * k_max, 1.0)
    a4, b4 = dual_columns(k_max, kstar_max)
    _, _, is_extinct = _exact_z_over_pi(a4, b4, aq)
    # the nonzero survivors as (m, n) with k = (2m + n*sqrt2)/4
    live = ~is_extinct & ((a4 != 0) | (b4 != 0))
    basis = _span_basis(zip((a4[live] // 2).tolist(), b4[live].tolist()))
    if basis == ((1, 0), (0, 1)):
        span = SPAN_FULL_DUAL
    elif basis == ((1, 0),):
        span = SPAN_HALF_INTEGERS
    else:
        span = SPAN_SUBLATTICE
    return ExtinctionReport(aq, k_max, kstar_max, a4[is_extinct], b4[is_extinct],
                            int(np.count_nonzero(~is_extinct)), span, basis)


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """Empirical and analytic amplitudes side by side at the dual-module
    wave numbers k = (a4 + b4*sqrt2)/4, as read-only columns."""

    a4: np.ndarray
    b4: np.ndarray
    empirical: np.ndarray
    analytic: np.ndarray

    def __post_init__(self) -> None:
        _frozen_columns(self, {"a4": np.int64, "b4": np.int64,
                               "empirical": np.complex128, "analytic": np.complex128})

    def __len__(self) -> int:
        return len(self.a4)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComparisonTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("a4", "b4", "empirical", "analytic"))

    @cached_property
    def error(self) -> np.ndarray:
        """|empirical - analytic| per row, read-only like the columns."""
        error = _moduli(self.empirical - self.analytic)
        error.flags.writeable = False
        return error

    @cached_property
    def max_error(self) -> float:
        return float(self.error.max(initial=0.0))

    @cached_property
    def rms_error(self) -> float:
        if not len(self):
            return 0.0
        # the builtin sum adds in row order, as the figures were first
        # computed; numpy's pairwise sum rounds differently
        return math.sqrt(sum(e**2 for e in self.error.tolist()) / len(self))

    @classmethod
    def from_spectra(cls, empirical: Spectrum, analytic: Spectrum) -> ComparisonTable:
        """Pair the rows of two spectra taken over the same support."""
        if not (np.array_equal(empirical.a4, analytic.a4)
                and np.array_equal(empirical.b4, analytic.b4)):
            raise ValueError("spectra to compare must share their support, in order")
        return cls(analytic.a4, analytic.b4, empirical.amplitude, analytic.amplitude)

    def to_csv(self) -> str:
        def rows(s: slice) -> Iterator[tuple]:
            emp, ana = self.empirical[s], self.analytic[s]
            return zip(column_values(self.a4[s], self.b4[s]).tolist(), emp.real.tolist(),
                       emp.imag.tolist(), ana.real.tolist(), ana.imag.tolist(),
                       self.error[s].tolist())

        return _csv(
            "k_float,emp_re,emp_im,ana_re,ana_im,abs_error",
            "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g",
            chain.from_iterable(map(rows, _blocks(len(self)))),
        )


def compare_empirical_analytic(
    comb: DiracComb, theta: DeformationMap, a4: np.ndarray, b4: np.ndarray
) -> ComparisonTable:
    """Per-k error table between the Weyl sum of a deformed comb and the
    analytic amplitude of the deformation at the dual-module wave numbers
    k = (a4 + b4*sqrt2)/4."""
    amps = _analytic_amplitudes(a4, b4, theta)
    return ComparisonTable(a4, b4, weyl_sums(comb, a4, b4), amps)


def leading_dual_columns(count: int, k_max: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Quarter-scaled columns (a4, b4) of the first `count` dual-module
    elements ordered by (|k|, k); ties keep the order of ``dual_columns``."""
    while True:
        a4, b4 = dual_columns(k_max)
        if len(a4) >= count:
            kv = column_values(a4, b4)
            order = np.lexsort((kv, np.abs(kv)))[:count]
            return a4[order], b4[order]
        k_max *= 2.0
