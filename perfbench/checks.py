"""Output checks whose expected values come from outside the timed program.

Nothing here imports ``quasilattice``.  The reference is rebuilt from the
mathematics with numpy:

* the silver-mean model set, by brute force over Z[sqrt2] with exact
  integer sign tests (window [-sqrt2/2, sqrt2/2], letter a on
  [-1+sqrt2/2, sqrt2/2]);
* the analytic amplitude, in closed form: the sinc for affine theta and the
  exact per-segment exponential integral for piecewise-linear theta;
* the empirical amplitude, as a direct numpy Weyl sum over the deformed
  reference patch.

Outputs are compared as sets and numbers, never as bytes, so a build that
rewrites rows (new number types, new column layouts of equal meaning) still
passes when its mathematics is right.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import Inputs

SQRT2 = math.sqrt(2.0)
AMP_TOL = 1e-9  # absolute, on amplitudes of modulus <= 1
FLOOR_MARGIN = 1e-6  # relative; peaks this close to the floor may go either way


def sign_pair(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact sign of p + q*sqrt2 for int64 arrays (|p|, |q| < 2**31)."""
    # opposite signs: p > 0 > q is positive iff p^2 > 2 q^2 (never equal)
    d = np.sign(p * p - 2 * q * q)
    s = np.where(p > 0, d, -d)
    same = ((p >= 0) & (q >= 0)) | ((p <= 0) & (q <= 0))
    return np.where(same, np.sign(p + q), s)


def model_set(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) of every x = m + n*sqrt2 with |x| <= radius and
    |m - n*sqrt2| <= sqrt2/2, sorted by x."""
    m_hi = radius // 2 + 2
    m = np.arange(-m_hi, m_hi + 1, dtype=np.int64)
    # n sqrt2 = m - star lies in [m - sqrt2/2, m + sqrt2/2]: four candidates cover it
    n0 = np.floor((m - 1.0) / SQRT2).astype(np.int64)
    m = np.repeat(m, 4)
    n = (n0[:, None] + np.arange(4)).ravel()
    # star = m - n sqrt2 in [-sqrt2/2, sqrt2/2]  <=>  2m - (2n+1) sqrt2 <= 0 <= 2m - (2n-1) sqrt2
    inside = (sign_pair(2 * m, -(2 * n + 1)) <= 0) & (sign_pair(2 * m, -(2 * n - 1)) >= 0)
    inside &= (sign_pair(m - radius, n) <= 0) & (sign_pair(m + radius, n) >= 0)
    m, n = m[inside], n[inside]
    order = np.argsort(m + n * SQRT2, kind="stable")
    return m[order], n[order]


def _theta(inputs: Inputs, y: np.ndarray) -> np.ndarray:
    if inputs.pwl:
        ys, vs = zip(*inputs.pwl)
        return np.interp(y, ys, vs)
    return inputs.alpha * y + inputs.beta


def analytic_amplitude(inputs: Inputs, k: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Fourier-Bohr amplitude at wave numbers k (conjugates ks), closed form."""
    half = SQRT2 / 2.0
    if not inputs.pwl:
        z = math.pi * SQRT2 * (inputs.alpha * k - ks)
        return 0.5 * np.sinc(z / math.pi) * np.exp(-2j * math.pi * inputs.beta * k)
    edges = [-half, *[y for y, _ in inputs.pwl if -half < y < half], half]
    total = np.zeros(k.shape, dtype=complex)
    for a, b in zip(edges, edges[1:]):
        va, vb = _theta(inputs, np.array([a, b]))
        slope = (vb - va) / (b - a)
        # integral of exp(i (c y + d)) over [a, b] = (b-a) e^{i(c mid + d)} sinc
        c = 2.0 * math.pi * (ks - k * slope)
        d = -2.0 * math.pi * k * (va - slope * a)
        mid, h = 0.5 * (a + b), 0.5 * (b - a)
        total += 2.0 * h * np.exp(1j * (c * mid + d)) * np.sinc(c * h / math.pi)
    return total / (2.0 * SQRT2)


def _amplitude_bound_kstar(inputs: Inputs) -> float:
    """|k*| beyond which |A(k)| < sqrt(floor): each linear piece contributes
    at most 1/(2 sqrt2 pi |k* - k s|)."""
    if inputs.pwl:
        ys, vs = zip(*inputs.pwl)
        slopes = [abs((v1 - v0) / (y1 - y0)) for y0, y1, v0, v1
                  in zip(ys, ys[1:], vs, vs[1:])]
        pieces, slope = len(slopes), max(slopes)
    else:
        pieces, slope = 1, abs(inputs.alpha)
    return slope * inputs.k_max + pieces / (2.0 * SQRT2 * math.pi * math.sqrt(inputs.floor))


@dataclass
class Reference:
    m: np.ndarray  # reference patch, x = m + n sqrt2, sorted
    n: np.ndarray
    peaks_sure: set = field(default_factory=set)  # dual coords (p, q): k = (2p + q sqrt2)/4
    peaks_maybe: set = field(default_factory=set)


def reference(inputs: Inputs) -> Reference:
    m, n = model_set(inputs.radius)
    ref = Reference(m, n)
    if not inputs.is_diffract:
        return ref
    # twice the enumeration bound, so a scan that stops short shows up
    kstar = 2.0 * _amplitude_bound_kstar(inputs) + 1.0
    p_hi = int(inputs.k_max + kstar) + 2
    p = np.arange(-p_hi, p_hi + 1, dtype=np.int64)
    q_lo = np.floor((-4 * inputs.k_max - 2 * p) / SQRT2).astype(np.int64) - 1
    width = int(math.ceil(8 * inputs.k_max / SQRT2)) + 3
    p = np.repeat(p, width)
    q = (q_lo[:, None] + np.arange(width)).ravel()
    # |2p + q sqrt2| <= 4 k_max exactly; |k*| <= kstar by floats (a generous bound)
    keep = (sign_pair(2 * p - 4 * inputs.k_max, q) <= 0) & (sign_pair(2 * p + 4 * inputs.k_max, q) >= 0)
    keep &= np.abs((2 * p - q * SQRT2) / 4.0) <= kstar
    p, q = p[keep], q[keep]
    intensity = np.abs(analytic_amplitude(inputs, (2 * p + q * SQRT2) / 4.0,
                                          (2 * p - q * SQRT2) / 4.0)) ** 2
    sure = intensity >= inputs.floor * (1 + FLOOR_MARGIN)
    maybe = intensity >= inputs.floor * (1 - FLOOR_MARGIN)
    ref.peaks_sure = set(zip(p[sure].tolist(), q[sure].tolist()))
    ref.peaks_maybe = set(zip(p[maybe].tolist(), q[maybe].tolist()))
    return ref


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(header: list[str], rows: list[list[str]], name: str, dtype=float) -> np.ndarray:
    i = header.index(name)
    return np.array([r[i] for r in rows]).astype(dtype)


def _quarter_coords(header, rows, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """4*(a + b sqrt2)/c as integer pairs (4a/c, 4b/c)."""
    a = _column(header, rows, prefix + "a", np.int64)
    b = _column(header, rows, prefix + "b", np.int64)
    c = _column(header, rows, prefix + "c", np.int64)
    if not np.all(np.isin(c, (1, 2, 4))):
        raise ValueError("denominator outside {1, 2, 4}")
    return a * (4 // c), b * (4 // c)


@dataclass
class Outcome:
    problems: list[str]
    max_abs_error: float = float("nan")

    @property
    def ok(self) -> bool:
        return not self.problems


def check(inputs: Inputs, ref: Reference, out_dir: Path) -> Outcome:
    """Check one invocation's outputs against the reference."""
    try:
        if inputs.is_diffract:
            return _check_diffract(inputs, ref, out_dir)
        return _check_generate(inputs, ref, out_dir)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return Outcome([f"unreadable output: {exc!r}"])


def _check_generate(inputs: Inputs, ref: Reference, out_dir: Path) -> Outcome:
    problems = []
    summary = json.loads((out_dir / "summary.json").read_text())
    header, rows = _read_csv(out_dir / "patch.csv")
    a4, b4 = _quarter_coords(header, rows, "")
    if len(rows) != summary["point_count"]:
        problems.append("point_count differs from the CSV row count")
    if not (np.array_equal(a4, 4 * ref.m) and np.array_equal(b4, 4 * ref.n)):
        problems.append("points differ from the model set (as a sorted set)")
    else:
        star_in_a = sign_pair(2 * ref.m + 2, -(2 * ref.n + 1)) >= 0
        labels = np.array([r[header.index("label")] for r in rows])
        if not np.array_equal(labels == "a", star_in_a) or np.any((labels != "a") & (labels != "b")):
            problems.append("letter labels disagree with the subwindows")
        x = ref.m + ref.n * SQRT2
        if np.any(np.abs(_column(header, rows, "position_float") - x) > 1e-9 * np.maximum(1.0, np.abs(x))):
            problems.append("position_float disagrees with the exact position")
    density = len(ref.m) / (2.0 * inputs.radius)
    if abs(summary["density"] - density) > 1e-12:
        problems.append(f"density {summary['density']} != {density}")
    error = abs(summary["density"] - 0.5)
    if not error <= inputs.max_error_tol:
        problems.append(f"|density - 1/2| = {error:.3g} above {inputs.max_error_tol:g}")
    return Outcome(problems, error)


def _check_diffract(inputs: Inputs, ref: Reference, out_dir: Path) -> Outcome:
    problems = []
    summary = json.loads((out_dir / "diffract_summary.json").read_text())
    header, rows = _read_csv(out_dir / "spectrum_analytic.csv")
    a4, b4 = _quarter_coords(header, rows, "k_")
    if np.any(a4 % 2):
        problems.append("a reported k lies outside the dual module")
    support = list(zip((a4 // 2).tolist(), b4.tolist()))
    got = set(support)
    if len(got) != len(support) or len(support) != summary["peaks"]:
        problems.append("peak count differs from the distinct rows of the spectrum")
    if not ref.peaks_sure <= got <= ref.peaks_maybe:
        problems.append(
            f"peak support differs: {len(ref.peaks_sure - got)} missing, "
            f"{len(got - ref.peaks_maybe)} spurious"
        )
    p, q = np.array([s[0] for s in support], dtype=np.int64), np.array([s[1] for s in support], dtype=np.int64)
    k, ks = (2 * p + q * SQRT2) / 4.0, (2 * p - q * SQRT2) / 4.0
    ana = analytic_amplitude(inputs, k, ks)
    got_ana = _column(header, rows, "amp_re") + 1j * _column(header, rows, "amp_im")
    if len(rows) and np.max(np.abs(got_ana - ana)) > AMP_TOL:
        problems.append("analytic amplitudes disagree with the closed form")

    y = (ref.m + ref.n * SQRT2) + _theta(inputs, ref.m - ref.n * SQRT2)
    emp = np.exp(-2j * math.pi * np.outer(k, y)).sum(axis=1) / (2.0 * inputs.radius)
    eh, er = _read_csv(out_dir / "spectrum_empirical.csv")
    got_emp = _column(eh, er, "amp_re") + 1j * _column(eh, er, "amp_im")
    ch, cr = _read_csv(out_dir / "comparison.csv")
    got_cmp = _column(ch, cr, "emp_re") + 1j * _column(ch, cr, "emp_im")
    for name, col in (("spectrum_empirical", got_emp), ("comparison", got_cmp)):
        if len(col) != len(emp) or (len(emp) and np.max(np.abs(col - emp)) > AMP_TOL):
            problems.append(f"{name} Weyl sums disagree with the direct sum")
    error = float(np.max(np.abs(emp - ana))) if len(emp) else 0.0
    if abs(summary["max_error"] - error) > AMP_TOL:
        problems.append(f"max_error {summary['max_error']:.6g} != reference {error:.6g}")
    if not summary["max_error"] <= inputs.max_error_tol:
        problems.append(f"max_error {summary['max_error']:.3g} above {inputs.max_error_tol:g}")
    if inputs.svg and not (out_dir / "spectrum.svg").read_text().lstrip().startswith("<svg"):
        problems.append("spectrum.svg is not an SVG document")
    return Outcome(problems, float(summary["max_error"]))
