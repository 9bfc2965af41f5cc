"""Per-layer metrics from the spans of one traced invocation.

A span's self time is its duration minus the durations of its child spans.
Layers idle in a workload report 0.  Per-call percentiles are reported only
where at least 10 samples lie beyond them, and as 0 otherwise.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class Totals:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0
    durations: list[float] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)


def aggregate(spans: list[list]) -> dict[str, Totals]:
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, Totals] = defaultdict(Totals)
    for i, (name, start, end, _, counters) in enumerate(spans):
        t = out[name]
        t.calls += 1
        t.total += end - start
        t.self += end - start - child[i]
        t.durations.append(end - start)
        t.counters.update(counters or {})
    return out


def _percentile(samples: list[float], q: int) -> float:
    """q-th percentile, or 0 when fewer than 10 samples lie beyond it."""
    if len(samples) * (100 - q) / 100 < 10:
        return 0.0
    return statistics.quantiles(samples, n=100)[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], import_s: float) -> dict[str, float]:
    t = aggregate(spans).__getitem__  # a defaultdict: idle layers read as zeros
    scan_candidates = sum(
        (c or {}).get("candidates", 0)
        for name, _, _, parent, c in spans
        if name == "quadfield.enumerate_dual" and parent >= 0
        and spans[parent][0] == "diffraction.spectrum_scan"
    )
    weyl, project, deform = t("diffraction.weyl_sum"), t("cutproject.project_patch"), t("deform.deform_patch")
    fixed, scan = t("substitution.fixed_point_patch"), t("diffraction.spectrum_scan")
    closed, quad = t("diffraction.amplitude_closed"), t("diffraction.amplitude_quadrature")
    write = t("cli._write")
    return {
        "quadfield.enumerate_dual_s": t("quadfield.enumerate_dual").total,
        "quadfield.dual_candidates": t("quadfield.enumerate_dual").counters["candidates"],
        "substitution.patch_validate_s": t("substitution.LabeledPatch.__post_init__").total,
        "substitution.to_csv_s": t("substitution.LabeledPatch.to_csv").total,
        "substitution.fixed_point_patch_s": fixed.total,
        "substitution.fixed_point_calls": fixed.calls,
        "cutproject.project_patch_s": project.self,
        "cutproject.points": project.counters["points"],
        "cutproject.points_per_s": _ratio(project.counters["points"], project.self),
        "deform.deform_patch_s": deform.total,
        "deform.exact_share": _ratio(deform.counters["exact"], deform.counters["points"]),
        "diffraction.weyl_sum_s": weyl.total,
        "diffraction.weyl_sum_calls": weyl.calls,
        "diffraction.weyl_terms_per_s": _ratio(weyl.counters["terms"], weyl.total),
        "diffraction.weyl_sum_p50_ms": 1e3 * _percentile(weyl.durations, 50),
        "diffraction.weyl_sum_p90_ms": 1e3 * _percentile(weyl.durations, 90),
        "diffraction.spectrum_scan_s": scan.total,
        "diffraction.scan_candidates": scan_candidates,
        "diffraction.peaks": scan.counters["peaks"],
        "diffraction.peak_yield": _ratio(scan.counters["peaks"], scan_candidates),
        "diffraction.amplitude_closed_s": closed.total,
        "diffraction.amplitude_closed_calls": closed.calls,
        "diffraction.amplitude_quadrature_s": quad.total,
        "diffraction.amplitude_quadrature_calls": quad.calls,
        "diffraction.to_csv_s": t("diffraction.Spectrum.to_csv").total
        + t("diffraction.ComparisonTable.to_csv").total,
        "plotting.svg_s": t("plotting.render_stem_svg").total,
        "cli.import_s": import_s,
        "cli.self_s": t("cli.main").self,
        "cli.write_s": write.total,
        "cli.write_bytes": write.counters["bytes"],
    }


def main_span_s(spans: list[list]) -> float:
    """Duration of the root cli.main span."""
    return sum(end - start for name, start, end, parent, _ in spans
               if name == "cli.main" and parent < 0)
