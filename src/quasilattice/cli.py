"""Command-line front end.

Subcommands: generate, windows, deform, diffract, sigma, extinctions,
compare.  A JSON config file provides defaults, explicit flags win.  All
output files are deterministic for a fixed config: CSV headers,
floats at 17 significant digits, sorted JSON keys, no timestamps.

Exit codes: 0 success, 2 config or usage error, 3 numeric overflow.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

from .cutproject import (
    Window,
    hausdorff_distance,
    ifs_from_json,
    ifs_to_json,
    is_member,
    project_patch,
    sigma_estimate,
    silver_ifs,
    silver_subwindows,
    silver_window,
    silver_windows,
    solve_windows,
)
from .deform import (
    AffineDeformation,
    DeformationMap,
    _scalar_float,
    deform_patch,
    deformation_from_json,
    delone_check,
    density,
    interval_ratio,
    scalar_from_json,
)
from .diffraction import (
    ComparisonTable,
    compare_empirical_analytic,
    dual_quarters,
    empirical_spectrum,
    extinction_report,
    leading_dual_elements,
    spectrum_scan,
)
from .plotting import render_stem_svg
from .quadfield import (
    AlgebraicNumber,
    CoefficientOverflowError,
)
from .substitution import (
    LabeledPatch,
    fixed_point_extent,
    fixed_point_patch,
    rule_from_json,
    silver_mean_rule,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    pass


def _parse_scalar(text: str):
    """--alpha and --beta, read by ``scalar_from_json``; a ConfigError, which
    argparse passes on to ``main``, for text it cannot read."""
    try:
        return scalar_from_json(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class RunConfig:
    radius: float = 100.0
    k_max: float = 2.0
    floor: float = 1e-8
    alpha: Any = 0
    beta: Any = 0
    deformation: dict | None = None
    mode: str = "projection"
    out: str = "out"
    svg: str | None = None
    allow_overlap: bool = False
    count: int = 20
    shift: str | None = None
    scheme: dict | None = None

    def validate(self) -> None:
        for name in ("radius", "k_max", "floor"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.radius <= 0:
            raise ConfigError("radius must be positive")
        if self.k_max <= 0:
            raise ConfigError("k_max must be positive")
        if self.floor < 0:
            raise ConfigError("intensity floor must be >= 0")
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if self.mode not in ("projection", "substitution"):
            raise ConfigError(f"unknown mode {self.mode!r}")

    def theta(self) -> DeformationMap:
        if self.deformation is not None:
            return deformation_from_json(self.deformation)
        return AffineDeformation(scalar_from_json(self.alpha), scalar_from_json(self.beta))

    def window_pair(self) -> tuple[Window, dict[str, Window]]:
        if self.scheme and "window" in self.scheme:
            window = Window.from_json(self.scheme["window"])
            subs = {
                name: Window.from_json(iv)
                for name, iv in self.scheme.get("subwindows", {}).items()
            }
            return window, subs
        return silver_window(), silver_subwindows()

    def rule(self):
        if self.scheme and "images" in self.scheme:
            return rule_from_json(self.scheme)
        return silver_mean_rule()

    def ifs(self):
        if self.scheme and "ifs" in self.scheme:
            return ifs_from_json(self.scheme["ifs"]), False
        return silver_ifs(), True


def load_config(path: str | None, overrides: dict[str, Any]) -> RunConfig:
    data: dict[str, Any] = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**data)
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    cfg.validate()
    return cfg


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    target.write_text(text)
    return target


def _json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _build_patch(cfg: RunConfig) -> LabeledPatch:
    window, subs = cfg.window_pair()
    if cfg.mode == "substitution":
        rule = cfg.rule()
        level = 0
        while fixed_point_extent(level, rule).value() < cfg.radius:
            level += 1
        return fixed_point_patch(level, rule).trim(cfg.radius)
    return project_patch(cfg.radius, window, subs)


def _check_admissible(cfg: RunConfig, theta: DeformationMap) -> None:
    if cfg.mode == "projection" and cfg.window_pair()[0] != silver_window():
        raise ConfigError(
            "deform, diffract and compare need the silver window: theta, its "
            "admissibility check and the amplitudes all assume it; a custom "
            "scheme.window is only for generate and sigma"
        )
    if cfg.mode == "substitution" and cfg.rule() != silver_mean_rule():
        raise ConfigError(
            "deform, diffract and compare need the silver-mean rule a -> aba, "
            "b -> a with lengths 1+sqrt2 and 1: theta and the amplitudes "
            "assume the silver chain; a custom scheme rule is only for generate"
        )
    ok, worst = delone_check(theta)
    if not ok and not cfg.allow_overlap:
        raise ConfigError(
            f"deformation is not admissible (worst gap {worst:.6g}); "
            "pass --allow-overlap to force"
        )


def cmd_generate(cfg: RunConfig) -> int:
    patch = _build_patch(cfg)
    out = Path(cfg.out)
    _write(out, "patch.csv", patch.to_csv())
    dens = len(patch) / (2.0 * cfg.radius)
    ends = patch.positions_float()[[0, -1]].tolist() if len(patch) else [0.0, 0.0]
    summary = {
        "command": "generate",
        "mode": cfg.mode,
        "radius": cfg.radius,
        "point_count": len(patch),
        "density": dens,
        "extent": ends,
    }
    _write(out, "summary.json", _json_text(summary))
    print(f"generate: {len(patch)} points, density {dens:.6f}")
    return EXIT_OK


def cmd_windows(cfg: RunConfig) -> int:
    system, is_silver = cfg.ifs()
    doc = {"command": "windows", "ifs": ifs_to_json(system)}
    if is_silver:
        w_a, w_b = silver_windows()
        sol = solve_windows(system, exact_candidate={"a": w_a, "b": w_b})
        dist = {
            "a": hausdorff_distance(sol.windows["a"], w_a),
            "b": hausdorff_distance(sol.windows["b"], w_b),
        }
        doc["distance_to_exact"] = dist
        doc["exact"] = {"a": w_a.to_json(), "b": w_b.to_json()}
        note = f", distance to exact {max(dist.values()):.3e}"
    else:
        sol = solve_windows(system)
        note = ""
    doc.update(
        iterations=sol.iterations,
        last_step=sol.last_step,
        exact_fixed_point=sol.exact_fixed_point,
        approximant={k: w.to_json() for k, w in sol.windows.items()},
    )
    _write(Path(cfg.out), "windows.json", _json_text(doc))
    print(
        f"windows: converged in {sol.iterations} iterations{note}, "
        f"exact fixed point {sol.exact_fixed_point}"
    )
    return EXIT_OK


def cmd_deform(cfg: RunConfig) -> int:
    theta = cfg.theta()
    _check_admissible(cfg, theta)
    patch = _build_patch(cfg)
    comb = deform_patch(patch, theta)
    out = Path(cfg.out)
    _write(out, "deformed.csv", comb.to_csv())
    ok, worst = delone_check(theta)
    summary = {
        "command": "deform",
        "radius": cfg.radius,
        "point_count": len(comb),
        "density_input": len(patch) / (2.0 * cfg.radius),
        "density_output": density(comb),
        "admissible": ok,
        "worst_gap": worst,
        "deformation": theta.to_json(),
    }
    if isinstance(theta, AffineDeformation):
        a = _scalar_float(theta.alpha)
        if a != -1.0:
            summary["interval_ratio"] = interval_ratio(a)
    _write(out, "deform_summary.json", _json_text(summary))
    print(f"deform: {len(comb)} points, density {summary['density_output']:.6f}")
    return EXIT_OK


def cmd_diffract(cfg: RunConfig) -> int:
    theta = cfg.theta()
    _check_admissible(cfg, theta)
    spec = spectrum_scan(theta, cfg.k_max, cfg.floor)
    out = Path(cfg.out)
    _write(out, "spectrum_analytic.csv", spec.to_csv())
    patch = _build_patch(cfg)
    comb = deform_patch(patch, theta)
    emp = empirical_spectrum(comb, spec.a4, spec.b4)
    _write(out, "spectrum_empirical.csv", emp.to_csv())
    table = ComparisonTable.from_spectra(emp, spec)
    _write(out, "comparison.csv", table.to_csv())
    summary = {
        "command": "diffract",
        "radius": cfg.radius,
        "k_max": cfg.k_max,
        "intensity_floor": cfg.floor,
        "peaks": len(spec),
        "max_error": table.max_error,
        "rms_error": table.rms_error,
    }
    _write(out, "diffract_summary.json", _json_text(summary))
    if cfg.svg:
        stems = list(zip(spec.k_values().tolist(), spec.intensity.tolist()))
        Path(cfg.svg).parent.mkdir(parents=True, exist_ok=True)
        Path(cfg.svg).write_text(
            render_stem_svg(stems, cfg.k_max, title="analytic diffraction intensities")
        )
    print(
        f"diffract: {len(spec)} peaks above {cfg.floor:g}, "
        f"max empirical error {table.max_error:.3e}"
    )
    return EXIT_OK


def _parse_shift(text: str) -> AlgebraicNumber:
    m = re.fullmatch(r"\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*", text)
    if m is None:
        raise ConfigError("--shift expects 'm,n' meaning m + n*sqrt2")
    return AlgebraicNumber(int(m.group(1)), int(m.group(2)), 1)


def cmd_sigma(cfg: RunConfig) -> int:
    if cfg.shift is None:
        raise ConfigError("sigma needs --shift 'm,n'")
    shift = _parse_shift(cfg.shift)
    window, _ = cfg.window_pair()
    if not is_member(shift, window):
        raise ConfigError(f"shift {shift} is not a point of the model set")
    base = project_patch(cfg.radius + abs(shift.value()) + 1.0, window, None)
    patch = base.translate(-shift).trim(cfg.radius)
    region = sigma_estimate(patch, window)
    lo, hi = region.bounds()
    width = (hi - lo).value()
    target = shift.star()
    contains = region.contains(target)
    doc = {
        "command": "sigma",
        "shift": shift.to_json(),
        "radius": cfg.radius,
        "interval": [lo.value(), hi.value()],
        "interval_exact": {"lo": lo.to_json(), "hi": hi.to_json()},
        "width": width,
        "target": target.value(),
        "contains_target": contains,
    }
    _write(Path(cfg.out), "sigma.json", _json_text(doc))
    print(
        f"sigma: interval [{lo.value():.9f}, {hi.value():.9f}], width {width:.3e}, "
        f"contains star(shift)={target.value():.9f}: {contains}"
    )
    return EXIT_OK


def cmd_extinctions(cfg: RunConfig) -> int:
    alpha = scalar_from_json(cfg.alpha)
    if isinstance(alpha, float):
        raise ConfigError(
            "extinctions needs an exact alpha (integer, 'p/q' or 'a+b*sqrt2')"
        )
    report = extinction_report(alpha, cfg.k_max)
    _write(Path(cfg.out), "extinctions.json", _json_text(report.to_json()))
    print(
        f"extinctions: {len(report.extinctions)} extinct wave numbers within "
        f"|k| <= {cfg.k_max:g}, span {report.span}"
    )
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    theta = cfg.theta()
    _check_admissible(cfg, theta)
    patch = _build_patch(cfg)
    comb = deform_patch(patch, theta)
    a4, b4 = dual_quarters(leading_dual_elements(cfg.count))
    table = compare_empirical_analytic(comb, theta, a4, b4)
    out = Path(cfg.out)
    _write(out, "comparison.csv", table.to_csv())
    summary = {
        "command": "compare",
        "radius": cfg.radius,
        "count": cfg.count,
        "max_error": table.max_error,
        "rms_error": table.rms_error,
    }
    _write(out, "compare_summary.json", _json_text(summary))
    print(f"compare: max error {table.max_error:.3e}, rms {table.rms_error:.3e}")
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "windows": cmd_windows,
    "deform": cmd_deform,
    "diffract": cmd_diffract,
    "sigma": cmd_sigma,
    "extinctions": cmd_extinctions,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasilattice",
        description="Silver-mean model sets, deformations, and diffraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--radius", type=float, help="patch radius")
        p.add_argument("--alpha", type=_parse_scalar, help="affine deformation slope")
        p.add_argument("--beta", type=_parse_scalar, help="affine deformation offset")
        p.add_argument("--kmax", type=float, dest="k_max", help="wave number cutoff")
        p.add_argument("--floor", type=float, help="intensity floor")
        p.add_argument("--svg", metavar="PATH", help="write a stem-plot SVG")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--mode", choices=("projection", "substitution"))
        p.add_argument("--count", type=int, help="number of wave numbers to compare")
        p.add_argument("--shift", help="lattice point 'm,n' = m + n*sqrt2")
        p.add_argument(
            "--allow-overlap",
            action="store_const",
            const=True,
            dest="allow_overlap",
            help="skip the admissibility check",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        # inside the try: --alpha/--beta are parsed here, and an exact value
        # beyond 64-bit coefficients is an overflow (exit 3)
        args = vars(parser.parse_args(argv))
        command = args.pop("command")
        config_path = args.pop("config", None)
        cfg = load_config(config_path, args)
        return _COMMANDS[command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CoefficientOverflowError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
