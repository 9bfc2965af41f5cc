"""Silver-mean cut-and-project sets, admissible deformations, and their
pure point diffraction.

The public names below are imported from their submodules on first access
(PEP 562), so ``import quasilattice`` alone loads no numpy.  The command
line relies on that: ``quasilattice.cli`` sets its BLAS thread default
before numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "quadfield": (
        "AlgebraicNumber",
        "CoefficientOverflowError",
        "SILVER_MEAN",
        "SILVER_MEAN_CONJ",
        "SQRT2",
        "enumerate_dual",
        "exact_compare",
        "parse_exact",
        "star",
    ),
    "substitution": (
        "LabeledPatch",
        "SubstitutionRule",
        "fixed_point_patch",
        "pf_data",
        "silver_mean_rule",
        "substitute",
    ),
    "cutproject": (
        "IfsMap",
        "IfsSystem",
        "Window",
        "hutchinson_step",
        "hausdorff_distance",
        "project_patch",
        "sigma_estimate",
        "silver_ifs",
        "silver_subwindows",
        "silver_window",
        "silver_windows",
        "solve_windows",
    ),
    "deform": (
        "AffineDeformation",
        "CombPoint",
        "DeformationMap",
        "DiracComb",
        "FixedKernel",
        "LocalKernel",
        "PiecewiseLinearDeformation",
        "deform_measure",
        "deform_patch",
        "delone_check",
        "density",
        "detect_periods",
        "interval_ratio",
        "local_configuration",
    ),
    "diffraction": (
        "ComparisonTable",
        "ExtinctionReport",
        "Spectrum",
        "amplitude_closed",
        "amplitude_quadrature",
        "autocorrelation_finite",
        "compare_empirical_analytic",
        "dual_quarters",
        "empirical_spectrum",
        "extinction_report",
        "leading_dual_columns",
        "spectrum_scan",
        "weyl_sum",
        "weyl_sums",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    # an unknown name must raise AttributeError: ``from quasilattice import
    # cli`` then falls back to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
