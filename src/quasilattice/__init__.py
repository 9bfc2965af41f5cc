"""Silver-mean cut-and-project sets, admissible deformations, and their
pure point diffraction."""

from .quadfield import (
    AlgebraicNumber,
    CoefficientOverflowError,
    SILVER_MEAN,
    SILVER_MEAN_CONJ,
    SQRT2,
    enumerate_dual,
    exact_compare,
    parse_exact,
    star,
)
from .substitution import (
    LabeledPatch,
    SubstitutionRule,
    fixed_point_patch,
    pf_data,
    silver_mean_rule,
    substitute,
)
from .cutproject import (
    IfsMap,
    IfsSystem,
    Window,
    hutchinson_step,
    hausdorff_distance,
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
    CombPoint,
    DeformationMap,
    DiracComb,
    FixedKernel,
    LocalKernel,
    PiecewiseLinearDeformation,
    deform_measure,
    deform_patch,
    delone_check,
    density,
    detect_periods,
    interval_ratio,
    local_configuration,
)
from .diffraction import (
    ComparisonTable,
    ExtinctionReport,
    Spectrum,
    amplitude_closed,
    amplitude_quadrature,
    autocorrelation_finite,
    compare_empirical_analytic,
    dual_quarters,
    empirical_spectrum,
    extinction_report,
    leading_dual_columns,
    spectrum_scan,
    weyl_sum,
    weyl_sums,
)

__version__ = "0.1.0"
