"""funcutpoint: optimal cut-off curves for distribution-valued biomarkers.

Subjects are represented by quantile curves on a shared probability grid.
A one-parameter threshold family reduces each curve to a scalar margin,
the cut-point is optimized exactly over the observed margins, and a
subject-level bootstrap quantifies the uncertainty. A simulation harness
and glycemic comparison indices round out the pipeline.
"""

__version__ = "0.1.0"

from .bootstrap import (
    BootstrapConfig,
    BootstrapSummary,
    bootstrap_cutpoint,
    bootstrap_scalar,
)
from .cutpoint import (
    CRITERIA,
    CutpointResult,
    auc,
    candidate_set,
    confusion_at,
    optimize,
    roc_points,
    sweep_metrics,
)
from .indices import IndexVector, basic_indices, compute_indices, conga, mage
from .ingest import SubjectSeries, filter_days, ingest_cohort
from .monotone import SmoothConfig, monotone_smooth, moving_average, pava
from .normal import TruncNormalSpec, norm_cdf, norm_quantile, tn_quantile
from .quantiles import QuantileCurve, default_grid, empirical_quantile
from .simulate import DgpParams, generate, run_study
from .threshold import (
    ThresholdFamily,
    classify,
    cutoff_curve,
    estimate_mu,
    margin,
    margin_vector,
)

__all__ = [
    "__version__",
    "BootstrapConfig",
    "BootstrapSummary",
    "bootstrap_cutpoint",
    "bootstrap_scalar",
    "CRITERIA",
    "CutpointResult",
    "auc",
    "candidate_set",
    "confusion_at",
    "optimize",
    "roc_points",
    "sweep_metrics",
    "IndexVector",
    "basic_indices",
    "compute_indices",
    "conga",
    "mage",
    "SubjectSeries",
    "filter_days",
    "ingest_cohort",
    "SmoothConfig",
    "monotone_smooth",
    "moving_average",
    "pava",
    "TruncNormalSpec",
    "norm_cdf",
    "norm_quantile",
    "tn_quantile",
    "QuantileCurve",
    "default_grid",
    "empirical_quantile",
    "DgpParams",
    "generate",
    "run_study",
    "ThresholdFamily",
    "classify",
    "cutoff_curve",
    "estimate_mu",
    "margin",
    "margin_vector",
]
