"""funcutpoint: optimal cut-off curves for distribution-valued biomarkers.

Subjects are represented by quantile curves on a shared probability grid.
A one-parameter threshold family reduces each curve to a scalar margin,
the cut-point is optimized exactly over the observed margins, and a
subject-level bootstrap quantifies the uncertainty. A simulation harness
and glycemic comparison indices round out the pipeline.

The package namespace is lazy (PEP 562): `import funcutpoint` loads
neither numpy nor any submodule, and each exported name imports its
submodule on first use. The choices of the CLI's options are defined here,
so its parser loads no submodule; the modules that check them import them
from here.
"""

import importlib

__version__ = "0.1.0"

CRITERIA = ("youden", "max_sensitivity", "max_specificity")
MU_MODES = ("pooled-mean", "group-mean", "pointwise-median")
GAP_MODES = ("single", "cumulative")
SPREAD_MODES = ("shared-base", "literal")
U2_MODES = ("literal", "rho-scaled")

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "BootstrapConfig": "bootstrap",
    "BootstrapSummary": "bootstrap",
    "bootstrap_cutpoint": "bootstrap",
    "bootstrap_scalar": "bootstrap",
    "CutpointResult": "cutpoint",
    "auc": "cutpoint",
    "candidate_set": "cutpoint",
    "confusion_at": "cutpoint",
    "optimize": "cutpoint",
    "roc_points": "cutpoint",
    "sweep_metrics": "cutpoint",
    "IndexVector": "indices",
    "compute_indices": "indices",
    "conga": "indices",
    "mage": "indices",
    "SubjectSeries": "ingest",
    "ingest_cohort": "ingest",
    "monotone_smooth": "monotone",
    "moving_average": "monotone",
    "pava": "monotone",
    "TruncNormalSpec": "normal",
    "norm_cdf": "normal",
    "norm_quantile": "normal",
    "tn_quantile": "normal",
    "QuantileCurve": "quantiles",
    "default_grid": "quantiles",
    "empirical_quantile": "quantiles",
    "DgpParams": "simulate",
    "generate": "simulate",
    "run_study": "simulate",
    "ThresholdFamily": "threshold",
    "classify": "threshold",
    "cutoff_curve": "threshold",
    "estimate_mu": "threshold",
    "margin_vector": "threshold",
}

__all__ = ["__version__", "CRITERIA", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
