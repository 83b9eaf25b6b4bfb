"""Exposure effects and additive interaction from logistic models.

Estimates two standardized risk differences and their interaction
(difference of risk differences) from an observational cohort, and
propagates coefficient uncertainty by Monte Carlo sampling of the normal
approximation to the ML estimate: percentile intervals, joint confidence
ellipses, and tercile-conditional interaction intervals.

The names below load on first use (PEP 562), so `import riskdiff` itself
imports no numpy; `riskdiff.cli` can then choose the BLAS thread count
before numpy starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "dataset": ("Cohort", "ColumnSchema", "describe", "load_cohort"),
    "effects": ("EffectTriple", "StandardizationSet", "effect_triple",
                "marginal_risk", "risk"),
    "glm": ("FitResult", "ModelSpec", "Term", "build_design", "fit_logistic"),
    "inference": ("ConfidenceEllipse", "IntervalEstimate", "TercileReport",
                  "confidence_ellipse", "delta_method_check",
                  "marginal_report", "percentile_ci", "quantile",
                  "tercile_report"),
    "montecarlo": ("EffectDistribution", "cholesky", "effect_distribution",
                   "sample_parameters"),
}
_SUBMODULES = ("cli", "dataset", "effects", "errors", "fixtures", "glm",
               "inference", "montecarlo")
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
