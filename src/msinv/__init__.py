"""Design-based multi-stage estimation for aerial methane survey inventories."""

from .estimators import (
    EstimatorConfig,
    total_inventory,
    estimate_survey,
    wald_ci,
)
from .frame import SurveyFrame, load_survey, validate
from .pod import MeasurementModel, PodParams, bias_correct, pod, sample_true_rate
from .reporting import InventoryReport, KG_H_PER_KT_Y

__version__ = "0.1.0"

__all__ = [
    "EstimatorConfig",
    "InventoryReport",
    "KG_H_PER_KT_Y",
    "MeasurementModel",
    "PodParams",
    "SurveyFrame",
    "bias_correct",
    "estimate_survey",
    "load_survey",
    "pod",
    "sample_true_rate",
    "total_inventory",
    "validate",
    "wald_ci",
    "__version__",
]
