from .windows import DetectionHistogram, SbrEstimate, acceptance_filter, sbr
from .tables import ClickTable, EventTable
from .estimators import (
    CorrelationDataset,
    FringeFit,
    SettingCounts,
    basis_contrast,
    binomial_sigma,
    chsh_from_dataset,
    correlation_probability,
    dataset_from_events,
    fidelity_bound,
    fringe_fit,
    interference_contrast,
    statistical_error,
    three_basis_summary,
    fringe_visibility_summary,
)

__all__ = [
    "DetectionHistogram", "SbrEstimate", "acceptance_filter", "sbr",
    "CorrelationDataset", "FringeFit", "SettingCounts", "basis_contrast",
    "binomial_sigma", "chsh_from_dataset", "correlation_probability",
    "dataset_from_events", "EventTable", "ClickTable",
    "fidelity_bound", "fringe_fit", "interference_contrast",
    "statistical_error", "three_basis_summary", "fringe_visibility_summary",
]
