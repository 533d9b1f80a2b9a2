from .fibre import FibreLink, link_transmission, propagation_delay
from .conversion import QfcParams, background_in_window
from .interference import PhotonWavepacket, indistinguishability, window_capture_probability
from .bsm import (
    ClickRecord,
    CoincidenceClass,
    DetectorParams,
    classify_coincidence,
    coincidence_distribution,
    pair_distribution,
    DETECTOR_PAIRS,
)
from .polarization import (
    FibreUnitary,
    PolarizationState,
    PolarizationController,
    drift_step,
    polarization_control_cycle,
    rotation_su2,
    simulate_drift_with_control,
    stokes_rotation,
)

__all__ = [
    "FibreLink", "link_transmission", "propagation_delay",
    "QfcParams", "background_in_window",
    "PhotonWavepacket", "indistinguishability", "window_capture_probability",
    "ClickRecord", "CoincidenceClass", "DetectorParams", "classify_coincidence",
    "coincidence_distribution", "pair_distribution", "DETECTOR_PAIRS",
    "FibreUnitary", "PolarizationState", "PolarizationController",
    "drift_step", "polarization_control_cycle", "rotation_su2",
    "simulate_drift_with_control", "stokes_rotation",
]
