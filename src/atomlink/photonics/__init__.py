from .fibre import FibreLink, link_transmission, propagation_delay
from .conversion import QfcParams
from .interference import PhotonWavepacket, indistinguishability, window_capture_probability
from .bsm import (
    CoincidenceClass,
    DetectorParams,
    classify_coincidence,
    coincidence_distribution,
    DETECTOR_PAIRS,
)
from .polarization import (
    compensator_settings,
    drift_walk,
    rotation_su2,
    simulate_drift_with_control,
    stokes_rotation,
)

__all__ = [
    "FibreLink", "link_transmission", "propagation_delay",
    "QfcParams",
    "PhotonWavepacket", "indistinguishability", "window_capture_probability",
    "CoincidenceClass", "DetectorParams", "classify_coincidence",
    "coincidence_distribution", "DETECTOR_PAIRS",
    "compensator_settings", "drift_walk", "rotation_su2",
    "simulate_drift_with_control", "stokes_rotation",
]
