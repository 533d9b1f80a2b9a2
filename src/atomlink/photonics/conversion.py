"""Quantum frequency conversion: efficiency and Raman background."""

from dataclasses import dataclass


@dataclass(frozen=True)
class QfcParams:
    """External device efficiency and the flat Raman background it causes.

    ``background_rate`` is the click rate registered at the middle station
    that originates from this converter's pump (after the long fibre).
    """

    external_efficiency: float = 0.57
    background_rate: float = 160.0

    def __post_init__(self):
        if not 0.0 <= self.external_efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if self.background_rate < 0.0:
            raise ValueError("background rate must be >= 0")
