"""Fibre links: attenuation budgets and propagation delays."""

from dataclasses import dataclass

from ..constants import FIBRE_SPEED

ATTENUATION_DB_PER_KM = 0.22


@dataclass(frozen=True)
class FibreLink:
    """One fibre between a node and the middle station.

    ``attenuation_total_db`` is the full budget including connector losses,
    so it may exceed the bare per-km figure.
    """

    length_km: float
    attenuation_total_db: float
    propagation_speed: float = FIBRE_SPEED

    def __post_init__(self):
        if self.length_km < 0:
            raise ValueError("length must be >= 0")
        if self.propagation_speed <= 0:
            raise ValueError("propagation speed must be positive")
        floor = ATTENUATION_DB_PER_KM * self.length_km - 0.5
        if self.attenuation_total_db < max(floor, 0.0):
            raise ValueError(
                f"attenuation {self.attenuation_total_db} dB below the "
                f"{ATTENUATION_DB_PER_KM} dB/km sanity floor for {self.length_km} km"
            )


def link_transmission(link: FibreLink) -> float:
    """Power transmission 10^(-A/10)."""
    return float(10.0 ** (-link.attenuation_total_db / 10.0))


def propagation_delay(link: FibreLink) -> float:
    """One-way delay in seconds at the fibre speed of light."""
    return link.length_km * 1e3 / link.propagation_speed
