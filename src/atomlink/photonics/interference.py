"""Photon wavepackets and two-photon temporal indistinguishability."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


@dataclass(frozen=True)
class PhotonWavepacket:
    """One-sided exponential emission triggered by a Gaussian excitation pulse.

    Times are seconds relative to the synchronized excitation;
    ``emission_offset`` shifts the whole wavepacket.
    """

    emission_offset: float = 0.0
    decay_time: float = 26.2e-9
    excitation_fwhm: float = 21e-9

    def __post_init__(self):
        if self.decay_time <= 0.0:
            raise ValueError("decay time must be positive")
        if self.excitation_fwhm < 0.0:
            raise ValueError("excitation FWHM must be >= 0")

    @property
    def excitation_sigma(self) -> float:
        return self.excitation_fwhm * FWHM_TO_SIGMA

    def sample_emission_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw detection times: Gaussian excitation jitter plus exponential decay."""
        return (
            self.emission_offset
            + rng.normal(0.0, self.excitation_sigma, size=n)
            + rng.exponential(self.decay_time, size=n)
        )


def indistinguishability(w1: PhotonWavepacket, w2: PhotonWavepacket,
                         delta_tau: float = 0.0, xi_max: float = 1.0) -> float:
    """Squared temporal-mode overlap of the two wavepackets, times xi_max.

    ``delta_tau`` adds to the emission offsets.  For identical one-sided
    exponentials the overlap squared is exp(-|dt|/decay_time); unequal decay
    times reduce the ceiling to 4*t1*t2/(t1+t2)^2.  ``xi_max`` folds in all
    residual (non-temporal) distinguishability such as synchronization jitter
    and double excitation.
    """
    if not 0.0 <= xi_max <= 1.0:
        raise ValueError("xi_max must be in [0, 1]")
    dt = delta_tau + w2.emission_offset - w1.emission_offset
    t1, t2 = w1.decay_time, w2.decay_time
    if dt < 0.0:
        t1, t2 = t2, t1
        dt = -dt
    # |
    # integral sqrt(1/(t1 t2)) exp(-t/2t1) exp(-(t-dt)/2t2) dt from dt to inf
    # |^2 = [4 t1 t2 / (t1+t2)^2] exp(-dt/t1), the leading photon decaying t1
    amp2 = 4.0 * t1 * t2 / (t1 + t2) ** 2 * np.exp(-dt / t1)
    return float(xi_max * amp2)


def window_capture_probability(w: PhotonWavepacket, t_start: float, t_end: float) -> float:
    """Probability that the detection time falls inside [t_start, t_end].

    Uses the exponentially-modified-Gaussian CDF of excitation-jittered
    exponential emission.
    """
    if t_end < t_start:
        raise ValueError("t_end must be >= t_start")
    return float(_emg_cdf(t_end, w) - _emg_cdf(t_start, w))


def _emg_cdf(x: float, w: PhotonWavepacket) -> float:
    mu, sigma, tau = w.emission_offset, w.excitation_sigma, w.decay_time
    if sigma == 0.0:
        return 1.0 - np.exp(-(x - mu) / tau) if x > mu else 0.0
    z = (x - mu) / sigma
    u = sigma / tau
    arg = sigma**2 / (2.0 * tau**2) - (x - mu) / tau
    tail = np.exp(arg) * _ndtr(z - u) if arg < 700.0 else 0.0
    return float(np.clip(_ndtr(z) - tail, 0.0, 1.0))


def _ndtr(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
