"""Magnetic field environment seen by the trapped atom.

All fields are in gauss, lab axes as in trap.py (beam along z, polarization
along x, bias along y).  The vector light shift of the focused beam acts as
a fictitious field along y: it is odd in x, vanishes on the beam axis, and
scales with the local intensity over k*w^2.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .trap import TrapParams

# one free calibration factor of the vector-shift model; tuned so the
# simulated de/rephasing contrast and coherence time match the memory data
DEFAULT_FICTITIOUS_SCALE = 0.015


@dataclass(frozen=True)
class FieldEnvironment:
    """Bias field, quasi-static shot noise and the fictitious-field strength."""

    bias_field: np.ndarray = field(default_factory=lambda: np.array([0.0, 75.5e-3, 0.0]))
    shot_noise_sigma: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.5e-3, 0.0]))
    fictitious_field_scale: float = DEFAULT_FICTITIOUS_SCALE

    def __post_init__(self):
        b = np.asarray(self.bias_field, dtype=float)
        s = np.asarray(self.shot_noise_sigma, dtype=float)
        if b.shape != (3,) or s.shape != (3,):
            raise ValueError("bias and noise sigma must be 3-vectors")
        if np.any(s < 0):
            raise ValueError("noise sigmas must be >= 0")
        object.__setattr__(self, "bias_field", b)
        object.__setattr__(self, "shot_noise_sigma", s)

    def replace(self, **kwargs) -> "FieldEnvironment":
        return dataclasses.replace(self, **kwargs)


def fictitious_field_y(trap: TrapParams, env: FieldEnvironment,
                       positions: np.ndarray) -> np.ndarray:
    """y component of the vector-light-shift field at (n, 3) positions."""
    pos = np.atleast_2d(positions)
    w2 = trap.beam_width_sq(pos[:, 2])
    intensity = trap.intensity_fraction(pos)
    longitudinal_fraction = 4.0 * pos[:, 0] / (trap.wavenumber * w2)
    return env.fictitious_field_scale * trap.depth_gauss * longitudinal_fraction * intensity


def local_effective_field(trap: TrapParams, env: FieldEnvironment, position,
                          noise_sample=None) -> np.ndarray:
    """Total field at one position: bias + per-shot noise + fictitious term.

    ``noise_sample`` is the quasi-static field offset of the current
    experiment shot (drawn once per trajectory); None means zero offset.
    """
    pos = np.asarray(position, dtype=float).reshape(1, 3)
    out = env.bias_field.copy()
    if noise_sample is not None:
        out = out + np.asarray(noise_sample, dtype=float)
    out = out.astype(float)
    out[1] += fictitious_field_y(trap, env, pos)[0]
    return out
