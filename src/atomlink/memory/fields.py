"""Magnetic field environment seen by the trapped atom.

All fields are in gauss along the quantization axis, lab y in the axes of
trap.py (beam along z, polarization along x, bias along y).  The bias, the
quasi-static shot noise and the vector light shift of the focused beam all
act along that axis.  The vector light shift is a fictitious field that is
odd in x, vanishes on the beam axis, and scales with the local intensity
over k*w^2.
"""

import numbers
from dataclasses import dataclass

from .trap import TrapParams

# one free calibration factor of the vector-shift model; tuned so the
# simulated de/rephasing contrast and coherence time match the memory data
DEFAULT_FICTITIOUS_SCALE = 0.015


@dataclass(frozen=True)
class FieldEnvironment:
    """Bias field, quasi-static shot noise and the fictitious-field strength.

    ``bias_field`` and ``shot_noise_sigma`` are gauss along the quantization
    axis (lab y).
    """

    bias_field: float = 75.5e-3
    shot_noise_sigma: float = 0.5e-3
    fictitious_field_scale: float = DEFAULT_FICTITIOUS_SCALE

    def __post_init__(self):
        for name in ("bias_field", "shot_noise_sigma"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number (gauss along the bias axis), "
                                 f"got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.shot_noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")


def vector_shift_gauss(trap: TrapParams, env: FieldEnvironment) -> float:
    """Fictitious field (gauss) per unit of the vector-shift profile
    x I(r)/I0 w0^2/w(z)^2 that ``MotionKernel.force`` evaluates.

    The field is the scale times the trap depth in gauss times the
    longitudinal fraction 4 x / (k w(z)^2) of the local intensity.
    """
    return (env.fictitious_field_scale * trap.depth_gauss
            * 4.0 / (trap.wavenumber * trap.beam_waist_w0**2))
