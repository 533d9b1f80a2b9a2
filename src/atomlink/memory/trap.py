"""Optical dipole trap: geometry, thermal sampling and atomic motion.

Geometry convention: the trap beam propagates along z, its linear
polarization is along x, and the magnetic bias field is along y.  The two
transverse axes (x, y) oscillate at the radial frequency, z at the axial
frequency.
"""

from dataclasses import dataclass

import numpy as np

from ..constants import K_B, M_RB87, MU_B, GAUSS_TO_TESLA, thermal_velocity_sigma

# Yoshida 4th-order composition coefficients
_Y4_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_Y4_W0 = 1.0 - 2.0 * _Y4_W1


@dataclass(frozen=True)
class TrapParams:
    """Focused Gaussian beam dipole trap."""

    wavelength: float = 850e-9
    trap_depth_u0: float = 2.32e-3        # kelvin equivalent
    beam_waist_w0: float = 2.05e-6
    atom_mass: float = M_RB87

    def __post_init__(self):
        for name in ("wavelength", "trap_depth_u0", "beam_waist_w0", "atom_mass"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.beam_waist_w0 < self.wavelength / 10.0:
            raise ValueError("waist must be large compared to wavelength/10")

    @property
    def depth_joule(self) -> float:
        return K_B * self.trap_depth_u0

    @property
    def depth_gauss(self) -> float:
        """Trap depth expressed as a magnetic field (for the vector shift scale)."""
        return self.depth_joule / MU_B / GAUSS_TO_TESLA

    @property
    def rayleigh_range(self) -> float:
        return np.pi * self.beam_waist_w0**2 / self.wavelength

    @property
    def omega_radial(self) -> float:
        """Harmonic radial angular frequency sqrt(4 U0 / (m w0^2))."""
        return float(np.sqrt(4.0 * self.depth_joule / (self.atom_mass * self.beam_waist_w0**2)))

    @property
    def omega_axial(self) -> float:
        return float(np.sqrt(2.0 * self.depth_joule / (self.atom_mass * self.rayleigh_range**2)))

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


def thermal_sigmas(trap: TrapParams, temperature: float) -> tuple[np.ndarray, float]:
    """(position sigmas per axis, velocity sigma) of the harmonic thermal state."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    omegas = np.array([trap.omega_radial, trap.omega_radial, trap.omega_axial])
    sig_pos = np.sqrt(K_B * temperature / trap.atom_mass) / omegas
    return sig_pos, thermal_velocity_sigma(temperature, trap.atom_mass)


class MotionKernel:
    """Motion of n atoms in the trap, on (3, n) position and velocity arrays.

    ``force`` evaluates -grad U / m and, from the same intensity, the
    vector-shift profile ``shift`` = x I(r)/I0 w0^2/w(z)^2, to which the
    fictitious field is proportional.  ``step`` advances by two Yoshida-4
    steps with adjacent half-kicks merged and sums the profile over the
    step by Simpson's rule.  All work buffers are allocated once, so
    neither allocates.
    """

    def __init__(self, trap: TrapParams, n: int):
        w02 = trap.beam_waist_w0**2
        zr2 = trap.rayleigh_range**2
        self._inv_zr2 = 1.0 / zr2
        self._two_over_w02 = 2.0 / w02
        self._radial = -4.0 * trap.depth_joule / (trap.atom_mass * w02)
        self._axial = -2.0 * trap.depth_joule / (trap.atom_mass * zr2)
        self.intensity = np.empty(n)
        self.shift = np.empty(n)
        self._simpson = np.empty(n)
        self._s = np.empty(n)
        self._g = np.empty(n)
        self._kick = np.empty((3, n))

    def force(self, pos: np.ndarray, acc: np.ndarray) -> None:
        """Write -grad U / m at (3, n) ``pos`` into ``acc``; refresh the profiles."""
        x, y, z = pos
        s, g, i_s = self._s, self._g, self.shift
        # s = w0^2 / w(z)^2, g = 2 rho^2 / w(z)^2, I/I0 = s exp(-g)
        np.multiply(z, z, out=s)
        s *= self._inv_zr2
        s += 1.0
        np.reciprocal(s, out=s)
        np.multiply(x, x, out=g)
        np.multiply(y, y, out=i_s)
        g += i_s
        g *= s
        g *= self._two_over_w02
        np.negative(g, out=self.intensity)
        np.exp(self.intensity, out=self.intensity)
        self.intensity *= s
        np.multiply(self.intensity, s, out=i_s)
        np.multiply(i_s, self._radial, out=acc[2])
        np.multiply(acc[2], y, out=acc[1])
        np.multiply(acc[2], x, out=acc[0])
        np.subtract(1.0, g, out=g)
        g *= z
        g *= i_s
        np.multiply(g, self._axial, out=acc[2])
        i_s *= x

    def step(self, pos: np.ndarray, vel: np.ndarray, acc: np.ndarray,
             shift: np.ndarray, dt: float) -> np.ndarray:
        """Advance (pos, vel, acc) in place by two Yoshida-4 steps spanning dt.

        ``shift`` holds the vector-shift profile at the start of the step and
        is overwritten with the one at its end.  Returns the Simpson sum
        f0 + 4 f_half + f1 of the profile over the step, six times its mean.
        """
        h = 0.5 * dt
        kick = self._kick
        total = self._simpson
        np.copyto(total, shift)
        carry = 0.0    # pending half-kick weight of the previous leapfrog
        for weight in (4.0, 1.0):
            for w in (_Y4_W1, _Y4_W0, _Y4_W1):
                np.multiply(acc, (carry + 0.5 * w) * h, out=kick)
                vel += kick
                np.multiply(vel, w * h, out=kick)
                pos += kick
                self.force(pos, acc)
                carry = 0.5 * w
            # the half-step profile counts four times; the end profile once,
            # and it stays in ``shift`` as the start of the next step
            np.multiply(self.shift, weight, out=shift)
            total += shift
        np.multiply(acc, carry * h, out=kick)
        vel += kick
        return total
