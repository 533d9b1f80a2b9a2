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
    def nu_radial(self) -> float:
        return self.omega_radial / (2.0 * np.pi)

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    def beam_width_sq(self, z):
        """w(z)^2 of the Gaussian beam."""
        return self.beam_waist_w0**2 * (1.0 + (z / self.rayleigh_range) ** 2)

    def intensity_fraction(self, positions: np.ndarray) -> np.ndarray:
        """Local intensity relative to the focus, I(r)/I0, for (n, 3) positions."""
        pos = np.atleast_2d(positions)
        w2 = self.beam_width_sq(pos[:, 2])
        rho2 = pos[:, 0] ** 2 + pos[:, 1] ** 2
        return (self.beam_waist_w0**2 / w2) * np.exp(-2.0 * rho2 / w2)

    def potential(self, positions: np.ndarray) -> np.ndarray:
        """U(r) in joules, (n,) for (n, 3) positions."""
        return -self.depth_joule * self.intensity_fraction(positions)

    def acceleration(self, positions: np.ndarray) -> np.ndarray:
        """-grad U / m for (n, 3) positions."""
        pos = np.atleast_2d(positions)
        x, y, z = pos[:, 0], pos[:, 1], pos[:, 2]
        zr2 = self.rayleigh_range**2
        w2 = self.beam_width_sq(z)
        s = self.beam_waist_w0**2 / w2
        rho2 = x**2 + y**2
        intensity = s * np.exp(-2.0 * rho2 / w2)
        u0 = self.depth_joule
        common = -4.0 * u0 * intensity * s / self.beam_waist_w0**2
        ax = common * x
        ay = common * y
        az = -2.0 * u0 * intensity * s * (z / zr2) * (
            1.0 - 2.0 * rho2 * s / self.beam_waist_w0**2
        )
        return np.stack([ax, ay, az], axis=1) / self.atom_mass

    def total_energy(self, positions: np.ndarray, velocities: np.ndarray) -> np.ndarray:
        kin = 0.5 * self.atom_mass * np.sum(np.atleast_2d(velocities) ** 2, axis=1)
        return kin + self.potential(positions)


def thermal_sigmas(trap: TrapParams, temperature: float) -> tuple[np.ndarray, float]:
    """(position sigmas per axis, velocity sigma) of the harmonic thermal state."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    omegas = np.array([trap.omega_radial, trap.omega_radial, trap.omega_axial])
    sig_pos = np.sqrt(K_B * temperature / trap.atom_mass) / omegas
    return sig_pos, thermal_velocity_sigma(temperature, trap.atom_mass)


def _leapfrog(trap: TrapParams, pos, vel, h, acc):
    """Velocity-Verlet substep; returns updated (pos, vel, acc at new pos)."""
    vel = vel + 0.5 * h * acc
    pos = pos + h * vel
    acc = trap.acceleration(pos)
    vel = vel + 0.5 * h * acc
    return pos, vel, acc


def yoshida4_step(trap: TrapParams, pos, vel, h, acc):
    """One 4th-order symplectic step of size h (three leapfrog substeps)."""
    for w in (_Y4_W1, _Y4_W0, _Y4_W1):
        pos, vel, acc = _leapfrog(trap, pos, vel, w * h, acc)
    return pos, vel, acc
