"""Physical constants used throughout the simulator.

Magnetic fields are handled in gauss, times in seconds, lengths in metres
unless a name says otherwise.
"""

import numpy as np
from scipy import constants as _const

K_B = _const.Boltzmann            # J/K
HBAR = _const.hbar                # J s
MU_B = _const.physical_constants["Bohr magneton"][0]  # J/T
C_LIGHT = _const.c                # m/s
ATOMIC_MASS = _const.atomic_mass  # kg

M_RB87 = 86.909180527 * ATOMIC_MASS   # kg

# F=1 ground-state Lande factor of Rb-87 (model value)
G_F = -0.5

GAUSS_TO_TESLA = 1e-4

# Single-quantum Larmor rate |g_F| mu_B / hbar, in rad/s per gauss.
GAMMA_1 = abs(G_F) * MU_B / HBAR * GAUSS_TO_TESLA
# m=+1 vs m=-1 coherence precesses at twice that.
GAMMA_2 = 2.0 * GAMMA_1

# Speed of light in fibre, the 2c/3 approximation used for all delays.
FIBRE_SPEED = 2.0 * C_LIGHT / 3.0


def thermal_velocity_sigma(temperature: float, mass: float = M_RB87) -> float:
    """1D velocity standard deviation at thermal equilibrium."""
    return float(np.sqrt(K_B * temperature / mass))
