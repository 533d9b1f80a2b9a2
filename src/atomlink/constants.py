"""Physical constants used throughout the simulator.

Magnetic fields are handled in gauss, times in seconds, lengths in metres
unless a name says otherwise.
"""

import numpy as np

# CODATA 2022, as scipy.constants gives them from scipy 1.15 on
K_B = 1.380649e-23                # J/K
HBAR = 1.0545718176461565e-34     # J s
MU_B = 9.2740100657e-24           # J/T
C_LIGHT = 299792458.0             # m/s
ATOMIC_MASS = 1.66053906892e-27   # kg

M_RB87 = 86.909180527 * ATOMIC_MASS   # kg

# F=1 ground-state Lande factor of Rb-87 (model value)
G_F = -0.5

GAUSS_TO_TESLA = 1e-4

# Speed of light in fibre, the 2c/3 approximation used for all delays.
FIBRE_SPEED = 2.0 * C_LIGHT / 3.0


def thermal_velocity_sigma(temperature: float, mass: float = M_RB87) -> float:
    """1D velocity standard deviation at thermal equilibrium."""
    return float(np.sqrt(K_B * temperature / mass))
