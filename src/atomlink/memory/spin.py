"""Zeeman rotation rate of the F=1 ground manifold."""

from ..constants import G_F, GAUSS_TO_TESLA, HBAR, MU_B

# rad/s per gauss of Zeeman rotation, signed with g_F
OMEGA_PER_GAUSS = G_F * MU_B * GAUSS_TO_TESLA / HBAR
