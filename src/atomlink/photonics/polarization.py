"""Fibre polarization drift and its automated compensation.

Polarization is tracked both as SU(2) Jones matrices (to act on photonic
qubits) and as SO(3) rotations of Stokes vectors (what the polarimeter
sees).  Stokes components are ordered (S1, S2, S3) = (H/V, D/A, R/L), i.e.
expectation values of (sigma_z, sigma_x, sigma_y) on the Jones vector.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI = np.stack((SIGMA_Z, SIGMA_X, SIGMA_Y))


def rotation_su2(axis, angle) -> np.ndarray:
    """exp(-i angle/2 n.sigma) for a Stokes-space axis n, or for a stack of them.

    ``axis`` is (..., 3) and need not be normalized; ``angle`` is a scalar
    or has the axes' leading shape.  In the (S1, S2, S3) order,
    n.sigma = [[n1, n2 - i n3], [n2 + i n3, -n1]].
    """
    n = np.asarray(axis, dtype=float)
    n = n / np.sqrt((n * n).sum(axis=-1, keepdims=True))
    half = np.asarray(angle, dtype=float) / 2.0
    c = np.cos(half)
    s = -1j * np.sin(half)
    u = np.empty(n.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = c + s * n[..., 0]
    u[..., 0, 1] = s * (n[..., 1] - 1j * n[..., 2])
    u[..., 1, 0] = s * (n[..., 1] + 1j * n[..., 2])
    u[..., 1, 1] = c - s * n[..., 0]
    return u


def stokes_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) Stokes rotation R[i, j] = tr(s_i U s_j U^dagger) / 2 of a Jones
    unitary U, or of a (..., 2, 2) stack of them."""
    m = np.asarray(u)
    return 0.5 * np.einsum("iab,...bc,jcd,...ed->...ij", _PAULI, m, _PAULI, m.conj()).real


def drift_walk(fibres: int, steps: int, dt: float, drift_rate: float,
               rng: np.random.Generator) -> np.ndarray:
    """Jones matrices of independently drifting fibres, as a (fibres, steps + 1, 2, 2) path.

    Every path starts at the identity.  Each step composes a rotation by an
    N(0, drift_rate^2 * dt) angle about a uniformly random Stokes axis, so
    the accumulated rotation variance grows linearly in time.  The stream
    gives one angle normal and then three axis normals per step, step by
    step and fibre by fibre; nothing is drawn at zero rate or step.
    """
    if drift_rate < 0.0:
        raise ValueError("drift rate must be >= 0")
    path = np.empty((fibres, steps + 1, 2, 2), dtype=complex)
    path[:] = np.eye(2)
    if drift_rate == 0.0 or dt == 0.0:
        return path
    z = rng.standard_normal((fibres, steps, 4))
    kicks = rotation_su2(z[..., 1:], drift_rate * np.sqrt(dt) * z[..., 0])
    for k in range(steps):
        np.matmul(kicks[:, k], path[:, k], out=path[:, k + 1])
    return path


# ---------------------------------------------------------------------------
# Automated compensation
# ---------------------------------------------------------------------------

# sin t2 at or below which the compensator counts as at a pole: there the
# general formulas' rounding error (about eps / sin t2) would exceed the
# O(sin t2) error of setting t1 = 0
_POLE = 1e-8


def _about_s3(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _about_s1(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _probe_cost(settings, r_fibre: np.ndarray):
    """Summed squared Stokes distance of the V and D probes after fibre and compensator.

    The compensator is Rz(t3) Rx(t2) Rz(t1) about the S3, S1, S3 axes.  For
    unit probes |R s - s|^2 = 2 - 2 s.R s, and s.R s is R[0, 0] for
    V = (-1, 0, 0) and R[1, 1] for D = (0, 1, 0).  ``r_fibre`` may be a
    (..., 3, 3) stack.
    """
    t1, t2, t3 = settings
    r = _about_s3(t3) @ _about_s1(t2) @ _about_s3(t1) @ r_fibre
    return 4.0 - 2.0 * (r[..., 0, 0] + r[..., 1, 1])


def residual_error_from_cost(cost):
    """Mean probe infidelity: 1 - (1 + s_out . s_target)/2 averaged over probes."""
    return cost / 8.0


def compensator_settings(r_fibre: np.ndarray) -> np.ndarray:
    """Paddle angles (t1, t2, t3) whose Rz(t3) Rx(t2) Rz(t1) inverts a Stokes rotation.

    They are the zxz Euler angles (z = S3, x = S1) of the transpose
    M = R^T, read off M's last row and column: M[2] is (sin t2 sin t1,
    sin t2 cos t1, cos t2) and M[:, 2] is (sin t2 sin t3, -sin t2 cos t3,
    cos t2).  At a pole (sin t2 = 0) only t1 + t3 (t2 = 0) or t3 - t1
    (t2 = pi) is fixed; there t1 = 0 and t3 comes from M[0, 0] = cos t3,
    M[1, 0] = sin t3.  ``r_fibre`` may be a (..., 3, 3) stack; the angles
    are (..., 3).
    """
    m = np.swapaxes(np.asarray(r_fibre, dtype=float), -1, -2)
    sin_t2 = np.hypot(m[..., 2, 0], m[..., 2, 1])
    pole = sin_t2 <= _POLE
    t1 = np.where(pole, 0.0, np.arctan2(m[..., 2, 0], m[..., 2, 1]))
    t2 = np.arctan2(sin_t2, m[..., 2, 2])
    t3 = np.where(pole, np.arctan2(m[..., 1, 0], m[..., 0, 0]),
                  np.arctan2(m[..., 0, 2], -m[..., 1, 2]))
    return np.stack((t1, t2, t3), axis=-1)


def simulate_drift_with_control(drift_rate: float, cadence: float, duration: float,
                                dt: float, seed: int):
    """Drifting fibre with periodic compensation; returns (times, errors).

    The error trace is the probe residual measured every ``dt`` with the
    settings held between control runs.  The fibre follows one
    ``drift_walk`` seeded by ``seed``; a control run is due at the first
    sample at or after each multiple of ``cadence``, and sets the
    compensator to the inverse of the fibre's rotation at that sample.
    """
    times, controls = [], []
    t = next_control = 0.0
    while t <= duration:
        if t >= next_control:
            controls.append(len(times))
            next_control += cadence
        times.append(t)
        t += dt
    path = drift_walk(1, len(times), dt, drift_rate, np.random.default_rng(seed))[0, :-1]
    r_fibre = stokes_rotation(path)
    settings = compensator_settings(r_fibre[controls])
    errors = np.empty(len(times))
    for theta, start, stop in zip(settings, controls, controls[1:] + [len(times)]):
        errors[start:stop] = residual_error_from_cost(_probe_cost(theta, r_fibre[start:stop]))
    return np.asarray(times), errors
