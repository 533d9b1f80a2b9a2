"""Fibre polarization drift and its automated compensation.

Polarization is tracked both as SU(2) Jones matrices (to act on photonic
qubits) and as SO(3) rotations of Stokes vectors (what the polarimeter
sees).  Stokes components are ordered (S1, S2, S3) = (H/V, D/A, R/L), i.e.
expectation values of (sigma_z, sigma_x, sigma_y) on the Jones vector.
"""

import math
from dataclasses import dataclass, field

import numpy as np

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI = np.stack((SIGMA_Z, SIGMA_X, SIGMA_Y))


@dataclass(frozen=True)
class FibreUnitary:
    """Jones-matrix polarization transformation of one fibre."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex))

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if np.max(np.abs(m @ m.conj().T - np.eye(2))) > 1e-9:
            raise ValueError("matrix is not unitary")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


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


def stokes_rotation(u: np.ndarray | FibreUnitary) -> np.ndarray:
    """SO(3) Stokes rotation R[i, j] = tr(s_i U s_j U^dagger) / 2 of a Jones
    unitary U, or of a (..., 2, 2) stack of them."""
    m = u.matrix if isinstance(u, FibreUnitary) else np.asarray(u)
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

_COST_TOL = 8e-7         # summed probe cost at which the descent stops
_RANDOM_RESTARTS = 2     # random starts tried after the current and zero settings
_RESTART_SEED = 0
_FD_EPS = 1e-6           # finite-difference step of the probe gradient
_FD_STEPS = _FD_EPS * np.eye(3)


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


@dataclass
class PolarizationController:
    """Three-paddle compensator driven by probe-based gradient descent."""

    settings: np.ndarray = field(default_factory=lambda: np.zeros(3))
    max_iterations: int = 600


def polarization_control_cycle(u: FibreUnitary, controller: PolarizationController
                               ) -> tuple[np.ndarray, float, bool]:
    """One automated compensation run against the current fibre unitary.

    Alternating V and D probes are (virtually) sent through the fibre and
    compensator; the three paddle angles are optimized by finite-difference
    gradient descent on the summed Stokes distance.  Returns the new
    settings, the residual polarization error, and a convergence flag.
    The controller never keeps settings worse than the ones it started with.
    """
    r_fibre = stokes_rotation(u)

    def cost(theta):
        return _probe_cost(theta, r_fibre)

    rng = np.random.default_rng(_RESTART_SEED)
    starts = [np.asarray(controller.settings, dtype=float), np.zeros(3),
              *rng.uniform(-np.pi, np.pi, size=(_RANDOM_RESTARTS, 3))]

    best_theta = starts[0]
    best_cost = cost(best_theta)
    budget = controller.max_iterations
    for theta0 in starts:
        theta, c, used = _gradient_descent(cost, theta0, budget)
        budget -= used
        if c < best_cost:
            best_theta, best_cost = theta, c
        if best_cost < _COST_TOL or budget <= 0:
            break

    controller.settings = best_theta
    converged = residual_error_from_cost(best_cost) < 0.01
    return best_theta, residual_error_from_cost(best_cost), converged


def _gradient_descent(cost, theta0: np.ndarray, max_iter: int
                      ) -> tuple[np.ndarray, float, int]:
    theta = np.array(theta0, dtype=float)
    c = cost(theta)
    step = 0.5
    used = 0
    for _ in range(max(0, max_iter)):
        used += 1
        grad = np.array([cost(theta + e) - cost(theta - e) for e in _FD_STEPS]) / (2.0 * _FD_EPS)
        g_norm = np.linalg.norm(grad)
        if g_norm < 1e-12 or c < _COST_TOL:
            break
        improved = False
        for _ in range(25):
            trial = theta - step * grad / g_norm
            c_trial = cost(trial)
            if c_trial < c:
                theta, c = trial, c_trial
                step *= 1.25
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return theta, c, used


def simulate_drift_with_control(drift_rate: float, cadence: float, duration: float,
                                dt: float, seed: int):
    """Drifting fibre with periodic compensation; returns (times, errors).

    The error trace is the probe residual measured every ``dt`` with the
    settings held between control runs.  The fibre follows one
    ``drift_walk`` seeded by ``seed``; a control run is due at the first
    sample at or after each multiple of ``cadence``.  The controller starts
    from zero settings.
    """
    ctrl = PolarizationController()
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
    errors = np.empty(len(times))
    for start, stop in zip(controls, controls[1:] + [len(times)]):
        polarization_control_cycle(FibreUnitary(path[start]), ctrl)
        errors[start:stop] = residual_error_from_cost(_probe_cost(ctrl.settings,
                                                                  r_fibre[start:stop]))
    return np.asarray(times), errors
