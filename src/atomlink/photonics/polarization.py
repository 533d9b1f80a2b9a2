"""Fibre polarization drift and its automated compensation.

Polarization is tracked both as SU(2) Jones matrices (to act on photonic
qubits) and as SO(3) rotations of Stokes vectors (what the polarimeter
sees).  Stokes components are ordered (S1, S2, S3) = (H/V, D/A, R/L), i.e.
expectation values of (sigma_z, sigma_x, sigma_y) on the Jones vector.
"""

from dataclasses import dataclass, field

import numpy as np

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI = (SIGMA_Z, SIGMA_X, SIGMA_Y)

STOKES_V = np.array([-1.0, 0.0, 0.0])
STOKES_D = np.array([0.0, 1.0, 0.0])


@dataclass(frozen=True)
class PolarizationState:
    """Point on (or inside) the Poincare sphere."""

    stokes: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.stokes, dtype=float)
        if s.shape != (3,):
            raise ValueError("Stokes vector must have 3 components")
        if np.linalg.norm(s) > 1.0 + 1e-9:
            raise ValueError("Stokes vector norm must not exceed 1")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "stokes", s)

    @classmethod
    def from_jones(cls, jones) -> "PolarizationState":
        return cls(stokes_vector(jones))

    def degree_of_polarization(self) -> float:
        return float(np.linalg.norm(self.stokes))


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

    def rotation_angle(self) -> float:
        """Rotation angle of the SU(2) element, ignoring global phase."""
        tr = self.matrix[0, 0] + self.matrix[1, 1]
        half = np.clip(abs(tr) / 2.0, 0.0, 1.0)
        return float(2.0 * np.arccos(half))


def rotation_su2(axis, angle) -> np.ndarray:
    """exp(-i angle/2 n.sigma) for a Stokes-space axis n, or for a stack of them.

    ``axis`` is (3,) or (n, 3) and need not be normalized; ``angle`` is a
    scalar or (n,).  In the (S1, S2, S3) order,
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
    """SO(3) Stokes rotation matrix of a Jones unitary."""
    m = u.matrix if isinstance(u, FibreUnitary) else u
    r = np.empty((3, 3))
    for i, si in enumerate(_PAULI):
        for j, sj in enumerate(_PAULI):
            r[i, j] = 0.5 * np.trace(si @ m @ sj @ m.conj().T).real
    return r


def stokes_vector(jones: np.ndarray) -> np.ndarray:
    v = np.asarray(jones, dtype=complex)
    return np.array([np.real(v.conj() @ s @ v) for s in _PAULI])


def drift_step(u: FibreUnitary, dt: float, drift_rate: float,
               rng: np.random.Generator) -> FibreUnitary:
    """Compose a random small rotation onto u.

    The rotation angle is N(0, drift_rate^2 * dt) about a uniformly random
    Stokes axis, so accumulated rotation variance grows linearly in time.
    """
    if drift_rate < 0.0:
        raise ValueError("drift rate must be >= 0")
    if drift_rate == 0.0 or dt == 0.0:
        return u
    angle = rng.normal(0.0, drift_rate * np.sqrt(dt))
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.normal(size=3)
    return FibreUnitary(rotation_su2(axis, angle) @ u.matrix)


# ---------------------------------------------------------------------------
# Automated compensation
# ---------------------------------------------------------------------------

_AXIS_A = np.array([0.0, 0.0, 1.0])   # S3 axis
_AXIS_B = np.array([1.0, 0.0, 0.0])   # S1 axis


def _so3_about(axis: np.ndarray, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    n = axis / np.linalg.norm(axis)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + s * k + (1 - c) * (k @ k)


def _compensator_so3(settings) -> np.ndarray:
    t1, t2, t3 = settings
    return _so3_about(_AXIS_A, t3) @ _so3_about(_AXIS_B, t2) @ _so3_about(_AXIS_A, t1)


def _probe_cost(settings, r_fibre: np.ndarray, noise: float = 0.0,
                rng: np.random.Generator | None = None) -> float:
    r = _compensator_so3(settings) @ r_fibre
    cost = 0.0
    for s in (STOKES_V, STOKES_D):
        out = r @ s
        if noise > 0.0 and rng is not None:
            out = out + rng.normal(0.0, noise, size=3)
        cost += float(np.sum((out - s) ** 2))
    return cost


def residual_error_from_cost(cost: float) -> float:
    """Mean probe infidelity: 1 - (1 + s_out . s_target)/2 averaged over probes."""
    return cost / 8.0


@dataclass
class PolarizationController:
    """Three-paddle compensator driven by probe-based gradient descent."""

    settings: np.ndarray = field(default_factory=lambda: np.zeros(3))
    probe_noise: float = 0.0
    max_iterations: int = 600
    cost_tol: float = 8e-7
    n_restarts: int = 3
    seed: int = 0

    def residual_error(self, u: FibreUnitary) -> float:
        return residual_error_from_cost(_probe_cost(self.settings, stokes_rotation(u)))


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
    rng = np.random.default_rng(controller.seed)

    def cost(theta):
        return _probe_cost(theta, r_fibre, controller.probe_noise, rng)

    starts = [np.asarray(controller.settings, dtype=float)]
    starts.append(np.zeros(3))
    for _ in range(max(0, controller.n_restarts - 1)):
        starts.append(rng.uniform(-np.pi, np.pi, size=3))

    best_theta = np.asarray(controller.settings, dtype=float)
    best_cost = cost(best_theta)
    budget = controller.max_iterations
    for theta0 in starts:
        theta, c, used = _gradient_descent(cost, theta0, budget, controller.cost_tol)
        budget -= used
        if c < best_cost:
            best_theta, best_cost = theta, c
        if best_cost < controller.cost_tol or budget <= 0:
            break

    controller.settings = best_theta
    converged = residual_error_from_cost(best_cost) < 0.01
    return best_theta, residual_error_from_cost(best_cost), converged


def _gradient_descent(cost, theta0: np.ndarray, max_iter: int, tol: float,
                      eps: float = 1e-6) -> tuple[np.ndarray, float, int]:
    theta = theta0.astype(float).copy()
    c = cost(theta)
    step = 0.5
    used = 0
    for _ in range(max(0, max_iter)):
        used += 1
        grad = np.empty(3)
        for i in range(3):
            up = theta.copy()
            dn = theta.copy()
            up[i] += eps
            dn[i] -= eps
            grad[i] = (cost(up) - cost(dn)) / (2.0 * eps)
        g_norm = np.linalg.norm(grad)
        if g_norm < 1e-12 or c < tol:
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


def invert_rotation_settings(u: FibreUnitary) -> np.ndarray:
    """Direct zxz Euler construction of compensator settings inverting u.

    Used as the analytic reference the optimizer is checked against.
    """
    r = stokes_rotation(u)
    r_inv = r.T
    # r_inv = Rz(t3) Rx(t2) Rz(t1) in Stokes space, axes (S3, S1, S3)
    # standard zxz Euler extraction with z <-> S3 and x <-> S1
    t2 = np.arccos(np.clip(r_inv[2, 2], -1.0, 1.0))
    if abs(np.sin(t2)) > 1e-9:
        t3 = np.arctan2(r_inv[0, 2], -r_inv[1, 2])
        t1 = np.arctan2(r_inv[2, 0], r_inv[2, 1])
    else:
        t3 = np.arctan2(r_inv[1, 0], r_inv[0, 0]) if r_inv[2, 2] > 0 else np.arctan2(
            -r_inv[1, 0], r_inv[0, 0]
        )
        t1 = 0.0
    return np.array([t1, t2, t3])


def simulate_drift_with_control(drift_rate: float, cadence: float, duration: float,
                                dt: float, seed: int,
                                controller: PolarizationController | None = None):
    """Drifting fibre with periodic compensation; returns (times, errors).

    The error trace is the probe residual measured every ``dt`` with the
    settings held between control runs.
    """
    rng = np.random.default_rng(seed)
    ctrl = controller if controller is not None else PolarizationController()
    u = FibreUnitary()
    times = []
    errors = []
    t = 0.0
    next_control = 0.0
    while t <= duration:
        if t >= next_control:
            polarization_control_cycle(u, ctrl)
            next_control += cadence
        times.append(t)
        errors.append(ctrl.residual_error(u))
        u = drift_step(u, dt, drift_rate, rng)
        t += dt
    return np.asarray(times), np.asarray(errors)
