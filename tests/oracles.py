"""Independent brute-force oracles used by the test suite.

Everything here is written as plainly as possible (explicit index loops,
textbook formulas) and shares no code path with the package internals it
checks.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from atomlink.analysis import (
    CorrelationDataset,
    DetectionHistogram,
    chsh_from_dataset,
    fringe_visibility_summary,
    interference_contrast,
    sbr,
    three_basis_summary,
)
from atomlink.analysis.estimators import contrast_sigma
from atomlink.analysis.tables import (
    BELL_OUTCOMES,
    CLICK_ORIGINS,
    DETECTORS,
    PLANES,
    READOUTS,
    WINDOWS,
)
from atomlink.constants import G_F, GAUSS_TO_TESLA, HBAR, K_B, MU_B
from atomlink.memory.spin import OMEGA_PER_GAUSS
from atomlink.memory.trap import TrapParams, thermal_sigmas
from atomlink.photonics import (
    FibreUnitary,
    PolarizationController,
    polarization_control_cycle,
    rotation_su2,
)
from atomlink.quantum import OUTCOME_KEYS

SQ2 = np.sqrt(2.0)

# basis order (m=-1, m=0, m=+1) and (H, V), matching the package convention
DOWN_Z = np.array([1, 0, 0], dtype=complex)
ZERO = np.array([0, 1, 0], dtype=complex)
UP_Z = np.array([0, 0, 1], dtype=complex)
H = np.array([1, 0], dtype=complex)
V = np.array([0, 1], dtype=complex)
R = (H - 1j * V) / SQ2
L = (H + 1j * V) / SQ2


def brute_partial_trace(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Partial trace by explicit summation over all index tuples."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    d_keep = int(np.prod(kept_dims))
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(idx):
        f = 0
        for i in range(n):
            f = f * dims[i] + idx[i]
        return f

    def flat_keep(idx):
        f = 0
        for pos, i in enumerate(keep):
            f = f * kept_dims[pos] + idx[i]
        return f

    all_indices = np.indices(dims).reshape(n, -1).T
    for row in all_indices:
        for col in all_indices:
            if all(row[i] == col[i] for i in traced):
                out[flat_keep(row), flat_keep(col)] += rho[flat(row), flat(col)]
    return out


def brute_bell_ket(sign: int) -> np.ndarray:
    """Photon-pair ket indexed [p1, p2]: (HV+VH)/sqrt2 for +1, (HV-VH)/sqrt2 for -1."""
    psi = np.zeros((2, 2), dtype=complex)
    psi[0, 1] = 1.0 / SQ2
    psi[1, 0] = sign / SQ2
    return psi


def brute_pair_projector(psi: np.ndarray) -> np.ndarray:
    """36x36 operator I3 x |psi><psi| x-ordered on (atom1, ph1, atom2, ph2).

    ``psi`` is any photon-pair ket as a 2x2 array indexed [p1, p2].
    """
    proj = np.zeros((36, 36), dtype=complex)
    for a1 in range(3):
        for p1 in range(2):
            for a2 in range(3):
                for p2 in range(2):
                    row = ((a1 * 2 + p1) * 3 + a2) * 2 + p2
                    for b1 in range(3):
                        for q1 in range(2):
                            for b2 in range(3):
                                for q2 in range(2):
                                    col = ((b1 * 2 + q1) * 3 + b2) * 2 + q2
                                    if a1 == b1 and a2 == b2:
                                        proj[row, col] += psi[p1, p2] * np.conj(psi[q1, q2])
    return proj


def brute_bell_project(rho36: np.ndarray, sign: int):
    """(probability, heralded 9x9 atom-atom state) via the 36x36 projector."""
    proj = brute_pair_projector(brute_bell_ket(sign))
    post = proj @ rho36 @ proj.conj().T
    prob = np.trace(post).real
    post = post / prob
    # trace out the photons by explicit index summation
    reduced = brute_partial_trace(post, [3, 2, 3, 2], keep=[0, 2])
    return prob, reduced


def brute_swap(rho36: np.ndarray, sign: int, xi: float, u1: np.ndarray, u2: np.ndarray):
    """(probability, heralded state) of a partially interfering swap, by brute force.

    The residual Jones matrices act on the photons of the 36x36 state first;
    then the Bell projection (weight xi) and the |HV>, |VH> projections
    (weight (1-xi)/2 each) are taken one by one, traced out explicitly and
    summed by weight before normalizing.
    """
    i3 = np.eye(3, dtype=complex)
    lift = np.kron(np.kron(i3, u1), np.kron(i3, u2))
    rotated = lift @ rho36 @ lift.conj().T
    hv = np.outer(H, V)
    parts = ((xi, brute_bell_ket(sign)), ((1.0 - xi) / 2.0, hv), ((1.0 - xi) / 2.0, hv.T))
    total = np.zeros((9, 9), dtype=complex)
    for weight, psi in parts:
        proj = brute_pair_projector(psi)
        post = proj @ rotated @ proj.conj().T
        total += weight * brute_partial_trace(post, [3, 2, 3, 2], keep=[0, 2])
    prob = np.trace(total).real
    return prob, total / prob


def rotation_to_x_basis() -> np.ndarray:
    """3x3 unitary whose rows are <down_x|, <0|, <up_x| in the z basis."""
    up_x = (UP_Z + DOWN_Z) / SQ2
    down_x = -1j * (UP_Z - DOWN_Z) / SQ2
    return np.array([down_x.conj(), ZERO.conj(), up_x.conj()])


def rotation_to_linear_photon_basis() -> np.ndarray:
    """2x2 unitary with rows <H|, <V| expressed in the (H, V) basis (identity),
    composed with the circular decomposition so that applying it to a state
    written in the (R-ish) form gives (H, V) amplitudes."""
    return np.array([H.conj(), V.conj()])


def singlet_correlator(alpha: float, beta: float) -> float:
    """Analytic correlator of the ideal singlet at equatorial settings."""
    return -np.cos(2.0 * (alpha - beta))


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) matrix [[a, -conj(b)], [b, conj(a)]] from a unit quaternion."""
    a, b = random_pure_state(rng, 2)
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def brute_block_clock(gaps, period: float, sequence) -> list[float]:
    """Wall time after each gap of live tries, stepping one try at a time.

    Every try takes one period; each ``tries_per_cooling_block`` tries are
    followed by cooling, and a block of as many whole bursts as fit in
    ``block_period`` (at least one) by a presence check.  No trap is ever
    lost, so there are no reload pauses.
    """
    per_burst = sequence.tries_per_cooling_block
    burst = per_burst * period + sequence.cooling_duration
    tries_per_block = per_burst * max(1, int(sequence.block_period / burst))
    wall = 0.0
    q = 0
    walls = []
    for gap in gaps:
        for _ in range(int(gap)):
            wall += period
            q += 1
            if q % per_burst == 0:
                wall += sequence.cooling_duration
            if q == tries_per_block:
                wall += sequence.presence_check_duration
                q = 0
        walls.append(wall)
    return walls


# ---------------------------------------------------------------------------
# Spin-1 evolution and single-atom motion used by the memory tests.  The
# motion helpers step with the Yoshida integrator below on the package's
# trap acceleration, and the trap tests check their energy conservation and
# oscillation period; brute_channel_coherence has its own integrator and
# field formulas.
# ---------------------------------------------------------------------------

# Yoshida 4th-order composition coefficients
_Y4_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_Y4_W0 = 1.0 - 2.0 * _Y4_W1


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


SQ2 = np.sqrt(2.0)

F_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQ2
F_Y = np.array([[0, 1j, 0], [-1j, 0, 1j], [0, -1j, 0]], dtype=complex) / SQ2
F_Z = np.diag([-1.0, 0.0, 1.0]).astype(complex)

def spin1_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return F_X, F_Y, F_Z


def rotation_step(fields: np.ndarray, dt: float) -> np.ndarray:
    """Rotation operators exp(-i dt Omega.F) for (n, 3) field vectors in gauss.

    Uses the spin-1 Rodrigues form U = I - i sin(th) A + (cos(th)-1) A^2
    with A = n.F, valid because A has eigenvalues (-1, 0, 1).
    """
    b = np.atleast_2d(np.asarray(fields, dtype=float))
    omega = OMEGA_PER_GAUSS * b          # (n, 3) rad/s
    theta = np.linalg.norm(omega, axis=1) * dt
    n = omega.shape[0]
    out = np.tile(np.eye(3, dtype=complex), (n, 1, 1))
    active = theta > 0.0
    if not np.any(active):
        return out
    axis = np.zeros_like(omega)
    axis[active] = omega[active] / np.linalg.norm(omega[active], axis=1)[:, None]
    a = (
        axis[:, 0, None, None] * F_X
        + axis[:, 1, None, None] * F_Y
        + axis[:, 2, None, None] * F_Z
    )
    a2 = a @ a
    s = np.sin(theta)[:, None, None]
    c = np.cos(theta)[:, None, None]
    rot = np.eye(3, dtype=complex) - 1j * s * a + (c - 1.0) * a2
    out[active] = rot[active]
    return out


@dataclass(frozen=True)
class SpinTrajectoryResult:
    """Spinor evolution along one trajectory with per-time expectations."""

    times: np.ndarray
    spin_states: np.ndarray        # (n+1, 3) complex spinors
    populations: np.ndarray        # (n+1, 3) |amplitude|^2 in (m=-1, 0, +1)
    f_expectations: np.ndarray     # (n+1, 3) <Fx>, <Fy>, <Fz>

    def norm_deviation(self) -> float:
        return float(np.max(np.abs(np.linalg.norm(self.spin_states, axis=1) - 1.0)))


def evolve_spin1(initial, field_along_trajectory: np.ndarray, dt: float) -> SpinTrajectoryResult:
    """Propagate a normalized 3-spinor through a sequence of field samples.

    ``field_along_trajectory`` holds one (3,) gauss vector per step; the
    field is taken constant within each step.
    """
    psi = np.asarray(initial, dtype=complex)
    if psi.shape != (3,):
        raise ValueError("initial spinor must have 3 components")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("initial spinor must be normalized")
    fields = np.atleast_2d(np.asarray(field_along_trajectory, dtype=float))
    steps = rotation_step(fields, dt)
    n = fields.shape[0]
    states = np.empty((n + 1, 3), dtype=complex)
    states[0] = psi / norm
    for i in range(n):
        states[i + 1] = steps[i] @ states[i]
    pops = np.abs(states) ** 2
    f_exp = np.stack(
        [np.real(np.einsum("ti,ij,tj->t", states.conj(), f, states)) for f in (F_X, F_Y, F_Z)],
        axis=1,
    )
    times = np.arange(n + 1) * dt
    return SpinTrajectoryResult(times, states, pops, f_exp)


@dataclass(frozen=True)
class AtomInitialCondition:
    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        v = np.asarray(self.velocity, dtype=float)
        if p.shape != (3,) or v.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
            raise ValueError("initial conditions must be finite")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "velocity", v)


def sample_initial_conditions(trap: TrapParams, temperature: float,
                              rng_seed) -> AtomInitialCondition:
    """Draw a starting position and velocity from the thermal trap distribution."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    sig_pos, sig_v = thermal_sigmas(trap, temperature)
    return AtomInitialCondition(
        rng.normal(0.0, 1.0, size=3) * sig_pos,
        rng.normal(0.0, sig_v, size=3),
    )


def sample_initial_conditions_batch(trap: TrapParams, temperature: float, n: int,
                                    rng: np.random.Generator):
    sig_pos, sig_v = thermal_sigmas(trap, temperature)
    pos = rng.normal(0.0, 1.0, size=(n, 3)) * sig_pos
    vel = rng.normal(0.0, sig_v, size=(n, 3))
    return pos, vel


def internal_substeps(trap: TrapParams, dt: float) -> int:
    """Substep count keeping omega_r * h small enough for ~1e-7 energy error."""
    h_target = (2.0 * np.pi / trap.omega_radial) / 250.0
    return max(1, int(np.ceil(dt / h_target)))


def propagate_trajectory(trap: TrapParams, ic: AtomInitialCondition, dt: float,
                         t_max: float):
    """Integrate the motion in the full Gaussian potential.

    Returns (times, positions, velocities, escaped).  ``dt`` is the sampling
    grid; it must not exceed 1/(50 nu_radial).  The symplectic integrator
    subdivides each dt internally to hold the energy drift below 1e-6
    relative.  A positive total energy flags escape and truncates the
    trajectory at that sample.
    """
    if dt <= 0 or t_max <= 0:
        raise ValueError("dt and t_max must be positive")
    if dt > 1.0 / (50.0 * trap.nu_radial) * (1.0 + 1e-9):
        raise ValueError("dt must satisfy dt <= 1/(50 nu_radial)")
    n_steps = int(np.round(t_max / dt))
    n_sub = internal_substeps(trap, dt)
    h = dt / n_sub

    pos = ic.position.reshape(1, 3).astype(float)
    vel = ic.velocity.reshape(1, 3).astype(float)
    acc = trap.acceleration(pos)
    times = np.arange(n_steps + 1) * dt
    positions = np.empty((n_steps + 1, 3))
    velocities = np.empty((n_steps + 1, 3))
    positions[0] = pos[0]
    velocities[0] = vel[0]
    escaped = bool(trap.total_energy(pos, vel)[0] >= 0.0)
    last = n_steps
    for i in range(1, n_steps + 1):
        if escaped:
            last = i - 1
            break
        for _ in range(n_sub):
            pos, vel, acc = yoshida4_step(trap, pos, vel, h, acc)
        positions[i] = pos[0]
        velocities[i] = vel[0]
        if trap.total_energy(pos, vel)[0] >= 0.0:
            escaped = True
            last = i
    if escaped:
        times = times[: last + 1]
        positions = positions[: last + 1]
        velocities = velocities[: last + 1]
    return times, positions, velocities, escaped


def _brute_trap_acceleration(trap, x, y, z):
    """-grad U / m of U = -U0 (w0/w)^2 exp(-2 rho^2 / w^2), differentiated by hand."""
    u0 = K_B * trap.trap_depth_u0
    w02 = trap.beam_waist_w0 ** 2
    zr = math.pi * w02 / trap.wavelength
    w2 = w02 * (1.0 + (z / zr) ** 2)
    rho2 = x * x + y * y
    intensity = w02 / w2 * math.exp(-2.0 * rho2 / w2)
    dw2_dz = 2.0 * w02 * z / zr ** 2
    grad = (-4.0 * x / w2 * intensity,
            -4.0 * y / w2 * intensity,
            (2.0 * rho2 / w2 ** 2 - 1.0 / w2) * dw2_dz * intensity)
    return [u0 * g / trap.atom_mass for g in grad]


def _brute_vector_shift(trap, scale, x, y, z):
    """Fictitious field (gauss, along the bias axis) of the vector light shift."""
    w02 = trap.beam_waist_w0 ** 2
    zr = math.pi * w02 / trap.wavelength
    w2 = w02 * (1.0 + (z / zr) ** 2)
    intensity = w02 / w2 * math.exp(-2.0 * (x * x + y * y) / w2)
    k = 2.0 * math.pi / trap.wavelength
    depth_gauss = K_B * trap.trap_depth_u0 / MU_B / GAUSS_TO_TESLA
    return scale * depth_gauss * 4.0 * x / (k * w2) * intensity


def brute_channel_coherence(trap, env, temperature, times, n_trajectories, seed,
                            spin_dt=1e-7, motion_substeps=2):
    """(T, 3, 3) coherence matrices of the memory channel, one trajectory at a time.

    Trajectory k draws six normals from Philox(seed, k) for its thermal start
    and precesses in the stratified static field b + sigma z_k plus the
    vector shift at its position.  Each spin step of ``spin_dt`` moves the
    atom by ``motion_substeps`` Yoshida-4 steps (three velocity-Verlet
    substeps each) and samples the field at the position after substep
    (substeps - 1) // 2.  A sample time t on the 100 ns grid but off the
    ``spin_dt`` grid is reached from the last spin-step grid point by one
    step of the same form spanning the rest of t, taken on a copy of the
    state.  c[i, k] is the mean of exp(-i (m_i - m_k) phi).
    """
    omega = G_F * MU_B * GAUSS_TO_TESLA / HBAR
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    weights = (w1, 1.0 - 2.0 * w1, w1)
    u0 = K_B * trap.trap_depth_u0
    zr = math.pi * trap.beam_waist_w0 ** 2 / trap.wavelength
    omega_r = math.sqrt(4.0 * u0 / (trap.atom_mass * trap.beam_waist_w0 ** 2))
    omega_z = math.sqrt(2.0 * u0 / (trap.atom_mass * zr ** 2))
    sig_v = math.sqrt(K_B * temperature / trap.atom_mass)
    sig_pos = [sig_v / omega_r, sig_v / omega_r, sig_v / omega_z]
    sample_dt = 1e-7
    ticks_per_step = int(round(spin_dt / sample_dt))
    # (grid point, rest in sample_dt ticks) of every sample time
    grid = [divmod(int(round(t / sample_dt)), ticks_per_step) for t in times]
    last = max(step for step, _ in grid)
    m = [-1, 0, 1]

    def spin_step(pos, vel, acc, phi, b, dt):
        h = dt / motion_substeps
        for sub in range(motion_substeps):
            for w in weights:
                vel = [vel[i] + 0.5 * w * h * acc[i] for i in range(3)]
                pos = [pos[i] + w * h * vel[i] for i in range(3)]
                acc = _brute_trap_acceleration(trap, *pos)
                vel = [vel[i] + 0.5 * w * h * acc[i] for i in range(3)]
            if sub == (motion_substeps - 1) // 2:
                mid = list(pos)
        shift = _brute_vector_shift(trap, env.fictitious_field_scale, *mid)
        return pos, vel, acc, phi + omega * (b + shift) * dt

    out = np.zeros((len(times), 3, 3), dtype=complex)
    for k, z in enumerate(philox_thermal_draws(seed, n_trajectories)):
        pos = [float(z[i]) * sig_pos[i] for i in range(3)]
        vel = [float(z[3 + i]) * sig_v for i in range(3)]
        b = env.bias_field + env.shot_noise_sigma * float(ndtri((k + 0.5) / n_trajectories))
        state = (pos, vel, _brute_trap_acceleration(trap, *pos), 0.0)
        phases = [0.0] * len(times)
        for step in range(last + 1):
            for t_idx, (t_step, rest) in enumerate(grid):
                if t_step == step and rest == 0:
                    phases[t_idx] = state[3]
                elif t_step == step:
                    phases[t_idx] = spin_step(*state, b, rest * sample_dt)[3]
            if step < last:
                state = spin_step(*state, b, spin_dt)
        for t_idx, phase in enumerate(phases):
            for i in range(3):
                for j in range(3):
                    out[t_idx, i, j] += np.exp(-1j * (m[i] - m[j]) * phase)
    return out / n_trajectories


def philox_thermal_draws(seed: int, n: int) -> np.ndarray:
    """(n, 6) normals, one new Generator(Philox(key=[seed, k])) per trajectory k."""
    return np.array([
        np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(k)])).normal(size=6)
        for k in range(n)])


# ---------------------------------------------------------------------------
# Per-record run files: one dict per event and one tuple per click, written
# with json.dumps and csv.writer and read back as dicts.  These are the
# references for the package's columnar writers, readers and dataset builder.
# ---------------------------------------------------------------------------

def event_records(events) -> list[dict]:
    """The events.jsonl record of each row of an EventTable, in file key order."""
    records = []
    for h in range(len(events)):
        readout = READOUTS[events.readout[h]] if events.readout[h] >= 0 else (None, None)
        records.append({
            "wall_time_s": float(events.wall_time_s[h]), "try_index": int(events.try_index[h]),
            "bell_outcome": BELL_OUTCOMES[events.outcome[h]],
            "detector1": DETECTORS[events.detectors[h, 0]],
            "detector2": DETECTORS[events.detectors[h, 1]],
            "click1_ns": float(events.click_ns[h, 0]), "click2_ns": float(events.click_ns[h, 1]),
            "accepted": bool(events.accepted[h]),
            "origin": "signal" if events.signal[h] else "background",
            "alpha_rad": float(events.alpha_rad[h]), "beta_rad": float(events.beta_rad[h]),
            "plane": PLANES[events.plane[h]], "fidelity": float(events.fidelity[h]),
            "probabilities": dict(zip(OUTCOME_KEYS, events.probabilities[h].tolist())),
            "outcome1": readout[0], "outcome2": readout[1]})
    return records


def click_tuples(clicks) -> list[tuple]:
    """(window, detector, time in s, origin) of each row of a ClickTable."""
    return [(WINDOWS[w], DETECTORS[d], float(t), CLICK_ORIGINS[o]) for w, d, t, o in
            zip(clicks.window, clicks.detector, clicks.time_s, clicks.origin)]


def write_event_records(fh, header: dict, records: list[dict]):
    fh.write(json.dumps(header) + "\n")
    for rec in records:
        fh.write(json.dumps({**rec, "config_hash": header["config_hash"]}) + "\n")


def write_click_tuples(fh, chash: str, clicks: list[tuple]):
    fh.write(f"# config_hash={chash}\n")
    writer = csv.writer(fh)
    writer.writerow(["window", "detector", "timestamp_ns", "origin"])
    for window, det, t_rel, origin in clicks:
        writer.writerow([window, det, f"{t_rel * 1e9:.3f}", origin])


def load_event_records(path):
    """(header, records) of an events.jsonl file; the last header line wins."""
    events = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("type") == "header":
                header = rec
                continue
            events.append(rec)
    return header, events


def load_click_rows(path):
    """(config hash or None, one dict per row keyed by the CSV header) of a clicks.csv."""
    with open(path) as fh:
        first = fh.readline()
        chash = None
        if first.startswith("# config_hash="):
            chash = first.strip().split("=", 1)[1]
            header_line = fh.readline()
        else:
            header_line = first
        cols = [c.strip() for c in header_line.strip().split(",")]
        rows = [dict(zip(cols, row)) for row in csv.reader(fh) if row]
    return chash, rows


def dataset_from_records(records, mode: str):
    """Dataset of the window-accepted heralds among event readout records.

    "sampled-clicks" counts each sampled outcome pair; "density-matrix" sums
    the expected outcome probabilities of each setting.
    """
    ds = CorrelationDataset()
    expected = {}
    for rec in records:
        if not rec.get("accepted"):
            continue
        key = (round(rec["alpha_rad"], 12), round(rec["beta_rad"], 12),
               rec["plane"], rec["bell_outcome"])
        if mode == "sampled-clicks":
            if rec.get("outcome1") is not None:
                ds.add_event(*key, rec["outcome1"], rec["outcome2"])
        elif rec.get("probabilities"):
            agg = expected.setdefault(key, dict.fromkeys(OUTCOME_KEYS, 0.0))
            for k in OUTCOME_KEYS:
                agg[k] += rec["probabilities"][k]
    for (alpha, beta, plane, outcome), agg in expected.items():
        ds.rows.append({"alpha": alpha, "beta": beta, "plane": plane,
                        "outcome": outcome, **agg})
    return ds


def reference_report(events_path, clicks_path, summary_path, estimators) -> dict:
    """report.json of ``analyze`` from the per-record readers and dataset builder."""
    header, records = load_event_records(events_path)
    mode = header.get("mode", "sampled-clicks")
    report = {"config_hash": header.get("config_hash"), "mode": mode,
              "n_events": len(records), "estimators": {}}
    _, clicks = load_click_rows(clicks_path)
    with open(summary_path) as fh:
        summary = json.load(fh)
    dataset = dataset_from_records(records, mode)
    accepted = [r for r in records if r.get("accepted")]
    report["accepted_fraction"] = len(accepted) / len(records) if records else 0.0
    for name in estimators:
        try:
            if name == "fidelity":
                report["estimators"]["fidelity"] = three_basis_summary(dataset)
            elif name == "fringe":
                per = {}
                for outcome in ("PsiMinus", "PsiPlus"):
                    try:
                        v, sig, fits = fringe_visibility_summary(dataset, outcome)
                    except ValueError:
                        continue
                    per[outcome] = {
                        "visibility": v, "visibility_sigma": sig,
                        "fits": {f"{np.degrees(b):.1f}": {
                            "visibility": f.visibility, "phase_deg": float(np.degrees(f.phase)),
                            "offset": f.offset, "visibility_sigma": f.visibility_sigma,
                        } for b, f in fits.items()},
                    }
                report["estimators"]["fringe"] = per
            elif name == "chsh":
                s, sig = chsh_from_dataset(dataset)
                report["estimators"]["chsh"] = {"s": s, "sigma": sig}
            elif name == "contrast":
                n_null = summary["n_dnull_accepted"]
                n_plus = sum(1 for r in accepted if r["bell_outcome"] == "PsiPlus")
                n_minus = sum(1 for r in accepted if r["bell_outcome"] == "PsiMinus")
                c = interference_contrast(n_null, n_plus, n_minus)
                report["estimators"]["contrast"] = {
                    "contrast": c, "sigma": contrast_sigma(max(n_null, 0.5), n_plus, n_minus),
                    "n_null": n_null, "n_plus": n_plus, "n_minus": n_minus,
                }
            elif name == "sbr":
                times = {}
                for row in clicks:
                    times.setdefault(row["window"], []).append(float(row["timestamp_ns"]) * 1e-9)
                edges = np.arange(-500e-9, 500e-9 + 1e-12, 2e-9)
                hist = DetectionHistogram.from_click_times(times, edges)
                est = sbr(hist, window=(0.0, 70e-9), exclusion=(-100e-9, 250e-9))
                report["estimators"]["sbr"] = {
                    "per_channel": {k: (None if np.isinf(v) else v)
                                    for k, v in est.per_channel.items()},
                    "coincidence": None if np.isinf(est.coincidence) else est.coincidence,
                    "unbounded": est.unbounded,
                }
        except (ValueError, KeyError) as exc:
            report["estimators"][name] = {"error": str(exc)}
    return report


# ---------------------------------------------------------------------------
# Polarization drift and probe cost, one step and one matrix at a time: the
# references for the package's batched drift walk, its closed-form probe
# cost and its one-einsum Stokes map.
# ---------------------------------------------------------------------------

STOKES_V = np.array([-1.0, 0.0, 0.0])
STOKES_D = np.array([0.0, 1.0, 0.0])
_PAULI_STOKES = (
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
)


def drift_step(u: FibreUnitary, dt: float, drift_rate: float,
               rng: np.random.Generator) -> FibreUnitary:
    """Compose one random rotation onto u: an N(0, drift_rate^2 dt) angle,
    drawn first, about the axis of three further normals."""
    if drift_rate < 0.0:
        raise ValueError("drift rate must be >= 0")
    if drift_rate == 0.0 or dt == 0.0:
        return u
    angle = rng.normal(0.0, drift_rate * np.sqrt(dt))
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.normal(size=3)
    return FibreUnitary(rotation_su2(axis, angle) @ u.matrix)


def stokes_rotation_traces(m: np.ndarray) -> np.ndarray:
    """SO(3) Stokes rotation of one Jones matrix from nine traces."""
    r = np.empty((3, 3))
    for i, si in enumerate(_PAULI_STOKES):
        for j, sj in enumerate(_PAULI_STOKES):
            r[i, j] = 0.5 * np.trace(si @ m @ sj @ m.conj().T).real
    return r


def so3_about(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a Stokes axis."""
    c, s = np.cos(angle), np.sin(angle)
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + s * k + (1 - c) * (k @ k)


def probe_cost_loop(settings, r_fibre: np.ndarray) -> float:
    """Summed squared distance of the V and D probes from their targets
    after the fibre and the S3-S1-S3 compensator, probe by probe."""
    t1, t2, t3 = settings
    comp = so3_about((0, 0, 1), t3) @ so3_about((1, 0, 0), t2) @ so3_about((0, 0, 1), t1)
    r = comp @ r_fibre
    return sum(float(np.sum((r @ s - s) ** 2)) for s in (STOKES_V, STOKES_D))


def drift_with_control_loop(drift_rate: float, cadence: float, duration: float,
                            dt: float, seed: int):
    """Drifting fibre with periodic compensation, one drift step and one
    probe residual per sample time; returns (times, errors)."""
    rng = np.random.default_rng(seed)
    ctrl = PolarizationController()
    u = FibreUnitary()
    times, errors = [], []
    t = next_control = 0.0
    while t <= duration:
        if t >= next_control:
            polarization_control_cycle(u, ctrl)
            next_control += cadence
        times.append(t)
        errors.append(probe_cost_loop(ctrl.settings, stokes_rotation_traces(u.matrix)) / 8.0)
        u = drift_step(u, dt, drift_rate, rng)
        t += dt
    return np.asarray(times), np.asarray(errors)
