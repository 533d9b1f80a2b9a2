"""Independent brute-force oracles used by the test suite.

Everything here is written as plainly as possible (explicit index loops,
textbook formulas) and shares no code path with the package internals it
checks.
"""

import numpy as np

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
