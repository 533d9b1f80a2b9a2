"""Exact finite-dimensional state algebra for atom qutrits and photon qubits.

Conventions (fixed once, used everywhere):

* Qutrit basis order is (m=-1, m=0, m=+1), so ``|down_z> = e0``,
  ``|0> = e1``, ``|up_z> = e2``.
* Photon basis order is (H, V); circular states are R = (H - iV)/sqrt2,
  L = (H + iV)/sqrt2.
* ``|up_x> = (|up_z> + |down_z>)/sqrt2`` and
  ``|down_x> = -i(|up_z> - |down_z>)/sqrt2``.  The -i phase makes the
  analyzer family ``cos(a)|up_x> + sin(a)|down_x>`` sweep the X/Y equator,
  so a=0 measures X and a=45 deg measures Y.

Under these choices ``(|down_z>|L> + |up_z>|R>)/sqrt2`` and
``(|down_x>|V> + |up_x>|H>)/sqrt2`` are the same vector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10


class BellOutcome(Enum):
    """The two Bell states heralded by the polarization-resolving BSM."""

    PSI_PLUS = "PsiPlus"
    PSI_MINUS = "PsiMinus"


@dataclass(frozen=True)
class HilbertSpec:
    """Ordered subsystem dimensions of a composite Hilbert space."""

    subsystem_dims: tuple[int, ...]

    def __init__(self, subsystem_dims: Iterable[int]):
        dims = tuple(int(d) for d in subsystem_dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError("every subsystem dimension must be >= 2")
        object.__setattr__(self, "subsystem_dims", dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.subsystem_dims))

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystem_dims)

    def concat(self, other: "HilbertSpec") -> "HilbertSpec":
        return HilbertSpec(self.subsystem_dims + other.subsystem_dims)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over a HilbertSpec."""

    spec: HilbertSpec
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.spec.total_dim,):
            raise ValueError(
                f"amplitude length {amps.shape} does not match dim {self.spec.total_dim}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state vector is not normalized (norm={norm!r})")
        if abs(norm - 1.0) > NORM_TOL:
            amps = amps / norm
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.spec, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator over a HilbertSpec."""

    spec: HilbertSpec
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.spec.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {d}")
        check_density_matrices(mat[None])
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def check_density_matrices(mats: np.ndarray) -> None:
    """Raise unless every matrix of an (n, d, d) stack is Hermitian, unit-trace and PSD."""
    diff = mats.conj().swapaxes(-1, -2)
    diff -= mats
    herm_err = np.max(np.abs(diff), initial=0.0)
    del diff
    if herm_err > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm_err:.3e})")
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise ValueError(f"trace is {tr[off][0]!r}, expected 1")
    # eigvalsh reads the lower triangle, held above to HERM_TOL of the upper
    eig_min = np.linalg.eigvalsh(mats).min(initial=np.inf)
    if eig_min < PSD_TOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {eig_min:.3e})")


def _as_density(state: StateVector | DensityMatrix) -> DensityMatrix:
    if isinstance(state, StateVector):
        return state.density_matrix()
    return state


def maximally_mixed(spec: HilbertSpec) -> DensityMatrix:
    d = spec.total_dim
    return DensityMatrix(spec, np.eye(d, dtype=complex) / d)


def fidelity(state: StateVector | DensityMatrix, reference: StateVector) -> float:
    """Fidelity <ref|rho|ref> against a pure reference state."""
    rho = _as_density(state)
    if rho.spec.total_dim != reference.spec.total_dim:
        raise ValueError("dimension mismatch")
    v = reference.amplitudes
    return float(np.real(v.conj() @ rho.matrix @ v))


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product with concatenated subsystem lists."""
    return DensityMatrix(a.spec.concat(b.spec), np.kron(a.matrix, b.matrix))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state on the subsystems listed in ``keep`` (original order)."""
    keep = sorted(set(int(k) for k in keep))
    n = rho.spec.n_subsystems
    if not keep:
        raise ValueError("keep must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"subsystem index out of range for {n} subsystems")
    dims = rho.spec.subsystem_dims
    tensor_form = rho.matrix.reshape(dims + dims)
    # contract bra/ket index pairs of every traced-out subsystem
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(sorted(traced)):
        axis = i - count  # axes shift as we trace
        n_now = tensor_form.ndim // 2
        tensor_form = np.trace(tensor_form, axis1=axis, axis2=axis + n_now)
    kept_dims = tuple(dims[i] for i in keep)
    d_keep = int(np.prod(kept_dims))
    reduced = tensor_form.reshape(d_keep, d_keep)
    reduced = (reduced + reduced.conj().T) / 2.0
    return DensityMatrix(HilbertSpec(kept_dims), reduced)


# ---------------------------------------------------------------------------
# Fixed basis vectors
# ---------------------------------------------------------------------------

ATOM_DOWN_Z = np.array([1.0, 0.0, 0.0], dtype=complex)   # m = -1
ATOM_ZERO = np.array([0.0, 1.0, 0.0], dtype=complex)     # m = 0
ATOM_UP_Z = np.array([0.0, 0.0, 1.0], dtype=complex)     # m = +1

ATOM_UP_X = (ATOM_UP_Z + ATOM_DOWN_Z) / np.sqrt(2.0)
ATOM_DOWN_X = -1j * (ATOM_UP_Z - ATOM_DOWN_Z) / np.sqrt(2.0)

PHOTON_H = np.array([1.0, 0.0], dtype=complex)
PHOTON_V = np.array([0.0, 1.0], dtype=complex)
PHOTON_R = (PHOTON_H - 1j * PHOTON_V) / np.sqrt(2.0)
PHOTON_L = (PHOTON_H + 1j * PHOTON_V) / np.sqrt(2.0)


def equatorial_atom_state(alpha: float) -> np.ndarray:
    """Analyzer state cos(a)|up_x> + sin(a)|down_x>; a=0 is X, a=pi/4 is Y."""
    return np.cos(alpha) * ATOM_UP_X + np.sin(alpha) * ATOM_DOWN_X


class MeasurementPlane(Enum):
    EQUATOR = "equator"
    Z = "z"


@dataclass(frozen=True)
class AtomBasisSetting:
    """Readout setting: analyzer angle (radians) and measurement plane."""

    angle_alpha: float
    plane: MeasurementPlane = MeasurementPlane.EQUATOR

    def __post_init__(self):
        a = float(self.angle_alpha) % (2.0 * np.pi)
        object.__setattr__(self, "angle_alpha", a)

    def projectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P_up, P_down, P_zero) projectors on the qutrit."""
        if self.plane is MeasurementPlane.EQUATOR:
            up = equatorial_atom_state(self.angle_alpha)
            down = equatorial_atom_state(self.angle_alpha + np.pi / 2.0)
        else:
            # z plane supports only the two pole orientations
            c = np.cos(self.angle_alpha)
            if abs(abs(c) - 1.0) > 1e-9 and abs(c) > 1e-9:
                raise ValueError("plane=Z supports angle 0 (up=+1) or pi/2 (flipped) only")
            if abs(c) > 0.5:
                up, down = ATOM_UP_Z, ATOM_DOWN_Z
            else:
                up, down = ATOM_DOWN_Z, ATOM_UP_Z
        p_up = np.outer(up, up.conj())
        p_down = np.outer(down, down.conj())
        p_zero = np.outer(ATOM_ZERO, ATOM_ZERO.conj())
        return p_up, p_down, p_zero


# ---------------------------------------------------------------------------
# Entangled states of the protocol
# ---------------------------------------------------------------------------

def atom_photon_state() -> StateVector:
    """Entangled atom-photon state (|down_z>|L> + |up_z>|R>)/sqrt2, dims [3,2]."""
    amps = (np.kron(ATOM_DOWN_Z, PHOTON_L) + np.kron(ATOM_UP_Z, PHOTON_R)) / np.sqrt(2.0)
    return StateVector(HilbertSpec([3, 2]), amps)


def atom_bell_state(outcome: BellOutcome) -> StateVector:
    """Atomic Bell state (|up_x,down_x> +/- |down_x,up_x>)/sqrt2, dims [3,3]."""
    sign = 1.0 if outcome is BellOutcome.PSI_PLUS else -1.0
    amps = (
        np.kron(ATOM_UP_X, ATOM_DOWN_X) + sign * np.kron(ATOM_DOWN_X, ATOM_UP_X)
    ) / np.sqrt(2.0)
    return StateVector(HilbertSpec([3, 3]), amps)


_AA_SPEC = HilbertSpec([3, 3])

# photon-pair kets as [photon1, photon2] arrays
_HV = np.outer(PHOTON_H, PHOTON_V)
_VH = np.outer(PHOTON_V, PHOTON_H)
_PHOTON_BELL = {
    BellOutcome.PSI_PLUS: (_HV + _VH) / np.sqrt(2.0),
    BellOutcome.PSI_MINUS: (_HV - _VH) / np.sqrt(2.0),
}


def herald_input(matrix: np.ndarray) -> np.ndarray:
    """A [3,2,3,2] operator as the (16, 81) input of ``herald``.

    Rows are the photon indices (j, l, J, L) and columns the atom indices
    (i, k, I, K) of ``matrix[(i, j, k, l), (I, J, K, L)]``, so a column is a
    row-major 9x9 atom-atom operator.  A Schur multiplier on both qutrits,
    rho[(i,k),(I,K)] -> c1[i,I] c2[k,K] rho[(i,k),(I,K)], acts on this form
    as an entrywise product with ``np.kron(c1, c2).ravel()``.
    """
    t = np.asarray(matrix).reshape(3, 2, 3, 2, 3, 2, 3, 2)
    return t.transpose(1, 3, 5, 7, 0, 2, 4, 6).reshape(16, 81)


def interference_pair_operators(outcomes: Sequence[BellOutcome], xi: float,
                                u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """(n, 16) photon-pair operators sum_m w_m conj(k_m) (x) k_m of n heralds.

    With weight xi the herald projects onto the photonic Bell ket of its
    outcome; with weight (1-xi) the photons are distinguishable and an
    unordered (H, V) pair lands in the heralding detector group half the
    time.  The residual Jones matrices u1, u2 (n, 2, 2) are folded into the
    kets: projecting (u1 x u2) rho (u1 x u2)^dagger onto a ket k (indexed
    [photon1, photon2]) is projecting rho onto k' = u1^dagger k conj(u2).
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must be in [0, 1]")
    bell = np.array([_PHOTON_BELL[o] for o in outcomes]).reshape(-1, 1, 2, 2)
    kets = np.concatenate([bell, np.broadcast_to([_HV, _VH], (len(bell), 2, 2, 2))], axis=1)
    # distinguishable (H,V) pairs split evenly between the D+ and D- groups
    weights = np.array([xi, 0.5 * (1.0 - xi), 0.5 * (1.0 - xi)])
    folded = u1.conj().swapaxes(1, 2)[:, None] @ kets @ u2.conj()[:, None]
    return np.einsum("m,nmjl,nmJL->njlJL", weights, folded.conj(), folded).reshape(-1, 16)


def herald(inputs: np.ndarray, pair_ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Herald probabilities (n,) and normalized atom-atom states (n, 9, 9).

    Contracting the photon pair of the (16, 81) ``inputs`` with each row of
    ``pair_ops`` traces the photons out; the probability is
    sum_m w_m <k_m|rho|k_m>.  Raises if any herald has zero probability.
    """
    mat = (pair_ops @ inputs).reshape(-1, 9, 9)
    prob = np.trace(mat, axis1=1, axis2=2).real
    if np.any(prob < 1e-15):
        raise ValueError("the herald has zero probability on this input")
    # in place, so that a batch holds one extra copy at most
    mat /= prob[:, None, None]
    mat += mat.conj().swapaxes(1, 2)
    mat /= 2.0
    return prob, mat


def swap_with_interference(rho: DensityMatrix, outcome: BellOutcome, xi: float,
                           residuals: tuple[np.ndarray, np.ndarray]
                           ) -> tuple[float, DensityMatrix]:
    """Herald probability and state of one [3,2,3,2] input, photons folded as above.

    ``residuals`` are the Jones matrices (u1, u2) the two photons pick up
    before the BSM (see ``interference_pair_operators``).
    """
    if rho.spec.subsystem_dims != (3, 2, 3, 2):
        raise ValueError("expected subsystem dims (3, 2, 3, 2)")
    u1, u2 = (np.asarray(u)[None] for u in residuals)
    prob, states = herald(herald_input(rho.matrix),
                          interference_pair_operators([outcome], xi, u1, u2))
    return float(prob[0]), DensityMatrix(_AA_SPEC, states[0])


def bell_project(rho: DensityMatrix, outcome: BellOutcome) -> tuple[float, DensityMatrix]:
    """Project the photon pair of a [3,2,3,2] state onto |Psi+-> and trace it out.

    Returns the outcome probability and the normalized heralded atom-atom
    state.  Raises if the outcome has no support on the input.
    """
    identity = np.eye(2, dtype=complex)
    return swap_with_interference(rho, outcome, 1.0, (identity, identity))


# ---------------------------------------------------------------------------
# Atomic readout and CHSH
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomMeasurement:
    """Outcome probabilities of a single-atom readout.

    ``p_zero`` is the population left in m=0; the ionization readout cannot
    address it, so samplers count it with the dark (down) outcome.
    """

    p_up: float
    p_down: float
    p_zero: float
    post_up: DensityMatrix | None
    post_down: DensityMatrix | None


def _lift(op: np.ndarray, dims: tuple[int, ...], subsystem: int) -> np.ndarray:
    return functools.reduce(np.kron, [op if i == subsystem else np.eye(d, dtype=complex)
                                      for i, d in enumerate(dims)])


def measure_atom(rho: DensityMatrix, setting: AtomBasisSetting,
                 subsystem: int = 0) -> AtomMeasurement:
    """Readout probabilities for one qutrit subsystem of ``rho``."""
    dims = rho.spec.subsystem_dims
    if subsystem < 0 or subsystem >= len(dims) or dims[subsystem] != 3:
        raise ValueError("subsystem must index a qutrit")
    p_up_op, p_down_op, p_zero_op = setting.projectors()
    probs = []
    posts = []
    for op in (p_up_op, p_down_op):
        lifted = _lift(op, dims, subsystem)
        raw = lifted @ rho.matrix @ lifted.conj().T
        p = float(np.trace(raw).real)
        probs.append(p)
        if p > 1e-14:
            mat = raw / p
            posts.append(DensityMatrix(rho.spec, (mat + mat.conj().T) / 2.0))
        else:
            posts.append(None)
    p_zero = float(np.trace(_lift(p_zero_op, dims, subsystem) @ rho.matrix).real)
    return AtomMeasurement(probs[0], probs[1], p_zero, posts[0], posts[1])


OUTCOME_KEYS = ("uu", "ud", "du", "dd")


def readout_operators(settings1: Sequence[AtomBasisSetting],
                      settings2: Sequence[AtomBasisSetting]) -> np.ndarray:
    """(s, 4, 81) joint readout rows of s setting pairs, outcomes in OUTCOME_KEYS order.

    The m=0 population of each atom is folded into its dark (down) outcome,
    mirroring the state-selective ionization readout.  Each row is conj(A)
    flattened for the Hermitian operator A = kron(a, b), so the probability
    Tr(A rho) is its dot product with the flattened [3,3] state.
    """
    ops = []
    for setting1, setting2 in zip(settings1, settings2):
        u1, d1, z1 = setting1.projectors()
        u2, d2, z2 = setting2.projectors()
        dark1 = d1 + z1
        dark2 = d2 + z2
        ops.append([np.kron(a, b) for a, b in
                    ((u1, u2), (u1, dark2), (dark1, u2), (dark1, dark2))])
    return np.array(ops, dtype=complex).conj().reshape(-1, 4, 81)


def joint_outcome_probabilities(rho: DensityMatrix, setting1: AtomBasisSetting,
                                setting2: AtomBasisSetting) -> dict[str, float]:
    """Binary joint readout probabilities on a [3,3] state (see ``readout_operators``)."""
    if rho.spec.subsystem_dims != (3, 3):
        raise ValueError("expected a two-qutrit state")
    probs = (readout_operators([setting1], [setting2])[0] @ rho.matrix.ravel()).real
    return dict(zip(OUTCOME_KEYS, probs.tolist()))


def correlator(rho: DensityMatrix, setting1: AtomBasisSetting,
               setting2: AtomBasisSetting) -> float:
    """E = P(same) - P(different) for binary outcomes at the two settings."""
    p = joint_outcome_probabilities(rho, setting1, setting2)
    return p["uu"] + p["dd"] - p["ud"] - p["du"]


def chsh_s(e_ab: float, e_a2b: float, e_a2b2: float, e_a3b2: float) -> float:
    """CHSH S from the four measured correlators.

    Roles follow the fringe-scan settings: a=22.5 deg, a'=67.5 deg and
    a''=112.5 deg (a'' orthogonal to a) against b=0 and b'=45 deg, i.e. the
    inputs are E(a,b), E(a',b), E(a',b'), E(a'',b').  Because a'' = a + 90 deg
    implies E(a'',b') = -E(a,b'), S = |E(a',b) + E(a'',b') - E(a,b) - E(a',b')|
    is a standard CHSH combination; it reaches 2*sqrt2 on an ideal singlet.
    """
    values = (e_ab, e_a2b, e_a2b2, e_a3b2)
    for e in values:
        if abs(e) > 1.0 + 1e-12:
            raise ValueError(f"correlator {e!r} outside [-1, 1]")
    return float(abs(e_a2b + e_a3b2 - e_ab - e_a2b2))
