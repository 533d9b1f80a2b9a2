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

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(
            self.spec.concat(other.spec), np.kron(self.amplitudes, other.amplitudes)
        )

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


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
        herm_err = np.max(np.abs(mat - mat.conj().T))
        if herm_err > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {herm_err:.3e})")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
        if eigs.min() < PSD_TOL:
            raise ValueError(f"matrix is not PSD (min eigenvalue {eigs.min():.3e})")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.spec.total_dim

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def expectation(self, operator: np.ndarray) -> float:
        return float(np.trace(operator @ self.matrix).real)


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

QUTRIT = HilbertSpec([3])
PHOTON = HilbertSpec([2])

ATOM_DOWN_Z = np.array([1.0, 0.0, 0.0], dtype=complex)   # m = -1
ATOM_ZERO = np.array([0.0, 1.0, 0.0], dtype=complex)     # m = 0
ATOM_UP_Z = np.array([0.0, 0.0, 1.0], dtype=complex)     # m = +1

ATOM_UP_X = (ATOM_UP_Z + ATOM_DOWN_Z) / np.sqrt(2.0)
ATOM_DOWN_X = -1j * (ATOM_UP_Z - ATOM_DOWN_Z) / np.sqrt(2.0)
ATOM_UP_Y = (ATOM_UP_Z + 1j * ATOM_DOWN_Z) / np.sqrt(2.0)
ATOM_DOWN_Y = (ATOM_UP_Z - 1j * ATOM_DOWN_Z) / np.sqrt(2.0)

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


def _herald(rho: DensityMatrix, kets: np.ndarray,
            weights: np.ndarray) -> tuple[float, DensityMatrix]:
    """Weighted sum of photon-pair projections of a [3,2,3,2] state.

    Contracts the photon pair with every ket k_n of ``kets`` (shape
    (n, 2, 2)) at weight w_n, which traces the photons out.  Returns the
    total probability sum_n w_n <k_n|rho|k_n> and the normalized atom-atom
    state; raises if that probability is zero.
    """
    if rho.spec.subsystem_dims != (3, 2, 3, 2):
        raise ValueError("expected subsystem dims (3, 2, 3, 2)")
    t = rho.matrix.reshape(3, 2, 3, 2, 3, 2, 3, 2)
    # indices: atom1 p1 atom2 p2 (ket) ; atom1' p1' atom2' p2' (bra)
    raw = np.einsum("n,njl,ijklIJKL,nJL->ikIK", weights, kets.conj(), t, kets)
    raw = raw.reshape(9, 9)
    prob = float(np.trace(raw).real)
    if prob < 1e-15:
        raise ValueError("the herald has zero probability on this input")
    mat = raw / prob
    return prob, DensityMatrix(_AA_SPEC, (mat + mat.conj().T) / 2.0)


def bell_project(rho: DensityMatrix, outcome: BellOutcome) -> tuple[float, DensityMatrix]:
    """Project the photon pair of a [3,2,3,2] state onto |Psi+-> and trace it out.

    Returns the outcome probability and the normalized heralded atom-atom
    state.  Raises if the outcome has no support on the input.
    """
    return _herald(rho, _PHOTON_BELL[outcome][None], np.ones(1))


def swap_with_interference(rho: DensityMatrix, outcome: BellOutcome, xi: float,
                           residuals: tuple[np.ndarray, np.ndarray]
                           ) -> tuple[float, DensityMatrix]:
    """Heralded atom-atom state for partial photon indistinguishability xi.

    With probability weight xi the herald projects onto the photonic Bell
    state; with weight (1-xi) the photons are distinguishable and an
    unordered (H, V) pair lands in the heralding detector group half the
    time.  Returns the herald probability and the heralded state.

    ``residuals`` are the Jones matrices (u1, u2) the two photons pick up
    before the BSM.  They are folded into the photon-pair kets instead of
    acting on ``rho``: projecting (u1 x u2) rho (u1 x u2)^dagger onto a ket
    k (indexed [photon1, photon2]) is projecting rho onto
    k' = u1^dagger k conj(u2).  Raises only if the herald has zero
    probability.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must be in [0, 1]")
    u1, u2 = residuals
    kets = np.stack([_PHOTON_BELL[outcome], _HV, _VH])
    # distinguishable (H,V) pairs split evenly between the D+ and D- groups
    weights = np.array([xi, 0.5 * (1.0 - xi), 0.5 * (1.0 - xi)])
    return _herald(rho, u1.conj().T @ kets @ u2.conj(), weights)


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
    mats = [np.eye(d, dtype=complex) for d in dims]
    mats[subsystem] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


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


def joint_outcome_probabilities(rho: DensityMatrix, setting1: AtomBasisSetting,
                                setting2: AtomBasisSetting) -> dict[str, float]:
    """Binary joint readout probabilities on a [3,3] state.

    The m=0 population of each atom is folded into its dark (down) outcome,
    mirroring the state-selective ionization readout.
    """
    if rho.spec.subsystem_dims != (3, 3):
        raise ValueError("expected a two-qutrit state")
    u1, d1, z1 = setting1.projectors()
    u2, d2, z2 = setting2.projectors()
    dark1 = d1 + z1
    dark2 = d2 + z2
    out = {}
    for key, (a, b) in {
        "uu": (u1, u2), "ud": (u1, dark2), "du": (dark1, u2), "dd": (dark1, dark2),
    }.items():
        out[key] = float(np.trace(np.kron(a, b) @ rho.matrix).real)
    return out


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
