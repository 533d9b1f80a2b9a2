"""Monte-Carlo dephasing channel of the trapped-atom memory.

Each trajectory draws thermal initial conditions and one quasi-static field
noise sample, integrates the atomic motion in the Gaussian trap, and
accumulates the Zeeman phase phi of the local field.  The bias, the noise
and the vector-light-shift field all lie along the quantization axis, so a
trajectory's unitary is diag(exp(-i m phi)) over m = (-1, 0, +1).  Averaging
over trajectories gives a completely positive trace-preserving qutrit
channel that multiplies each density-matrix entry by a number,
rho[i, k] -> c[i, k] rho[i, k] with c[i, k] = E[exp(-i (m_i - m_k) phi)]
(a Schur multiplier); the 3x3 coherence matrix c is all that is stored.

Reproducibility contract: trajectory k draws from a Philox stream keyed by
(seed, k), the quasi-static noise is a deterministic stratified normal grid
over the trajectory index, and all trajectories are integrated and summed as
one array in a single pass, so the same arguments give bit-identical results.

Time step: the atoms move by ``MOTION_SUBSTEPS`` Yoshida-4 steps per spin
step of ``SPIN_DT`` and the phase takes the field at the mid-step position.
Sample times sit on the finer ``SAMPLE_DT`` grid; a time between two spin
steps is reached by one short step of the same form from the last grid
point, taken on a copy of the state, so c(t) does not depend on which other
times are requested.
"""

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from ..quantum import DensityMatrix
from .fields import FieldEnvironment, vector_shift_gauss
from .spin import OMEGA_PER_GAUSS
from .trap import MotionKernel, TrapParams, thermal_sigmas

SAMPLE_DT = 1e-7       # grid of the sample times (s)
SPIN_DT = 5e-7         # spin step (s), a whole multiple of SAMPLE_DT
MOTION_SUBSTEPS = 2    # Yoshida-4 motion steps per spin step

_UP, _ZERO, _DOWN = 2, 1, 0   # qutrit indices of m = +1, 0, -1
_M = np.array([-1, 0, 1])      # magnetic quantum number of each qutrit index

_UP_X = np.zeros(3, dtype=complex)
_UP_X[_UP] = 1.0 / np.sqrt(2.0)
_UP_X[_DOWN] = 1.0 / np.sqrt(2.0)
_UP_Y = np.zeros(3, dtype=complex)
_UP_Y[_UP] = 1.0 / np.sqrt(2.0)
_UP_Y[_DOWN] = 1j / np.sqrt(2.0)

_SIGMA_X = np.zeros((3, 3), dtype=complex)
_SIGMA_X[_UP, _DOWN] = 1.0
_SIGMA_X[_DOWN, _UP] = 1.0
_SIGMA_Y = np.zeros((3, 3), dtype=complex)
_SIGMA_Y[_UP, _DOWN] = -1j
_SIGMA_Y[_DOWN, _UP] = 1j
_SIGMA_Z = np.zeros((3, 3), dtype=complex)
_SIGMA_Z[_UP, _UP] = 1.0
_SIGMA_Z[_DOWN, _DOWN] = -1.0


@dataclass(frozen=True)
class QutritChannel:
    """Dephasing map on the memory qutrit: rho[i, k] -> coherence[i, k] rho[i, k]."""

    coherence: np.ndarray

    def __post_init__(self):
        c = np.array(self.coherence, dtype=complex)
        if c.shape != (3, 3):
            raise ValueError("coherence matrix must be 3x3")
        c.setflags(write=False)
        object.__setattr__(self, "coherence", c)

    def apply_to_subsystem(self, rho: DensityMatrix, subsystem: int) -> DensityMatrix:
        dims = rho.spec.subsystem_dims
        if subsystem < 0 or subsystem >= len(dims) or dims[subsystem] != 3:
            raise ValueError("subsystem must index a qutrit")
        # broadcast c over the ket and bra axes of the subsystem
        shape = [1] * (2 * len(dims))
        shape[subsystem] = shape[len(dims) + subsystem] = 3
        out = (rho.matrix.reshape(dims + dims) * self.coherence.reshape(shape)
               ).reshape(rho.matrix.shape)
        return DensityMatrix(rho.spec, (out + out.conj().T) / 2.0)

    def coherence_amplitude(self) -> complex:
        """Survival amplitude of the |up><down| memory coherence."""
        return complex(self.coherence[_UP, _DOWN])

    def visibility(self) -> float:
        return float(abs(self.coherence_amplitude()))


@dataclass(frozen=True)
class DephasingChannelFamily:
    """Channels of one memory sampled on a time grid.

    ``channel_at(t)`` returns the lab-frame map, which includes the
    deterministic Larmor precession of the bias field.
    ``rotating_channel_at(t)`` removes that mean rotation; this is the frame
    of the calibrated analyzers and what the protocol composition uses.
    """

    times: np.ndarray
    coherences: np.ndarray        # (T, 3, 3)
    meta: dict = field(default_factory=dict)

    def _index_of(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-12 + 1e-9 * max(abs(t), 1e-6):
            raise KeyError(f"time {t} not sampled (nearest {self.times[idx]})")
        return idx

    def channel_at(self, t: float) -> QutritChannel:
        return QutritChannel(self.coherences[self._index_of(t)])

    def rotating_channel_at(self, t: float) -> QutritChannel:
        idx = self._index_of(t)
        bias_phase = OMEGA_PER_GAUSS * self.meta.get("bias_field", 0.0) * self.times[idx]
        undo = np.exp(1j * np.subtract.outer(_M, _M) * bias_phase)
        return QutritChannel(undo * self.coherences[idx])

    def envelope(self) -> np.ndarray:
        return np.abs(self.coherences[:, _UP, _DOWN])

    def stderr(self) -> np.ndarray:
        """Monte-Carlo standard error of the |up><down| coherence at each time.

        The coherence is a mean of n unit-modulus samples, so its standard
        error is at most sqrt((1 - |c|^2) / n); the stratified noise grid
        only makes this bound conservative.
        """
        spread = np.maximum(1.0 - self.envelope() ** 2, 0.0)
        return np.sqrt(spread / self.meta["n_trajectories"])

    def expectation_curve(self, basis: str) -> np.ndarray:
        rho0, op = {
            "X": (np.outer(_UP_X, _UP_X.conj()), _SIGMA_X),
            "Y": (np.outer(_UP_Y, _UP_Y.conj()), _SIGMA_Y),
            "Z": (np.diag([0.0, 0.0, 1.0]).astype(complex), _SIGMA_Z),
        }[basis.upper()]
        # Tr(op rho(t)) with rho(t) = c(t) * rho0 entrywise
        return np.einsum("ij,tji->t", op, self.coherences * rho0).real


@dataclass(frozen=True)
class CoherenceEnvelope:
    """Visibility envelope and per-basis expectation curves on a time grid."""

    times: np.ndarray
    visibility: np.ndarray
    curves: dict

    def __post_init__(self):
        if len(self.times) and self.times[0] == 0.0 and self.visibility[0] < 0.99:
            raise ValueError("envelope at t=0 must be >= 0.99 for ideal readout")

    def one_over_e_time(self) -> float:
        """First crossing of 1/e, linearly interpolated."""
        target = 1.0 / np.e
        v = self.visibility
        below = np.nonzero(v < target)[0]
        if len(below) == 0:
            return float("inf")
        i = below[0]
        if i == 0:
            return float(self.times[0])
        t0, t1 = self.times[i - 1], self.times[i]
        v0, v1 = v[i - 1], v[i]
        return float(t0 + (v0 - target) / (v0 - v1) * (t1 - t0))


def _normal_grid(n: int) -> np.ndarray:
    """Standard normal quantiles at the midpoints (k + 0.5) / n of n equal strata."""
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf((k + 0.5) / n) for k in range(n)])


def _thermal_draws(seed: int, n: int) -> np.ndarray:
    """(n, 6) standard normals; row k is the start of the Philox stream keyed by (seed, k).

    One generator is re-keyed per trajectory through its state, which is
    what ``Generator(Philox(key=[seed, k]))`` starts from, without the
    entropy draw of a new Philox's seed sequence.
    """
    bit_gen = np.random.Philox(key=[0, 0])
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state
    zeros = (0, 0, 0, 0)
    # an empty output buffer, so the next draw starts a new Philox block
    state.update(buffer=zeros, buffer_pos=4, has_uint32=0, uinteger=0)
    out = np.empty((n, 6))
    for k in range(n):
        state["state"] = {"counter": zeros, "key": (seed, k)}
        bit_gen.state = state
        out[k] = gen.normal(size=6)
    return out


def dephasing_channel_family(trap: TrapParams, env: FieldEnvironment,
                             temperature: float, times, n_trajectories: int,
                             seed: int) -> DephasingChannelFamily:
    """Build the averaged memory channel at each requested time.

    ``times`` must sit on the ``SAMPLE_DT`` grid.  All trajectories are
    integrated as one array, so the result is a function of the arguments
    alone.
    """
    if n_trajectories < 100:
        raise ValueError("n_trajectories must be >= 100")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("at least one sample time is needed")
    if np.any(times < 0):
        raise ValueError("sample times must be >= 0")
    ticks = np.round(times / SAMPLE_DT).astype(int)
    if np.max(np.abs(ticks * SAMPLE_DT - times)) > 1e-12:
        raise ValueError("every sample time must be a multiple of SAMPLE_DT")
    # t = step * SPIN_DT + rest * SAMPLE_DT, keyed by step and then by rest
    samples: dict[int, dict[int, list[int]]] = {}
    for t_idx, tick in enumerate(ticks):
        step, rest = divmod(int(tick), round(SPIN_DT / SAMPLE_DT))
        samples.setdefault(step, {}).setdefault(rest, []).append(t_idx)

    sig_pos, sig_v = thermal_sigmas(trap, temperature)
    draws = _thermal_draws(seed, n_trajectories)
    pos = np.ascontiguousarray((draws[:, :3] * sig_pos).T)
    vel = np.ascontiguousarray((draws[:, 3:] * sig_v).T)
    # stratified quasi-static noise over the trajectory index
    field = env.bias_field + env.shot_noise_sigma * _normal_grid(n_trajectories)
    shift_gauss = vector_shift_gauss(trap, env)

    kernel = MotionKernel(trap, n_trajectories)
    acc = np.empty_like(pos)
    kernel.force(pos, acc)
    phi = np.zeros(n_trajectories)
    rate = np.empty(n_trajectories)
    # sums of exp(-i phi) and exp(-2i phi) over the trajectories at every sample
    sums = np.zeros((len(times), 2), dtype=complex)

    def advance(pos, vel, acc, phi, dt):
        mid = kernel.step(pos, vel, acc, dt, MOTION_SUBSTEPS)
        np.multiply(mid, shift_gauss, out=rate)
        np.add(rate, field, out=rate)
        np.multiply(rate, OMEGA_PER_GAUSS * dt, out=rate)
        phi += rate

    last = max(samples)
    for step in range(last + 1):
        for rest, t_idx in samples.get(step, {}).items():
            if rest == 0:
                rot = np.exp(-1j * phi)
            else:
                branch = [a.copy() for a in (pos, vel, acc, phi)]
                advance(*branch, rest * SAMPLE_DT)
                rot = np.exp(-1j * branch[3])
            sums[t_idx] += (rot.sum(), (rot * rot).sum())
        if step < last:
            advance(pos, vel, acc, phi, SPIN_DT)

    e1, e2 = (sums / n_trajectories).T
    # E[exp(-i d phi)] for d = m_i - m_k = -2..2, gathered into c[i, k]
    moments = np.stack([e2.conj(), e1.conj(), np.ones_like(e1), e1, e2], axis=1)
    coherences = moments[:, np.subtract.outer(_M, _M) + 2]
    meta = {
        "temperature": temperature,
        "n_trajectories": n_trajectories,
        "seed": seed,
        "spin_dt": SPIN_DT,
        "motion_substeps": MOTION_SUBSTEPS,
        "bias_field": env.bias_field,
    }
    return DephasingChannelFamily(times, coherences, meta)


def coherence_envelope(family: DephasingChannelFamily,
                       bases=("X", "Y", "Z")) -> CoherenceEnvelope:
    """Envelope and basis expectation curves from a channel family."""
    order = np.argsort(family.times)
    if not np.all(order == np.arange(len(family.times))):
        raise ValueError("time grid must be sorted")
    curves = {b: family.expectation_curve(b) for b in bases}
    return CoherenceEnvelope(family.times, family.envelope(), curves)
