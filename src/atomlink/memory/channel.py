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

Time step: each spin step of ``SPIN_DT`` moves the atoms by two Yoshida-4
steps, and the phase integrates the field by Simpson's rule over the
vector-shift profiles at the start, the middle and the end of the step,
phi += Omega dt (b + g (f0 + 4 f_half + f1) / 6), all three from force
evaluations the motion makes anyway; the end profile is the next step's
start.  Sample times sit on the finer ``SAMPLE_DT`` grid; a time between two
spin steps is reached by one short step of the same form from the last grid
point, taken on a copy of the state and its start profile, so c(t) does not
depend on which other times are requested.
"""

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .fields import FieldEnvironment, vector_shift_gauss
from .spin import OMEGA_PER_GAUSS
from .trap import MotionKernel, TrapParams, thermal_sigmas

SAMPLE_DT = 1e-7       # grid of the sample times (s)
SPIN_DT = 1e-6         # spin step (s), a whole multiple of SAMPLE_DT

_UP, _DOWN = 2, 0             # qutrit indices of m = +1 and m = -1
_M = np.array([-1, 0, 1])      # magnetic quantum number of each qutrit index

@dataclass(frozen=True)
class DephasingChannelFamily:
    """Channels of one memory sampled on a time grid.

    Each channel is its 3x3 coherence matrix c, the Schur multiplier
    rho[i, k] -> c[i, k] rho[i, k].  ``channel_at(t)`` returns the lab-frame
    c, which includes the deterministic Larmor precession of the bias field.
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

    def channel_at(self, t: float) -> np.ndarray:
        return self.coherences[self._index_of(t)]

    def rotating_channel_at(self, t: float) -> np.ndarray:
        lab = self.channel_at(t)
        bias_phase = (OMEGA_PER_GAUSS * self.meta.get("bias_field", 0.0)
                      * self.times[self._index_of(t)])
        undo = np.exp(1j * np.subtract.outer(_M, _M) * bias_phase)
        return undo * lab

    def envelope(self) -> np.ndarray:
        """Visibility |c[up, down]| of the memory coherence at each time."""
        return np.abs(self.coherences[:, _UP, _DOWN])

    def stderr(self) -> np.ndarray:
        """Monte-Carlo standard error of the |up><down| coherence at each time."""
        return coherence_stderr(self.envelope(), self.meta["n_trajectories"])

    def expectation_curve(self, basis: str) -> np.ndarray:
        """<sigma_b>(t) of the memory prepared in the +1 eigenstate of sigma_b.

        With rho(t) = c(t) * rho0 entrywise, both equatorial states give
        Re c[up, down] (c is Hermitian), and the populations, so <sigma_z>,
        are untouched.
        """
        basis = basis.upper()
        if basis == "Z":
            return np.ones(len(self.times))
        if basis not in ("X", "Y"):
            raise ValueError(f"unknown basis {basis!r}")
        return self.coherences[:, _UP, _DOWN].real.copy()

    def one_over_e_time(self) -> float:
        """First crossing of 1/e by the envelope on the sorted time grid, linearly interpolated."""
        target = 1.0 / np.e
        v = self.envelope()
        below = np.nonzero(v < target)[0]
        if len(below) == 0:
            return float("inf")
        i = below[0]
        if i == 0:
            return float(self.times[0])
        t0, t1 = self.times[i - 1], self.times[i]
        v0, v1 = v[i - 1], v[i]
        return float(t0 + (v0 - target) / (v0 - v1) * (t1 - t0))


def coherence_stderr(envelope, n_trajectories: int):
    """Monte-Carlo standard error of a coherence of modulus ``envelope``.

    The coherence is a mean of n unit-modulus samples, so its standard
    error is at most sqrt((1 - |c|^2) / n); the stratified noise grid
    only makes this bound conservative.
    """
    return np.sqrt(np.maximum(1.0 - envelope ** 2, 0.0) / n_trajectories)


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
    shift = kernel.shift.copy()    # the profile at the start of the next step
    phi = np.zeros(n_trajectories)
    rate = np.empty(n_trajectories)
    # sums of exp(-i phi) and exp(-2i phi) over the trajectories at every sample
    sums = np.zeros((len(times), 2), dtype=complex)

    def advance(pos, vel, acc, shift, phi, dt):
        simpson = kernel.step(pos, vel, acc, shift, dt)
        np.multiply(simpson, shift_gauss / 6.0, out=rate)
        np.add(rate, field, out=rate)
        np.multiply(rate, OMEGA_PER_GAUSS * dt, out=rate)
        phi += rate

    last = max(samples)
    for step in range(last + 1):
        for rest, t_idx in samples.get(step, {}).items():
            if rest == 0:
                rot = np.exp(-1j * phi)
            else:
                branch = [a.copy() for a in (pos, vel, acc, shift, phi)]
                advance(*branch, rest * SAMPLE_DT)
                rot = np.exp(-1j * branch[4])
            sums[t_idx] += (rot.sum(), (rot * rot).sum())
        if step < last:
            advance(pos, vel, acc, shift, phi, SPIN_DT)

    e1, e2 = (sums / n_trajectories).T
    # E[exp(-i d phi)] for d = m_i - m_k = -2..2, gathered into c[i, k]
    moments = np.stack([e2.conj(), e1.conj(), np.ones_like(e1), e1, e2], axis=1)
    coherences = moments[:, np.subtract.outer(_M, _M) + 2]
    # the whole spin steps, and the short step to each time off their grid
    spin_steps = last + sum(rest > 0 for rests in samples.values() for rest in rests)
    meta = {"n_trajectories": n_trajectories, "spin_dt": SPIN_DT, "spin_steps": spin_steps,
            "bias_field": env.bias_field}
    return DephasingChannelFamily(times, coherences, meta)
