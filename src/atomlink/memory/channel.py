"""Monte-Carlo dephasing channel of the trapped-atom memory.

Each trajectory draws thermal initial conditions, integrates the atomic
motion in the Gaussian trap, and accumulates the Zeeman phase phi of the
local field.  The bias, the quasi-static field noise and the
vector-light-shift field all lie along the quantization axis, so a
trajectory's unitary is diag(exp(-i m phi)) over m = (-1, 0, +1).  Averaging
over the trajectories and the noise gives a completely positive
trace-preserving qutrit channel that multiplies each density-matrix entry
by a number,
rho[i, k] -> c[i, k] rho[i, k] with c[i, k] = E[exp(-i (m_i - m_k) phi)]
(a Schur multiplier); the 3x3 coherence matrix c is all that is stored.

Reproducibility contract: a build draws from one MT19937 stream,
``random.Random(seed)``, and trajectory k's thermal start comes from its
64-bit words 6k..6k+5 alone, so a build with fewer trajectories draws the
first rows of one with more.  The quasi-static field noise is Gaussian and
lies along the quantization axis with the bias, so it is averaged exactly:
trajectory k's phase is phi_k(t) = Omega (b + sigma z) t + theta_k(t), and
only the vector-shift phase theta_k of the motion is sampled,

    E[exp(-i d phi)] = exp(-i d Omega b t - (d Omega sigma t)^2 / 2) mean_k exp(-i d theta_k)

for d = 1, 2.  All trajectories are integrated and summed as one array in
a single pass, so the same arguments give bit-identical results.

Time step: each spin step of ``SPIN_DT`` moves the atoms by two Yoshida-4
steps, and theta integrates the vector-shift field by Simpson's rule over
its profiles at the start, the middle and the end of the step,
theta += Omega g dt (f0 + 4 f_half + f1) / 6, all three from force
evaluations the motion makes anyway; the end profile is the next step's
start.  Sample times sit on the finer ``SAMPLE_DT`` grid; a time between two
spin steps is reached by one short step of the same form from the last grid
point, taken on a copy of the state and its start profile, so c(t) does not
depend on which other times are requested.
"""

import random
from dataclasses import dataclass, field

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
        """Bound on the Monte-Carlo standard error of the |up><down| coherence.

        A true bound, and a conservative one once the field noise has
        dephased; see ``coherence_stderr``.
        """
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

    The coherence is a Gaussian factor G <= 1 times a mean of n
    unit-modulus samples, so its standard error is sqrt((G^2 - |c|^2) / n)
    at most, and this bound, sqrt((1 - |c|^2) / n), holds but is
    conservative wherever the field noise has dephased.  The motion-only
    error times G would put the step-convergence check at 0.84 of its
    budget (0.37 with this bound), so that replacement waits for the
    seed-sweep coverage check of every reported sigma (ROADMAP item 3).
    """
    return np.sqrt(np.maximum(1.0 - envelope ** 2, 0.0) / n_trajectories)


def _thermal_draws(seed: int, n: int) -> np.ndarray:
    """(n, 6) standard normals from the MT19937 stream ``random.Random(seed)``.

    The top 53 bits of each little-endian 64-bit word of the stream give a
    uniform u in [0, 1), and consecutive pairs (u1, u2) give two normals by
    Box-Muller, sqrt(-2 ln(1 - u1)) (cos, sin)(2 pi u2); row k comes from
    words 6k..6k+5.
    """
    words = np.frombuffer(random.Random(seed).randbytes(48 * n), dtype="<u8")
    u1, u2 = ((words >> 11) * 2.0 ** -53).reshape(-1, 2).T
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1).reshape(n, 6)


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
    # theta's rate per unit of the Simpson sum; the bias and the noise are averaged below
    shift_rate = OMEGA_PER_GAUSS * vector_shift_gauss(trap, env) / 6.0

    kernel = MotionKernel(trap, n_trajectories)
    acc = np.empty_like(pos)
    kernel.force(pos, acc)
    shift = kernel.shift.copy()    # the profile at the start of the next step
    theta = np.zeros(n_trajectories)
    rate = np.empty(n_trajectories)
    # sums of cos theta, sin theta, cos 2 theta and sin 2 theta over the
    # trajectories at every sample
    sums = np.zeros((len(times), 4))

    def advance(pos, vel, acc, shift, theta, dt):
        simpson = kernel.step(pos, vel, acc, shift, dt)
        np.multiply(simpson, shift_rate * dt, out=rate)
        theta += rate

    def sample(theta):
        cos, sin = np.cos(theta), np.sin(theta)
        return cos.sum(), sin.sum(), (cos * cos - sin * sin).sum(), 2.0 * (cos * sin).sum()

    last = max(samples)
    for step in range(last + 1):
        for rest, t_idx in samples.get(step, {}).items():
            if rest == 0:
                sums[t_idx] += sample(theta)
            else:
                branch = [a.copy() for a in (pos, vel, acc, shift, theta)]
                advance(*branch, rest * SAMPLE_DT)
                sums[t_idx] += sample(branch[4])
        if step < last:
            advance(pos, vel, acc, shift, theta, SPIN_DT)

    # mean_k exp(-i d theta_k) times the exact bias and noise average, for d = 1, 2
    bias = OMEGA_PER_GAUSS * env.bias_field * times
    spread = (OMEGA_PER_GAUSS * env.shot_noise_sigma * times) ** 2
    e1 = (sums[:, 0] - 1j * sums[:, 1]) / n_trajectories * np.exp(-1j * bias - spread / 2.0)
    e2 = (sums[:, 2] - 1j * sums[:, 3]) / n_trajectories * np.exp(-2j * bias - 2.0 * spread)
    # E[exp(-i d phi)] for d = m_i - m_k = -2..2, gathered into c[i, k]
    moments = np.stack([e2.conj(), e1.conj(), np.ones_like(e1), e1, e2], axis=1)
    coherences = moments[:, np.subtract.outer(_M, _M) + 2]
    # the whole spin steps, and the short step to each time off their grid
    spin_steps = last + sum(rest > 0 for rests in samples.values() for rest in rests)
    meta = {"n_trajectories": n_trajectories, "spin_dt": SPIN_DT, "spin_steps": spin_steps,
            "bias_field": env.bias_field}
    return DephasingChannelFamily(times, coherences, meta)
