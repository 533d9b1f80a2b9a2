"""Spin-1 evolution, field environment and the averaged dephasing channel."""

import numpy as np
import pytest
from scipy.special import ndtri

from atomlink import constants as C
from atomlink.memory import (
    FieldEnvironment,
    TrapParams,
    coherence_envelope,
    dephasing_channel_family,
)
from atomlink.memory import channel
from atomlink.memory.fields import fictitious_field_y
from atomlink.protocol.scenario import CAL_SIGMA_SHOT_EFF, PRESETS, preset
from atomlink.quantum import BellOutcome, DensityMatrix, HilbertSpec, atom_bell_state, fidelity

from oracles import (
    brute_channel_coherence,
    evolve_spin1,
    philox_thermal_draws,
    random_density_matrix,
    spin1_matrices,
)

TRAP = TrapParams()
QUIET = FieldEnvironment(shot_noise_sigma=0.0, fictitious_field_scale=0.0)


def _pinned_unitaries(env, t, n_traj):
    """Spin-1 unitaries of a pinned atom in each stratified static field.

    At vanishing temperature the atom sits at the focus and the fictitious
    term is zero, so trajectory k precesses in the static field b + sigma z_k
    of its stratified noise sample; each unitary is built column by column
    by the general spin-1 evolution along the quantization axis F3.
    """
    n = int(round(t / 1e-7))
    z = ndtri((np.arange(n_traj) + 0.5) / n_traj)
    return [np.stack([evolve_spin1(start, np.tile([0.0, 0.0, b], (n, 1)),
                                   1e-7).spin_states[-1]
                      for start in np.eye(3, dtype=complex)], axis=1)
            for b in env.bias_field + env.shot_noise_sigma * z]


class TestSpinMatrices:
    def test_commutators(self):
        fx, fy, fz = spin1_matrices()
        assert np.allclose(fx @ fy - fy @ fx, 1j * fz, atol=1e-14)
        assert np.allclose(fy @ fz - fz @ fy, 1j * fx, atol=1e-14)
        assert np.allclose(fz @ fx - fx @ fz, 1j * fy, atol=1e-14)

    def test_fz_ordering(self):
        _, _, fz = spin1_matrices()
        assert np.allclose(np.diag(fz), [-1, 0, 1])  # (m=-1, 0, +1)


class TestEvolveSpin1:
    def test_zero_field_is_identity(self):
        psi0 = np.array([0.5, 0.5, np.sqrt(0.5)], dtype=complex)
        res = evolve_spin1(psi0, np.zeros((100, 3)), 1e-7)
        assert np.allclose(res.spin_states[-1], psi0, atol=1e-14)

    def test_z_field_keeps_populations(self):
        psi0 = np.array([0.6, 0.0, 0.8], dtype=complex)
        fields = np.tile([0.0, 0.0, 0.0755], (500, 1))
        res = evolve_spin1(psi0, fields, 1e-7)
        assert np.allclose(res.populations, res.populations[0], atol=1e-12)

    def test_z_field_coherence_phase_rate(self):
        # m=+1 vs m=-1 coherence advances at 2 |gF| muB B / hbar
        psi0 = np.array([1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
        b = 0.0755
        n, dt = 1000, 1e-7
        res = evolve_spin1(psi0, np.tile([0.0, 0.0, b], (n, 1)), dt)
        coh = res.spin_states[:, 2] * np.conj(res.spin_states[:, 0])
        phase = np.unwrap(np.angle(coh))
        rate = (phase[-1] - phase[0]) / (n * dt)
        assert abs(rate) == pytest.approx(C.GAMMA_2 * b, rel=1e-9)
        assert abs(rate) / (2 * np.pi) == pytest.approx(105.7e3, rel=0.005)

    def test_transverse_field_coherence_oscillates_at_double_larmor(self):
        # field along the second spin axis, e.g. a bias perpendicular to the
        # quantization axis: |rho_{+1,-1}| oscillates at 2 nu_Larmor
        psi0 = np.array([0.0, 0.0, 1.0], dtype=complex)
        b = 0.0755
        n, dt = 4000, 1e-7
        res = evolve_spin1(psi0, np.tile([0.0, b, 0.0], (n, 1)), dt)
        coh = np.abs(res.spin_states[:, 2] * np.conj(res.spin_states[:, 0]))
        sig = coh - np.mean(coh)
        freqs = np.fft.rfftfreq(len(sig), dt)
        spectrum = np.abs(np.fft.rfft(sig))
        peak = freqs[1 + np.argmax(spectrum[1:])]
        assert peak == pytest.approx(C.GAMMA_2 * b / (2 * np.pi), rel=0.05)

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi0 /= np.linalg.norm(psi0)
        fields = rng.normal(scale=0.05, size=(3000, 3))
        res = evolve_spin1(psi0, fields, 1e-7)
        assert res.norm_deviation() < 1e-9


class TestLocalField:
    ENV = FieldEnvironment()

    def test_fictitious_antisymmetric_in_x(self):
        pos = np.array([[0.3e-6, 0.1e-6, 2e-6]])
        neg = pos.copy()
        neg[0, 0] *= -1
        f_pos = fictitious_field_y(TRAP, self.ENV, pos)[0]
        f_neg = fictitious_field_y(TRAP, self.ENV, neg)[0]
        assert f_pos == pytest.approx(-f_neg, rel=1e-12)
        assert f_pos != 0.0

    def test_zero_on_beam_axis(self):
        pos = np.array([[0.0, 0.5e-6, 3e-6]])
        assert fictitious_field_y(TRAP, self.ENV, pos)[0] == 0.0

    def test_scale_zero_disables(self):
        env = self.ENV.replace(fictitious_field_scale=0.0)
        pos = np.array([[0.4e-6, 0.0, 0.0]])
        assert fictitious_field_y(TRAP, env, pos)[0] == 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            FieldEnvironment(shot_noise_sigma=-1e-3)


class TestDephasingChannel:
    def test_zero_time_is_identity(self):
        ch = dephasing_channel_family(TRAP, QUIET, 50e-6, [0.0], 200, seed=4).channel_at(0.0)
        assert np.allclose(ch.coherence, np.ones((3, 3)), atol=1e-12)

    def test_trace_preserving_and_cp(self):
        env = FieldEnvironment()
        ch = dephasing_channel_family(TRAP, env, 50e-6, [20e-6], 300, seed=8).channel_at(20e-6)
        # a Schur multiplier preserves the trace iff its diagonal is one, and
        # it is CP iff its coherence matrix (its Choi matrix) is PSD
        assert np.max(np.abs(np.diag(ch.coherence) - 1.0)) < 1e-9
        eigs = np.linalg.eigvalsh(ch.coherence)
        assert eigs.min() > -1e-10

    def test_pure_bias_keeps_visibility(self):
        times = np.round(np.arange(0.0, 100e-6, 5e-6), 12)
        fam = dephasing_channel_family(TRAP, QUIET, 1e-12, times, 200, seed=3)
        assert np.all(fam.envelope() >= 0.999)

    @pytest.mark.parametrize("sigma", [0.0, 0.5e-3])
    def test_matches_single_spin_evolution_for_pinned_atom(self, sigma):
        # the channel must be the mean of the pinned atom's rotations; the
        # reference superoperator s4[i, k, j, l] = E[U_ij U*_kl] is zero
        # outside s4[i, k, i, k], which holds the coherence matrix
        t = 20e-6
        n_traj = 150
        env = FieldEnvironment(shot_noise_sigma=sigma, fictitious_field_scale=0.0)
        ch = dephasing_channel_family(TRAP, env, 1e-15, [t], n_traj, seed=2).channel_at(t)
        s4 = np.mean([np.einsum("ij,kl->ikjl", u, u.conj())
                      for u in _pinned_unitaries(env, t, n_traj)], axis=0)
        i, k = np.indices((3, 3))
        outside = s4.copy()
        outside[i, k, i, k] = 0.0
        assert np.max(np.abs(outside)) < 1e-12
        assert np.max(np.abs(ch.coherence - s4[i, k, i, k])) < 1e-12

    @pytest.mark.parametrize("subsystem", [0, 2])
    def test_apply_matches_lifted_unitaries(self, subsystem):
        # on a random qutrit-qubit-qutrit state the channel acts on one
        # qutrit as the mean of U rho U^dagger over the trajectories
        t = 20e-6
        n_traj = 120
        env = FieldEnvironment(shot_noise_sigma=0.5e-3, fictitious_field_scale=0.0)
        ch = dephasing_channel_family(TRAP, env, 1e-15, [t], n_traj, seed=5).channel_at(t)
        rho = random_density_matrix(np.random.default_rng(13), 18)
        expected = np.zeros((18, 18), dtype=complex)
        for u in _pinned_unitaries(env, t, n_traj):
            ops = [np.eye(3), np.eye(2), np.eye(3)]
            ops[subsystem] = u
            lifted = np.kron(np.kron(ops[0], ops[1]), ops[2])
            expected += lifted @ rho @ lifted.conj().T
        expected /= n_traj
        out = ch.apply_to_subsystem(DensityMatrix(HilbertSpec([3, 2, 3]), rho), subsystem)
        assert np.max(np.abs(out.matrix - expected)) < 1e-12

    def test_gaussian_dephasing_oracle(self):
        # quasi-static gaussian noise along the quantization axis dephases
        # the two-quantum coherence as exp(-(gamma2 sigma t)^2 / 2)
        sigma = 0.5e-3
        env = FieldEnvironment(shot_noise_sigma=sigma, fictitious_field_scale=0.0)
        times = np.round(np.array([0, 50e-6, 100e-6, 200e-6, 321.6e-6, 400e-6]), 12)
        fam = dephasing_channel_family(TRAP, env, 1e-15, times, 2000, seed=6)
        envelope = fam.envelope()
        expected = np.exp(-0.5 * (C.GAMMA_2 * sigma * times) ** 2)
        assert np.allclose(envelope, expected, atol=5e-3)
        # analytic 1/e time sqrt(2)/(gamma2 sigma) = 321.6 us
        t_e = np.sqrt(2.0) / (C.GAMMA_2 * sigma)
        assert t_e == pytest.approx(321.6e-6, rel=0.01)

    def test_determinism(self):
        env = FieldEnvironment()
        times = np.round([0.0, 10e-6, 25e-6], 12)
        a = dephasing_channel_family(TRAP, env, 50e-6, times, 600, seed=11)
        b = dephasing_channel_family(TRAP, env, 50e-6, times, 600, seed=11)
        assert np.array_equal(a.coherences, b.coherences)

    @pytest.mark.parametrize("seed", [0, 1, 5, 11, 2**31 - 1, 2**40])
    def test_thermal_draws_match_per_trajectory_generators(self, seed):
        # one re-keyed generator in place of a new Philox per trajectory
        assert np.array_equal(channel._thermal_draws(seed, 300), philox_thermal_draws(seed, 300))

    def test_moving_atom_matches_brute_force(self):
        # thermal motion and the vector-shift field together, against a
        # per-trajectory loop with its own integrator and field formulas;
        # 7.3 us is off the spin-step grid, so it takes the partial step
        env = FieldEnvironment()
        times = np.round([0.0, 7.3e-6, 10e-6], 12)
        fam = dephasing_channel_family(TRAP, env, 50e-6, times, 120, seed=17)
        expected = brute_channel_coherence(TRAP, env, 50e-6, times, 120, seed=17,
                                           spin_dt=channel.SPIN_DT)
        assert np.max(np.abs(fam.coherences - expected)) < 1e-12

    def test_monte_carlo_convergence(self):
        env = FieldEnvironment()
        times = np.round([20e-6, 60e-6], 12)
        n = 400
        small = dephasing_channel_family(TRAP, env, 50e-6, times, n, seed=21).envelope()
        large = dephasing_channel_family(TRAP, env, 50e-6, times, 4 * n, seed=21).envelope()
        assert np.max(np.abs(small - large)) < 2.0 / np.sqrt(n)

    def test_seed_required_and_trajectory_floor(self):
        with pytest.raises(ValueError):
            dephasing_channel_family(TRAP, QUIET, 50e-6, [1e-6], 50, seed=1).channel_at(1e-6)
        with pytest.raises(ValueError):
            dephasing_channel_family(TRAP, QUIET, 50e-6, [1e-6], 200, seed=-2).channel_at(1e-6)

    def test_off_grid_time_rejected(self):
        with pytest.raises(ValueError):
            dephasing_channel_family(TRAP, QUIET, 50e-6, [1.23e-7], 200, seed=1)

    def test_empty_time_grid_rejected(self):
        with pytest.raises(ValueError, match="sample time"):
            dephasing_channel_family(TRAP, QUIET, 50e-6, [], 200, seed=1)


class TestStepConvergence:
    def test_shipped_step_within_monte_carlo_budget(self, monkeypatch):
        # the shipped spin step against a 100 ns reference with the same
        # seed, on criterion 5's grid and at every preset's readout times
        # (the link's calibrated noise): the discretization error must stay
        # below a tenth of the Monte-Carlo standard error at n = 10 000
        n = 2000
        node = preset("l6").node1
        jobs = {(node.trap, node.field_env, node.temperature):
                set(np.round(np.arange(0.0, 500e-6 + 1e-9, 1e-6), 12))}
        for name in PRESETS:
            s = preset(name)
            for node, t in zip(s.nodes(), s.readout_times()):
                env = node.field_env.replace(shot_noise_sigma=CAL_SIGMA_SHOT_EFF)
                jobs.setdefault((node.trap, env, node.temperature), set()).add(round(t, 12))
        assert len(jobs) == 3
        for (trap, env, temperature), times in jobs.items():
            times = np.array(sorted(times))
            shipped = dephasing_channel_family(trap, env, temperature, times, n, seed=7)
            with monkeypatch.context() as m:
                m.setattr(channel, "SPIN_DT", 1e-7)
                ref = dephasing_channel_family(trap, env, temperature, times, n, seed=7)
            assert shipped.meta["spin_dt"] > ref.meta["spin_dt"]
            diff = np.abs(shipped.coherences[:, 2, 0] - ref.coherences[:, 2, 0])
            budget = 0.1 * ref.stderr() * np.sqrt(n / 10_000)
            late = times > 0
            assert np.all(diff[late] <= budget[late])


@pytest.fixture(scope="module")
def node1_family():
    env = FieldEnvironment()
    times = np.round(np.arange(0.0, 120e-6, 1e-6), 12)
    return dephasing_channel_family(TRAP, env, 50e-6, times, 1500, seed=14)


class TestEnvelopeStructure:

    def test_rephasing_structure(self, node1_family):
        ce = coherence_envelope(node1_family)
        v = ce.visibility
        # dips between revivals, revival near the trap period
        first_dip = v[5:10].min()
        assert first_dip < 0.97
        revival = v[12:17].max()
        assert revival > first_dip + 0.02
        peak_idx = 12 + int(np.argmax(v[12:17]))
        assert 13.0 <= ce.times[peak_idx] * 1e6 <= 15.5

    def test_envelope_monotone_after_smoothing(self, node1_family):
        v = coherence_envelope(node1_family).visibility
        k = 15  # one trap period plus a little
        smooth = np.convolve(v, np.ones(k) / k, mode="valid")
        assert np.all(np.diff(smooth) < 5e-3)  # non-increasing up to MC noise

    def test_ideal_channel_flat(self):
        times = np.round(np.arange(0.0, 50e-6, 5e-6), 12)
        fam = dephasing_channel_family(TRAP, QUIET, 1e-15, times, 150, seed=1)
        ce = coherence_envelope(fam)
        assert np.all(ce.visibility > 0.9999)
        for b in ("X", "Y", "Z"):
            assert b in ce.curves

    def test_channel_applied_to_bell_state(self, node1_family):
        # in the analyzer (rotating) frame the one-sided memory channel
        # degrades the Bell fidelity as (1 + visibility)/2
        t = 50e-6
        ch = node1_family.rotating_channel_at(t)
        aa = atom_bell_state(BellOutcome.PSI_MINUS).density_matrix()
        out = ch.apply_to_subsystem(aa, 0)
        f = fidelity(out, atom_bell_state(BellOutcome.PSI_MINUS))
        v = ch.visibility()
        assert f == pytest.approx((1.0 + v) / 2.0, abs=0.02)

    def test_lab_frame_fidelity_oscillates_but_envelope_does_not(self, node1_family):
        # without the frame change the deterministic Larmor precession sweeps
        # the fidelity; the visibility is frame independent
        t = 50e-6
        lab = node1_family.channel_at(t)
        rot = node1_family.rotating_channel_at(t)
        assert lab.visibility() == pytest.approx(rot.visibility(), abs=1e-12)
        amp_rot = rot.coherence_amplitude()
        assert abs(np.angle(amp_rot)) < 0.2  # mean precession removed
