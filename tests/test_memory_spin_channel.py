"""Spin-1 evolution, field environment and the averaged dephasing channel."""

import dataclasses

import numpy as np
import pytest

from atomlink.memory.channel import dephasing_channel_family
from atomlink.memory.fields import FieldEnvironment, vector_shift_gauss
from atomlink.memory.trap import TrapParams
from atomlink.memory import channel
from atomlink.protocol.presets import PRESETS
from atomlink.protocol.scenario import preset
from atomlink.quantum import BellOutcome, DensityMatrix, HilbertSpec, atom_bell_state, fidelity

from oracles import (
    DOWN_Z,
    GAMMA_2,
    UP_Z,
    apply_to_subsystem,
    brute_channel_coherence,
    brute_phases,
    evolve_spin1,
    gaussian_noise_factor,
    mt_thermal_draws,
    random_density_matrix,
    spin1_matrices,
    stratified_noise_coherence,
    vector_shift_profile,
)

TRAP = TrapParams()
QUIET = FieldEnvironment(shot_noise_sigma=0.0, fictitious_field_scale=0.0)


def _pinned_unitary(env, t):
    """Spin-1 unitary of an atom pinned in the bias field for a time t.

    At vanishing temperature the atom sits at the focus and the fictitious
    term is zero, so the atom precesses in the static bias alone; the
    unitary is built column by column by the general spin-1 evolution along
    the quantization axis F3.  The field noise enters the references below
    through ``gaussian_noise_factor``.
    """
    n = int(round(t / 1e-7))
    return np.stack([evolve_spin1(start, np.tile([0.0, 0.0, env.bias_field], (n, 1)),
                                  1e-7).spin_states[-1]
                     for start in np.eye(3, dtype=complex)], axis=1)


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
        assert abs(rate) == pytest.approx(GAMMA_2 * b, rel=1e-9)
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
        assert peak == pytest.approx(GAMMA_2 * b / (2 * np.pi), rel=0.05)

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi0 /= np.linalg.norm(psi0)
        fields = rng.normal(scale=0.05, size=(3000, 3))
        res = evolve_spin1(psi0, fields, 1e-7)
        assert res.norm_deviation() < 1e-9


def fictitious_field(env, pos):
    """Vector-shift field along the bias axis, as the channel build forms it."""
    return vector_shift_gauss(TRAP, env) * vector_shift_profile(TRAP, pos)


class TestLocalField:
    ENV = FieldEnvironment()

    def test_fictitious_antisymmetric_in_x(self):
        pos = np.array([[0.3e-6, 0.1e-6, 2e-6]])
        neg = pos.copy()
        neg[0, 0] *= -1
        f_pos = fictitious_field(self.ENV, pos)[0]
        f_neg = fictitious_field(self.ENV, neg)[0]
        assert f_pos == pytest.approx(-f_neg, rel=1e-12)
        assert f_pos != 0.0

    def test_zero_on_beam_axis(self):
        pos = np.array([[0.0, 0.5e-6, 3e-6]])
        assert fictitious_field(self.ENV, pos)[0] == 0.0

    def test_scale_zero_disables(self):
        env = dataclasses.replace(self.ENV, fictitious_field_scale=0.0)
        pos = np.array([[0.4e-6, 0.0, 0.0]])
        assert fictitious_field(env, pos)[0] == 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            FieldEnvironment(shot_noise_sigma=-1e-3)


@pytest.fixture(scope="module")
def brute_motion():
    """Sample times, trajectory count and the brute oracle's noise-free phases."""
    times = np.round([20e-6, 45e-6, 70e-6], 12)
    n = 200
    return times, n, brute_phases(TRAP, FieldEnvironment(), 50e-6, times, n, seed=23,
                                  spin_dt=channel.SPIN_DT)


class TestDephasingChannel:
    def test_zero_time_is_identity(self):
        ch = dephasing_channel_family(TRAP, QUIET, 50e-6, [0.0], 200, seed=4).channel_at(0.0)
        assert np.allclose(ch, np.ones((3, 3)), atol=1e-12)

    def test_trace_preserving_and_cp(self):
        env = FieldEnvironment()
        ch = dephasing_channel_family(TRAP, env, 50e-6, [20e-6], 300, seed=8).channel_at(20e-6)
        # a Schur multiplier preserves the trace iff its diagonal is one, and
        # it is CP iff its coherence matrix (its Choi matrix) is PSD
        assert np.max(np.abs(np.diag(ch) - 1.0)) < 1e-9
        eigs = np.linalg.eigvalsh(ch)
        assert eigs.min() > -1e-10

    def test_pure_bias_keeps_visibility(self):
        times = np.round(np.arange(0.0, 100e-6, 5e-6), 12)
        fam = dephasing_channel_family(TRAP, QUIET, 1e-12, times, 200, seed=3)
        assert np.all(fam.envelope() >= 0.999)

    @pytest.mark.parametrize("sigma", [0.0, 0.5e-3])
    def test_matches_single_spin_evolution_for_pinned_atom(self, sigma):
        # the channel must be the pinned atom's rotation in the bias, averaged
        # over the field noise; the rotation's superoperator
        # s4[i, k, j, l] = U_ij U*_kl is zero outside s4[i, k, i, k], which
        # times the Gaussian noise factor is the coherence matrix
        t = 20e-6
        env = FieldEnvironment(shot_noise_sigma=sigma, fictitious_field_scale=0.0)
        ch = dephasing_channel_family(TRAP, env, 1e-15, [t], 150, seed=2).channel_at(t)
        u = _pinned_unitary(env, t)
        s4 = np.einsum("ij,kl->ikjl", u, u.conj())
        i, k = np.indices((3, 3))
        outside = s4.copy()
        outside[i, k, i, k] = 0.0
        assert np.max(np.abs(outside)) < 1e-12
        expected = s4[i, k, i, k] * gaussian_noise_factor(sigma, t)
        assert np.max(np.abs(ch - expected)) < 1e-12

    @pytest.mark.parametrize("subsystem", [0, 2])
    def test_apply_matches_lifted_unitaries(self, subsystem):
        # on a random qutrit-qubit-qutrit state the channel acts on one
        # qutrit as U rho U^dagger for the rotation in the bias, and the
        # noise average multiplies each entry by the factor of its two
        # levels on that qutrit; this also checks the entrywise reference
        # the batched herald tests use
        t = 20e-6
        sigma = 0.5e-3
        env = FieldEnvironment(shot_noise_sigma=sigma, fictitious_field_scale=0.0)
        ch = dephasing_channel_family(TRAP, env, 1e-15, [t], 120, seed=5).channel_at(t)
        rho = random_density_matrix(np.random.default_rng(13), 18)
        ops = [np.eye(3), np.eye(2), np.eye(3)]
        ops[subsystem] = _pinned_unitary(env, t)
        lifted = np.kron(np.kron(ops[0], ops[1]), ops[2])
        # the qutrit index of each basis state of the whole system
        level = np.unravel_index(np.arange(18), (3, 2, 3))[subsystem]
        factor = gaussian_noise_factor(sigma, t)[np.ix_(level, level)]
        expected = (lifted @ rho @ lifted.conj().T) * factor
        out = apply_to_subsystem(ch, rho, [3, 2, 3], subsystem)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_gaussian_dephasing_oracle(self):
        # quasi-static gaussian noise along the quantization axis dephases
        # the two-quantum coherence as exp(-(gamma2 sigma t)^2 / 2)
        sigma = 0.5e-3
        env = FieldEnvironment(shot_noise_sigma=sigma, fictitious_field_scale=0.0)
        times = np.round(np.array([0, 50e-6, 100e-6, 200e-6, 321.6e-6, 400e-6]), 12)
        fam = dephasing_channel_family(TRAP, env, 1e-15, times, 2000, seed=6)
        envelope = fam.envelope()
        expected = np.exp(-0.5 * (GAMMA_2 * sigma * times) ** 2)
        assert np.allclose(envelope, expected, atol=5e-3)
        # analytic 1/e time sqrt(2)/(gamma2 sigma) = 321.6 us
        t_e = np.sqrt(2.0) / (GAMMA_2 * sigma)
        assert t_e == pytest.approx(321.6e-6, rel=0.01)

    def test_determinism(self):
        env = FieldEnvironment()
        times = np.round([0.0, 10e-6, 25e-6], 12)
        a = dephasing_channel_family(TRAP, env, 50e-6, times, 600, seed=11)
        b = dephasing_channel_family(TRAP, env, 50e-6, times, 600, seed=11)
        assert np.array_equal(a.coherences, b.coherences)

    @pytest.mark.parametrize("seed", [0, 1, 5, 11, 2**31 - 1, 2**40])
    def test_thermal_draws_match_per_trajectory_generators(self, seed):
        # the vectorized draw against a reference that builds each
        # trajectory's row by itself from its own six words of the stream
        draws = channel._thermal_draws(seed, 300)
        assert draws.shape == (300, 6)
        assert np.max(np.abs(draws - np.array(mt_thermal_draws(seed, 300)))) <= 1e-15

    def test_thermal_draws_are_prefix_stable(self):
        # row k depends on the seed and its own words only, so fewer
        # trajectories draw the first rows of more
        assert np.array_equal(channel._thermal_draws(3, 300), channel._thermal_draws(3, 1000)[:300])

    def test_thermal_draws_are_standard_normal(self):
        z = channel._thermal_draws(12, 100_000 // 6 + 1).ravel()[:100_000]
        n = len(z)
        # standard errors of the mean (1/sqrt(n)) and of the variance (sqrt(2/n))
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)

    def test_moving_atom_matches_brute_force(self):
        # thermal motion, the vector-shift field and the noise average
        # together, against a per-trajectory loop with its own draws,
        # integrator and field formulas; 7.3 us is off the spin-step grid,
        # so it takes the partial step
        env = FieldEnvironment()
        times = np.round([0.0, 7.3e-6, 10e-6], 12)
        fam = dephasing_channel_family(TRAP, env, 50e-6, times, 120, seed=17)
        expected = brute_channel_coherence(TRAP, env, 50e-6, times, 120, seed=17,
                                           spin_dt=channel.SPIN_DT)
        assert np.max(np.abs(fam.coherences - expected)) < 1e-12

    @pytest.mark.parametrize("sigma", [0.25e-3, 0.5e-3, 1.0e-3])
    def test_exact_noise_average_matches_stratified_sampling(self, brute_motion, sigma):
        # the exact noise average against the same motion with the noise
        # sampled per trajectory on a stratified grid: they differ by the
        # sampling error of that grid, whose standard error is below
        # sqrt((1 - |c|^2) / n); the bound is four of it
        times, n, phases = brute_motion
        env = FieldEnvironment(shot_noise_sigma=sigma)
        closed = dephasing_channel_family(TRAP, env, 50e-6, times, n, seed=23)
        sampled = stratified_noise_coherence(phases, sigma, times)
        diff = np.abs(closed.coherences[:, 2, 0] - sampled)
        assert np.all(diff <= 4.0 * closed.stderr())
        # the noise dephases visibly at the longest time
        assert gaussian_noise_factor(sigma, times[-1])[2, 0] < 0.995

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


def _build_at(spin_dt, *args):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(channel, "SPIN_DT", spin_dt)
        return dephasing_channel_family(*args)


@pytest.fixture(scope="module")
def step_builds():
    """Same-seed builds at the shipped spin step, at half of it and at 100 ns.

    The jobs are criterion 5's grid plus node 1's readout times (first;
    node 1's environment is criterion 5's) and node 2's readout times, at
    every preset; the half step is built on criterion 5's grid only.
    """
    n = 2000
    node = preset("l6").node1
    grid = np.round(np.arange(0.0, 500e-6 + 1e-9, 1e-6), 12)
    criterion5 = (node.trap, node.field_env, node.temperature)
    jobs = {criterion5: set(grid)}
    for name in PRESETS:
        s = preset(name)
        for node, t in zip(s.nodes(), s.readout_times()):
            jobs.setdefault((node.trap, node.field_env, node.temperature),
                            set()).add(round(t, 12))
    assert len(jobs) == 2
    builds = [{dt: _build_at(dt, *physics, np.array(sorted(times)), n, 7)
               for dt in (channel.SPIN_DT, 1e-7)} for physics, times in jobs.items()]
    builds[0][channel.SPIN_DT / 2] = _build_at(channel.SPIN_DT / 2, *criterion5, grid, n, 7)
    return n, builds


class TestStepConvergence:
    def test_shipped_step_within_monte_carlo_budget(self, step_builds):
        # the shipped spin step against a 100 ns reference with the same
        # seed, on criterion 5's grid and at every preset's readout times
        # (each node's configured noise): the discretization error must stay
        # below a tenth of the Monte-Carlo standard error at n = 10 000
        n, builds = step_builds
        for job in builds:
            shipped, ref = job[channel.SPIN_DT], job[1e-7]
            assert shipped.meta["spin_dt"] > ref.meta["spin_dt"]
            diff = np.abs(shipped.coherences[:, 2, 0] - ref.coherences[:, 2, 0])
            budget = 0.1 * ref.stderr() * np.sqrt(n / 10_000)
            late = shipped.times > 0
            assert np.all(diff[late] <= budget[late])

    def test_halving_the_step_shows_fourth_order(self, step_builds):
        # Simpson's rule on the Yoshida-4 motion is fourth order, so halving
        # the spin step cuts the error by about 16; the midpoint rule for the
        # phase is second order and cuts it by about 4
        _, builds = step_builds
        job = builds[0]
        grid = job[channel.SPIN_DT / 2].times    # criterion 5's grid
        ref = np.array([job[1e-7].channel_at(t)[2, 0] for t in grid])
        err = [np.max(np.abs([job[dt].channel_at(t)[2, 0] for t in grid] - ref))
               for dt in (channel.SPIN_DT, channel.SPIN_DT / 2)]
        assert err[0] >= 7.0 * err[1]


@pytest.fixture(scope="module")
def node1_family():
    env = FieldEnvironment()
    times = np.round(np.arange(0.0, 120e-6, 1e-6), 12)
    return dephasing_channel_family(TRAP, env, 50e-6, times, 1500, seed=14)


class TestEnvelopeStructure:

    def test_rephasing_structure(self, node1_family):
        v = node1_family.envelope()
        # dips between revivals, revival near the trap period
        first_dip = v[5:10].min()
        assert first_dip < 0.97
        revival = v[12:17].max()
        assert revival > first_dip + 0.02
        peak_idx = 12 + int(np.argmax(v[12:17]))
        assert 13.0 <= node1_family.times[peak_idx] * 1e6 <= 15.5

    def test_envelope_monotone_after_smoothing(self, node1_family):
        v = node1_family.envelope()
        k = 15  # one trap period plus a little
        smooth = np.convolve(v, np.ones(k) / k, mode="valid")
        assert np.all(np.diff(smooth) < 5e-3)  # non-increasing up to MC noise

    def test_ideal_channel_flat(self):
        times = np.round(np.arange(0.0, 50e-6, 5e-6), 12)
        fam = dephasing_channel_family(TRAP, QUIET, 1e-15, times, 150, seed=1)
        assert np.all(fam.envelope() > 0.9999)
        assert fam.one_over_e_time() == float("inf")

    def test_expectation_curves_match_trace_formula(self, node1_family):
        # <sigma_b> = Tr(sigma_b rho(t)) with rho(t) = c(t) * rho0 entrywise,
        # rho0 the +1 eigenstate of sigma_b on the m = +-1 qubit
        up_x = (UP_Z + DOWN_Z) / np.sqrt(2.0)
        up_y = (UP_Z + 1j * DOWN_Z) / np.sqrt(2.0)
        pauli = {
            "X": np.outer(UP_Z, DOWN_Z) + np.outer(DOWN_Z, UP_Z),
            "Y": -1j * np.outer(UP_Z, DOWN_Z) + 1j * np.outer(DOWN_Z, UP_Z),
            "Z": np.outer(UP_Z, UP_Z) - np.outer(DOWN_Z, DOWN_Z),
        }
        starts = {"X": up_x, "Y": up_y, "Z": UP_Z}
        for basis, op in pauli.items():
            rho0 = np.outer(starts[basis], starts[basis].conj())
            expected = [np.trace(op @ (c * rho0)).real for c in node1_family.coherences]
            curve = node1_family.expectation_curve(basis)
            assert np.max(np.abs(curve - expected)) < 1e-15, basis
        # the precessing lab-frame coherence swings X through both signs
        assert node1_family.expectation_curve("X").min() < -0.5

    def test_one_over_e_time_interpolates_crossing(self):
        fam = channel.DephasingChannelFamily(
            np.array([0.0, 1e-6, 2e-6, 3e-6]),
            np.ones((4, 3, 3), dtype=complex) * np.array([1.0, 0.6, 0.3, 0.1])[:, None, None])
        target = 1.0 / np.e
        assert fam.one_over_e_time() == pytest.approx(1e-6 + (0.6 - target) / 0.3 * 1e-6,
                                                      rel=1e-12)

    def test_channel_applied_to_bell_state(self, node1_family):
        # in the analyzer (rotating) frame the one-sided memory channel
        # degrades the Bell fidelity as (1 + visibility)/2
        t = 50e-6
        ch = node1_family.rotating_channel_at(t)
        aa = atom_bell_state(BellOutcome.PSI_MINUS).density_matrix()
        out = DensityMatrix(HilbertSpec([3, 3]), apply_to_subsystem(ch, aa.matrix, [3, 3], 0))
        f = fidelity(out, atom_bell_state(BellOutcome.PSI_MINUS))
        v = abs(ch[2, 0])
        assert f == pytest.approx((1.0 + v) / 2.0, abs=0.02)

    def test_lab_frame_fidelity_oscillates_but_envelope_does_not(self, node1_family):
        # without the frame change the deterministic Larmor precession sweeps
        # the fidelity; the visibility is frame independent
        t = 50e-6
        lab = node1_family.channel_at(t)
        rot = node1_family.rotating_channel_at(t)
        # the |up><down| entry in the qutrit order (m=-1, 0, +1)
        assert abs(lab[2, 0]) == pytest.approx(abs(rot[2, 0]), abs=1e-12)
        assert abs(np.angle(rot[2, 0])) < 0.2  # mean precession removed
