"""Polarization drift, automated compensation, and state-level errors."""

import numpy as np
import pytest
from scipy.linalg import expm

from atomlink.photonics import (
    FibreUnitary,
    PolarizationController,
    drift_walk,
    polarization_control_cycle,
    rotation_su2,
    simulate_drift_with_control,
    stokes_rotation,
)
from atomlink.photonics.polarization import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _probe_cost,
    invert_rotation_settings,
    residual_error_from_cost,
)
from atomlink import quantum as q

import oracles


def random_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    qmat, r = np.linalg.qr(g)
    return FibreUnitary(qmat * (np.diag(r) / np.abs(np.diag(r))))


def final_angles(path):
    """Rotation angle of each fibre's last Jones matrix of a drift walk."""
    return np.array([FibreUnitary(m).rotation_angle() for m in path[:, -1]])


class TestDrift:
    def test_zero_rate_identity(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for rate, dt in ((0.0, 1.0), (0.05, 0.0)):
            path = drift_walk(3, 4, dt, rate, rng)
            assert path.shape == (3, 5, 2, 2)
            assert np.array_equal(path, np.broadcast_to(np.eye(2), path.shape))
        assert rng.bit_generator.state == before
        with pytest.raises(ValueError):
            drift_walk(1, 1, 1.0, -0.1, rng)

    def test_mean_square_angle_grows_linearly(self):
        rng = np.random.default_rng(1)
        rate = 0.02
        angles = {t_total: final_angles(drift_walk(3000, int(t_total / 0.1), 0.1, rate, rng))
                  for t_total in (1.0, 4.0)}
        # the rotation vector performs a 3D random walk, so the mean-square
        # accumulated angle is rate^2 * t
        m1 = np.mean(angles[1.0] ** 2)
        m4 = np.mean(angles[4.0] ** 2)
        assert m1 == pytest.approx(rate**2 * 1.0, rel=0.1)
        assert m4 / m1 == pytest.approx(4.0, rel=0.15)

    def test_half_steps_match_full_step(self):
        rng = np.random.default_rng(2)
        rate = 0.05
        full = final_angles(drift_walk(4000, 1, 1.0, rate, rng))
        half = final_angles(drift_walk(4000, 2, 0.5, rate, rng))
        # same distribution: compare second moments (angles are axis-mixed)
        assert np.mean(half ** 2) == pytest.approx(np.mean(full ** 2), rel=0.1)

    def test_unitary_preserved(self):
        u = drift_walk(1, 2000, 1.0, 0.05, np.random.default_rng(3))[0, -1]
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("fibres, steps", [(200, 10), (7, 300)])
    def test_walk_matches_per_step_oracle(self, fibres, steps):
        path = drift_walk(fibres, steps, 0.1, 0.02, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        for walk in path:
            u = FibreUnitary()
            for k in range(steps):
                u = oracles.drift_step(u, 0.1, 0.02, rng)
                assert np.array_equal(walk[k + 1], u.matrix)

    def test_drift_test_draws_match_per_step_oracle(self):
        # the (3000, 10) and (3000, 40) walks of the mean-square test, checked
        # against per-step draws on their first and last 40 fibres; the
        # fibres between are skipped by drawing their normals in one call
        rng_walk = np.random.default_rng(1)
        rng = np.random.default_rng(1)
        for steps in (10, 40):
            ends = drift_walk(3000, steps, 0.1, 0.02, rng_walk)[:, -1]
            for block in (slice(0, 40), slice(2960, 3000)):
                if block.start:
                    rng.standard_normal((block.start - 40) * steps * 4)
                for end in ends[block]:
                    u = FibreUnitary()
                    for _ in range(steps):
                        u = oracles.drift_step(u, 0.1, 0.02, rng)
                    assert np.array_equal(end, u.matrix)


class TestStokesRotation:
    def test_matches_nine_traces(self):
        rng = np.random.default_rng(6)
        mats = np.array([random_unitary(rng).matrix for _ in range(200)])
        stacked = stokes_rotation(mats)
        assert stacked.shape == (200, 3, 3)
        for m, r in zip(mats, stacked):
            ref = oracles.stokes_rotation_traces(m)
            assert np.max(np.abs(r - ref)) <= 1e-15
            assert np.max(np.abs(stokes_rotation(FibreUnitary(m)) - ref)) <= 1e-15


class TestProbeCost:
    def test_closed_form_matches_probe_loop(self):
        rng = np.random.default_rng(8)
        fibres = stokes_rotation(np.array([random_unitary(rng).matrix for _ in range(1000)]))
        settings = rng.uniform(-np.pi, np.pi, size=(1000, 3))
        for theta, r_fibre in zip(settings, fibres):
            assert abs(_probe_cost(theta, r_fibre)
                       - oracles.probe_cost_loop(theta, r_fibre)) <= 1e-14
        # a stack of fibre rotations under one setting
        stacked = _probe_cost(settings[0], fibres)
        assert np.max(np.abs(stacked - [oracles.probe_cost_loop(settings[0], r)
                                        for r in fibres])) <= 1e-14

    def test_direct_inverse_costs_nothing(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = random_unitary(rng)
            assert _probe_cost(invert_rotation_settings(u), stokes_rotation(u)) < 1e-12


class TestRotationSu2:
    def test_stacked_matches_per_axis(self):
        rng = np.random.default_rng(5)
        # random axes of any length, plus a non-unit axis on each Stokes direction
        axes = np.vstack([rng.normal(size=(20, 3)) * rng.uniform(0.1, 5.0, size=(20, 1)),
                          [[2.0, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 7.0], [0.3, -0.5, 0.8]]])
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=len(axes))
        stacked = rotation_su2(axes, angles)
        assert stacked.shape == (len(axes), 2, 2)
        for u, axis, angle in zip(stacked, axes, angles):
            single = rotation_su2(axis, angle)
            assert np.max(np.abs(u - single)) < 1e-15
            # exp(-i angle/2 n.sigma) with n.sigma from the Pauli matrices
            n = axis / np.linalg.norm(axis)
            n_sigma = n[0] * SIGMA_Z + n[1] * SIGMA_X + n[2] * SIGMA_Y
            assert np.max(np.abs(single - expm(-0.5j * angle * n_sigma))) < 1e-14


class TestController:
    def test_identity_noop(self):
        ctrl = PolarizationController()
        settings, err, converged = polarization_control_cycle(FibreUnitary(), ctrl)
        assert converged
        assert err < 1e-6
        assert np.allclose(settings, 0.0, atol=1e-6)

    @pytest.mark.parametrize("axis", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    def test_quarter_turn_compensated(self, axis):
        u = FibreUnitary(rotation_su2(axis, np.pi / 2))
        ctrl = PolarizationController()
        _, err, converged = polarization_control_cycle(u, ctrl)
        assert converged and err < 0.01
        # the optimizer must reach the quality of the direct inverse
        direct = invert_rotation_settings(u)
        direct_err = residual_error_from_cost(_probe_cost(direct, stokes_rotation(u)))
        assert err <= direct_err + 0.01

    def test_arbitrary_unitaries_converge(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            u = random_unitary(rng)
            ctrl = PolarizationController()
            _, err, converged = polarization_control_cycle(u, ctrl)
            assert converged and err < 0.01

    def test_never_worse_than_input(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng)
        ctrl = PolarizationController(max_iterations=1)  # almost no budget
        before = ctrl.residual_error(u)
        _, err, _ = polarization_control_cycle(u, ctrl)
        assert err <= before + 1e-12

    def test_cadence_keeps_error_low(self):
        # short version of the drift/control loop; the acceptance suite runs
        #  the full 7-minute cadence for hours of simulated time
        _, errors = simulate_drift_with_control(
            drift_rate=0.01, cadence=420.0, duration=3600.0, dt=5.0, seed=9
        )
        assert np.mean(errors) < 0.01

    def test_drift_with_control_matches_per_step_loop(self):
        times, errors = simulate_drift_with_control(
            drift_rate=0.012, cadence=420.0, duration=1800.0, dt=5.0, seed=77
        )
        ref_times, ref_errors = oracles.drift_with_control_loop(
            drift_rate=0.012, cadence=420.0, duration=1800.0, dt=5.0, seed=77
        )
        assert np.array_equal(times, ref_times)
        assert np.max(np.abs(errors - ref_errors)) <= 1e-9


class TestApplyError:
    """Residual Jones matrices folded into the Bell-measurement kets."""

    @staticmethod
    def swap_input():
        ap = q.atom_photon_state().density_matrix()
        return q.tensor(ap, ap)

    def test_identity_unchanged(self):
        rho = self.swap_input()
        identity = np.eye(2, dtype=complex)
        for outcome in q.BellOutcome:
            p, out = q.swap_with_interference(rho, outcome, 1.0, (identity, identity))
            p_ref, ref = q.bell_project(rho, outcome)
            assert p == pytest.approx(p_ref, abs=1e-14)
            assert np.allclose(out.matrix, ref.matrix, atol=1e-14)

    def test_trace_preserved(self):
        # each photon of the ideal input is maximally mixed, so no residual
        # moves a herald probability off 1/4
        rng = np.random.default_rng(7)
        rho = self.swap_input()
        for xi in (0.0, 1.0):
            for outcome in q.BellOutcome:
                u1, u2 = random_unitary(rng).matrix, random_unitary(rng).matrix
                p, out = q.swap_with_interference(rho, outcome, xi, (u1, u2))
                assert p == pytest.approx(0.25, abs=1e-12)
                assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_degrades_as_sin_squared(self):
        # a rotation on one photon before the Bell measurement lands on one
        # atom of the heralded Bell state: F = cos^2(theta/2) for any axis
        rho = self.swap_input()
        identity = np.eye(2, dtype=complex)
        for theta in (0.1, 0.5, 1.2):
            for axis in ((1, 0, 0), (0, 0, 1), (0.3, -0.5, 0.8)):
                u = rotation_su2(axis, theta)
                for residuals in ((u, identity), (identity, u)):
                    for outcome in q.BellOutcome:
                        p, out = q.swap_with_interference(rho, outcome, 1.0, residuals)
                        assert p == pytest.approx(0.25, abs=1e-12)
                        assert q.fidelity(out, q.atom_bell_state(outcome)) == pytest.approx(
                            np.cos(theta / 2.0) ** 2, abs=1e-12
                        )
