"""Polarization drift, automated compensation, and state-level errors."""

import numpy as np
import pytest
from scipy.linalg import expm

from atomlink.photonics import (
    FibreUnitary,
    PolarizationController,
    drift_step,
    polarization_control_cycle,
    rotation_su2,
    simulate_drift_with_control,
    stokes_rotation,
)
from atomlink.photonics.polarization import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PolarizationState,
    _probe_cost,
    invert_rotation_settings,
    residual_error_from_cost,
)
from atomlink import quantum as q


def random_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    qmat, r = np.linalg.qr(g)
    return FibreUnitary(qmat * (np.diag(r) / np.abs(np.diag(r))))


class TestDrift:
    def test_zero_rate_identity(self):
        rng = np.random.default_rng(0)
        u = FibreUnitary()
        assert drift_step(u, 1.0, 0.0, rng) is u

    def test_mean_square_angle_grows_linearly(self):
        rng = np.random.default_rng(1)
        rate = 0.02
        angles = {1.0: [], 4.0: []}
        for t_total in angles:
            n_steps = int(t_total / 0.1)
            for _ in range(3000):
                u = FibreUnitary()
                for _ in range(n_steps):
                    u = drift_step(u, 0.1, rate, rng)
                angles[t_total].append(u.rotation_angle())
        # the rotation vector performs a 3D random walk, so the mean-square
        # accumulated angle is rate^2 * t
        m1 = np.mean(np.array(angles[1.0]) ** 2)
        m4 = np.mean(np.array(angles[4.0]) ** 2)
        assert m1 == pytest.approx(rate**2 * 1.0, rel=0.1)
        assert m4 / m1 == pytest.approx(4.0, rel=0.15)

    def test_half_steps_match_full_step(self):
        rng = np.random.default_rng(2)
        rate = 0.05
        full, half = [], []
        for _ in range(4000):
            u = drift_step(FibreUnitary(), 1.0, rate, rng)
            full.append(u.rotation_angle())
            u2 = drift_step(drift_step(FibreUnitary(), 0.5, rate, rng), 0.5, rate, rng)
            half.append(u2.rotation_angle())
        # same distribution: compare second moments (angles are axis-mixed)
        assert np.mean(np.array(half) ** 2) == pytest.approx(
            np.mean(np.array(full) ** 2), rel=0.1
        )

    def test_unitary_preserved(self):
        rng = np.random.default_rng(3)
        u = FibreUnitary()
        for _ in range(2000):
            u = drift_step(u, 1.0, 0.05, rng)
        assert np.max(np.abs(u.matrix @ u.matrix.conj().T - np.eye(2))) < 1e-12


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


class TestPolarizationState:
    def test_from_jones(self):
        h = PolarizationState.from_jones([1.0, 0.0])
        assert np.allclose(h.stokes, [1.0, 0.0, 0.0])
        d = PolarizationState.from_jones(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.allclose(d.stokes, [0.0, 1.0, 0.0], atol=1e-12)
        assert d.degree_of_polarization() == pytest.approx(1.0)

    def test_norm_bound(self):
        with pytest.raises(ValueError):
            PolarizationState(np.array([1.0, 1.0, 0.0]))
