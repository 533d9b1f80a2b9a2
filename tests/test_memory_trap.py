"""Trap geometry, thermal sampling and trajectory integration."""

import numpy as np
import pytest

from atomlink.constants import K_B
from atomlink.memory.trap import TrapParams, thermal_sigmas

from oracles import (
    AtomInitialCondition,
    nu_radial,
    propagate_trajectory,
    sample_initial_conditions,
    sample_initial_conditions_batch,
    total_energy,
    trap_acceleration,
    trap_potential,
)

TRAP = TrapParams()


class TestTrapParams:
    def test_radial_frequency_formula(self):
        # sqrt(4 kB U0 / (m w0^2)) / 2pi for the published node-1 parameters
        expected = np.sqrt(4 * K_B * 2.32e-3 / (TRAP.atom_mass * 2.05e-6**2)) / (2 * np.pi)
        assert nu_radial(TRAP) == pytest.approx(expected, rel=1e-12)
        # close to the observed ~70 kHz oscillation (14.3 us period)
        assert 65e3 < nu_radial(TRAP) < 76e3

    def test_axial_much_slower(self):
        assert TRAP.omega_axial < 0.15 * TRAP.omega_radial

    def test_validation(self):
        with pytest.raises(ValueError):
            TrapParams(trap_depth_u0=-1.0)
        with pytest.raises(ValueError):
            TrapParams(beam_waist_w0=10e-9)  # waist below wavelength/10

    def test_acceleration_is_gradient_of_potential(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(scale=[0.4e-6, 0.4e-6, 4e-6], size=(25, 3))
        eps = 1e-11
        for p in pts:
            acc = trap_acceleration(TRAP, p.reshape(1, 3))[0]
            num = np.empty(3)
            for i in range(3):
                up, dn = p.copy(), p.copy()
                up[i] += eps
                dn[i] -= eps
                du = (trap_potential(TRAP, up.reshape(1, 3))[0]
                      - trap_potential(TRAP, dn.reshape(1, 3))[0])
                num[i] = -du / (2 * eps) / TRAP.atom_mass
            assert np.allclose(acc, num, rtol=2e-4, atol=1e-3)


class TestInitialConditions:
    def test_zero_temperature_limit(self):
        ic = sample_initial_conditions(TRAP, 1e-15, rng_seed=1)
        assert np.max(np.abs(ic.position)) < 1e-10   # picometres from the focus
        assert np.max(np.abs(ic.velocity)) < 1e-6

    def test_virial_energy(self):
        # 3D harmonic oscillator: <E> = 3 kB T
        rng = np.random.default_rng(123)
        temperature = 50e-6
        pos, vel = sample_initial_conditions_batch(TRAP, temperature, 100_000, rng)
        omegas = np.array([TRAP.omega_radial, TRAP.omega_radial, TRAP.omega_axial])
        kin = 0.5 * TRAP.atom_mass * np.sum(vel**2, axis=1)
        pot = 0.5 * TRAP.atom_mass * np.sum((pos * omegas) ** 2, axis=1)
        mean_e = np.mean(kin + pot)
        assert mean_e == pytest.approx(3 * K_B * temperature, rel=0.02)

    def test_position_sigmas(self):
        sig_pos, sig_v = thermal_sigmas(TRAP, 50e-6)
        assert sig_pos[0] == pytest.approx(
            np.sqrt(K_B * 50e-6 / TRAP.atom_mass) / TRAP.omega_radial, rel=1e-12
        )
        assert sig_pos[2] > 5 * sig_pos[0]  # axial cloud much longer

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            sample_initial_conditions(TRAP, 0.0, rng_seed=0)

    def test_finite_enforced(self):
        with pytest.raises(ValueError):
            AtomInitialCondition([np.nan, 0, 0], [0, 0, 0])


class TestPropagation:
    DT_MAX = 1.0 / (50.0 * nu_radial(TRAP))

    def test_energy_conservation_at_required_dt(self):
        ics = [sample_initial_conditions(TRAP, 50e-6, rng_seed=seed) for seed in (3, 42, 77)]
        for _, pos, vel, escaped in propagate_trajectory(TRAP, ics, self.DT_MAX, 200e-6):
            assert not escaped
            e = total_energy(TRAP, pos, vel)
            assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-6

    def test_atom_at_rest_stays_at_center(self):
        ic = AtomInitialCondition([0, 0, 0], [0, 0, 0])
        _, pos, vel, escaped = propagate_trajectory(TRAP, ic, self.DT_MAX, 50e-6)
        assert not escaped
        assert np.max(np.abs(pos)) < 1e-15
        assert np.max(np.abs(vel)) < 1e-15

    def test_small_amplitude_frequency(self):
        ic = AtomInitialCondition([5e-8, 0, 0], [0, 0, 0])
        times, pos, _, _ = propagate_trajectory(TRAP, ic, self.DT_MAX / 4, 200e-6)
        x = pos[:, 0]
        sign = np.signbit(x)
        crossings = times[1:][sign[1:] != sign[:-1]]
        period = 2.0 * np.mean(np.diff(crossings))
        assert 1.0 / period == pytest.approx(nu_radial(TRAP), rel=0.02)

    def _oscillation_periods(self, *amplitudes):
        ics = [AtomInitialCondition([a, 0, 0], [0, 0, 0]) for a in amplitudes]
        periods = []
        for times, pos, _, _ in propagate_trajectory(TRAP, ics, self.DT_MAX / 4, 300e-6):
            sign = np.signbit(pos[:, 0])
            crossings = times[1:][sign[1:] != sign[:-1]]
            periods.append(2.0 * np.mean(np.diff(crossings)))
        return periods

    def test_anharmonicity_softens_larger_amplitudes(self):
        large, small = self._oscillation_periods(0.6e-6, 0.05e-6)
        assert large > 1.01 * small

    def test_escape_flagged_and_truncated(self):
        ic = AtomInitialCondition([0, 0, 0], [5.0, 0, 0])  # far above trap depth
        times, pos, vel, escaped = propagate_trajectory(TRAP, ic, self.DT_MAX, 100e-6)
        assert escaped
        assert times[-1] < 100e-6

    def test_dt_precondition(self):
        ic = AtomInitialCondition([0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            propagate_trajectory(TRAP, ic, 10 * self.DT_MAX, 50e-6)
