"""Tests for the quantum state algebra, checked against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atomlink import quantum as q
from atomlink.quantum import (
    AtomBasisSetting,
    BellOutcome,
    DensityMatrix,
    HilbertSpec,
    MeasurementPlane,
    StateVector,
)
from atomlink.photonics.polarization import rotation_su2

import oracles

RNG = np.random.default_rng(20260809)
IDENTITY_PAIR = (np.eye(2, dtype=complex), np.eye(2, dtype=complex))


def ideal_swap_input() -> DensityMatrix:
    ap = q.atom_photon_state().density_matrix()
    return q.tensor(ap, ap)


class TestHilbertSpecAndStates:
    def test_dims_validated(self):
        with pytest.raises(ValueError):
            HilbertSpec([3, 1])
        with pytest.raises(ValueError):
            HilbertSpec([])

    def test_total_dim(self):
        assert HilbertSpec([3, 2, 3, 2]).total_dim == 36

    def test_state_vector_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(HilbertSpec([2]), np.array([1.0, 1.0]))

    def test_density_matrix_invariants_enforced(self):
        spec = HilbertSpec([2])
        with pytest.raises(ValueError):
            DensityMatrix(spec, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(spec, np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(spec, np.diag([1.5, -0.5]))  # negative eigenvalue


class TestAtomPhotonState:
    def test_zero_population_in_m0(self):
        amps = q.atom_photon_state().amplitudes.reshape(3, 2)
        assert np.allclose(amps[1, :], 0.0)

    def test_self_fidelity(self):
        s = q.atom_photon_state()
        assert q.fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_basis_change_oracle(self):
        # rewrite the z/LR form in the x/HV bases with independently built
        # rotation matrices; must reproduce (|down_x>|V> + |up_x>|H>)/sqrt2
        amps = q.atom_photon_state().amplitudes.reshape(3, 2)
        rot_atom = oracles.rotation_to_x_basis()          # rows: down_x, 0, up_x
        x_hv = rot_atom @ amps                            # photon part already in (H,V)
        expected = np.zeros((3, 2), dtype=complex)
        expected[0, 1] = 1.0 / np.sqrt(2.0)               # |down_x>|V>
        expected[2, 0] = 1.0 / np.sqrt(2.0)               # |up_x>|H>
        assert np.allclose(x_hv, expected, atol=1e-12)

    def test_z_and_x_forms_agree(self):
        z_form = q.atom_photon_state().amplitudes
        x_form = (
            np.kron(q.ATOM_DOWN_X, q.PHOTON_V) + np.kron(q.ATOM_UP_X, q.PHOTON_H)
        ) / np.sqrt(2.0)
        assert np.max(np.abs(z_form - x_form)) < 1e-12


def mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(HilbertSpec([dim]), np.eye(dim, dtype=complex) / dim)


class TestTensorAndPartialTrace:
    def test_tensor_trace_one(self):
        t = q.tensor(mixed(3), mixed(2))
        assert np.trace(t.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert t.spec.subsystem_dims == (3, 2)

    def test_tensor_of_pure_states_is_pure(self):
        a = q.atom_photon_state().density_matrix()
        b = q.atom_photon_state().density_matrix()
        m = q.tensor(a, b).matrix
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-10)

    def test_round_trip_tensor_partial_trace(self):
        rng = np.random.default_rng(7)
        a = DensityMatrix(HilbertSpec([3]), oracles.random_density_matrix(rng, 3))
        b = DensityMatrix(HilbertSpec([2]), oracles.random_density_matrix(rng, 2))
        ab = q.tensor(a, b).matrix
        back = oracles.brute_partial_trace(ab, [3, 2], keep=[0])
        assert np.allclose(back, a.matrix, atol=1e-12)
        back_b = oracles.brute_partial_trace(ab, [3, 2], keep=[1])
        assert np.allclose(back_b, b.matrix, atol=1e-12)

    def test_photon_trace_of_atom_photon_state(self):
        red = oracles.brute_partial_trace(q.atom_photon_state().density_matrix().matrix,
                                          [3, 2], keep=[0])
        # maximally mixed on the m=+-1 subspace, zero in m=0
        expected = np.diag([0.5, 0.0, 0.5]).astype(complex)
        assert np.allclose(red, expected, atol=1e-12)


class TestBellProject:
    def test_ideal_input_both_outcomes(self):
        rho = ideal_swap_input()
        for outcome, sign in ((BellOutcome.PSI_MINUS, -1), (BellOutcome.PSI_PLUS, +1)):
            p, aa = q.bell_project(rho, outcome)
            assert p == pytest.approx(0.25, abs=1e-10)
            assert q.fidelity(aa, q.atom_bell_state(outcome)) == pytest.approx(1.0, abs=1e-10)
            p_ref, aa_ref = oracles.brute_bell_project(rho.matrix, sign)
            assert p == pytest.approx(p_ref, abs=1e-12)
            assert np.allclose(aa.matrix, aa_ref, atol=1e-10)

    def test_scrambled_photon_coherence_halves_fidelity(self):
        # destroy the H/V coherence of photon 1 (keep the classical
        # atom-photon correlation); the heralded state then carries only
        # classical correlations and its Bell fidelity drops to 1/2
        ap1 = q.atom_photon_state().density_matrix().matrix.reshape(3, 2, 3, 2)
        dephased = ap1.copy()
        dephased[:, 0, :, 1] = 0.0
        dephased[:, 1, :, 0] = 0.0
        rho = q.tensor(
            DensityMatrix(HilbertSpec([3, 2]), dephased.reshape(6, 6)),
            q.atom_photon_state().density_matrix(),
        )
        p, aa = q.bell_project(rho, BellOutcome.PSI_MINUS)
        assert q.fidelity(aa, q.atom_bell_state(BellOutcome.PSI_MINUS)) == pytest.approx(
            0.5, abs=1e-10
        )
        p_ref, aa_ref = oracles.brute_bell_project(rho.matrix, -1)
        assert p == pytest.approx(p_ref, abs=1e-12)
        assert np.allclose(aa.matrix, aa_ref, atol=1e-10)

    def test_fully_depolarized_photon_quarters_fidelity(self):
        # true depolarization to I/2 also erases the classical correlation;
        # the heralded state is then maximally mixed on the qubit pair
        ap1 = q.atom_photon_state().density_matrix()
        atom1 = DensityMatrix(HilbertSpec([3]),
                              oracles.brute_partial_trace(ap1.matrix, [3, 2], keep=[0]))
        dep = q.tensor(atom1, mixed(2))
        rho = q.tensor(dep, q.atom_photon_state().density_matrix())
        _, aa = q.bell_project(rho, BellOutcome.PSI_MINUS)
        assert q.fidelity(aa, q.atom_bell_state(BellOutcome.PSI_MINUS)) == pytest.approx(
            0.25, abs=1e-10
        )

    def test_impossible_outcome_raises(self):
        # both photons H: no overlap with either Bell state
        atom = DensityMatrix(HilbertSpec([3]), np.diag([0.0, 0.0, 1.0]).astype(complex))
        ph_h = DensityMatrix(HilbertSpec([2]), np.diag([1.0, 0.0]).astype(complex))
        rho = q.tensor(q.tensor(atom, ph_h), q.tensor(atom, ph_h))
        with pytest.raises(ValueError, match="zero probability"):
            q.bell_project(rho, BellOutcome.PSI_MINUS)

    def test_outcome_probabilities_sum_with_complement(self):
        rng = np.random.default_rng(5)
        rho = DensityMatrix(HilbertSpec([3, 2, 3, 2]), oracles.random_density_matrix(rng, 36))
        p_plus, _ = q.bell_project(rho, BellOutcome.PSI_PLUS)
        p_minus, _ = q.bell_project(rho, BellOutcome.PSI_MINUS)
        rest = 1.0 - p_plus - p_minus
        assert 0.0 <= p_plus <= 1.0 and 0.0 <= p_minus <= 1.0
        assert rest >= -1e-12
        assert p_plus + p_minus + rest == pytest.approx(1.0, abs=1e-12)

    def test_swap_with_interference_endpoints(self):
        rho = ideal_swap_input()
        p1, coh = q.swap_with_interference(rho, BellOutcome.PSI_MINUS, 1.0, IDENTITY_PAIR)
        _, ref = q.bell_project(rho, BellOutcome.PSI_MINUS)
        assert np.allclose(coh.matrix, ref.matrix, atol=1e-12)
        p0, cl = q.swap_with_interference(rho, BellOutcome.PSI_MINUS, 0.0, IDENTITY_PAIR)
        assert p0 == pytest.approx(0.25, abs=1e-12)  # herald rate unchanged
        assert q.fidelity(cl, q.atom_bell_state(BellOutcome.PSI_MINUS)) == pytest.approx(
            0.5, abs=1e-12
        )

    @pytest.mark.parametrize("xi", [0.0, 0.4, 1.0])
    def test_folded_residuals_match_brute_force(self, xi):
        rng = np.random.default_rng(17)
        rho = DensityMatrix(HilbertSpec([3, 2, 3, 2]), oracles.random_density_matrix(rng, 36))
        for _ in range(2):
            u1, u2 = oracles.random_su2(rng), oracles.random_su2(rng)
            for outcome, sign in ((BellOutcome.PSI_MINUS, -1), (BellOutcome.PSI_PLUS, +1)):
                p, aa = q.swap_with_interference(rho, outcome, xi, (u1, u2))
                p_ref, aa_ref = oracles.brute_swap(rho.matrix, sign, xi, u1, u2)
                assert p == pytest.approx(p_ref, abs=1e-12)
                assert np.max(np.abs(aa.matrix - aa_ref)) < 1e-12


class TestHeraldBlocks:
    def test_blocks_match_one_shot_symmetrization(self):
        # a stack the size of a few state-pass blocks, symmetrized in one go
        n = 5000
        rng = np.random.default_rng(29)
        inputs = q.herald_input(oracles.random_density_matrix(rng, 36))
        outcomes = [list(BellOutcome)[k] for k in rng.integers(0, 2, n)]
        u1, u2 = (rotation_su2(rng.normal(size=(n, 3)), rng.uniform(0.0, 2 * np.pi, n))
                  for _ in range(2))
        pair_ops = q.interference_pair_operators(outcomes, 0.7, u1, u2)
        prob, states = q.herald(inputs, pair_ops)
        mat = (pair_ops @ inputs).reshape(-1, 9, 9) / prob[:, None, None]
        assert np.array_equal(states, (mat + mat.conj().swapaxes(1, 2)) / 2.0)

    @pytest.mark.parametrize("n", [1, 7, 512, 5000])
    def test_fold_path_is_the_planned_one(self, n):
        u = np.zeros((n, 2, 2), complex)
        kets = np.zeros((n, 3, 2, 2), complex)
        path, _ = np.einsum_path("nja,nmjl,nlb->nmab", u, kets, u, optimize=True)
        assert path == q._FOLD_PATH

    @pytest.mark.parametrize("entries, change, message", [
        ([(0, 1)], 1e-6j, "not Hermitian"),
        ([(0, 0)], 1e-6, "trace"),
        ([(0, 1), (1, 0)], 0.2, "not PSD"),
    ])
    def test_state_check_rejects_defect_in_last_partial_block(self, entries, change, message):
        # a stack of the maximally mixed state the size of a few state-pass
        # blocks, with one defect in the last state: the whole stack is read
        n = 5000
        states = np.tile(np.eye(9, dtype=complex) / 9.0, (n, 1, 1))
        q.check_density_matrices(states)
        for i, k in entries:
            states[-1, i, k] += change
        with pytest.raises(ValueError, match=message):
            q.check_density_matrices(states)

    @pytest.mark.parametrize("eigenvalue, passes", [
        (0.0, True), (0.5 * q.PSD_TOL, True), (2.0 * q.PSD_TOL, False)])
    def test_psd_check_holds_its_tolerance(self, eigenvalue, passes):
        # a state with a zero eigenvalue moved to the given one, kept at unit trace
        rng = np.random.default_rng(31)
        basis, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
        eigs = np.r_[eigenvalue, np.full(8, (1.0 - eigenvalue) / 8)]
        state = (basis * eigs) @ basis.conj().T
        state = (state + state.conj().T) / 2.0
        if passes:
            q.check_density_matrices(state[None])
        else:
            with pytest.raises(ValueError, match="not PSD"):
                q.check_density_matrices(state[None])

    @pytest.mark.parametrize("d", [3, 6, 9, 36])
    @pytest.mark.parametrize("eigenvalue", [
        0.0, 0.5 * q.PSD_TOL, -0.5 * q.PSD_TOL, 2.0 * q.PSD_TOL, -2.0 * q.PSD_TOL, -1e-9])
    def test_psd_check_accepts_what_lapack_factors(self, d, eigenvalue):
        # random Hermitian matrices, real and complex, with the smallest
        # eigenvalue placed near PSD_TOL; LAPACK's Cholesky of the same
        # shifted matrix is the oracle, one matrix at a time
        rng = np.random.default_rng(d)
        disagree = 0
        for dtype in (float, complex):
            for _ in range(20):
                g = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if dtype is complex
                                               else 0.0)
                basis, _ = np.linalg.qr(g)
                eigs = np.r_[eigenvalue, rng.uniform(0.01, 1.0, d - 1)]
                mat = (basis * eigs) @ basis.conj().T
                mat = (mat + mat.conj().T) / 2.0
                try:
                    np.linalg.cholesky(mat - q.PSD_TOL * np.eye(d))
                    factors = True
                except np.linalg.LinAlgError:
                    factors = False
                try:
                    q.check_psd(mat[None])
                    accepted = True
                except ValueError:
                    accepted = False
                disagree += accepted != factors
        assert disagree == 0

    def test_psd_check_leaves_a_real_input_alone(self):
        # a real array's .conj() is the array itself, so an in-place
        # Hermitian difference taken from it would zero the input
        mat = np.diag([1.0, -1e-3, 0.5])
        kept = mat.copy()
        with pytest.raises(ValueError, match="not PSD"):
            q.check_psd(mat[None])
        np.testing.assert_array_equal(mat, kept)


class TestAtomReadout:
    """The analyzer projectors and the joint readout rows built from them."""

    @staticmethod
    def populations(rho: np.ndarray, setting: AtomBasisSetting) -> list[float]:
        return [np.trace(p @ rho).real for p in setting.projectors()]

    def test_pure_up_x_alpha_zero(self):
        rho = np.outer(q.ATOM_UP_X, q.ATOM_UP_X.conj())
        p_up, p_down, p_zero = self.populations(rho, AtomBasisSetting(0.0))
        assert p_up == pytest.approx(1.0, abs=1e-12)
        assert p_down == pytest.approx(0.0, abs=1e-12)
        assert p_zero == pytest.approx(0.0, abs=1e-12)

    def test_half_of_singlet_is_unpolarized(self):
        aa = q.atom_bell_state(BellOutcome.PSI_MINUS).density_matrix()
        for alpha in (0.0, 0.3, np.pi / 4, 1.1):
            for beta in (0.0, 0.9):
                p = q.joint_outcome_probabilities(aa, AtomBasisSetting(alpha),
                                                  AtomBasisSetting(beta))
                assert p["uu"] + p["ud"] == pytest.approx(0.5, abs=1e-12)
                assert p["uu"] + p["du"] == pytest.approx(0.5, abs=1e-12)

    def test_projectors_resolve_identity(self):
        rng = np.random.default_rng(11)
        rho = oracles.random_density_matrix(rng, 3)
        for setting in (AtomBasisSetting(0.77), AtomBasisSetting(0.0, MeasurementPlane.Z)):
            assert np.allclose(sum(setting.projectors()), np.eye(3), atol=1e-12)
            assert sum(self.populations(rho, setting)) == pytest.approx(1.0, abs=1e-12)

    def test_singlet_correlations_match_projector_oracle(self):
        aa = q.atom_bell_state(BellOutcome.PSI_MINUS).density_matrix()
        for alpha, beta in [(0.0, 0.0), (0.4, 0.1), (np.pi / 4, 0.0), (1.2, 2.0)]:
            probs = q.joint_outcome_probabilities(
                aa, AtomBasisSetting(alpha), AtomBasisSetting(beta)
            )
            p_corr = probs["uu"] + probs["dd"]
            assert p_corr == pytest.approx(np.sin(alpha - beta) ** 2, abs=1e-12)

    def test_z_plane(self):
        rho = np.diag([0.25, 0.25, 0.5]).astype(complex)
        p_up, p_down, p_zero = self.populations(rho, AtomBasisSetting(0.0, MeasurementPlane.Z))
        assert p_up == pytest.approx(0.5)      # m=+1 population
        assert p_down == pytest.approx(0.25)   # m=-1 population
        assert p_zero == pytest.approx(0.25)
        flipped = self.populations(rho, AtomBasisSetting(np.pi / 2, MeasurementPlane.Z))
        assert flipped[0] == pytest.approx(0.25)

    def test_m0_population_reads_dark(self):
        # an atom left in m=0 gives no ionization signal: the readout counts
        # it with the dark (down) outcome
        zero = np.outer(q.ATOM_ZERO, q.ATOM_ZERO.conj())
        rho = DensityMatrix(HilbertSpec([3, 3]), np.kron(zero, zero))
        p = q.joint_outcome_probabilities(rho, AtomBasisSetting(0.3), AtomBasisSetting(0.0))
        assert p["dd"] == pytest.approx(1.0, abs=1e-12)

    def test_non_atom_pair_rejected(self):
        rho = q.atom_photon_state().density_matrix()
        with pytest.raises(ValueError):
            q.joint_outcome_probabilities(rho, AtomBasisSetting(0.0), AtomBasisSetting(0.0))


class TestChsh:
    PAPER_SETTINGS = [(22.5, 0.0), (67.5, 0.0), (67.5, 45.0), (112.5, 45.0)]

    def exact_correlators(self):
        return [
            oracles.singlet_correlator(np.radians(a), np.radians(b))
            for a, b in self.PAPER_SETTINGS
        ]

    def test_ideal_singlet_reaches_tsirelson(self):
        s = q.chsh_s(*self.exact_correlators())
        assert s == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    def test_correlators_match_analytic_oracle(self):
        aa = q.atom_bell_state(BellOutcome.PSI_MINUS).density_matrix()
        for a, b in self.PAPER_SETTINGS:
            p = q.joint_outcome_probabilities(aa, AtomBasisSetting(np.radians(a)),
                                              AtomBasisSetting(np.radians(b)))
            e = p["uu"] + p["dd"] - p["ud"] - p["du"]
            assert e == pytest.approx(
                oracles.singlet_correlator(np.radians(a), np.radians(b)), abs=1e-12
            )

    def test_visibility_scaling_reproduces_observed_value(self):
        v = 0.7934
        s = q.chsh_s(*[v * e for e in self.exact_correlators()])
        assert s == pytest.approx(2.244, abs=0.01)

    def test_deterministic_local_models_bounded(self):
        # deterministic outcomes with A(a'') = -A(a) since a'' = a + 90 deg
        for bits in range(16):
            a = 1 if bits & 1 else -1
            a2 = 1 if bits & 2 else -1
            b = 1 if bits & 4 else -1
            b2 = 1 if bits & 8 else -1
            s = q.chsh_s(a * b, a2 * b, a2 * b2, (-a) * b2)
            assert s <= 2.0 + 1e-12

    def test_global_sign_flip_invariance(self):
        es = [0.3, -0.8, 0.5, 0.9]
        assert q.chsh_s(*es) == pytest.approx(q.chsh_s(*[-e for e in es]), abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            q.chsh_s(1.2, 0.0, 0.0, 0.0)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_scaled_quantum_correlators_stay_in_range(self, v):
        s = q.chsh_s(*[v * e for e in self.exact_correlators()])
        assert 0.0 <= s <= 2.0 * np.sqrt(2.0) + 1e-9


class TestSwapIdentity:
    """Entanglement swapping on ideal inputs is exact."""

    def test_swapped_state_equals_bell_state(self):
        rho = ideal_swap_input()
        for outcome in BellOutcome:
            _, aa = q.bell_project(rho, outcome)
            target = q.atom_bell_state(outcome).density_matrix()
            assert np.max(np.abs(aa.matrix - target.matrix)) < 1e-10
