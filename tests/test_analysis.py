"""Estimator and windowing tests."""

import numpy as np
import pytest

from atomlink import quantum as q
from atomlink.analysis.estimators import (
    basis_contrast,
    binomial_sigma,
    correlation_probability,
    fidelity_bound,
    fringe_fit,
    interference_contrast,
    fidelity_sigma,
    fringe_visibility_summary,
    statistical_error,
    three_basis_summary,
)
from atomlink.analysis.windows import DetectionHistogram, acceptance_filter, sbr
from atomlink.quantum import AtomBasisSetting, BellOutcome

import oracles


class TestAcceptanceFilter:
    def test_infinite_window(self):
        pairs = np.array([[1e-9, 5e-9], [50e-9, 60e-9], [100e-9, 10e-9]])
        mask, frac = acceptance_filter(pairs, window=1.0, window_offset=-0.5)
        assert frac == 1.0
        assert mask.all()

    def test_zero_window(self):
        pairs = np.array([[1e-9, 5e-9], [50e-9, 60e-9]])
        _, frac = acceptance_filter(pairs, window=0.0)
        assert frac == 0.0

    def test_partial(self):
        pairs = np.array([[10e-9, 20e-9], [10e-9, 90e-9], [80e-9, 85e-9], [30e-9, 40e-9]])
        mask, frac = acceptance_filter(pairs, window=70e-9, window_offset=0.0)
        assert list(mask) == [True, False, False, True]
        assert frac == 0.5


class TestSbr:
    def _hist(self, signal1, signal2, bg_per_bin, n_bins=208, window_bins=(0, 70)):
        edges = np.arange(n_bins + 1) * 1e-9
        c1 = np.full(n_bins, float(bg_per_bin))
        c2 = np.full(n_bins, float(bg_per_bin))
        c1[window_bins[0]:window_bins[1]] += signal1 / (window_bins[1] - window_bins[0])
        c2[window_bins[0]:window_bins[1]] += signal2 / (window_bins[1] - window_bins[0])
        return DetectionHistogram(edges, {"node1": c1, "node2": c2})

    def test_known_sbr_recovered(self):
        h = self._hist(5800.0, 6500.0, bg_per_bin=100.0 / 70.0)
        est = sbr(h, window=(0.0, 70e-9), exclusion=(0.0, 70e-9))
        assert est.per_channel["node1"] == pytest.approx(58.0, rel=1e-9)
        assert est.per_channel["node2"] == pytest.approx(65.0, rel=1e-9)
        # coincidence SBR is the harmonic combination of the node ratios
        assert est.coincidence == pytest.approx(1.0 / (1 / 58.0 + 1 / 65.0), rel=1e-9)

    def test_equal_signal_and_background(self):
        h = self._hist(100.0, 100.0, bg_per_bin=100.0 / 70.0)
        est = sbr(h, window=(0.0, 70e-9))
        assert est.per_channel["node1"] == pytest.approx(1.0, rel=1e-9)

    def test_zero_background_flagged(self):
        h = self._hist(100.0, 50.0, bg_per_bin=0.0)
        est = sbr(h, window=(0.0, 70e-9))
        assert est.unbounded
        assert np.isinf(est.coincidence)


class TestInterferenceContrast:
    def test_no_wrong_coincidences(self):
        assert interference_contrast(0, 250, 250) == 1.0

    def test_table_no_interference_proportions(self):
        assert interference_contrast(100, 100, 100) == pytest.approx(0.0)

    def test_half(self):
        assert interference_contrast(125, 250, 250) == pytest.approx(0.5)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            interference_contrast(10, 0, 0)


class TestCorrelationProbability:
    def test_fully_correlated(self):
        assert correlation_probability((50, 0, 0, 50)) == 1.0

    def test_uniform(self):
        assert correlation_probability((25, 25, 25, 25)) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            correlation_probability((0, 0, 0, 0))

    def test_sampled_singlet_anticorrelates(self):
        rng = np.random.default_rng(31)
        aa = q.atom_bell_state(BellOutcome.PSI_MINUS).density_matrix()
        probs = q.joint_outcome_probabilities(
            aa, AtomBasisSetting(0.7), AtomBasisSetting(0.7)
        )
        n = 2000
        draws = rng.multinomial(n, [probs[k] for k in ("uu", "ud", "du", "dd")])
        p_corr = correlation_probability(tuple(draws))
        assert p_corr < 3.0 * binomial_sigma(0.5, n)

    def test_label_symmetry(self):
        # swapping both nodes' outcome labels leaves P_corr unchanged
        counts = (40, 13, 27, 20)
        swapped = (20, 27, 13, 40)
        assert correlation_probability(counts) == correlation_probability(swapped)


class TestFringeFit:
    def test_exact_recovery(self):
        alphas = np.radians(np.arange(0, 180, 22.5))
        p = 0.5 - 0.5 * np.cos(2 * (alphas - np.pi / 2))  # sin^2(alpha)
        fit = fringe_fit(alphas, p)
        assert fit.visibility == pytest.approx(1.0, abs=1e-9)
        assert fit.offset == pytest.approx(0.5, abs=1e-9)

    def test_too_few_angles(self):
        with pytest.raises(ValueError):
            fringe_fit([0.0, 0.4, 0.8], [0.5, 0.6, 0.4])

    def test_phase_flip_under_label_swap(self):
        alphas = np.radians(np.arange(0, 180, 22.5))
        p = 0.5 + 0.35 * np.cos(2 * (alphas - 0.3))
        fit = fringe_fit(alphas, p)
        fit_swapped = fringe_fit(alphas, 1.0 - p)  # node-1 label swap
        delta = (fit_swapped.phase - fit.phase) % np.pi
        assert min(delta, np.pi - delta) == pytest.approx(np.pi / 2, abs=1e-6)
        assert fit_swapped.visibility == pytest.approx(fit.visibility, abs=1e-9)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(17)
        v_true, phase_true, n_per = 0.80, 0.4, 400
        alphas = np.radians(np.arange(0, 180, 22.5))
        hits = 0
        trials = 200
        for _ in range(trials):
            p_true = 0.5 + (v_true / 2) * np.cos(2 * (alphas - phase_true))
            counts = rng.binomial(n_per, p_true)
            p_hat = counts / n_per
            errs = np.sqrt(np.maximum(p_hat * (1 - p_hat), 1e-4) / n_per)
            fit = fringe_fit(alphas, p_hat, errs)
            if abs(fit.visibility - v_true) < 2 * fit.visibility_sigma:
                hits += 1
        assert hits / trials > 0.90


class TestBasisContrastAndFidelity:
    def test_contrast_mean(self):
        pairs = {k: (0.9, 0.1) for k in ("X", "Y", "Z")}
        contrasts, mean = basis_contrast(pairs)
        assert mean == pytest.approx(0.8)
        assert all(v == pytest.approx(0.8) for v in contrasts.values())

    def test_equal_pairs_zero(self):
        _, mean = basis_contrast({k: (0.4, 0.4) for k in "XYZ"})
        assert mean == 0.0

    def test_fidelity_bound_values(self):
        assert fidelity_bound(0.804) == pytest.approx(0.826, abs=5e-4)
        assert fidelity_bound(1.0) == pytest.approx(1.0)
        assert fidelity_bound(0.0) == pytest.approx(1.0 / 9.0)

    def test_fidelity_bound_range(self):
        with pytest.raises(ValueError):
            fidelity_bound(1.2)

    def test_monotone(self):
        vs = np.linspace(0, 1, 11)
        fs = [fidelity_bound(v) for v in vs]
        assert np.all(np.diff(fs) > 0)


class TestStatisticalError:
    def test_binomial_sigma(self):
        assert binomial_sigma(0.5, 100) == pytest.approx(0.05)

    def test_fidelity_propagation(self):
        assert fidelity_sigma(0.018) == pytest.approx(8.0 / 9.0 * 0.018)

    def test_counts_interface(self):
        sig = statistical_error((25, 25, 25, 25))
        assert sig == pytest.approx(0.05)
        assert statistical_error((25, 25, 25, 25), "correlator") == pytest.approx(0.1)

    def test_summed_probability_total(self):
        # density-matrix counts are summed probabilities; these totals fall
        # one rounding short of 23 and of 1 and must not truncate to 22 and 0
        counts = (9.7, 6.2, 6.7, 0.4)
        assert sum(counts) < 23.0
        p = 10.1 / 23.0
        assert statistical_error(counts) == pytest.approx(np.sqrt(p * (1 - p) / 23.0), rel=1e-12)
        assert statistical_error((0.7, 0.1, 0.1, 0.1)) == pytest.approx(0.4, rel=1e-12)

    def test_coverage(self):
        # ~68% of replicas must fall within +-1 sigma of the truth
        rng = np.random.default_rng(8)
        p_true, n, reps = 0.3, 500, 4000
        covered = 0
        for _ in range(reps):
            k = rng.binomial(n, p_true)
            p_hat = k / n
            sig = binomial_sigma(p_hat, n)
            if abs(p_hat - p_true) <= sig:
                covered += 1
        assert covered / reps == pytest.approx(0.68, abs=0.03)


class TestDatasetPipeline:
    def _ideal_dataset(self, n_per=100000):
        rng = np.random.default_rng(5)
        rows = []
        aa = q.atom_bell_state(BellOutcome.PSI_MINUS).density_matrix()
        for beta in (0.0, np.pi / 4):
            for alpha in np.radians(np.arange(0, 180, 22.5)):
                probs = q.joint_outcome_probabilities(
                    aa, AtomBasisSetting(alpha), AtomBasisSetting(beta)
                )
                draws = rng.multinomial(n_per, [probs[k] for k in ("uu", "ud", "du", "dd")])
                rows.append((alpha, beta, "equator", "PsiMinus", draws))
        return oracles.correlation_table(rows)

    def test_fringe_pipeline_on_ideal_singlet(self):
        ds = self._ideal_dataset()
        v_bar, v_sig, fits = fringe_visibility_summary(ds, "PsiMinus")
        assert v_bar == pytest.approx(1.0, abs=0.01)
        assert len(fits) == 2

    def test_extreme_setting_does_not_pin_fringe(self):
        # seven well-sampled points of a V = 0.8 fringe and one setting whose
        # two heralds both correlate: its P_corr of 1 must weigh as two heralds
        alphas = np.radians(np.arange(0, 180, 22.5))
        rows = [(a, 0.0, "equator", "PsiMinus", [5000 * p, 5000 * (1 - p), 0, 0])
                for a, p in zip(alphas, 0.5 - 0.4 * np.cos(2 * alphas))]
        rows[2] = (alphas[2], 0.0, "equator", "PsiMinus", [2, 0, 0, 0])
        v_bar, v_sig, _ = fringe_visibility_summary(oracles.correlation_table(rows), "PsiMinus")
        assert v_bar == pytest.approx(0.8, abs=1e-3)
        assert v_sig < 0.02

    def test_chsh_pipeline(self):
        from atomlink.analysis.estimators import chsh_from_dataset
        ds = self._ideal_dataset()
        s, sig = chsh_from_dataset(ds)
        assert s == pytest.approx(2 * np.sqrt(2), abs=0.02)

    def test_chsh_sampling_convergence_rate(self):
        # statistical error of S scales as 1/sqrt(N)
        from atomlink.analysis.estimators import chsh_from_dataset
        devs = {}
        for n_per in (200, 3200):
            reps = []
            rng = np.random.default_rng(99)
            aa = q.atom_bell_state(BellOutcome.PSI_MINUS).density_matrix()
            for _ in range(40):
                rows = []
                for beta in (0.0, np.pi / 4):
                    for alpha in np.radians(np.arange(0, 180, 22.5)):
                        probs = q.joint_outcome_probabilities(
                            aa, AtomBasisSetting(alpha), AtomBasisSetting(beta)
                        )
                        draws = rng.multinomial(
                            n_per, [probs[k] for k in ("uu", "ud", "du", "dd")]
                        )
                        rows.append((alpha, beta, "equator", "PsiMinus", draws))
                s, _ = chsh_from_dataset(oracles.correlation_table(rows))
                reps.append(s)
            devs[n_per] = np.std(reps)
        ratio = devs[200] / devs[3200]
        assert ratio == pytest.approx(4.0, rel=0.5)  # sqrt(3200/200) = 4

    def test_three_basis_summary_ideal(self):
        rng = np.random.default_rng(3)
        rows = []
        for outcome in ("PsiMinus", "PsiPlus"):
            aa = q.atom_bell_state(getattr(BellOutcome, "PSI_MINUS" if outcome == "PsiMinus"
                                           else "PSI_PLUS")).density_matrix()
            for plane, pairs in (("equator", [(0.0, 0.0), (np.pi / 2, 0.0),
                                              (np.pi / 4, np.pi / 4), (3 * np.pi / 4, np.pi / 4)]),
                                 ("z", [(0.0, 0.0), (np.pi / 2, 0.0)])):
                for alpha, beta in pairs:
                    probs = q.joint_outcome_probabilities(
                        aa, AtomBasisSetting(alpha, _plane(plane)),
                        AtomBasisSetting(beta, _plane(plane)),
                    )
                    draws = rng.multinomial(20000, [probs[k] for k in ("uu", "ud", "du", "dd")])
                    rows.append((alpha, beta, plane, outcome, draws))
        summary = three_basis_summary(oracles.correlation_table(rows))
        assert summary["mean_contrast"] == pytest.approx(1.0, abs=0.01)
        assert summary["fidelity"] == pytest.approx(1.0, abs=0.01)


def _plane(name):
    from atomlink.quantum import MeasurementPlane
    return MeasurementPlane.EQUATOR if name == "equator" else MeasurementPlane.Z


class TestPipelineIdentity:
    def test_exact_probabilities_match_state_expectations(self):
        # feeding the estimators exact outcome probabilities (as the
        # density-matrix mode does) must reproduce the state's correlation
        # probability to numerical precision
        aa = q.atom_bell_state(BellOutcome.PSI_MINUS).density_matrix()
        for alpha, beta in ((0.3, 0.1), (np.pi / 4, 0.0), (1.2, 0.9)):
            probs = q.joint_outcome_probabilities(
                aa, AtomBasisSetting(alpha), AtomBasisSetting(beta)
            )
            n = 1000.0
            counts = (n * probs["uu"], n * probs["ud"], n * probs["du"], n * probs["dd"])
            p_est = correlation_probability(counts)
            p_direct = probs["uu"] + probs["dd"]
            assert abs(p_est - p_direct) < 1e-10
