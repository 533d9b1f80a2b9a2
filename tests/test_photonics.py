"""Fibre, conversion, wavepacket and BSM coincidence tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atomlink.photonics.bsm import (
    CoincidenceClass,
    DetectorParams,
    classify_coincidence,
    coincidence_distribution,
)
from atomlink.photonics.conversion import QfcParams
from atomlink.photonics.fibre import (
    ATTENUATION_DB_PER_KM,
    FibreLink,
    link_transmission,
    propagation_delay,
)
from atomlink.photonics.interference import (
    PhotonWavepacket,
    indistinguishability,
    window_capture_probability,
)

import oracles


class TestFibre:
    def test_zero_attenuation(self):
        assert link_transmission(FibreLink(0.0, 0.0)) == 1.0

    def test_table_value(self):
        assert link_transmission(FibreLink(16.5, 4.5)) == pytest.approx(0.3548, abs=1e-4)

    def test_per_km_value(self):
        link = FibreLink(10.0, 10.0 * ATTENUATION_DB_PER_KM)
        assert link_transmission(link) == pytest.approx(0.6026, abs=1e-4)

    def test_delays(self):
        assert propagation_delay(FibreLink(0.0, 0.0)) == 0.0
        assert propagation_delay(FibreLink(16.5, 4.5)) == pytest.approx(82.5e-6, abs=1e-7)
        assert propagation_delay(FibreLink(2.6, 0.7)) == pytest.approx(13.0e-6, abs=2e-8)

    def test_transmission_composes(self):
        a = FibreLink(5.0, 1.3)
        b = FibreLink(7.0, 1.8)
        combined = FibreLink(12.0, 3.1)
        assert link_transmission(combined) == pytest.approx(
            link_transmission(a) * link_transmission(b), rel=1e-12
        )

    def test_attenuation_floor(self):
        with pytest.raises(ValueError):
            FibreLink(30.0, 1.0)  # far below 0.22 dB/km


class TestBackground:
    def test_qfc_params_validate(self):
        with pytest.raises(ValueError):
            QfcParams(external_efficiency=1.2)


class TestIndistinguishability:
    W = PhotonWavepacket()

    def test_perfect_overlap(self):
        assert indistinguishability(self.W, self.W, 0.0) == 1.0

    def test_one_decay_time_offset(self):
        assert indistinguishability(self.W, self.W, 26.2e-9) == pytest.approx(
            np.exp(-1.0), rel=1e-12
        )

    def test_quadrature_oracle(self):
        # numerical overlap integral of one-sided exponentials
        tau, delta = 26.2e-9, 40e-9
        t = np.linspace(0.0, 3e-6, 2_000_001)
        psi1 = np.exp(-t / (2 * tau)) / np.sqrt(tau)
        psi2 = np.where(t >= delta, np.exp(-(t - delta) / (2 * tau)), 0.0) / np.sqrt(tau)
        overlap_sq = np.trapezoid(psi1 * psi2, t) ** 2
        assert indistinguishability(self.W, self.W, delta) == pytest.approx(
            overlap_sq, rel=1e-4
        )

    def test_calibrated_ceiling(self):
        assert indistinguishability(self.W, self.W, 0.0, xi_max=0.955) == pytest.approx(0.955)

    def test_unequal_decay_ceiling(self):
        w2 = PhotonWavepacket(decay_time=40e-9)
        t1, t2 = 26.2e-9, 40e-9
        expected = 4 * t1 * t2 / (t1 + t2) ** 2
        assert indistinguishability(self.W, w2, 0.0) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(-200e-9, 200e-9), st.floats(-200e-9, 200e-9))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_monotone(self, d1, d2):
        w = PhotonWavepacket()
        assert indistinguishability(w, w, d1) == pytest.approx(
            indistinguishability(w, w, -d1), rel=1e-12
        )
        if abs(d1) <= abs(d2):
            assert indistinguishability(w, w, d1) >= indistinguishability(w, w, d2) - 1e-12

    def test_window_capture_against_sampling(self):
        rng = np.random.default_rng(2)
        samples = self.W.sample_emission_times(200_000, rng)
        for lo, hi in ((0.0, 70e-9), (3e-9, 73e-9), (-20e-9, 50e-9)):
            frac = np.mean((samples >= lo) & (samples <= hi))
            assert window_capture_probability(self.W, lo, hi) == pytest.approx(frac, abs=4e-3)


TABLE_PAIRS = {
    ("H1", "H1"): CoincidenceClass.NOT_DETECTED,
    ("H2", "H2"): CoincidenceClass.NOT_DETECTED,
    ("V1", "V1"): CoincidenceClass.NOT_DETECTED,
    ("V2", "V2"): CoincidenceClass.NOT_DETECTED,
    ("H1", "H2"): CoincidenceClass.D_NULL,
    ("V1", "V2"): CoincidenceClass.D_NULL,
    ("H1", "V1"): CoincidenceClass.D_PLUS,
    ("H2", "V2"): CoincidenceClass.D_PLUS,
    ("H1", "V2"): CoincidenceClass.D_MINUS,
    ("V1", "H2"): CoincidenceClass.D_MINUS,
}


def summed_by_class(xi):
    """Class probabilities summed from the per-detector-pair reference table."""
    summed = dict.fromkeys(CoincidenceClass, 0.0)
    for (a, b), p in oracles.pair_distribution(xi).items():
        summed[classify_coincidence(a, b)] += p
    return summed


class TestCoincidences:
    def test_full_taxonomy(self):
        for (a, b), expected in TABLE_PAIRS.items():
            assert classify_coincidence(a, b) is expected
            assert classify_coincidence(b, a) is expected  # order-insensitive

    def test_unknown_detector(self):
        with pytest.raises(ValueError):
            classify_coincidence("H1", "X9")

    def test_distribution_endpoints(self):
        no_interference = coincidence_distribution(0.0)
        assert no_interference == {
            CoincidenceClass.NOT_DETECTED: pytest.approx(0.25, abs=1e-12),
            CoincidenceClass.D_NULL: pytest.approx(0.25, abs=1e-12),
            CoincidenceClass.D_PLUS: pytest.approx(0.25, abs=1e-12),
            CoincidenceClass.D_MINUS: pytest.approx(0.25, abs=1e-12),
        }
        perfect = coincidence_distribution(1.0)
        assert perfect[CoincidenceClass.NOT_DETECTED] == pytest.approx(0.5, abs=1e-12)
        assert perfect[CoincidenceClass.D_NULL] == pytest.approx(0.0, abs=1e-12)
        assert perfect[CoincidenceClass.D_PLUS] == pytest.approx(0.25, abs=1e-12)
        assert perfect[CoincidenceClass.D_MINUS] == pytest.approx(0.25, abs=1e-12)

    def test_no_interference_contrast_is_zero(self):
        from atomlink.analysis.estimators import interference_contrast
        d = coincidence_distribution(0.0)
        c = interference_contrast(d[CoincidenceClass.D_NULL],
                                  d[CoincidenceClass.D_PLUS],
                                  d[CoincidenceClass.D_MINUS])
        assert c == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_distribution_normalized(self, xi):
        dist = coincidence_distribution(xi)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        pairs = oracles.pair_distribution(xi)
        assert len(pairs) == 10
        assert sum(pairs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_matches_pair_table(self):
        # summing the ten detector pairs by class; the heralding and D-null
        # classes, the ones a run draws from, agree bit for bit
        for xi in np.linspace(0.0, 1.0, 10001).tolist():
            dist = coincidence_distribution(xi)
            summed = summed_by_class(xi)
            for cls in (CoincidenceClass.D_NULL, CoincidenceClass.D_PLUS,
                        CoincidenceClass.D_MINUS):
                assert dist[cls] == summed[cls], (xi, cls)
            assert dist[CoincidenceClass.NOT_DETECTED] == pytest.approx(
                summed[CoincidenceClass.NOT_DETECTED], rel=1e-15, abs=0.0)

    def test_closed_form_at_criterion_8_delays(self):
        w = PhotonWavepacket()
        for delta in (0.0, 13e-9, 26.2e-9, 60e-9, 150e-9):
            xi = indistinguishability(w, w, delta, xi_max=0.955)
            assert coincidence_distribution(xi) == summed_by_class(xi), delta

    def test_out_of_range_xi_rejected(self):
        for xi in (-0.1, 1.1):
            with pytest.raises(ValueError):
                coincidence_distribution(xi)

    def test_contrast_equals_xi(self):
        from atomlink.analysis.estimators import interference_contrast
        for xi in (0.0, 0.3, 0.7, 0.955, 1.0):
            d = coincidence_distribution(xi)
            c = interference_contrast(d[CoincidenceClass.D_NULL],
                                      d[CoincidenceClass.D_PLUS],
                                      d[CoincidenceClass.D_MINUS])
            assert c == pytest.approx(xi, abs=1e-12)

    def test_detector_params_validate(self):
        with pytest.raises(ValueError):
            DetectorParams(efficiency=2.0)
