"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS line per criterion.  The slower criteria (memory physics, fidelity
versus length, sampling self-consistency) take a few minutes combined.
"""

import time

import numpy as np
import pytest

from atomlink import quantum as q
from atomlink.analysis.estimators import (
    contrast_sigma,
    fidelity_bound,
    interference_contrast,
    three_basis_summary,
)
from atomlink.memory.channel import dephasing_channel_family
from atomlink.memory.fields import FieldEnvironment
from atomlink.memory.trap import TrapParams
from atomlink.photonics.bsm import CoincidenceClass, classify_coincidence, coincidence_distribution
from atomlink.photonics.interference import PhotonWavepacket, indistinguishability
from atomlink.photonics.polarization import (
    _probe_cost,
    compensator_settings,
    residual_error_from_cost,
    rotation_su2,
    simulate_drift_with_control,
    stokes_rotation,
)
from atomlink.protocol.model import fidelity_vs_length
from atomlink.protocol.rates import accepted_contrast, event_rate, repetition_rate
from atomlink.protocol.scenario import preset
from atomlink.protocol.sequence import run_sequence
from atomlink.quantum import BellOutcome

import oracles


def report(criterion: str, detail: str, t0: float):
    print(f"\n[ACCEPTANCE] {criterion}: PASS ({detail}; {time.time() - t0:.1f}s)")


class TestCriterion1CoincidenceTaxonomy:
    def test_taxonomy_and_distribution(self):
        t0 = time.time()
        table = {
            ("H1", "H1"): "NotDetected", ("H2", "H2"): "NotDetected",
            ("V1", "V1"): "NotDetected", ("V2", "V2"): "NotDetected",
            ("H1", "H2"): "DNull", ("V1", "V2"): "DNull",
            ("H1", "V1"): "DPlus", ("H2", "V2"): "DPlus",
            ("H1", "V2"): "DMinus", ("V1", "H2"): "DMinus",
        }
        assert len(table) == 10
        for (a, b), cls in table.items():
            assert classify_coincidence(a, b).value == cls
            assert classify_coincidence(b, a).value == cls
        none = coincidence_distribution(0.0)
        perfect = coincidence_distribution(1.0)
        expect_none = {"NotDetected": 0.25, "DNull": 0.25, "DPlus": 0.25, "DMinus": 0.25}
        expect_perfect = {"NotDetected": 0.5, "DNull": 0.0, "DPlus": 0.25, "DMinus": 0.25}
        for cls in CoincidenceClass:
            assert abs(none[cls] - expect_none[cls.value]) < 1e-12
            assert abs(perfect[cls] - expect_perfect[cls.value]) < 1e-12
        assert time.time() - t0 < 1.0
        report("criterion 1 coincidence taxonomy",
               "10 pairs + both probability columns exact", t0)


class TestCriterion2EntanglementSwapping:
    def test_ideal_swap_against_oracle(self):
        t0 = time.time()
        ap = q.atom_photon_state().density_matrix()
        rho = q.tensor(ap, ap)
        for outcome, sign in ((BellOutcome.PSI_PLUS, +1), (BellOutcome.PSI_MINUS, -1)):
            p, aa = q.bell_project(rho, outcome)
            assert abs(p - 0.25) < 1e-10
            fid = q.fidelity(aa, q.atom_bell_state(outcome))
            assert abs(fid - 1.0) < 1e-10
            p_ref, aa_ref = oracles.brute_bell_project(rho.matrix, sign)
            assert abs(p - p_ref) < 1e-12
            assert np.max(np.abs(aa.matrix - aa_ref)) < 1e-10
        assert time.time() - t0 < 1.0
        report("criterion 2 entanglement swapping",
               "p=1/4 and fidelity 1 vs 36x36 brute-force oracle", t0)


class TestCriterion3EstimatorFormulas:
    def test_fidelity_bound_and_chsh(self):
        t0 = time.time()
        assert abs(fidelity_bound(0.804) - 0.826) < 5e-4
        es = [oracles.singlet_correlator(np.radians(a), np.radians(b))
              for a, b in ((22.5, 0), (67.5, 0), (67.5, 45), (112.5, 45))]
        s_ideal = q.chsh_s(*es)
        assert abs(s_ideal - 2.0 * np.sqrt(2.0)) < 1e-9
        s_scaled = q.chsh_s(*[0.7934 * e for e in es])
        assert abs(s_scaled - 2.244) < 0.01
        assert time.time() - t0 < 1.0
        report("criterion 3 estimator formulas",
               f"F(0.804)={fidelity_bound(0.804):.4f}, S_ideal=2sqrt2, "
               f"S_scaled={s_scaled:.4f}", t0)


class TestCriterion4RateBudget:
    def test_rates(self):
        t0 = time.time()
        details = []
        for name in ("l6", "l33"):
            s = preset(name)
            quoted_rep = s.published_values["repetition_rate_hz"]
            rep = repetition_rate(s)
            assert abs(rep - quoted_rep) / quoted_rep < 0.05
            rate = event_rate(
                s,
                success_prob=s.published_values["success_probability"],
                repetition_hz=quoted_rep,
            )
            quoted_rate = s.published_values["event_rate_hz"]
            assert abs(rate - quoted_rate) / quoted_rate < 0.25
            details.append(f"{name}: rep {rep/1e3:.1f} kHz, 1/{1/rate:.0f} per s")
        assert time.time() - t0 < 1.0
        report("criterion 4 rate budget", "; ".join(details), t0)


class TestCriterion5MemoryPhysics:
    def test_memory_signatures(self):
        t0 = time.time()
        trap = TrapParams(trap_depth_u0=2.32e-3, beam_waist_w0=2.05e-6)
        env = FieldEnvironment(bias_field=75.5e-3, shot_noise_sigma=0.5e-3)
        times = np.round(np.arange(0.0, 500e-6 + 1e-9, 1e-6), 12)
        fam = dephasing_channel_family(trap, env, 50e-6, times, 10_000, seed=2026)
        freqs = np.fft.rfftfreq(len(times), 1e-6)
        win = np.hanning(len(times))

        def interp_peak(signal, f_lo=0.0, f_hi=np.inf):
            amp = np.abs(np.fft.rfft(signal * win))
            lo = np.searchsorted(freqs, f_lo)
            hi = min(np.searchsorted(freqs, f_hi), len(amp))
            i = lo + int(np.argmax(amp[lo:hi]))
            if 0 < i < len(amp) - 1:
                denom = amp[i - 1] - 2 * amp[i] + amp[i + 1]
                i = i + (0.5 * (amp[i - 1] - amp[i + 1]) / denom if denom else 0.0)
            return i * (freqs[1] - freqs[0])

        x = fam.expectation_curve("X")
        principal = interp_peak(x - x.mean())
        assert 100e3 <= principal <= 110e3

        v = fam.envelope()
        smooth = np.convolve(v, np.ones(15) / 15, mode="same")
        detrended = v / np.maximum(smooth, 1e-9) - 1.0
        detrended[:3] = detrended[-3:] = 0.0
        rephasing = interp_peak(detrended, 40e3, 120e3)
        assert 65e3 <= rephasing <= 75e3

        t_e = fam.one_over_e_time()
        assert 330e-6 * 0.8 <= t_e <= 330e-6 * 1.2

        runtime = time.time() - t0
        assert runtime < 300.0
        report("criterion 5 memory physics",
               f"principal {principal/1e3:.1f} kHz, rephasing {rephasing/1e3:.1f} kHz, "
               f"1/e {t_e*1e6:.0f} us, n=10000", t0)


class TestCriterion6FidelityVsLength:
    def test_fidelity_table(self):
        t0 = time.time()
        names = ("l6", "l11", "l23", "l33")
        tolerances = {"l6": 0.020, "l11": 0.022, "l23": 0.024, "l33": 0.030}
        rows = fidelity_vs_length([preset(n) for n in names],
                                  n_trajectories=4000, seed=1000)
        details = []
        for row in rows:
            target = preset(row["name"]).published_values["fidelity"]
            tol = tolerances[row["name"]]
            assert abs(row["fidelity"] - target) <= tol, row
            details.append(f"{row['name']}: {row['fidelity']:.3f} (target {target})")
        runtime = time.time() - t0
        assert runtime < 600.0
        report("criterion 6 fidelity vs length", "; ".join(details), t0)


class TestCriterion7SamplingSelfConsistency:
    def test_modes_agree(self):
        t0 = time.time()
        n = 4000
        tol = 3.0 / np.sqrt(n)
        details = []
        for name in ("l6", "l11", "l23", "l33"):
            s = preset(name)
            dm = run_sequence(s, schedule="three-basis", target_events=n,
                              seed=500, mode="density-matrix",
                              n_trajectories=2000)
            sp = run_sequence(s, schedule="three-basis", target_events=n,
                              seed=500, mode="sampled-clicks",
                              n_trajectories=2000)
            f_dm = three_basis_summary(dm.dataset)["fidelity"]
            f_sp = three_basis_summary(sp.dataset)["fidelity"]
            assert abs(f_dm - f_sp) < tol
            e_dm = three_basis_summary(dm.dataset)["mean_contrast"]
            e_sp = three_basis_summary(sp.dataset)["mean_contrast"]
            assert abs(e_dm - e_sp) < tol
            for mode_run in (dm, sp):
                assert 0.62 <= mode_run.summary["accepted_fraction"] <= 0.72
            details.append(f"{name}: |dF|={abs(f_dm - f_sp):.4f}, "
                           f"acc {sp.summary['accepted_fraction']:.3f}")
        runtime = time.time() - t0
        assert runtime < 300.0
        report("criterion 7 sampling self-consistency", "; ".join(details), t0)


class TestCriterion8Interference:
    def test_contrast_curve(self):
        t0 = time.time()
        w = PhotonWavepacket()
        # analytic shape: calibrated ceiling times the exponential overlap
        assert abs(indistinguishability(w, w, 0.0, xi_max=0.955) - 0.955) < 1e-12
        for delta in (0.0, 13e-9, 26.2e-9, 60e-9, 150e-9):
            d = coincidence_distribution(indistinguishability(w, w, delta, xi_max=0.955))
            c = interference_contrast(d[CoincidenceClass.D_NULL],
                                      d[CoincidenceClass.D_PLUS],
                                      d[CoincidenceClass.D_MINUS])
            expected = 0.955 * np.exp(-abs(delta) / 26.2e-9)
            assert abs(c - expected) < 1e-12

        # sampled runs at overlapped and well-separated wavepackets
        from dataclasses import replace
        s = preset("l6")
        res0 = run_sequence(s, schedule="chsh", target_events=9000, seed=81,
                            mode="sampled-clicks", n_trajectories=400)
        c0 = interference_contrast(res0.summary["n_dnull_accepted"],
                                   *(res0.summary["herald_counts"][k] *
                                     res0.summary["accepted_fraction"]
                                     for k in ("DPlus", "DMinus")))
        assert abs(c0 - 0.955) < 0.01
        far = replace(s, wavepacket_delay=150e-9)
        res1 = run_sequence(far, schedule="chsh", target_events=110_000, seed=82,
                            mode="sampled-clicks", n_trajectories=400)
        counts1 = (res1.summary["n_dnull_accepted"],
                   *(res1.summary["herald_counts"][k] * res1.summary["accepted_fraction"]
                     for k in ("DPlus", "DMinus")))
        c1 = interference_contrast(*counts1)
        # power: the model's accepted-window contrast xi (1 - w) sits 4 sigma
        # inside the bound, so a biased or undersized run cannot pass by luck
        model = accepted_contrast(far)
        sigma1 = contrast_sigma(*counts1)
        assert model + 4.0 * sigma1 < 0.03
        assert abs(c1) < 0.03
        report("criterion 8 interference",
               f"C(0)={c0:.4f}, C(150ns)={c1:.4f} +- {sigma1:.4f}, analytic shape exact", t0)


class TestCriterion9PolarizationControl:
    def test_convergence_and_cadence(self):
        t0 = time.time()
        # quarter turns and arbitrary fixed unitaries must be compensated
        # below 1% residual
        rng = np.random.default_rng(99)
        units = [rotation_su2(axis, np.pi / 2) for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for _ in range(8):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            qmat, r = np.linalg.qr(g)
            units.append(qmat * (np.diag(r) / np.abs(np.diag(r))))
        fibres = stokes_rotation(np.array(units))
        for theta, r_fibre in zip(compensator_settings(fibres), fibres):
            err = residual_error_from_cost(_probe_cost(theta, r_fibre))
            assert err < 0.01
        # 7-minute cadence against a drift random walk at the maximum rate
        max_rate = 0.012   # rad / sqrt(s)
        _, errors = simulate_drift_with_control(
            drift_rate=max_rate, cadence=420.0, duration=4 * 3600.0, dt=5.0, seed=77
        )
        mean_err = float(np.mean(errors))
        assert mean_err < 0.01
        runtime = time.time() - t0
        assert runtime < 60.0
        report("criterion 9 polarization control",
               f"11 unitaries compensated, drift {max_rate} rad/sqrt(s): "
               f"time-averaged error {mean_err:.4f}", t0)


class TestCriterion10PropertySuites:
    def test_sentinel_properties(self):
        t0 = time.time()
        # determinism of the memory channel: a same-seed repeat is identical
        env = FieldEnvironment()
        trap = TrapParams()
        times = np.round([0.0, 20e-6], 12)
        a = dephasing_channel_family(trap, env, 50e-6, times, 512, seed=3)
        b = dephasing_channel_family(trap, env, 50e-6, times, 512, seed=3)
        assert np.array_equal(a.coherences, b.coherences)

        # density-matrix validity through the composed pipeline
        res = run_sequence(preset("l6"), target_events=10, seed=1,
                           mode="density-matrix", n_trajectories=300)
        for mat in res.states:
            assert abs(np.trace(mat).real - 1.0) < 1e-9
            assert np.min(np.linalg.eigvalsh(mat)) > -1e-10

        # estimator 68% coverage
        rng = np.random.default_rng(8)
        p_true, n_draws, reps = 0.3, 500, 4000
        covered = 0
        for _ in range(reps):
            k = rng.binomial(n_draws, p_true)
            p_hat = k / n_draws
            sigma = np.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n_draws)
            covered += abs(p_hat - p_true) <= sigma
        coverage = covered / reps
        assert abs(coverage - 0.68) <= 0.03
        report("criterion 10 property suites",
               f"channel determinism, state validity, coverage {coverage:.3f} "
               "(full property tests run in the unit suite)", t0)
